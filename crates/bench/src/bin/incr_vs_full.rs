//! Incremental vs full re-verification on the S-1-like design: how much
//! settling work does a warm-started [`Session`] save on a
//! single-primitive ECO retime?
//!
//! Measures one cold open (the full fixed-point settle) and one warm
//! [`Session::apply`] of a retime delta, then records the event counts,
//! wall clocks and dirty-cone size to `BENCH_incr.json` in the current
//! directory.
//!
//! Usage: `cargo run -p scald-bench --bin incr_vs_full --release`
//! (`--chips N` to override the default 400-chip design).
//!
//! [`Session`]: scald_incr::Session
//! [`Session::apply`]: scald_incr::Session::apply

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_incr::{Case, Delta, DesignInput, NetlistDelta, Session};
use scald_trace::json::Json;
use scald_wave::DelayRange;

fn chips_arg() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--chips" {
            if let Some(n) = args.next().and_then(|s| s.parse().ok()) {
                return n;
            }
        }
    }
    400
}

fn main() {
    let chips = chips_arg();
    let (netlist, stats) = s1_like_netlist(S1Options {
        chips,
        ..S1Options::default()
    });
    println!(
        "design: {} chips, {} primitives, {} signals",
        stats.chips, stats.prims, stats.signals
    );

    let mut session = Session::open(
        DesignInput::netlist(netlist, vec![Case::new()]),
        "incr_vs_full",
    )
    .expect("settles");
    let full = session.outcome().stats;
    println!(
        "full verification:  {:>8} events in {:.2?}",
        full.events, full.wall
    );

    let target = session
        .netlist()
        .prims()
        .iter()
        .find(|p| p.name.ends_with("/LOGIC"))
        .expect("generated design has datapath slices")
        .name
        .clone();
    let mut delta = NetlistDelta::new();
    delta.retime(target.clone(), DelayRange::from_ns(2.0, 6.5));
    let warm = session
        .apply(Delta::Netlist(delta))
        .expect("retime applies");
    let ratio = warm.events as f64 / full.events as f64;
    println!(
        "warm retime ({target}): {:>4} events in {:.2?} — {:.2}% of the full run, \
         cone {}/{} prims ({:.1}%)",
        warm.events,
        warm.wall,
        100.0 * ratio,
        warm.cone_prims,
        warm.total_prims,
        100.0 * warm.cone_fraction()
    );

    let wall_ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let doc = Json::Obj(vec![
        ("schema".to_owned(), Json::str("scald-bench-incr")),
        ("version".to_owned(), Json::from(1u64)),
        ("chips".to_owned(), Json::from(chips as u64)),
        ("retimed_prim".to_owned(), Json::str(target)),
        (
            "full".to_owned(),
            Json::Obj(vec![
                ("events".to_owned(), Json::from(full.events)),
                ("wall_ns".to_owned(), Json::from(wall_ns(full.wall))),
                ("prims".to_owned(), Json::from(full.total_prims as u64)),
            ]),
        ),
        (
            "warm_retime".to_owned(),
            Json::Obj(vec![
                ("events".to_owned(), Json::from(warm.events)),
                ("wall_ns".to_owned(), Json::from(wall_ns(warm.wall))),
                (
                    "seeded_prims".to_owned(),
                    Json::from(warm.seeded_prims as u64),
                ),
                ("cone_prims".to_owned(), Json::from(warm.cone_prims as u64)),
                ("cone_fraction".to_owned(), Json::from(warm.cone_fraction())),
                ("event_ratio".to_owned(), Json::from(ratio)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_incr.json", doc.to_string_pretty() + "\n")
        .expect("write BENCH_incr.json");
    println!("recorded BENCH_incr.json");

    // The subsystem's headline claim: a one-primitive ECO re-verifies
    // with a small fraction of the full run's settling work.
    assert!(
        ratio < 0.10,
        "warm retime used {:.2}% of the full run's events (budget: 10%)",
        100.0 * ratio
    );
}
