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
//! (`--chips N` to override the default 400-chip design, `--out PATH`
//! to redirect the JSON.)
//!
//! [`Session`]: scald_incr::Session
//! [`Session::apply`]: scald_incr::Session::apply

use scald_bench::harness::{flags, logic_prim, nanos, obj, s1_netlist, write_record};
use scald_incr::{Case, Delta, DesignInput, NetlistDelta, Session};
use scald_trace::json::Json;
use scald_wave::DelayRange;

fn main() {
    let (chips, out) = flags(|f| {
        (
            f.get("--chips", 400),
            f.get("--out", "BENCH_incr.json".to_owned()),
        )
    });
    let (netlist, stats) = s1_netlist(chips);
    println!(
        "design: {} chips, {} primitives, {} signals",
        stats.chips, stats.prims, stats.signals
    );

    let (target, _) = logic_prim(&netlist);
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

    write_record(
        &out,
        "scald-bench-incr",
        1,
        [
            ("chips", Json::from(chips as u64)),
            ("retimed_prim", Json::str(target)),
            (
                "full",
                obj([
                    ("events", Json::from(full.events)),
                    ("wall_ns", Json::from(nanos(full.wall))),
                    ("prims", Json::from(full.total_prims as u64)),
                ]),
            ),
            (
                "warm_retime",
                obj([
                    ("events", Json::from(warm.events)),
                    ("wall_ns", Json::from(nanos(warm.wall))),
                    ("seeded_prims", Json::from(warm.seeded_prims as u64)),
                    ("cone_prims", Json::from(warm.cone_prims as u64)),
                    ("cone_fraction", Json::from(warm.cone_fraction())),
                    ("event_ratio", Json::from(ratio)),
                ]),
            ),
        ],
    );

    // The subsystem's headline claim: a one-primitive ECO re-verifies
    // with a small fraction of the full run's settling work.
    assert!(
        ratio < 0.10,
        "warm retime used {:.2}% of the full run's events (budget: 10%)",
        100.0 * ratio
    );
}
