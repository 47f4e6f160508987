//! Incremental re-verification tour: open a [`Session`] on a generated
//! S-1-like design, apply an ECO retime as a [`NetlistDelta`], and show
//! that the warm-started re-verification touches a small dirty cone yet
//! produces a report byte-identical to a cold run of the edited design.
//!
//! Run with: `cargo run --example incr_session`
//!
//! [`Session`]: scald::incr::Session
//! [`NetlistDelta`]: scald::incr::NetlistDelta

use scald::gen::s1::{s1_like_netlist, S1Options};
use scald::incr::{Case, Delta, DesignInput, NetlistDelta, Session, Verifier};
use scald::verifier::RunOptions;
use scald::wave::DelayRange;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-size synthetic design (~60 chips, a few hundred primitives).
    let (netlist, stats) = s1_like_netlist(S1Options::small());
    println!(
        "design: {} chips, {} primitives, {} signals",
        stats.chips, stats.prims, stats.signals
    );

    let mut session = Session::open(
        DesignInput::netlist(netlist, vec![Case::new()]),
        "incr example",
    )?;
    let cold = session.outcome().stats;
    println!(
        "cold open: {} events, {} violation(s)",
        cold.events,
        session.report().total_violations()
    );

    // The ECO: retime one datapath primitive.
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
    println!("eco: retime {target} to 2.0:6.5 ns");

    let warm = session.apply(Delta::Netlist(delta.clone()))?;
    println!(
        "warm apply: {} events, seeded {}/{} prims, cone {:.1}% of the design",
        warm.events,
        warm.seeded_prims,
        warm.total_prims,
        100.0 * warm.cone_fraction()
    );
    assert!(warm.warm, "a structural delta re-verifies warm");

    // The guarantee the whole subsystem rests on: the warm report equals
    // a cold verification of the edited design, byte for byte, once the
    // effort counters (events, wall time) are stripped.
    let (base, _) = s1_like_netlist(S1Options::small());
    let edited = delta.apply(&base)?;
    let mut cold_verifier = Verifier::new(edited);
    let results = cold_verifier.run(&RunOptions::new())?.cases;
    let cold_report = cold_verifier.report("incr example", &results);
    assert_eq!(
        session.report().strip_effort().to_json(),
        cold_report.strip_effort().to_json(),
        "warm-started report must be byte-identical to the cold run"
    );
    println!(
        "byte-identical to the cold run ({} vs {} events of settling work)",
        warm.events, cold.events
    );
    Ok(())
}
