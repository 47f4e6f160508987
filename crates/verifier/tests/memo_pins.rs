//! Pins the case tree's memoization and prefix-settle counters
//! (`MemoStats`, `PrefixStats`). The constants
//! were captured from the walk-everything checker pass that preceded
//! the delta pass; a delta pass that found a different unit set, or
//! counted its inherited units differently, would move them.
//!
//! Workloads: the `case_sched` bench design (`scald_gen::sweep` at 1,500
//! master and 10 block slices) at its first 10 and 100 exhaustive cases
//! on a settled verifier, as the bench runs them; and two sweeps with
//! violations — the thesis' register file, and a small design whose
//! checker, hazard and assertion verdicts change from case to case,
//! crossed with a delay corner. The register file also runs as one
//! case, which computes no node pass, and as a list of cases sharing no
//! prefix, which check against the base pass.

use scald_gen::sweep::{sweep_netlist, SweepOptions};
use scald_netlist::{Config, Conn, Netlist, NetlistBuilder};
use scald_verifier::{Case, CaseSet, DelayCorner, MemoStats, PrefixStats, RunOptions, Verifier};
use scald_wave::{DelayRange, Time};

const fn memo(
    node: (u64, u64, u64),
    leaf_check: (u64, u64),
    leaf_storage: (u64, u64),
    releases: u64,
) -> MemoStats {
    MemoStats {
        node_passes: node.0,
        node_check_evals: node.1,
        node_check_hits: node.2,
        leaf_check_evals: leaf_check.0,
        leaf_check_hits: leaf_check.1,
        leaf_storage_evals: leaf_storage.0,
        leaf_storage_hits: leaf_storage.1,
        releases,
    }
}

const fn prefix(nodes: usize, events: u64, evaluations: u64) -> PrefixStats {
    PrefixStats {
        nodes,
        events,
        evaluations,
    }
}

/// Runs `set` on a copy of `base` and asserts the pinned counters and
/// the total violation count.
fn assert_pinned(base: &Verifier, set: &CaseSet, pins: (MemoStats, PrefixStats, usize)) {
    let out = base
        .clone()
        .run(&RunOptions::new().cases(set.clone()))
        .expect("pinned sweeps settle");
    let violations: usize = out.cases.iter().map(|c| c.violations.len()).sum();
    assert_eq!(
        (out.memo, out.prefix, violations),
        pins,
        "{} cases",
        set.len()
    );
}

#[test]
fn case_sched_counters_are_pinned_at_10_and_100_cases() {
    let (netlist, stats) = sweep_netlist(&SweepOptions {
        master_slices: 1500,
        block_slices: 10,
        ..SweepOptions::default()
    });
    let full = CaseSet::exhaustive(stats.mode_bits.iter().cloned());
    let mut base = Verifier::new(netlist);
    base.run(&RunOptions::new()).expect("base settles");
    let first = |n: usize| CaseSet::list(full.cases()[..n].iter().cloned());

    assert_pinned(
        &base,
        &first(10),
        (
            memo((10, 1590, 14310), (0, 15900), (0, 47810), 18),
            prefix(9, 0, 1650),
            0,
        ),
    );
    assert_pinned(
        &base,
        &first(100),
        (
            memo((100, 1590, 157_410), (0, 159_000), (0, 478_100), 198),
            prefix(99, 0, 2530),
            0,
        ),
    );
}

#[test]
fn register_file_sweep_counters_are_pinned() {
    assert_pinned(
        &Verifier::new(register_file()),
        &CaseSet::exhaustive(["BYPASS", "WRITE", "W DATA"]),
        (
            memo((7, 23, 12), (16, 24), (8, 120), 12),
            prefix(6, 0, 6),
            16,
        ),
    );
}

fn register_file() -> Netlist {
    scald_hdl::compile(include_str!("../../../designs/register_file.scald"))
        .expect("shipped design compiles")
        .netlist
}

/// A lone leaf (one case at the worst-case corner) checks its own state
/// in full and computes no base pass: no node passes, and every checker
/// unit and every signal counted as a leaf evaluation.
#[test]
fn one_case_run_checks_in_full_without_a_node_pass() {
    assert_pinned(
        &Verifier::new(register_file()),
        &CaseSet::list([]),
        (memo((0, 0, 0), (5, 0), (16, 0), 0), prefix(0, 0, 0), 3),
    );
}

/// Cases that share no prefix root directly on the settled base: one
/// base pass, then each leaf a delta pass over its own cone.
#[test]
fn cases_sharing_no_prefix_check_against_the_base_pass() {
    let set = CaseSet::list([
        Case::new().assign("BYPASS", true),
        Case::new().assign("WRITE", false),
        Case::new().assign("W DATA", true),
    ]);
    assert_pinned(
        &Verifier::new(register_file()),
        &set,
        (memo((1, 5, 0), (8, 7), (2, 46), 0), prefix(0, 0, 0), 7),
    );
}

/// `SEL` picks a changing or a stable input for `Y` (a stable assertion
/// and a set-up check read it), `SEL2` does the same for the control
/// input of an `&H` gate, and `SEL3` gates `Y` into a second checked
/// signal: violations range from none to six per case.
fn selectable_violations() -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let ns = Time::from_ns;
    let sel = b.signal("SEL").unwrap();
    let sel2 = b.signal("SEL2").unwrap();
    let sel3 = b.signal("SEL3").unwrap();
    let late = b.signal("LATE .S0-4").unwrap();
    let early = b.signal("EARLY .S4-8").unwrap();
    let steady = b.signal("STEADY .S0-8").unwrap();
    let ck = b.signal("CK .P1-3").unwrap();
    let y = b.signal("Y .S0-4").unwrap();
    let en = b.signal("EN").unwrap();
    let g = b.signal("G").unwrap();
    let z = b.signal("Z .S0-8").unwrap();
    let d = DelayRange::from_ns(1.0, 2.0);
    b.mux2("YMUX", d, sel, late, steady, y);
    b.mux2("ENMUX", d, sel2, early, steady, en);
    b.and2("GATE", d, Conn::new(ck).with_directive("H"), en, g);
    b.and2("ZAND", d, sel3, y, z);
    b.setup_hold("YCHK", ns(2.5), ns(1.5), y, ck);
    b.setup_hold("ZCHK", ns(2.5), ns(1.5), z, ck);
    b.finish().unwrap()
}

#[test]
fn selectable_violation_sweep_counters_are_pinned() {
    let set = CaseSet::exhaustive(["SEL", "SEL2", "SEL3"])
        .cross_corners([DelayCorner::Worst, DelayCorner::Max]);
    assert_pinned(
        &Verifier::new(selectable_violations()),
        &set,
        (
            memo((14, 54, 16), (48, 32), (38, 138), 26),
            prefix(13, 12, 33),
            36,
        ),
    );
}
