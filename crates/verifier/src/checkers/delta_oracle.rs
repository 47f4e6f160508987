//! The walk-everything memoized checker pass, kept as the oracle for the
//! delta pass. The walk visits every checker primitive and every signal
//! of the design and asks, per unit, whether the parent's verdict can be
//! inherited; the delta pass starts from the dirty signals instead. In
//! this crate's unit-test build every delta pass also runs the walk and
//! must agree with it exactly: the violations, the three firing sets,
//! and the evaluated and inherited counts. The tests below drive seeded
//! case-tree runs over corpora chosen so that every firing set is
//! non-empty at some parent.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};

use scald_netlist::{Netlist, PrimId, PrimKind, Primitive, SignalId};
use scald_wave::DelayCorner;

use super::{
    check_checker_prim, check_hazard_gate, check_signal_assertion, has_assertion_unit, CheckMemo,
    CheckPass,
};
use crate::report::Violation;
use crate::view::StateView;

/// The walk's result: what a [`CheckPass`] carries, minus the static
/// units the walk never needed.
struct WalkPass {
    violations: Vec<Violation>,
    violating_prims: BTreeSet<PrimId>,
    violating_hazards: BTreeSet<(PrimId, usize)>,
    violating_asserts: BTreeSet<SignalId>,
    evaluated: u64,
    inherited: u64,
}

fn walk_inputs_clean(prim: &Primitive, dirty: &HashSet<usize>) -> bool {
    prim.input_signals().all(|s| !dirty.contains(&s.index()))
}

/// The memoized pass as it walked the design: every checker primitive,
/// every hazard unit and every signal, each inherited when the parent
/// found it clean and none of its inputs is dirty.
fn run_checks_walk<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
    m: &CheckMemo<'_>,
    dirty: &HashSet<usize>,
) -> WalkPass {
    let mut out = Vec::new();
    let mut violating_prims = BTreeSet::new();
    let mut violating_hazards = BTreeSet::new();
    let mut violating_asserts = BTreeSet::new();
    let mut evaluated = 0u64;
    let mut inherited = 0u64;

    for (pid, prim) in netlist.iter_prims() {
        if !matches!(
            prim.kind,
            PrimKind::SetupHold { .. }
                | PrimKind::SetupRiseHoldFall { .. }
                | PrimKind::MinPulseWidth { .. }
        ) {
            continue;
        }
        if !m.cache.violating_prims.contains(&pid) && walk_inputs_clean(prim, dirty) {
            inherited += 1;
            continue;
        }
        evaluated += 1;
        let before = out.len();
        check_checker_prim(netlist, states, prim, corner, &mut out);
        if out.len() > before {
            violating_prims.insert(pid);
        }
    }

    for &(pid, clock_idx) in hazards {
        if m.hazards.contains(&(pid, clock_idx))
            && !m.cache.violating_hazards.contains(&(pid, clock_idx))
            && walk_inputs_clean(netlist.prim(pid), dirty)
        {
            inherited += 1;
            continue;
        }
        evaluated += 1;
        let before = out.len();
        check_hazard_gate(netlist, states, pid, clock_idx, corner, &mut out);
        if out.len() > before {
            violating_hazards.insert((pid, clock_idx));
        }
    }

    for (sid, sig) in netlist.iter_signals() {
        if !has_assertion_unit(netlist, sid, sig) {
            continue;
        }
        if !m.cache.violating_asserts.contains(&sid) && !dirty.contains(&sid.index()) {
            inherited += 1;
            continue;
        }
        evaluated += 1;
        let before = out.len();
        check_signal_assertion(netlist, states, sid, sig, &mut out);
        if out.len() > before {
            violating_asserts.insert(sid);
        }
    }

    WalkPass {
        violations: out,
        violating_prims,
        violating_hazards,
        violating_asserts,
        evaluated,
        inherited,
    }
}

/// What one thread's delta passes covered while recording.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// Delta passes checked against the walk.
    passes: u64,
    /// Passes whose parent had firing checker primitives, hazard units
    /// and assertion units, respectively.
    firing_prims: u64,
    firing_hazards: u64,
    firing_asserts: u64,
}

thread_local! {
    static COVERAGE: RefCell<Option<Coverage>> = const { RefCell::new(None) };
}

/// Runs the walk for the same inputs as `pass` and asserts that both
/// agree; records coverage when the calling thread is recording.
pub(super) fn cross_check<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
    memo: &CheckMemo<'_>,
    pass: &CheckPass,
) {
    assert!(
        memo.dirty.windows(2).all(|w| w[0] < w[1]),
        "dirty signals must be ascending and distinct"
    );
    let dirty: HashSet<usize> = memo.dirty.iter().copied().collect();
    let walk = run_checks_walk(netlist, states, hazards, corner, memo, &dirty);
    assert_eq!(pass.violations, walk.violations, "violations");
    assert_eq!(pass.cache.violating_prims, walk.violating_prims);
    assert_eq!(pass.cache.violating_hazards, walk.violating_hazards);
    assert_eq!(pass.cache.violating_asserts, walk.violating_asserts);
    assert_eq!(
        (pass.evaluated, pass.inherited),
        (walk.evaluated, walk.inherited),
        "(evaluated, inherited)"
    );
    assert!(
        std::sync::Arc::ptr_eq(&pass.cache.units, &memo.cache.units),
        "static units are shared down the chain"
    );
    COVERAGE.with(|c| {
        if let Some(cov) = c.borrow_mut().as_mut() {
            cov.passes += 1;
            cov.firing_prims += u64::from(!memo.cache.violating_prims.is_empty());
            cov.firing_hazards += u64::from(!memo.cache.violating_hazards.is_empty());
            cov.firing_asserts += u64::from(!memo.cache.violating_asserts.is_empty());
        }
    });
}

mod tests {
    use super::*;
    use crate::{Case, CaseSet, RunOptions, Verifier};
    use scald_gen::figures::hazard_circuit;
    use scald_gen::s1::{s1_like_netlist, S1Options};
    use scald_gen::sweep::{sweep_netlist, SweepOptions};
    use scald_netlist::{Config, Conn, NetlistBuilder};
    use scald_rng::Rng;
    use scald_wave::{DelayRange, Time};

    /// Runs `set` on the case tree (every delta pass is cross-checked
    /// inside the engine) and returns what the run covered: every unit
    /// runs on this thread, so its passes are the ones recorded.
    fn tree_runs(netlist: &Netlist, set: &CaseSet) -> Coverage {
        COVERAGE.with(|c| *c.borrow_mut() = Some(Coverage::default()));
        Verifier::new(netlist.clone())
            .run(&RunOptions::new().cases(set.clone()))
            .expect("corpus designs settle");
        COVERAGE
            .with(|c| c.borrow_mut().take())
            .expect("recording was on")
    }

    fn add(total: &mut Coverage, c: Coverage) {
        total.passes += c.passes;
        total.firing_prims += c.firing_prims;
        total.firing_hazards += c.firing_hazards;
        total.firing_asserts += c.firing_asserts;
    }

    /// The S-1 sweeps of `tests/case_tree.rs`: a few groups of shared
    /// control-signal prefixes fanned into suffix variants, with an
    /// occasional delay corner.
    fn s1_sweep(rng: &mut Rng) -> CaseSet {
        let ctl = |i: u64| format!("CTL {i}");
        let mut set = CaseSet::list([]);
        let groups = rng.range_u64(1, 3);
        for g in 0..groups {
            let base = g * 8 + rng.below(3);
            let prefix: Vec<(String, bool)> = (0..rng.range_u64(1, 3))
                .map(|k| (ctl(base + k), rng.bool()))
                .collect();
            let corner = if rng.bool_with(0.25) {
                *rng.choose(&[DelayCorner::Min, DelayCorner::Typ, DelayCorner::Max])
            } else {
                DelayCorner::Worst
            };
            for _ in 0..rng.range_u64(2, 4) {
                let mut case = Case::new().corner(corner);
                for (name, v) in &prefix {
                    case = case.assign(name.clone(), *v);
                }
                for k in 0..rng.below(3) {
                    case = case.assign(ctl(base + 3 + k), rng.bool());
                }
                set.push(case);
            }
        }
        set
    }

    /// A design whose firing sets change with the case: `SEL` picks a
    /// data input that is changing or stable under the stable assertion
    /// on `Y` and the set-up check on `Y`; `SEL2` does the same for the
    /// control input of an `&H` gate, so its hazard fires in some cases
    /// and not in others.
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

    /// The tentpole's oracle property: every node and leaf delta pass of
    /// seeded case-tree runs equals the walk, and the corpus keeps every
    /// firing set non-empty at some parent.
    #[test]
    fn delta_passes_match_the_walk_oracle() {
        let mut total = Coverage::default();

        // Seeded sweep designs: clean, and a mode bit's cone reaches no
        // checker, so these passes inherit every unit.
        for seed in 0..4u64 {
            let (netlist, stats) = sweep_netlist(&SweepOptions {
                mode_bits: 4,
                master_slices: 12,
                block_slices: 2,
                seed,
            });
            let c = tree_runs(&netlist, &CaseSet::exhaustive(stats.mode_bits));
            assert!(c.passes > 0, "sweep seed {seed}: {c:?}");
            add(&mut total, c);
        }

        // The S-1 sweeps, with `&H` hazard units throughout.
        let (s1, _) = s1_like_netlist(S1Options {
            chips: 16,
            seed: 0x5ca1d,
        });
        for seed in 0..12u64 {
            let set = s1_sweep(&mut Rng::seed_from_u64(seed));
            add(&mut total, tree_runs(&s1, &set));
        }

        // Delay corners: corner roots run the full pass and feed their
        // children delta passes.
        let corners = CaseSet::exhaustive(["CTL 0", "CTL 1"]).cross_corners(DelayCorner::ALL);
        let c = tree_runs(&s1, &corners);
        assert!(c.passes > 0, "corner sweep: {c:?}");
        add(&mut total, c);

        // The thesis' register file: firing checker primitives, and an
        // `&H` gate whose control input the `WRITE` cases change.
        let netlist = scald_hdl::compile(include_str!("../../../../designs/register_file.scald"))
            .expect("shipped design compiles")
            .netlist;
        let set = CaseSet::exhaustive(["BYPASS", "WRITE", "W DATA"]);
        let c = tree_runs(&netlist, &set);
        assert!(c.firing_prims > 0, "register file: {c:?}");
        add(&mut total, c);

        // Fig 1-5 with its `&A` directive: a hazard firing at the base.
        let netlist = hazard_circuit(true);
        let c = tree_runs(&netlist, &CaseSet::exhaustive(["D IN", "ENABLE"]));
        assert!(c.firing_hazards > 0, "hazard circuit: {c:?}");
        add(&mut total, c);

        // Failing stable assertions on generated signals, and hazards
        // and checkers that fire in some cases only.
        let netlist = selectable_violations();
        for set in [
            CaseSet::exhaustive(["SEL", "SEL2", "SEL3"]),
            CaseSet::exhaustive(["SEL3", "SEL", "SEL2"]).cross_corners(DelayCorner::ALL),
        ] {
            let c = tree_runs(&netlist, &set);
            assert!(
                c.firing_prims > 0 && c.firing_hazards > 0 && c.firing_asserts > 0,
                "selectable violations: {c:?}"
            );
            add(&mut total, c);
        }

        assert!(
            total.firing_prims > 0 && total.firing_hazards > 0 && total.firing_asserts > 0,
            "every firing set must be non-empty at some parent: {total:?}"
        );
    }
}
