//! Property tests for the case tree against its definition: a sweep
//! must be observably indistinguishable from running each of its cases
//! alone.
//!
//! The engine settles shared assignment prefixes once per trie node and
//! settles only the leaf suffixes per case, so effort counters differ
//! from a case run alone — but each case's violations and value records,
//! and the state the sweep leaves installed (slack, storage, summary),
//! must equal a single-case `Verifier::run` of that case on a clone of
//! the settled verifier. These tests pin that down over seeded random
//! sweeps, and check the error paths: an unknown signal fails the run
//! before any evaluation, and a failure inside a shared prefix takes
//! down the whole run cleanly.

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, PrimKind};
use scald_rng::Rng;
use scald_verifier::{
    Case, CaseSet, MemoStats, RunOptions, RunOutcome, Verifier, VerifierBuilder, VerifyError,
};
use scald_wave::{DelayCorner, DelayRange};

/// The S-1-like generator always emits 24 control signals named
/// `CTL {i}` regardless of chip count; sweeps are built over those.
fn ctl(i: u64) -> String {
    format!("CTL {i}")
}

fn fresh_verifier(chips: usize) -> Verifier {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips,
        seed: 0x5ca1d,
    });
    Verifier::new(netlist)
}

/// A verifier whose base is settled: the state every oracle run clones.
fn settled_verifier(chips: usize) -> Verifier {
    let mut v = fresh_verifier(chips);
    v.settle_base().unwrap();
    v
}

/// A random sweep with deliberate prefix sharing: a few groups, each a
/// shared prefix of control-signal assignments fanned into several
/// suffix variants, with an occasional delay corner thrown in. Signals
/// are drawn in ascending-id order so the prefixes survive the engine's
/// canonical assignment sort.
fn random_sweep(rng: &mut Rng) -> CaseSet {
    let mut set = CaseSet::list([]);
    let groups = rng.range_u64(1, 3);
    for g in 0..groups {
        // Distinct ascending signal ids per group; groups overlap freely.
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
            // Suffix over ids strictly above the prefix block.
            let suffix_len = rng.below(3);
            for k in 0..suffix_len {
                case = case.assign(ctl(base + 3 + k), rng.bool());
            }
            set.push(case);
        }
    }
    set
}

/// The installed state's stripped slack, storage and summary sections —
/// what `state`, the listings and a report read after a run.
fn installed_state(v: &Verifier) -> String {
    let text = v.report("case-tree", &[]).stripped_json_value().to_string();
    let doc = scald_trace::json::parse(&text).expect("the document parses");
    ["slack", "storage", "summary"]
        .iter()
        .map(|key| doc.get(key).expect("report section").to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The definition: `case` run alone, as a single-case `Verifier::run` on
/// a clone of the settled verifier. Returns the run's outcome and the
/// state it installed.
fn run_alone(settled: &Verifier, case: &Case) -> (RunOutcome, String) {
    let mut v = settled.clone();
    let outcome = v.run(&RunOptions::new().case(case.clone())).unwrap();
    (outcome, installed_state(&v))
}

/// Runs `set` as one sweep on `v` and checks it against the definition: every case's violations and value records
/// equal that case run alone on `settled`, and the state the sweep
/// installs equals the last case's run alone. Returns the outcome and
/// the sweep's stripped report.
fn assert_sweep_matches_alone(
    v: &mut Verifier,
    settled: &Verifier,
    set: &CaseSet,
    what: &str,
) -> (RunOutcome, String) {
    let outcome = v.run(&RunOptions::new().cases(set.clone())).unwrap();
    assert_eq!(outcome.cases.len(), set.len(), "{what}");
    let mut last_state = String::new();
    for (i, (case, got)) in set.cases().iter().zip(&outcome.cases).enumerate() {
        let (alone, state) = run_alone(settled, case);
        let alone = alone.sole();
        assert_eq!(got.violations, alone.violations, "{what}, case {i}");
        assert_eq!(got.value_records, alone.value_records, "{what}, case {i}");
        last_state = state;
    }
    assert_eq!(installed_state(v), last_state, "{what}: installed state");
    let report = v
        .report("case-tree", &outcome.cases)
        .stripped_json_value()
        .to_string();
    (outcome, report)
}

/// The central property: over 50 seeded random sweeps, the case tree
/// matches each case run alone. The sweep verifier is reused (warm)
/// across seeds, so the property also covers returns to the base from
/// an installed case and corner-state resets.
#[test]
fn sweeps_match_each_case_run_alone_over_50_seeds() {
    let settled = settled_verifier(16);
    let mut sweeper = fresh_verifier(16);

    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let sweep = random_sweep(&mut rng);
        let what = format!("seed {seed}");
        assert_sweep_matches_alone(&mut sweeper, &settled, &sweep, &what);
    }
}

/// Delay-corner sweeps are first-class case axes: a `cross_corners`
/// sweep (which forces a reseed-everything root per corner group) must
/// match each case run alone, cold.
#[test]
fn corner_sweeps_match_each_case_run_alone() {
    let sweep = CaseSet::exhaustive([ctl(0), ctl(1)]).cross_corners(DelayCorner::ALL);
    let settled = settled_verifier(12);
    assert_sweep_matches_alone(&mut fresh_verifier(12), &settled, &sweep, "corners");
}

/// The point of the trie: shared prefixes settle once. On an exhaustive
/// sweep the run must report prefix nodes, and its total settle effort
/// (prefix + per-case) must come in strictly below the sum of the cases
/// run alone.
#[test]
fn tree_spends_less_settle_effort_on_shared_prefixes() {
    let sweep = CaseSet::exhaustive((0..5).map(ctl));
    let settled = settled_verifier(16);

    let alone_evals: u64 = sweep
        .cases()
        .iter()
        .map(|case| {
            let (outcome, _) = run_alone(&settled, case);
            assert_eq!(outcome.prefix.nodes, 0, "a case run alone has no trie");
            outcome.sole().evaluations
        })
        .sum();

    // Both sides start from the settled base, so no base settle is
    // folded into either side's per-case counters.
    let tree_out = settled
        .clone()
        .run(&RunOptions::new().cases(sweep))
        .unwrap();
    assert!(tree_out.prefix.nodes > 0, "exhaustive sweep must share");
    let tree_evals: u64 =
        tree_out.prefix.evaluations + tree_out.cases.iter().map(|c| c.evaluations).sum::<u64>();
    assert!(
        tree_evals < alone_evals,
        "tree ({tree_evals} evals) must beat the cases alone ({alone_evals} evals)"
    );
}

/// Error path: an unknown signal inside a *shared prefix* fails the
/// whole run before any evaluation — not one leaf, and not after
/// settling half the trie.
#[test]
fn unknown_signal_in_shared_prefix_fails_whole_subtree() {
    let sweep = CaseSet::list([
        Case::new()
            .assign("NO SUCH SIGNAL", true)
            .assign(ctl(0), false),
        Case::new()
            .assign("NO SUCH SIGNAL", true)
            .assign(ctl(0), true),
    ]);
    let mut v = fresh_verifier(8);
    let err = v.run(&RunOptions::new().cases(sweep)).unwrap_err();
    assert_eq!(
        err,
        VerifyError::UnknownCaseSignal {
            name: "NO SUCH SIGNAL".to_owned()
        }
    );
    assert_eq!(
        v.total_evaluations(),
        0,
        "resolution must precede all settling"
    );
}

/// The memoization ledger must balance: every leaf examines the same
/// unit universe as the case run alone (evaluated + inherited in the
/// sweep equals evaluated alone, for checkers and for storage), and the
/// sweep actually inherits most of it.
#[test]
fn memo_counters_account_for_every_checker_unit() {
    let sweep = CaseSet::exhaustive((0..5).map(ctl));
    let settled = settled_verifier(16);

    let mut alone = MemoStats::default();
    for case in sweep.cases() {
        let (outcome, _) = run_alone(&settled, case);
        let memo = outcome.memo;
        assert_eq!(memo.node_passes, 0, "a case run alone has no node pass");
        assert_eq!((memo.leaf_check_hits, memo.leaf_storage_hits), (0, 0));
        alone.leaf_check_evals += memo.leaf_check_evals;
        alone.leaf_storage_evals += memo.leaf_storage_evals;
    }
    let check_units = alone.leaf_check_evals;
    let storage_units = alone.leaf_storage_evals;
    assert!(check_units > 0 && storage_units > 0);

    let mut v = fresh_verifier(16);
    let memo = v.run(&RunOptions::new().cases(sweep)).unwrap().memo;
    assert_eq!(
        memo.leaf_check_evals + memo.leaf_check_hits,
        check_units,
        "every leaf checks the same checker-unit universe"
    );
    assert_eq!(
        memo.leaf_storage_evals + memo.leaf_storage_hits,
        storage_units,
        "every leaf accounts the same signal universe"
    );
    assert!(
        memo.leaf_check_hits > memo.leaf_check_evals,
        "shared prefixes must carry most checker work"
    );
    assert!(memo.node_passes > 0 && memo.releases > 0);
}

/// A design where asserting `GATE` cascades an inverter chain one wave
/// per stage, re-evaluating the wide collector gate on every wave: the
/// `GATE = 1` settle costs about 2×`depth` evaluations. (A cold base
/// settle cascades the same chain from `U`, about 3×`depth`.) `SEL` is
/// an unrelated input giving two such cases distinct suffixes, which
/// forces `GATE` into a shared node.
fn triangle_cone_netlist(depth: u64) -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let w = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    // Creation order fixes signal ids: GATE below SEL, so the canonical
    // assignment sort puts GATE first and the two cases share it.
    let gate = b.signal("GATE").unwrap();
    let sel = b.signal("SEL").unwrap();
    let selbar = b.signal("SELBAR").unwrap();
    b.not("SELINV", DelayRange::ZERO, w(sel), selbar);
    let mut taps = vec![w(gate)];
    let mut prev = gate;
    for i in 0..depth {
        let out = b.signal(&format!("STAGE {i}")).unwrap();
        b.not(
            format!("BUF {i}"),
            DelayRange::from_ns(0.002, 0.002),
            w(prev),
            out,
        );
        taps.push(w(out));
        prev = out;
    }
    let wide = b.signal("WIDE").unwrap();
    b.gate("COLLECT", PrimKind::And, DelayRange::ZERO, taps, wide);
    b.finish().unwrap()
}

/// Error path of the case-tree walk: when a shared prefix node's settle
/// fails (here: oscillation budget), every leaf under it fails and the
/// run returns the error.
#[test]
fn failing_prefix_node_fails_its_subtree() {
    // The cold base (about 120 evaluations) settles under the default
    // budget; a verifier with a budget of 60 warm-starts from it, so its
    // base settle costs nothing and only the GATE = 1 prefix node
    // (about 80) trips the budget.
    let netlist = triangle_cone_netlist(40);
    let mut cold = Verifier::new(netlist.clone());
    cold.settle_base().unwrap();
    let signals: Vec<_> = netlist.iter_signals().map(|(s, _)| (s, s)).collect();
    let prims: Vec<_> = netlist.iter_prims().map(|(p, _)| (p, p)).collect();
    let mut settled = VerifierBuilder::new(netlist).oscillation_budget(60).build();
    settled.warm_start(&cold, &signals, &prims, &[]);
    assert_eq!(settled.settle_base().unwrap(), (0, 0));
    let sweep = CaseSet::list([
        Case::new().assign("GATE", true).assign("SEL", false),
        Case::new().assign("GATE", true).assign("SEL", true),
    ]);

    let err = settled
        .clone()
        .run(&RunOptions::new().cases(sweep.clone()))
        .unwrap_err();
    assert!(
        matches!(err, VerifyError::Oscillation { .. }),
        "expected the prefix settle to trip the budget, got {err:?}"
    );

    // Each case run alone fails too.
    for case in sweep.cases() {
        let err = settled
            .clone()
            .run(&RunOptions::new().case(case.clone()))
            .unwrap_err();
        assert!(matches!(err, VerifyError::Oscillation { .. }), "{err:?}");
    }
}

/// `RunOutcome::try_sole` is the non-panicking accessor: `Ok` for a
/// single-case run, a `MultiCaseError` naming the case count otherwise.
#[test]
fn try_sole_rejects_multi_case_runs() {
    let mut v = fresh_verifier(8);
    let single = v.run(&RunOptions::new()).unwrap();
    assert!(single.try_sole().is_ok());

    let multi = v
        .run(&RunOptions::new().cases(CaseSet::exhaustive([ctl(0)])))
        .unwrap();
    let err = multi.try_sole().unwrap_err();
    assert_eq!(err.cases, 2);
    assert!(err.to_string().contains("2 cases"));
}
