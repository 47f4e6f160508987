//! Property tests for the level-synchronized (wave) settle engine: for
//! any worker budget, a run must produce a byte-identical report and —
//! after partitioning worker-interleaved streams by case — an identical
//! ordered trace stream, including when the oscillation budget trips in
//! the middle of a wave. A settle runs on one thread whatever the
//! budget, which sizes only the case pool; these tests pin that the
//! settle's trajectory (events, evaluations, trace order) stays the same
//! when the budget and the case workers beside it change.
//! (`parallel_cases.rs` covers the case fan-out; this file covers
//! settling *inside* one case.)

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::{Config, Conn, Netlist, NetlistBuilder};
use scald_rng::Rng;
use scald_trace::{json, TimelineSink, TraceEvent, TraceSink};
use scald_verifier::{
    Case, CaseSet, CheckpointPolicy, Report, RunOptions, Verifier, VerifierBuilder, VerifyError,
};
use scald_wave::DelayRange;

/// A sink that keeps every event as its JSONL line, in arrival order.
#[derive(Default)]
struct CollectSink(Mutex<Vec<String>>);

impl TraceSink for CollectSink {
    fn record(&self, event: &TraceEvent<'_>) {
        self.0
            .lock()
            .expect("collect sink poisoned")
            .push(event.to_json().to_string());
    }
}

/// Partitions a trace stream into per-case ordered sub-streams and
/// normalizes away the only legitimately nondeterministic fields
/// (`wall_nanos`) and the only configuration-dependent one (`jobs`).
///
/// Within one settle loop all events come from the thread running it,
/// in commit order, so each partition must match byte-for-byte across
/// worker budgets; only the interleaving *between* case workers (and the
/// position of the global run_start/run_end markers) may differ.
fn partition(lines: &[String]) -> BTreeMap<String, Vec<String>> {
    let mut parts: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in lines {
        let mut v = json::parse(line).expect("sink lines are valid JSON");
        let key = match v.get("case") {
            None => "global".to_owned(),
            Some(json::Json::Null) => "base".to_owned(),
            Some(c) => format!("case {c}"),
        };
        if let json::Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "wall_nanos" && k != "jobs");
        }
        parts.entry(key).or_default().push(v.to_string());
    }
    parts
}

/// Report JSON with the two fields that may differ across worker budgets
/// (pool size, wall clock) cleared. Events and evaluations are kept:
/// the wave engine's *trajectory*, not just its fixed point, must be
/// budget-independent.
fn canonical_report(report: &mut Report) -> String {
    report.engine.jobs = 0;
    report.engine.verify_wall = None;
    report.to_json().to_string()
}

/// One seeded verification: run `cases` under `jobs` workers with a
/// collecting sink; return the canonical report and partitioned trace.
fn run_traced(
    netlist: &Netlist,
    cases: &[Case],
    jobs: usize,
) -> (String, BTreeMap<String, Vec<String>>) {
    let sink = Arc::new(CollectSink::default());
    let mut v = VerifierBuilder::new(netlist.clone())
        .trace(sink.clone())
        .build();
    let outcome = v
        .run(
            &RunOptions::new()
                .cases(CaseSet::list(cases.iter().cloned()))
                .jobs(jobs),
        )
        .expect("seeded designs settle");
    let mut report = v.report("parallel_settle", &outcome.cases);
    let lines = sink.0.lock().expect("collect sink poisoned").clone();
    (canonical_report(&mut report), partition(&lines))
}

/// The headline property, over 50+ seeded designs: report JSON and
/// per-case trace streams are byte-identical for 1, 2 and N workers.
#[test]
fn fifty_seeded_designs_settle_identically_for_any_worker_count() {
    let mut rng = Rng::seed_from_u64(0x5e771e);
    let n = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .max(3);
    let mut designs = 0usize;
    while designs < 50 {
        designs += 1;
        let (netlist, _) = s1_like_netlist(S1Options {
            chips: rng.range_usize(6, 30),
            seed: rng.next_u64(),
        });
        // Half the designs also exercise the case fan-out, so settles
        // run on case workers beside each other.
        let cases = if designs.is_multiple_of(2) {
            vec![
                Case::new().assign(format!("CTL {}", rng.range_u32(0, 24)), rng.bool()),
                Case::new().assign(format!("CTL {}", rng.range_u32(0, 24)), rng.bool()),
            ]
        } else {
            Vec::new()
        };

        let (base_report, base_trace) = run_traced(&netlist, &cases, 1);
        assert!(
            base_trace.contains_key("base"),
            "design {designs}: no base settle stream"
        );
        assert!(
            base_trace["base"]
                .iter()
                .any(|l| l.contains("\"type\":\"wave\"")),
            "design {designs}: base stream has no wave events"
        );
        for jobs in [2, n] {
            let (report, trace) = run_traced(&netlist, &cases, jobs);
            assert_eq!(report, base_report, "design {designs}, jobs={jobs}");
            assert_eq!(trace, base_trace, "design {designs}, jobs={jobs}");
        }
    }
    assert!(designs >= 50);
}

/// Two independent clocked inverter rings whose 2 ps feedback delays
/// generate new edge positions every pass: settling never reaches a
/// fixed point, so a finite oscillation budget always trips — and with
/// two rings the waves are more than one primitive wide, so some budget
/// values trip *between* two commits of the same wave.
fn twin_ring_netlist() -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let w = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    let clk = b.signal("CK .P0-4 (0,0)").unwrap();
    for ring in 0..2 {
        let fb = b.signal(&format!("FB {ring}")).unwrap();
        let out = b.signal(&format!("OUT {ring}")).unwrap();
        b.not(
            format!("INV {ring}"),
            DelayRange::from_ns(0.002, 0.002),
            w(out),
            fb,
        );
        b.and2(format!("A {ring}"), DelayRange::ZERO, w(fb), w(clk), out);
    }
    b.finish().unwrap()
}

/// Budget exhaustion is deterministic for every worker count and every
/// budget value — including budgets that land mid-wave, which the test
/// proves it exercised by finding a run whose committed evaluations are
/// not covered by completed wave events.
#[test]
fn oscillation_budget_trips_identically_mid_wave() {
    let netlist = twin_ring_netlist();
    let mut saw_mid_wave = false;
    for budget in 4..=16u64 {
        let sink = Arc::new(TimelineSink::every(1));
        let mut serial = VerifierBuilder::new(netlist.clone())
            .oscillation_budget(budget)
            .trace(sink.clone())
            .build();
        let serial_err = serial.run(&RunOptions::new().jobs(1)).unwrap_err();
        match &serial_err {
            VerifyError::Oscillation {
                evaluations,
                active,
            } => {
                assert_eq!(*evaluations, budget + 1, "error trips on the first excess");
                assert!(!active.is_empty());
            }
            other => panic!("budget {budget}: expected Oscillation, got {other:?}"),
        }
        // Evaluations committed beyond the last *completed* wave mean
        // the budget tripped with the wave partially committed.
        let waved: usize = sink.waves().iter().map(|s| s.size).sum();
        assert!(waved as u64 <= budget + 1);
        if (waved as u64) < budget + 1 && waved > 0 {
            saw_mid_wave = true;
        }

        for jobs in [2, 4] {
            let mut par = VerifierBuilder::new(netlist.clone())
                .oscillation_budget(budget)
                .build();
            let par_err = par.run(&RunOptions::new().jobs(jobs)).unwrap_err();
            assert_eq!(par_err, serial_err, "budget {budget}, jobs={jobs}");
            assert_eq!(par.total_evaluations(), serial.total_evaluations());
        }
    }
    assert!(saw_mid_wave, "no tested budget tripped mid-wave");
}

/// `CheckpointPolicy::SettledBase` hands back a verifier frozen right
/// after the base settle: re-running the cases on it reproduces the
/// original per-case results minus the base effort the cold run folds
/// into case 0, with no renewed base-settle work.
#[test]
fn checkpoint_resumes_at_the_settled_base() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 60,
        seed: 0x5ca1d,
    });
    let cases = vec![
        Case::new().assign("CTL 3", true),
        Case::new().assign("CTL 5", false),
    ];
    let mut v = Verifier::new(netlist);
    let outcome = v
        .run(
            &RunOptions::new()
                .cases(CaseSet::list(cases.clone()))
                .jobs(2)
                .checkpoint(CheckpointPolicy::SettledBase),
        )
        .unwrap();
    assert!(outcome.base.full_settle, "cold run settles the base");
    assert!(outcome.base.evaluations > 0);

    let mut warm = *outcome.checkpoint.expect("checkpoint was requested");
    let warm_out = warm
        .run(&RunOptions::new().cases(CaseSet::list(cases)).jobs(1))
        .unwrap();
    assert!(!warm_out.base.full_settle, "base was already settled");
    assert_eq!(warm_out.base.evaluations, 0);
    assert!(warm_out.checkpoint.is_none(), "default policy keeps none");

    let mut expected = outcome.cases.clone();
    expected[0].events -= outcome.base.events;
    expected[0].evaluations -= outcome.base.evaluations;
    assert_eq!(format!("{:?}", warm_out.cases), format!("{expected:?}"));
}

/// The wave telemetry itself: `TimelineSink::waves` captures one sample
/// per committed wave, with consecutive ordinals, non-empty waves, a
/// drained final worklist, and sizes that sum to the evaluations of the
/// settle loop that emitted them.
#[test]
fn timeline_sink_records_committed_waves() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 40,
        seed: 0x5ca1d,
    });
    let sink = Arc::new(TimelineSink::every(1));
    let mut v = VerifierBuilder::new(netlist).trace(sink.clone()).build();
    let outcome = v.run(&RunOptions::new()).unwrap();

    let base_waves: Vec<_> = sink
        .waves()
        .into_iter()
        .filter(|s| s.case.is_none())
        .collect();
    assert!(!base_waves.is_empty());
    for (i, s) in base_waves.iter().enumerate() {
        assert_eq!(s.ordinal, i as u64 + 1, "wave ordinals are consecutive");
        assert!(s.size > 0, "committed waves are never empty");
    }
    assert_eq!(
        base_waves.last().unwrap().depth,
        0,
        "the last wave drains the worklist"
    );
    assert_eq!(
        base_waves.iter().map(|s| s.size as u64).sum::<u64>(),
        outcome.base.evaluations,
        "wave sizes account for every base evaluation"
    );
    // The sole injected case has no overrides to propagate.
    assert_eq!(outcome.sole().evaluations, outcome.base.evaluations);
}
