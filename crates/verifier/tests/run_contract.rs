//! What one `Verifier::run` promises besides its results: it runs on
//! the calling thread; its two error variants (`Oscillation`,
//! `UnknownCaseSignal`) surface deterministically, including when the
//! oscillation budget trips in the middle of a wave; a settled-base
//! checkpoint resumes where the run left off; and the wave telemetry
//! accounts for every evaluation. (`case_tree.rs` checks each case of a
//! sweep against that case run alone.)

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::{Config, Conn, Netlist, NetlistBuilder};
use scald_trace::{TimelineSink, TraceEvent, TraceSink};
use scald_verifier::{
    Case, CaseSet, CheckpointPolicy, RunOptions, Verifier, VerifierBuilder, VerifyError,
};
use scald_wave::DelayRange;

/// Twelve cases over the generated design's global control signals,
/// mixing single- and multi-signal assignments so dirtied cones differ
/// per case.
fn s1_cases() -> CaseSet {
    let mut cases: Vec<Case> = (0..8)
        .map(|i| Case::new().assign(format!("CTL {i}"), i % 2 == 0))
        .collect();
    for i in 0..4 {
        cases.push(
            Case::new()
                .assign(format!("CTL {}", 2 * i), i % 2 == 0)
                .assign(format!("CTL {}", 2 * i + 1), i % 2 == 1),
        );
    }
    CaseSet::list(cases)
}

fn fresh_s1_verifier() -> Verifier {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 120,
        seed: 0x5ca1d,
    });
    Verifier::new(netlist)
}

/// Keeps the id of the thread that delivered each event.
#[derive(Default)]
struct ThreadSink(Mutex<Vec<ThreadId>>);

impl TraceSink for ThreadSink {
    fn record(&self, _event: &TraceEvent<'_>) {
        self.0
            .lock()
            .expect("thread sink poisoned")
            .push(thread::current().id());
    }
}

/// A 64-case exhaustive sweep on a verifier built with `.jobs(4)` emits
/// every trace event — base settle, prefix nodes and leaves alike — on
/// the thread that called `run`: the builder's worker count starts no
/// thread. An engine that fans its cases across a thread pool fails
/// this on any host with two or more hardware threads; on a one-CPU
/// host, a pool capped at the hardware threads runs on the calling
/// thread alone and would pass it.
#[test]
fn a_sweep_runs_on_the_calling_thread() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 40,
        seed: 0x5ca1d,
    });
    let sink = Arc::new(ThreadSink::default());
    let mut v = VerifierBuilder::new(netlist)
        .jobs(4)
        .trace(sink.clone())
        .build();
    let sweep = CaseSet::exhaustive((0..6).map(|i| format!("CTL {i}")));
    assert_eq!(sweep.len(), 64);
    let outcome = v.run(&RunOptions::new().cases(sweep)).unwrap();
    assert_eq!(outcome.cases.len(), 64);
    assert!(outcome.prefix.nodes > 0, "the sweep shares prefixes");

    let here = thread::current().id();
    let threads = sink.0.lock().unwrap().clone();
    assert!(threads.len() > 64, "{} events", threads.len());
    let elsewhere = threads.iter().filter(|&&t| t != here).count();
    assert_eq!(
        elsewhere,
        0,
        "{elsewhere} of {} events came from another thread",
        threads.len()
    );
}

/// `Verifier::new` is a thin alias for the all-defaults builder: both
/// constructors must yield verifiers producing identical reports.
#[test]
fn verifier_new_is_builder_alias() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 40,
        seed: 0x5ca1d,
    });

    let mut via_new = Verifier::new(netlist.clone());
    let r1 = via_new.run(&RunOptions::new()).unwrap();
    let mut via_builder = VerifierBuilder::new(netlist).build();
    let r2 = via_builder.run(&RunOptions::new()).unwrap();

    assert_eq!(format!("{:?}", r1.cases), format!("{:?}", r2.cases));
    assert_eq!(
        via_new.report("alias", &r1.cases).to_json().to_string(),
        via_builder.report("alias", &r2.cases).to_json().to_string()
    );
}

/// A clocked inverter ring whose 2 ps feedback delay keeps generating
/// new edge positions every pass: the worst-case algebra never reaches a
/// periodic fixed point, so settling exhausts the evaluation budget.
/// (Because the algebra is worst-case, a loop live under any case
/// override is also live under the base's `S` — the error surfaces at
/// the base settle inside `run`.)
fn busy_ring_verifier() -> Verifier {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let w = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    // EN is undriven (assumed stable) so the cases below resolve.
    b.signal("EN").unwrap();
    let clk = b.signal("CK .P0-4 (0,0)").unwrap();
    let fb = b.signal("FB").unwrap();
    let out = b.signal("OUT").unwrap();
    b.not("INV", DelayRange::from_ns(0.002, 0.002), w(out), fb);
    b.and2("A", DelayRange::ZERO, w(fb), w(clk), out);
    Verifier::new(b.finish().unwrap())
}

#[test]
fn oscillation_exhausts_the_budget() {
    let cases = CaseSet::list([
        Case::new().assign("EN", true),
        Case::new().assign("EN", false),
        Case::new().assign("EN", true),
    ]);

    let err = busy_ring_verifier()
        .run(&RunOptions::new().cases(cases))
        .unwrap_err();
    match &err {
        VerifyError::Oscillation {
            evaluations,
            active,
        } => {
            assert!(*evaluations > 0, "budget exhaustion implies work done");
            assert!(!active.is_empty(), "oscillation names active primitives");
        }
        other => panic!("expected Oscillation, got {other:?}"),
    }
}

/// A case naming a signal absent from the design fails up front with
/// `UnknownCaseSignal` — before the base settle or any case runs, so no
/// evaluation effort is spent.
#[test]
fn unknown_case_signal_rejected_before_any_evaluation() {
    let mut cases = s1_cases();
    cases.push(Case::new().assign("NO SUCH SIGNAL", true));

    let mut v = fresh_s1_verifier();
    let err = v.run(&RunOptions::new().cases(cases)).unwrap_err();
    assert_eq!(
        err,
        VerifyError::UnknownCaseSignal {
            name: "NO SUCH SIGNAL".to_owned()
        }
    );
    assert_eq!(
        v.total_evaluations(),
        0,
        "name resolution must precede evaluation"
    );
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

/// Budget exhaustion trips on the first evaluation past the budget for
/// every budget value — including budgets that land mid-wave, which the
/// test proves it exercised by finding a run whose committed
/// evaluations are not covered by completed wave events.
#[test]
fn oscillation_budget_trips_mid_wave() {
    let netlist = twin_ring_netlist();
    let mut saw_mid_wave = false;
    for budget in 4..=16u64 {
        let sink = Arc::new(TimelineSink::every(1));
        let mut v = VerifierBuilder::new(netlist.clone())
            .oscillation_budget(budget)
            .trace(sink.clone())
            .build();
        match v.run(&RunOptions::new()).unwrap_err() {
            VerifyError::Oscillation {
                evaluations,
                active,
            } => {
                assert_eq!(evaluations, budget + 1, "error trips on the first excess");
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
                .checkpoint(CheckpointPolicy::SettledBase),
        )
        .unwrap();
    assert!(outcome.base.full_settle, "cold run settles the base");
    assert!(outcome.base.evaluations > 0);

    let mut warm = *outcome.checkpoint.expect("checkpoint was requested");
    let warm_out = warm
        .run(&RunOptions::new().cases(CaseSet::list(cases)))
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
