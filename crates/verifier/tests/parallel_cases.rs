//! Determinism and error-path coverage for the parallel case-analysis
//! engine (§2.7): `run` must produce byte-identical results for any
//! worker budget, and the engine's two error variants (`Oscillation`,
//! `UnknownCaseSignal`) must surface deterministically regardless of
//! scheduling. The case pool is the engine's only parallel dimension,
//! and it never runs more workers than the machine has hardware
//! threads. (`parallel_settle.rs` covers the wave engine inside one
//! settle; this file covers the case fan-out.)

use std::sync::{Arc, Mutex};

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::{Config, Conn, NetlistBuilder};
use scald_trace::{TraceEvent, TraceSink};
use scald_verifier::{Case, CaseSet, RunOptions, Verifier, VerifierBuilder, VerifyError};
use scald_wave::DelayRange;

/// Twelve cases over the generated design's global control signals —
/// comfortably past the issue's "≥ 8 cases" floor, mixing single- and
/// multi-signal assignments so dirtied cones differ per case.
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

/// One-worker, 2-worker, N-worker and default-budget runs all produce
/// output byte-identical to each other on a generated S-1-like design.
#[test]
fn parallel_matches_serial_for_1_2_and_n_workers() {
    let cases = s1_cases();
    assert!(cases.len() >= 8);

    let mut serial = fresh_s1_verifier();
    let baseline = format!(
        "{:?}",
        serial
            .run(&RunOptions::new().cases(cases.clone()).jobs(1))
            .unwrap()
            .cases
    );

    let n = std::thread::available_parallelism().map_or(4, usize::from);
    for jobs in [1, 2, n] {
        let mut v = fresh_s1_verifier();
        let got = format!(
            "{:?}",
            v.run(&RunOptions::new().cases(cases.clone()).jobs(jobs))
                .unwrap()
                .cases
        );
        assert_eq!(got, baseline, "jobs={jobs} diverged from serial");
    }

    let mut v = fresh_s1_verifier();
    let got = format!(
        "{:?}",
        v.run(&RunOptions::new().cases(cases.clone()))
            .unwrap()
            .cases
    );
    assert_eq!(got, baseline, "default-budget run diverged from serial");
}

/// Same property on a warm engine: a prior full `run` changes the
/// incremental bookkeeping (the base is already settled), and the
/// parallel path must agree with serial there too.
#[test]
fn parallel_matches_serial_on_warm_engine() {
    let cases = s1_cases();

    let mut serial = fresh_s1_verifier();
    serial.run(&RunOptions::new()).unwrap();
    let baseline = format!(
        "{:?}",
        serial
            .run(&RunOptions::new().cases(cases.clone()).jobs(1))
            .unwrap()
            .cases
    );

    let mut par = fresh_s1_verifier();
    par.run(&RunOptions::new()).unwrap();
    let got = format!(
        "{:?}",
        par.run(&RunOptions::new().cases(cases.clone()).jobs(4))
            .unwrap()
            .cases
    );
    assert_eq!(got, baseline);
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
    let mut via_builder = scald_verifier::VerifierBuilder::new(netlist).build();
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
/// the base settle inside `run`, identically for every worker count.)
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
fn oscillation_exhausts_budget_identically_serial_and_parallel() {
    let cases = CaseSet::list([
        Case::new().assign("EN", true),
        Case::new().assign("EN", false),
        Case::new().assign("EN", true),
    ]);

    let serial_err = busy_ring_verifier()
        .run(&RunOptions::new().cases(cases.clone()).jobs(1))
        .unwrap_err();
    match &serial_err {
        VerifyError::Oscillation {
            evaluations,
            active,
        } => {
            assert!(*evaluations > 0, "budget exhaustion implies work done");
            assert!(!active.is_empty(), "oscillation names active primitives");
        }
        other => panic!("expected Oscillation, got {other:?}"),
    }

    for jobs in [2, 4] {
        let par_err = busy_ring_verifier()
            .run(&RunOptions::new().cases(cases.clone()).jobs(jobs))
            .unwrap_err();
        assert_eq!(par_err, serial_err, "jobs={jobs}");
    }
}

/// A case naming a signal absent from the design fails up front with
/// `UnknownCaseSignal` — before the base settle or any worker runs, so
/// no evaluation effort is spent and the error does not depend on which
/// worker would have claimed the bad case.
#[test]
fn unknown_case_signal_rejected_before_any_evaluation() {
    let mut cases = s1_cases();
    cases.push(Case::new().assign("NO SUCH SIGNAL", true));

    for jobs in [1, 3] {
        let mut v = fresh_s1_verifier();
        let err = v
            .run(&RunOptions::new().cases(cases.clone()).jobs(jobs))
            .unwrap_err();
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
}

/// Keeps the case-worker count of every `run_start` event.
#[derive(Default)]
struct RunStartJobs(Mutex<Vec<usize>>);

impl TraceSink for RunStartJobs {
    fn record(&self, event: &TraceEvent<'_>) {
        if let TraceEvent::RunStart { jobs, .. } = event {
            self.0.lock().expect("sink poisoned").push(*jobs);
        }
    }
}

/// An oversized budget is capped by the machine, not only by the case
/// count: eight cases at `.jobs(64)` run on no more case workers than
/// the host has hardware threads.
#[test]
fn case_workers_are_capped_by_the_hardware_threads() {
    let cases: CaseSet = (0..8)
        .map(|i| Case::new().assign(format!("CTL {i}"), i % 2 == 0))
        .collect();
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 40,
        seed: 0x5ca1d,
    });
    let sink = Arc::new(RunStartJobs::default());
    let mut v = VerifierBuilder::new(netlist)
        .jobs(64)
        .trace(sink.clone())
        .build();
    v.run(&RunOptions::new().cases(cases)).unwrap();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = sink.0.lock().unwrap().clone();
    assert_eq!(jobs.len(), 1, "one run, one run_start");
    assert!(
        (1..=threads.min(8)).contains(&jobs[0]),
        "run_start reports {} case workers on {threads} hardware threads",
        jobs[0]
    );
}
