//! Benches for the Timing Verifier: one group per table/figure
//! experiment (see DESIGN.md §3), plus the verifier-vs-baselines
//! comparison. Std-only harness — run with `cargo bench`, filter by
//! substring: `cargo bench --bench verifier_benches -- fig_2_6`.

use scald_bench::harness::{
    ctl_cases, logic_prim, muxed_paths_circuit, retime_replay, s1_netlist, verify, Bench,
};
use scald_gen::figures::{
    alu_stage, case_analysis_circuit, correlation_circuit, hazard_circuit, register_file_circuit,
};
use scald_incr::{Delta, DesignInput, NetlistDelta, Session, SessionBuilder};
use scald_netlist::SignalId;
use scald_paths::PathAnalysis;
use scald_sim::{primary_inputs, simulate, Stimulus};
use scald_trace::CounterSink;
use scald_verifier::{Case, CaseSet, RunOptions, Verifier, VerifierBuilder};
use scald_wave::DelayRange;
use std::sync::Arc;

/// Fig 2-5 / Fig 3-11: verify the register-file circuit.
fn fig_3_10_3_11(b: &Bench) {
    b.bench_with_setup(
        "fig_3_11/register_file_verify",
        || register_file_circuit().0,
        verify,
    );
}

/// Fig 1-5: hazard detection via the &A directive.
fn fig_1_5(b: &Bench) {
    b.bench_with_setup("fig_1_5/hazard_verify", || hazard_circuit(true), verify);
}

/// Fig 2-6: two-case analysis, showing the incremental second case.
fn fig_2_6(b: &Bench) {
    b.bench_with_setup(
        "fig_2_6/two_cases",
        || case_analysis_circuit().0,
        |netlist| {
            let mut v = Verifier::new(netlist);
            v.run(&RunOptions::new().cases(CaseSet::exhaustive(["CONTROL SIGNAL"])))
                .expect("settles")
        },
    );
}

/// Fig 3-12 and Fig 4-1: the remaining figure circuits.
fn other_figures(b: &Bench) {
    b.bench_with_setup("fig_3_12/alu_stage_verify", || alu_stage().0, verify);
    b.bench_with_setup(
        "fig_4_1/correlation_verify",
        || correlation_circuit(false),
        verify,
    );
}

/// Table 3-1: full verification passes over S-1-like designs of
/// increasing size (chip counts scaled down for bench time; the table
/// binary runs the full 6357).
fn table_3_1_scaling(b: &Bench) {
    for chips in [100usize, 400, 1600] {
        let (netlist, _) = s1_netlist(chips);
        b.bench_with_setup(
            &format!("table_3_1/verify_s1_like/{chips}"),
            || netlist.clone(),
            verify,
        );
    }
}

/// Observability cost: the same full verification pass with tracing
/// disabled (`Verifier::new`, the `Option<Arc<dyn TraceSink>>` is
/// `None`) and with a live counter sink attached. The disabled run is
/// the ≤ 2 % overhead claim: compare `trace_overhead/disabled/400`
/// against `table_3_1/verify_s1_like/400` from the same bench run.
fn trace_overhead(b: &Bench) {
    let (netlist, _) = s1_netlist(400);
    b.bench_with_setup("trace_overhead/disabled/400", || netlist.clone(), verify);
    b.bench_with_setup(
        "trace_overhead/counter_sink/400",
        || netlist.clone(),
        |netlist| {
            let mut v = VerifierBuilder::new(netlist)
                .trace(Arc::new(CounterSink::new()))
                .build();
            v.run(&RunOptions::new()).expect("settles").into_sole()
        },
    );
}

/// Incremental re-verification (`scald-incr`): a full cold pass over the
/// 400-chip design vs a warm [`Session::apply`] of a one-primitive ECO
/// retime. The warm routine alternates between two delay values so every
/// iteration is a genuine edit (same dirty cone each time); it includes
/// the netlist rebuild, hashing and verifier-clone overhead, so the
/// measured gap is what a `--watch` user actually sees per edit.
///
/// [`Session::apply`]: scald_incr::Session::apply
fn incr_vs_full(b: &Bench) {
    let (netlist, _) = s1_netlist(400);
    b.bench_with_setup("incr_vs_full/full_verify/400", || netlist.clone(), verify);
    let (target, _) = logic_prim(&netlist);
    let mut session = Session::open(
        DesignInput::netlist(netlist.clone(), vec![Case::new()]),
        "bench",
    )
    .expect("settles");
    let delays = [DelayRange::from_ns(2.0, 6.0), DelayRange::from_ns(2.5, 7.0)];
    let mut flip = 0usize;
    b.bench("incr_vs_full/warm_retime/400", move || {
        let mut delta = NetlistDelta::new();
        delta.retime(target.clone(), delays[flip % delays.len()]);
        flip += 1;
        session
            .apply(Delta::Netlist(delta))
            .expect("retime applies")
            .events
    });
}

/// The evaluation memo table A/B: the same three workloads with the
/// cache on (the default) and off (`--no-eval-cache`). `base_settle` is
/// the cache's worst case — a cold run of a fresh verifier where every
/// lookup misses; `cases8` repeats evaluations across case cones; the
/// session replay alternates one retime back and forth, so half the
/// edits re-enter a previously cached design state.
fn eval_cache(b: &Bench) {
    let (netlist, _) = s1_netlist(400);
    let cases = CaseSet::list(ctl_cases());
    let (target, original) = logic_prim(&netlist);
    for cached in [false, true] {
        let mode = if cached { "cached" } else { "uncached" };
        b.bench_with_setup(
            &format!("eval_cache/base_settle/{mode}"),
            || netlist.clone(),
            |n| {
                let mut v = VerifierBuilder::new(n).eval_cache(cached).build();
                v.run(&RunOptions::new()).expect("settles").into_sole()
            },
        );
        b.bench_with_setup(
            &format!("eval_cache/cases8/{mode}"),
            || netlist.clone(),
            |n| {
                let mut v = VerifierBuilder::new(n).eval_cache(cached).build();
                v.run(&RunOptions::new().cases(cases.clone()))
                    .expect("settles")
            },
        );
        let mut session = SessionBuilder::new()
            .eval_cache(cached)
            .open(
                DesignInput::netlist(netlist.clone(), vec![Case::new()]),
                "bench",
            )
            .expect("settles");
        b.bench(&format!("eval_cache/session_replay10/{mode}"), || {
            retime_replay(&mut session, &target, original).1
        });
    }
}

/// The headline comparison: one symbolic pass vs 2^n simulated patterns.
fn verifier_vs_sim(b: &Bench) {
    for n in [2usize, 4, 6] {
        let netlist = muxed_paths_circuit(n);
        b.bench_with_setup(
            &format!("scaling/verifier_one_pass/{n}"),
            || netlist.clone(),
            verify,
        );
        let sweep: Vec<SignalId> = primary_inputs(&netlist)
            .into_iter()
            .filter(|s| netlist.signal(*s).assertion.is_none())
            .collect();
        b.bench(&format!("scaling/sim_exhaustive/{n}"), || {
            let mut total = 0u64;
            for p in 0..(1u64 << sweep.len()) {
                let stim = Stimulus::from_pattern(&sweep, 1, p);
                total += simulate(&netlist, &stim).events;
            }
            total
        });
        b.bench(&format!("scaling/path_search/{n}"), || {
            PathAnalysis::analyze(&netlist).violations().len()
        });
    }
}

fn main() {
    let b = Bench::from_args();
    fig_3_10_3_11(&b);
    fig_1_5(&b);
    fig_2_6(&b);
    other_figures(&b);
    table_3_1_scaling(&b);
    trace_overhead(&b);
    incr_vs_full(&b);
    eval_cache(&b);
    verifier_vs_sim(&b);
}
