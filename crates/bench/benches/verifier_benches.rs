//! Benches for the Timing Verifier: one group per table/figure
//! experiment (see DESIGN.md §3), plus the verifier-vs-baselines
//! comparison. Std-only harness — run with `cargo bench`, filter by
//! substring: `cargo bench --bench verifier_benches -- fig_2_6`.

use scald_bench::harness::Bench;
use scald_gen::figures::{
    alu_stage, case_analysis_circuit, correlation_circuit, hazard_circuit, register_file_circuit,
};
use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_incr::{Delta, DesignInput, NetlistDelta, Session, SessionBuilder};
use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, SignalId};
use scald_paths::PathAnalysis;
use scald_sim::{primary_inputs, simulate, Stimulus};
use scald_trace::CounterSink;
use scald_verifier::{Case, CaseSet, RunOptions, Verifier, VerifierBuilder};
use scald_wave::{DelayRange, Time};
use std::sync::Arc;

/// Fig 2-5 / Fig 3-11: verify the register-file circuit.
fn fig_3_10_3_11(b: &Bench) {
    b.bench_with_setup(
        "fig_3_11/register_file_verify",
        || register_file_circuit().0,
        |netlist| {
            let mut v = Verifier::new(netlist);
            v.run(&RunOptions::new()).expect("settles").into_sole()
        },
    );
}

/// Fig 1-5: hazard detection via the &A directive.
fn fig_1_5(b: &Bench) {
    b.bench_with_setup(
        "fig_1_5/hazard_verify",
        || hazard_circuit(true),
        |netlist| {
            let mut v = Verifier::new(netlist);
            v.run(&RunOptions::new()).expect("settles").into_sole()
        },
    );
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
    b.bench_with_setup(
        "fig_3_12/alu_stage_verify",
        || alu_stage().0,
        |netlist| {
            let mut v = Verifier::new(netlist);
            v.run(&RunOptions::new()).expect("settles").into_sole()
        },
    );
    b.bench_with_setup(
        "fig_4_1/correlation_verify",
        || correlation_circuit(false),
        |netlist| {
            let mut v = Verifier::new(netlist);
            v.run(&RunOptions::new()).expect("settles").into_sole()
        },
    );
}

/// Table 3-1: full verification passes over S-1-like designs of
/// increasing size (chip counts scaled down for bench time; the table
/// binary runs the full 6357).
fn table_3_1_scaling(b: &Bench) {
    for chips in [100usize, 400, 1600] {
        let (netlist, _) = s1_like_netlist(S1Options {
            chips,
            ..S1Options::default()
        });
        b.bench_with_setup(
            &format!("table_3_1/verify_s1_like/{chips}"),
            || netlist.clone(),
            |netlist| {
                let mut v = Verifier::new(netlist);
                v.run(&RunOptions::new()).expect("settles").into_sole()
            },
        );
    }
}

/// §2.7 at scale: many-case analysis over an S-1-like design, serial vs
/// the worker pool — the experiment behind the `--jobs` flag.
fn par_cases(b: &Bench) {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        ..S1Options::default()
    });
    // 16 cases, each flipping three of the generator's global controls so
    // every case dirties a sizeable cone. The engine is pre-settled in the
    // untimed setup, so the timed region is exactly the case sweep — the
    // part the worker pool parallelizes.
    let cases: CaseSet = (0..16)
        .map(|i| {
            Case::new()
                .assign(format!("CTL {i}"), i % 2 == 0)
                .assign(format!("CTL {}", (i + 5) % 24), i % 3 == 0)
                .assign(format!("CTL {}", (i + 11) % 24), i % 2 == 1)
        })
        .collect();
    let settled = || {
        let mut v = Verifier::new(netlist.clone());
        v.run(&RunOptions::new()).expect("settles");
        v
    };
    b.bench_with_setup(
        &format!("par_cases/serial/{}", cases.len()),
        settled,
        |mut v| {
            v.run(&RunOptions::new().cases(cases.clone()).jobs(1))
                .expect("settles")
        },
    );
    for jobs in [2usize, 4] {
        b.bench_with_setup(
            &format!("par_cases/jobs{jobs}/{}", cases.len()),
            settled,
            |mut v| {
                v.run(&RunOptions::new().cases(cases.clone()).jobs(jobs))
                    .expect("settles")
            },
        );
    }
}

/// The wave engine *inside* one settle: the cold base fixed point of a
/// 400-chip design evaluated serially vs across 2/4/8 wave workers.
/// A single implicit case, so none of the parallelism comes from the
/// case fan-out — this times `--jobs` for the intra-run settle path.
fn par_settle(b: &Bench) {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        ..S1Options::default()
    });
    for jobs in [1usize, 2, 4, 8] {
        let label = if jobs == 1 {
            "serial".to_owned()
        } else {
            format!("jobs{jobs}")
        };
        b.bench_with_setup(
            &format!("par_settle/{label}"),
            || netlist.clone(),
            |n| {
                let mut v = Verifier::new(n);
                v.run(&RunOptions::new().jobs(jobs))
                    .expect("settles")
                    .into_sole()
            },
        );
    }
}

/// Observability cost: the same full verification pass with tracing
/// disabled (`Verifier::new`, the `Option<Arc<dyn TraceSink>>` is
/// `None`) and with a live counter sink attached. The disabled run is
/// the ≤ 2 % overhead claim: compare `trace_overhead/disabled/400`
/// against `table_3_1/verify_s1_like/400` from the same bench run.
fn trace_overhead(b: &Bench) {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        ..S1Options::default()
    });
    b.bench_with_setup(
        "trace_overhead/disabled/400",
        || netlist.clone(),
        |netlist| {
            let mut v = Verifier::new(netlist);
            v.run(&RunOptions::new()).expect("settles").into_sole()
        },
    );
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
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        ..S1Options::default()
    });
    b.bench_with_setup(
        "incr_vs_full/full_verify/400",
        || netlist.clone(),
        |netlist| {
            let mut v = Verifier::new(netlist);
            v.run(&RunOptions::new()).expect("settles").into_sole()
        },
    );
    let target = netlist
        .prims()
        .iter()
        .find(|p| p.name.ends_with("/LOGIC"))
        .expect("generated design has datapath slices")
        .name
        .clone();
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
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        ..S1Options::default()
    });
    let cases: CaseSet = (0..8)
        .map(|i| Case::new().assign(format!("CTL {i}"), i % 2 == 0))
        .collect();
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
                v.run(&RunOptions::new().cases(cases.clone()).jobs(1))
                    .expect("settles")
            },
        );
        let target = netlist
            .prims()
            .iter()
            .find(|p| p.name.ends_with("/LOGIC"))
            .expect("generated design has datapath slices")
            .name
            .clone();
        let original = netlist
            .prims()
            .iter()
            .find(|p| p.name == target)
            .expect("target exists")
            .delay;
        let mut session = SessionBuilder::new()
            .eval_cache(cached)
            .open(
                DesignInput::netlist(netlist.clone(), vec![Case::new()]),
                "bench",
            )
            .expect("settles");
        b.bench(&format!("eval_cache/session_replay10/{mode}"), move || {
            let mut events = 0u64;
            for edit in 0..10 {
                let delay = if edit % 2 == 0 {
                    DelayRange::from_ns(2.0, 6.5)
                } else {
                    original
                };
                let mut delta = NetlistDelta::new();
                delta.retime(target.clone(), delay);
                events += session
                    .apply(Delta::Netlist(delta))
                    .expect("retime applies")
                    .events;
            }
            events
        });
    }
}

fn muxed_paths_circuit(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let clk = b.signal("CK .P6-7 (0,0)").expect("valid");
    let z = |s: SignalId| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    for i in 0..n {
        let sel = b.signal(&format!("SEL{i}")).expect("valid");
        let fast = b.signal(&format!("FAST{i} .S0-1")).expect("valid");
        let slow_in = b.signal(&format!("SLOWIN{i} .S0-1")).expect("valid");
        let slow = b.signal(&format!("SLOW{i}")).expect("valid");
        let m = b.signal(&format!("M{i}")).expect("valid");
        let q = b.signal(&format!("Q{i}")).expect("valid");
        b.buf(
            format!("SB{i}"),
            DelayRange::from_ns(33.0, 36.0),
            z(slow_in),
            slow,
        );
        b.mux2(
            format!("MX{i}"),
            DelayRange::from_ns(1.2, 3.3),
            z(sel),
            z(fast),
            z(slow),
            m,
        );
        b.reg(
            format!("R{i}"),
            DelayRange::from_ns(1.5, 4.5),
            z(clk),
            z(m),
            q,
        );
        b.setup_hold(
            format!("C{i}"),
            Time::from_ns(2.5),
            Time::from_ns(1.5),
            z(m),
            z(clk),
        );
    }
    b.finish().expect("well-formed")
}

/// The headline comparison: one symbolic pass vs 2^n simulated patterns.
fn verifier_vs_sim(b: &Bench) {
    for n in [2usize, 4, 6] {
        let netlist = muxed_paths_circuit(n);
        b.bench_with_setup(
            &format!("scaling/verifier_one_pass/{n}"),
            || netlist.clone(),
            |netlist| {
                let mut v = Verifier::new(netlist);
                v.run(&RunOptions::new()).expect("settles").into_sole()
            },
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
    par_cases(&b);
    par_settle(&b);
    trace_overhead(&b);
    incr_vs_full(&b);
    eval_cache(&b);
    verifier_vs_sim(&b);
}
