//! Intra-run settle scaling: the cold base fixed point of the S-1-like
//! design, settled serially and across widening wave-worker pools.
//!
//! Unlike `par_cases` (which parallelizes *across* cases), this measures
//! the level-synchronized wave engine inside a single settle loop — the
//! part of `--jobs` that helps even a one-case run. Records per-width
//! wall clocks, the (worker-independent) evaluation trajectory and the
//! wave shape to `BENCH_settle.json` in the current directory.
//!
//! Usage: `cargo run -p scald-bench --bin settle_scaling --release`
//! (`--chips N` for the design size, default 400; `--workers N` for the
//! widest pool, default 8 — widths measured are 1 and the powers of two
//! up to `N`; `--out FILE` to redirect the JSON record, as the CI smoke
//! run does to avoid clobbering the committed 400-chip snapshot).

use scald_bench::harness::{flags, median, nanos, obj, s1_netlist, timed, write_record};
use scald_trace::json::Json;
use scald_trace::CounterSink;
use scald_verifier::{RunOptions, Verifier, VerifierBuilder};

/// Repetitions per width. The *median* wall clock is the headline
/// number (`wall_ns`): a single lucky rep can make a min look better
/// than the machine ever sustains, while the median survives one
/// outlier in either direction. The min is still recorded (`min_ns`)
/// as the best-case floor.
const REPS: usize = 3;

fn main() {
    let (chips, max_workers, out) = flags(|f| {
        (
            f.get("--chips", 400),
            f.get("--workers", 8usize).max(1),
            f.get("--out", "BENCH_settle.json".to_owned()),
        )
    });
    let (netlist, stats) = s1_netlist(chips);
    println!(
        "design: {} chips, {} primitives, {} signals",
        stats.chips, stats.prims, stats.signals
    );

    // The wave shape of this settle, from a traced warm-up run: every
    // width replays the identical trajectory, so one look suffices.
    let counters = std::sync::Arc::new(CounterSink::new());
    let mut traced = VerifierBuilder::new(netlist.clone())
        .trace(counters.clone())
        .build();
    traced.run(&RunOptions::new().jobs(1)).expect("settles");
    let shape = counters.snapshot();
    println!(
        "settle shape: {} evaluations over {} waves (widest: {})",
        shape.evaluations, shape.waves, shape.max_wave
    );

    let mut widths = vec![1usize];
    let mut w = 2;
    while w <= max_workers {
        widths.push(w);
        w *= 2;
    }

    let mut runs = Vec::new();
    let mut serial_ns = 0u64;
    let mut serial_evals = 0u64;
    for &jobs in &widths {
        let mut samples = Vec::with_capacity(REPS);
        let mut evaluations = 0u64;
        let mut events = 0u64;
        for _ in 0..REPS {
            let mut v = Verifier::new(netlist.clone());
            let (outcome, wall) = timed(|| v.run(&RunOptions::new().jobs(jobs)).expect("settles"));
            samples.push(nanos(wall));
            let sole = outcome.into_sole();
            evaluations = sole.evaluations;
            events = sole.events;
        }
        let min_ns = *samples.iter().min().expect("REPS >= 1");
        let median_ns = median(&mut samples);
        if jobs == 1 {
            serial_ns = median_ns;
            serial_evals = evaluations;
        }
        assert_eq!(
            evaluations, serial_evals,
            "the wave trajectory must be identical for every width"
        );
        let speedup = serial_ns as f64 / median_ns as f64;
        println!(
            "jobs {jobs:>2}: {median_ns:>12} ns median ({min_ns:>12} ns min, {speedup:.2}x vs serial)"
        );
        runs.push(obj([
            ("jobs", Json::from(jobs as u64)),
            ("wall_ns", Json::from(median_ns)),
            ("min_ns", Json::from(min_ns)),
            ("events", Json::from(events)),
            ("evaluations", Json::from(evaluations)),
            ("speedup", Json::from(speedup)),
        ]));
    }

    // v2: `wall_ns` is the median over `reps` (was the min); the min
    // moved to `min_ns`.
    write_record(
        &out,
        "scald-bench-settle",
        2,
        [
            ("reps", Json::from(REPS as u64)),
            ("chips", Json::from(chips as u64)),
            ("prims", Json::from(stats.prims as u64)),
            ("waves", Json::from(shape.waves)),
            ("max_wave", Json::from(shape.max_wave as u64)),
            ("runs", Json::Arr(runs)),
        ],
    );
}
