//! The scale sweep: how verification cost grows from 10^3 to 10^6
//! primitives, with the Table 3-3 storage breakdown at every step.
//!
//! The thesis reports one data point — 8 282 primitives verified in
//! 210 s of KL10 CPU time (Table 3-1) inside a 1.1 MB image (Table 3-3).
//! This harness sweeps the [`scald_gen::scale`] generator across decades
//! of that size and records, per step: generation and settle wall clocks
//! (median over `--reps`, min kept honest alongside), the
//! worker-count-independent event/evaluation trajectory, and the same
//! storage categories Table 3-3 itemizes, into `BENCH_scale.json`.
//!
//! Usage: `cargo run -p scald-bench --bin scale_sweep --release`
//! (`--steps 1000,10000,100000` to choose sizes, `--reps N` per-step
//! repetitions — sizes of 100k+ default to a single rep — `--jobs N`
//! for the wave-worker pool, and `--out FILE` to redirect the record, as
//! the CI smoke run does to avoid clobbering the committed sweep).

use scald_bench::harness::{flags, median, nanos, obj, timed, write_record};
use scald_gen::scale::{scale_netlist, ScaleOptions};
use scald_trace::json::Json;
use scald_verifier::{RunOptions, Verifier};

fn main() {
    let (steps, reps, jobs, out) = flags(|f| {
        (
            f.list("--steps", vec![1_000usize, 10_000, 100_000]),
            f.get("--reps", 3usize).max(1),
            f.get("--jobs", 1usize).max(1),
            f.get("--out", "BENCH_scale.json".to_owned()),
        )
    });

    let mut records = Vec::new();
    for &target in &steps {
        let opts = ScaleOptions::prims(target);
        let ((netlist, stats), gen_time) = timed(|| scale_netlist(&opts));
        let gen_ns = nanos(gen_time);
        println!(
            "target {target:>8}: {} prims, {} signals, {} chains (max depth {}), {} hubs, generated in {:.2}s",
            stats.prims,
            stats.signals,
            stats.chains,
            stats.max_depth,
            stats.hubs,
            gen_ns as f64 / 1e9
        );

        // Large designs get a single rep: at 100k+ primitives the settle
        // runs long enough that scheduler noise is amortized away.
        let step_reps = if target >= 100_000 { 1 } else { reps };
        let mut samples = Vec::with_capacity(step_reps);
        let mut events = 0u64;
        let mut evaluations = 0u64;
        let mut violations = 0u64;
        let mut storage: Option<scald_verifier::StorageReport> = None;
        for _ in 0..step_reps {
            let mut v = Verifier::new(netlist.clone());
            let (outcome, wall) = timed(|| v.run(&RunOptions::new().jobs(jobs)).expect("settles"));
            samples.push(nanos(wall));
            let sole = outcome.into_sole();
            events = sole.events;
            evaluations = sole.evaluations;
            violations = sole.violations.len() as u64;
            storage = Some(v.storage_report());
        }
        let min_ns = *samples.iter().min().expect("reps >= 1");
        let wall_ns = median(&mut samples);
        let storage = storage.expect("at least one rep ran");
        println!(
            "  settle: {:.3}s median ({:.3}s min, {step_reps} reps), {events} events, {evaluations} evaluations, {violations} violations",
            wall_ns as f64 / 1e9,
            min_ns as f64 / 1e9,
        );
        println!(
            "  storage: {} bytes total, {:.2} value records/signal",
            storage.total(),
            storage.value_records_per_signal()
        );

        // The Table 3-3 categories, bytes per storage area.
        let table_3_3 = obj(storage
            .rows()
            .into_iter()
            .map(|(name, bytes, _)| (name, Json::from(bytes as u64)))
            .chain([
                ("TOTAL", Json::from(storage.total() as u64)),
                (
                    "value_records_per_signal",
                    Json::from(storage.value_records_per_signal()),
                ),
            ]));
        records.push(obj([
            ("target_prims", Json::from(target as u64)),
            ("prims", Json::from(stats.prims as u64)),
            ("signals", Json::from(stats.signals as u64)),
            ("chains", Json::from(stats.chains as u64)),
            ("max_depth", Json::from(stats.max_depth as u64)),
            ("hubs", Json::from(stats.hubs as u64)),
            ("gen_ns", Json::from(gen_ns)),
            ("reps", Json::from(step_reps as u64)),
            ("wall_ns", Json::from(wall_ns)),
            ("min_ns", Json::from(min_ns)),
            ("events", Json::from(events)),
            ("evaluations", Json::from(evaluations)),
            ("violations", Json::from(violations)),
            ("table_3_3", table_3_3),
        ]));
    }

    write_record(
        &out,
        "scald-bench-scale",
        1,
        [
            ("jobs", Json::from(jobs as u64)),
            ("steps", Json::Arr(records)),
        ],
    );
}
