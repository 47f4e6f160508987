//! Case-analysis benchmark: one sweep run against each of its cases run
//! alone, at 10/100/1000 cases of one exhaustive mode sweep.
//!
//! The [`scald_gen::sweep`] design has one heavy master mode bit and
//! many light block bits. A case run alone pays the master's cone and a
//! full checker and storage pass; the sweep's case tree settles the
//! master cone once per root branch and memoizes the checker and storage
//! passes on its prefix nodes, so a leaf re-checks only its dirty cone.
//! Each case count is measured once as one sweep run (`tree`/`sched`)
//! and once as each case run alone (`naive`) — a single-case
//! `Verifier::run` on a clone of the settled verifier, the definition
//! the sweep must meet (`crates/verifier/tests/case_tree.rs`). Both
//! sides start from a settled base, so their counters hold only case
//! effort. The harness writes two records:
//!
//! * `BENCH_cases.json` — settle effort: wall clock, events and
//!   evaluations (prefix + per-case), prefix nodes. Alone, effort grows
//!   linearly with the case count; the sweep's grows sublinearly
//!   because the shared master cone amortizes.
//! * `BENCH_sched.json` — per-leaf fixed work: checker evaluations,
//!   storage measurements and the leaf hit rate of the memoized passes.
//!
//! Usage: `cargo run -p scald-bench --bin case_tree --release`
//! (`--counts 10,100,1000` for the sweep sizes, `--master N` /
//! `--block N` for slice counts, `--jobs N` for the worker pool, and
//! `--out-dir DIR` to write both records into `DIR` instead of the
//! current directory, as the CI smoke run does.)

use std::path::PathBuf;

use scald_bench::harness::{flags, nanos, obj, timed, write_record};
use scald_gen::sweep::{sweep_netlist, SweepOptions};
use scald_trace::json::Json;
use scald_verifier::{CaseSet, MemoStats, RunOptions, Verifier};

/// Wall clock and counters of one or more timed runs, summed.
#[derive(Default)]
struct Measured {
    wall_ns: u64,
    events: u64,
    evaluations: u64,
    prefix_nodes: usize,
    violations: usize,
    cases: u64,
    memo: MemoStats,
}

impl Measured {
    /// Times `options` on `v` and adds the run.
    fn run(&mut self, v: &mut Verifier, options: &RunOptions) {
        let (out, wall) = timed(|| v.run(options).expect("sweep cases settle"));
        self.wall_ns += nanos(wall);
        self.events += out.prefix.events + out.cases.iter().map(|c| c.events).sum::<u64>();
        self.evaluations +=
            out.prefix.evaluations + out.cases.iter().map(|c| c.evaluations).sum::<u64>();
        self.prefix_nodes += out.prefix.nodes;
        self.violations += out.cases.iter().map(|c| c.violations.len()).sum::<usize>();
        self.cases += out.cases.len() as u64;
        let (sum, m) = (&mut self.memo, out.memo);
        sum.node_passes += m.node_passes;
        sum.node_check_evals += m.node_check_evals;
        sum.node_check_hits += m.node_check_hits;
        sum.leaf_check_evals += m.leaf_check_evals;
        sum.leaf_check_hits += m.leaf_check_hits;
        sum.leaf_storage_evals += m.leaf_storage_evals;
        sum.leaf_storage_hits += m.leaf_storage_hits;
        sum.releases += m.releases;
    }

    /// Checker evaluations + storage measurements actually executed per
    /// leaf — the fixed work the memoization attacks. Node passes count
    /// against the whole sweep, amortized here over the leaves.
    fn fixed_work_per_leaf(&self) -> f64 {
        let evals =
            self.memo.leaf_check_evals + self.memo.leaf_storage_evals + self.memo.node_check_evals;
        evals as f64 / self.cases.max(1) as f64
    }

    /// The `BENCH_cases.json` columns.
    fn settle_json(&self) -> Json {
        obj([
            ("wall_ns", Json::from(self.wall_ns)),
            ("settle_events", Json::from(self.events)),
            ("settle_evaluations", Json::from(self.evaluations)),
            ("prefix_nodes", Json::from(self.prefix_nodes as u64)),
            ("violations", Json::from(self.violations as u64)),
        ])
    }

    /// The `BENCH_sched.json` columns.
    fn memo_json(&self) -> Json {
        let m = &self.memo;
        obj([
            ("wall_ns", Json::from(self.wall_ns)),
            ("prefix_nodes", Json::from(self.prefix_nodes as u64)),
            ("node_passes", Json::from(m.node_passes)),
            ("node_check_evals", Json::from(m.node_check_evals)),
            ("leaf_check_evals", Json::from(m.leaf_check_evals)),
            ("leaf_check_hits", Json::from(m.leaf_check_hits)),
            ("leaf_storage_evals", Json::from(m.leaf_storage_evals)),
            ("leaf_storage_hits", Json::from(m.leaf_storage_hits)),
            ("leaf_hit_rate", Json::from(m.leaf_hit_rate())),
            (
                "fixed_work_per_leaf",
                Json::from(self.fixed_work_per_leaf()),
            ),
            ("violations", Json::from(self.violations as u64)),
        ])
    }
}

fn main() {
    let (counts, opts, jobs, out_dir) = flags(|f| {
        let counts: Vec<usize> = f.list("--counts", vec![10, 100, 1000]);
        let opts = SweepOptions {
            master_slices: f.get("--master", 1500),
            block_slices: f.get("--block", 10),
            ..SweepOptions::default()
        };
        let jobs = f.get("--jobs", scald_bench::default_jobs());
        (counts, opts, jobs, f.get("--out-dir", PathBuf::from(".")))
    });

    let (netlist, stats) = sweep_netlist(&opts);
    let full = CaseSet::exhaustive(stats.mode_bits.iter().cloned());
    // Each side gets its own settled verifier, so neither reads
    // evaluations the other cached.
    let settled = || {
        let mut v = Verifier::new(netlist.clone());
        v.run(&RunOptions::new().jobs(jobs)).expect("base settles");
        v
    };
    println!(
        "CASE SWEEP — {} prims, {} mode bits ({} exhaustive cases), {jobs} jobs\n",
        stats.prims,
        stats.mode_bits.len(),
        full.len()
    );
    println!(
        "{:>7} {:>14} {:>14} {:>12} {:>12} {:>8} {:>12} {:>12} {:>9}",
        "CASES",
        "ALONE WALL",
        "SWEEP WALL",
        "ALONE EVAL",
        "SWEEP EVAL",
        "NODES",
        "ALONE /LEAF",
        "SWEEP /LEAF",
        "HIT RATE"
    );

    let mut cases_steps = Vec::new();
    let mut sched_steps = Vec::new();
    for &count in &counts {
        let count = count.min(full.len());
        let cases = CaseSet::list(full.cases()[..count].iter().cloned());
        let mut sweep = Measured::default();
        sweep.run(
            &mut settled(),
            &RunOptions::new().cases(cases.clone()).jobs(jobs),
        );
        let mut alone = Measured::default();
        let base = settled();
        for case in cases.cases() {
            alone.run(
                &mut base.clone(),
                &RunOptions::new().case(case.clone()).jobs(jobs),
            );
        }
        assert_eq!(
            alone.violations, sweep.violations,
            "a sweep must find the violations of its cases run alone"
        );
        let evaluations_ratio = alone.evaluations as f64 / sweep.evaluations.max(1) as f64;
        let fixed_work_drop = alone.fixed_work_per_leaf() / sweep.fixed_work_per_leaf().max(1e-9);
        println!(
            "{:>7} {:>12.2}ms {:>12.2}ms {:>12} {:>12} {:>8} {:>12.1} {:>12.1} {:>8.1}%",
            count,
            alone.wall_ns as f64 / 1e6,
            sweep.wall_ns as f64 / 1e6,
            alone.evaluations,
            sweep.evaluations,
            sweep.prefix_nodes,
            alone.fixed_work_per_leaf(),
            sweep.fixed_work_per_leaf(),
            100.0 * sweep.memo.leaf_hit_rate(),
        );
        cases_steps.push(obj([
            ("cases", Json::from(count as u64)),
            ("naive", alone.settle_json()),
            ("tree", sweep.settle_json()),
            ("evaluations_ratio", Json::from(evaluations_ratio)),
        ]));
        sched_steps.push(obj([
            ("cases", Json::from(count as u64)),
            ("naive", alone.memo_json()),
            ("sched", sweep.memo_json()),
            ("fixed_work_drop", Json::from(fixed_work_drop)),
        ]));
    }

    let design = obj([
        ("prims", Json::from(stats.prims as u64)),
        ("signals", Json::from(stats.signals as u64)),
        (
            "mode_bits",
            Json::Arr(stats.mode_bits.iter().map(Json::str).collect()),
        ),
        ("master_slices", Json::from(opts.master_slices as u64)),
        ("block_slices", Json::from(opts.block_slices as u64)),
    ]);
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    for (file, schema, steps) in [
        ("BENCH_cases.json", "scald-bench-cases", cases_steps),
        ("BENCH_sched.json", "scald-bench-sched", sched_steps),
    ] {
        write_record(
            out_dir.join(file),
            schema,
            1,
            [
                ("jobs", Json::from(jobs as u64)),
                ("design", design.clone()),
                ("steps", Json::Arr(steps)),
            ],
        );
    }
}
