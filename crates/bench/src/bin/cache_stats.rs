//! Evaluation-cache A/B on the S-1-like design: wall clock and hit rate
//! with and without the memo table, for the three workloads the cache
//! targets — a multi-case analysis (repeated evaluations across case
//! cones), a warm re-verification of an identical design through a
//! shared table (the `scald-incr` session mechanism), and a 10-edit
//! incremental session replay.
//!
//! Records everything to `BENCH_cache.json` in the current directory.
//!
//! Usage: `cargo run -p scald-bench --bin cache_stats --release`
//! (`--chips N` to override the default 400-chip design, `--out PATH`
//! to redirect the JSON.)

use std::sync::Arc;
use std::time::Duration;

use scald_bench::harness::{
    ctl_cases, flags, logic_prim, nanos, obj, retime_replay, s1_netlist, timed, write_record,
};
use scald_incr::{DesignInput, SessionBuilder};
use scald_netlist::Netlist;
use scald_trace::json::Json;
use scald_verifier::{Case, CaseSet, EvalCache, RunOptions, VerifierBuilder};

fn run_cases(
    netlist: &Netlist,
    cached: bool,
) -> (Duration, Option<scald_verifier::EvalCacheStats>) {
    let mut v = VerifierBuilder::new(netlist.clone())
        .eval_cache(cached)
        .build();
    let (_, wall) = timed(|| {
        v.run(&RunOptions::new().cases(CaseSet::list(ctl_cases())))
            .expect("design settles")
    });
    (wall, v.eval_cache_stats())
}

fn main() {
    let (chips, out) = flags(|f| {
        (
            f.get("--chips", 400),
            f.get("--out", "BENCH_cache.json".to_owned()),
        )
    });
    let (netlist, stats) = s1_netlist(chips);
    println!(
        "design: {} chips, {} primitives, {} signals",
        stats.chips, stats.prims, stats.signals
    );

    // A. Multi-case analysis, cache off vs on.
    let (case_off, _) = run_cases(&netlist, false);
    let (case_on, case_stats) = run_cases(&netlist, true);
    let case_stats = case_stats.expect("cache was enabled");
    let case_speedup = case_off.as_secs_f64() / case_on.as_secs_f64().max(1e-9);
    println!(
        "multi-case (8 cases): {case_off:.2?} uncached, {case_on:.2?} cached \
         ({case_speedup:.2}x, {:.1}% hit rate)",
        100.0 * case_stats.hit_rate()
    );

    // B. Cold vs warm full verification through one shared table — the
    // cross-session reuse scald-incr leans on.
    let cache = Arc::new(EvalCache::new());
    let mut cold = VerifierBuilder::new(netlist.clone())
        .shared_eval_cache(Arc::clone(&cache))
        .build();
    let (_, cold_wall) = timed(|| cold.run(&RunOptions::new()).expect("design settles"));
    let cold_stats = cache.stats();
    let mut uncached = VerifierBuilder::new(netlist.clone())
        .eval_cache(false)
        .build();
    let (_, uncached_wall) = timed(|| uncached.run(&RunOptions::new()).expect("design settles"));
    let mut warm = VerifierBuilder::new(netlist.clone())
        .shared_eval_cache(Arc::clone(&cache))
        .build();
    let (_, warm_wall) = timed(|| warm.run(&RunOptions::new()).expect("design settles"));
    let warm_hits = cache.stats().hits - cold_stats.hits;
    let warm_misses = cache.stats().misses - cold_stats.misses;
    let warm_rate = warm_hits as f64 / ((warm_hits + warm_misses) as f64).max(1.0);
    let warm_speedup = uncached_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
    println!(
        "warm replay: {uncached_wall:.2?} uncached vs {warm_wall:.2?} through the shared \
         table ({warm_speedup:.2}x, {:.1}% hit rate)",
        100.0 * warm_rate
    );

    // C. A 10-edit incremental session replay, cache off vs on.
    let (target, original) = logic_prim(&netlist);
    let open = |cached: bool| {
        SessionBuilder::new()
            .eval_cache(cached)
            .open(
                DesignInput::netlist(netlist.clone(), vec![Case::new()]),
                "cache_stats",
            )
            .expect("session opens")
    };
    let (mut session_off, mut session_on) = (open(false), open(true));
    let (incr_off, _) = retime_replay(&mut session_off, &target, original);
    let (incr_on, _) = retime_replay(&mut session_on, &target, original);
    let incr_speedup = incr_off.as_secs_f64() / incr_on.as_secs_f64().max(1e-9);
    println!(
        "incr session (10 edits on {target}): {incr_off:.2?} uncached, {incr_on:.2?} cached \
         ({incr_speedup:.2}x)"
    );

    write_record(
        &out,
        "scald-bench-cache",
        1,
        [
            ("chips", Json::from(chips as u64)),
            (
                "multi_case",
                obj([
                    ("cases", Json::from(8u64)),
                    ("uncached_wall_ns", Json::from(nanos(case_off))),
                    ("cached_wall_ns", Json::from(nanos(case_on))),
                    ("speedup", Json::from(case_speedup)),
                    ("hits", Json::from(case_stats.hits)),
                    ("misses", Json::from(case_stats.misses)),
                    ("hit_rate", Json::from(case_stats.hit_rate())),
                    ("entries", Json::from(case_stats.entries as u64)),
                ]),
            ),
            (
                "warm_replay",
                obj([
                    ("cold_wall_ns", Json::from(nanos(cold_wall))),
                    ("uncached_wall_ns", Json::from(nanos(uncached_wall))),
                    ("warm_wall_ns", Json::from(nanos(warm_wall))),
                    ("speedup", Json::from(warm_speedup)),
                    ("hits", Json::from(warm_hits)),
                    ("misses", Json::from(warm_misses)),
                    ("hit_rate", Json::from(warm_rate)),
                ]),
            ),
            (
                "incr_session",
                obj([
                    ("edits", Json::from(10u64)),
                    ("retimed_prim", Json::str(&target)),
                    ("uncached_wall_ns", Json::from(nanos(incr_off))),
                    ("cached_wall_ns", Json::from(nanos(incr_on))),
                    ("speedup", Json::from(incr_speedup)),
                ]),
            ),
        ],
    );

    // The cache's headline invariant on any box, regardless of size or
    // core count: replaying an unchanged design through a shared table
    // is served almost entirely from cache.
    assert!(
        warm_rate >= 0.60,
        "warm replay hit rate {:.1}% below the 60% floor",
        100.0 * warm_rate
    );
}
