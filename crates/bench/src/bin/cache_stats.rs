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
use std::time::{Duration, Instant};

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_incr::{Delta, DesignInput, NetlistDelta, Session, SessionBuilder};
use scald_netlist::Netlist;
use scald_trace::json::Json;
use scald_verifier::{Case, CaseSet, EvalCache, RunOptions, VerifierBuilder};
use scald_wave::DelayRange;

struct Args {
    chips: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        chips: 400,
        out: "BENCH_cache.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chips" => {
                if let Some(n) = args.next().and_then(|s| s.parse().ok()) {
                    parsed.chips = n;
                }
            }
            "--out" => {
                if let Some(p) = args.next() {
                    parsed.out = p;
                }
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    parsed
}

/// Eight single-assignment cases over the generated design's global
/// control signals.
fn cases() -> Vec<Case> {
    (0..8)
        .map(|i| Case::new().assign(format!("CTL {i}"), i % 2 == 0))
        .collect()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn wall_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn run_cases(
    netlist: &Netlist,
    cached: bool,
) -> (Duration, Option<scald_verifier::EvalCacheStats>) {
    let mut v = VerifierBuilder::new(netlist.clone())
        .eval_cache(cached)
        .build();
    let (_, wall) = timed(|| {
        v.run(&RunOptions::new().cases(CaseSet::list(cases())).jobs(1))
            .expect("design settles")
    });
    (wall, v.eval_cache_stats())
}

/// A 10-edit session: one datapath primitive retimed back and forth five
/// times, so every second edit replays a previously seen design state.
fn replay_session(mut session: Session, target: &str, original: DelayRange) -> Duration {
    let mut wall = Duration::ZERO;
    for edit in 0..10 {
        let delay = if edit % 2 == 0 {
            DelayRange::from_ns(2.0, 6.5)
        } else {
            original
        };
        let mut delta = NetlistDelta::new();
        delta.retime(target.to_owned(), delay);
        let stats = session
            .apply(Delta::Netlist(delta))
            .expect("retime applies");
        wall += stats.wall;
    }
    wall
}

fn main() {
    let args = parse_args();
    let (netlist, stats) = s1_like_netlist(S1Options {
        chips: args.chips,
        ..S1Options::default()
    });
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
    let open = |cached: bool| {
        SessionBuilder::new()
            .eval_cache(cached)
            .open(
                DesignInput::netlist(netlist.clone(), vec![Case::new()]),
                "cache_stats",
            )
            .expect("session opens")
    };
    let session_off = open(false);
    let session_on = open(true);
    let target = session_on
        .netlist()
        .prims()
        .iter()
        .find(|p| p.name.ends_with("/LOGIC"))
        .expect("generated design has datapath slices")
        .name
        .clone();
    let original = session_on
        .netlist()
        .prims()
        .iter()
        .find(|p| p.name == target)
        .unwrap()
        .delay;
    let incr_off = replay_session(session_off, &target, original);
    let incr_on = replay_session(session_on, &target, original);
    let incr_speedup = incr_off.as_secs_f64() / incr_on.as_secs_f64().max(1e-9);
    println!(
        "incr session (10 edits on {target}): {incr_off:.2?} uncached, {incr_on:.2?} cached \
         ({incr_speedup:.2}x)"
    );

    let doc = Json::Obj(vec![
        ("schema".to_owned(), Json::str("scald-bench-cache")),
        ("version".to_owned(), Json::from(1u64)),
        ("chips".to_owned(), Json::from(args.chips as u64)),
        (
            "multi_case".to_owned(),
            Json::Obj(vec![
                ("cases".to_owned(), Json::from(8u64)),
                ("uncached_wall_ns".to_owned(), Json::from(wall_ns(case_off))),
                ("cached_wall_ns".to_owned(), Json::from(wall_ns(case_on))),
                ("speedup".to_owned(), Json::from(case_speedup)),
                ("hits".to_owned(), Json::from(case_stats.hits)),
                ("misses".to_owned(), Json::from(case_stats.misses)),
                ("hit_rate".to_owned(), Json::from(case_stats.hit_rate())),
                ("entries".to_owned(), Json::from(case_stats.entries as u64)),
            ]),
        ),
        (
            "warm_replay".to_owned(),
            Json::Obj(vec![
                ("cold_wall_ns".to_owned(), Json::from(wall_ns(cold_wall))),
                (
                    "uncached_wall_ns".to_owned(),
                    Json::from(wall_ns(uncached_wall)),
                ),
                ("warm_wall_ns".to_owned(), Json::from(wall_ns(warm_wall))),
                ("speedup".to_owned(), Json::from(warm_speedup)),
                ("hits".to_owned(), Json::from(warm_hits)),
                ("misses".to_owned(), Json::from(warm_misses)),
                ("hit_rate".to_owned(), Json::from(warm_rate)),
            ]),
        ),
        (
            "incr_session".to_owned(),
            Json::Obj(vec![
                ("edits".to_owned(), Json::from(10u64)),
                ("retimed_prim".to_owned(), Json::str(target)),
                ("uncached_wall_ns".to_owned(), Json::from(wall_ns(incr_off))),
                ("cached_wall_ns".to_owned(), Json::from(wall_ns(incr_on))),
                ("speedup".to_owned(), Json::from(incr_speedup)),
            ]),
        ),
    ]);
    std::fs::write(&args.out, doc.to_string_pretty() + "\n").expect("write BENCH_cache.json");
    println!("recorded {}", args.out);

    // The cache's headline invariant on any box, regardless of size or
    // core count: replaying an unchanged design through a shared table
    // is served almost entirely from cache.
    assert!(
        warm_rate >= 0.60,
        "warm replay hit rate {:.1}% below the 60% floor",
        100.0 * warm_rate
    );
}
