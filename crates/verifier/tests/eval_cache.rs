//! Property tests for the evaluation memo table: the cache is an
//! invisible accelerator. A cache-enabled run must produce a report and
//! per-case trace streams byte-identical to the uncached engine — only
//! the effort counters (the `cache_stats` trace event and
//! `EngineStats::eval_cache`) may differ, and those are normalized away
//! here exactly as `wall_nanos` is.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::Netlist;
use scald_rng::Rng;
use scald_trace::{json, TraceEvent, TraceSink};
use scald_verifier::{Case, CaseSet, EvalCache, Report, RunOptions, VerifierBuilder};

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

/// Partitions a trace stream into per-case ordered sub-streams,
/// normalizing away the wall clock (`wall_nanos`) and dropping the
/// `cache_stats` effort event — the one trace line the cache is allowed
/// to add.
fn partition(lines: &[String]) -> BTreeMap<String, Vec<String>> {
    let mut parts: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in lines {
        if line.contains("\"type\":\"cache_stats\"") {
            continue;
        }
        let mut v = json::parse(line).expect("sink lines are valid JSON");
        let key = match v.get("case") {
            None => "global".to_owned(),
            Some(json::Json::Null) => "base".to_owned(),
            Some(c) => format!("case {c}"),
        };
        if let json::Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "wall_nanos");
        }
        parts.entry(key).or_default().push(v.to_string());
    }
    parts
}

/// Report JSON with the fields that may differ across cache
/// configurations (wall clock, cache counters) cleared.
fn canonical_report(report: &mut Report) -> String {
    report.engine.verify_wall = None;
    report.engine.eval_cache = None;
    report.to_json()
}

/// One seeded verification with the memo table on or off; returns the
/// canonical report, the partitioned trace, and the cache's hit count
/// (0 when disabled).
fn run_traced(
    netlist: &Netlist,
    cases: &[Case],
    cached: bool,
) -> (String, BTreeMap<String, Vec<String>>, u64) {
    let sink = Arc::new(CollectSink::default());
    let mut v = VerifierBuilder::new(netlist.clone())
        .eval_cache(cached)
        .trace(sink.clone())
        .build();
    let outcome = v
        .run(&RunOptions::new().cases(CaseSet::list(cases.iter().cloned())))
        .expect("seeded designs settle");
    let mut report = v.report("eval_cache", &outcome.cases);
    let hits = v.eval_cache_stats().map_or(0, |s| s.hits);
    let lines = sink.0.lock().expect("collect sink poisoned").clone();
    (canonical_report(&mut report), partition(&lines), hits)
}

/// The headline property, over 50+ seeded designs: with the cache on,
/// report JSON and per-case trace streams are byte-identical to the
/// uncached engine — and the cache is not vacuous (it hits on at least
/// some designs).
#[test]
fn fifty_seeded_designs_verify_identically_with_and_without_the_cache() {
    let mut rng = Rng::seed_from_u64(0xcac4e);
    let mut designs = 0usize;
    let mut total_hits = 0u64;
    while designs < 50 {
        designs += 1;
        let (netlist, _) = s1_like_netlist(S1Options {
            chips: rng.range_usize(4, 14),
            seed: rng.next_u64(),
        });
        // Even designs exercise the case fan-out: repeated assignments
        // across cases are exactly where cross-case memoization bites.
        let cases = if designs.is_multiple_of(2) {
            let ctl = rng.range_u32(0, 24);
            vec![
                Case::new().assign(format!("CTL {ctl}"), rng.bool()),
                Case::new().assign(format!("CTL {}", rng.range_u32(0, 24)), rng.bool()),
                Case::new().assign(format!("CTL {ctl}"), rng.bool()),
            ]
        } else {
            Vec::new()
        };

        let (base_report, base_trace, _) = run_traced(&netlist, &cases, false);
        let (report, trace, hits) = run_traced(&netlist, &cases, true);
        assert_eq!(report, base_report, "design {designs}");
        assert_eq!(trace, base_trace, "design {designs}");
        total_hits += hits;
    }
    assert!(designs >= 50);
    assert!(total_hits > 0, "the memo table never hit across the sweep");
}

/// The counters surface exactly when the cache is enabled: `report()`
/// carries `EngineStats::eval_cache` (and non-null JSON fields), the
/// trace stream ends with one `cache_stats` event — and a disabled
/// engine emits neither.
#[test]
fn cache_counters_surface_only_when_enabled() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 20,
        seed: 0x5ca1d,
    });

    let sink = Arc::new(CollectSink::default());
    let mut on = VerifierBuilder::new(netlist.clone())
        .trace(sink.clone())
        .build();
    let outcome = on.run(&RunOptions::new()).unwrap();
    let stats = on.eval_cache_stats().expect("cache defaults to on");
    assert!(stats.misses > 0, "a cold run must miss");
    assert!(stats.entries > 0);
    let report = on.report("on", &outcome.cases);
    assert_eq!(report.engine.eval_cache, Some(stats));
    let json = report.to_json();
    assert!(json.contains("\"cache_misses\":"), "{json}");
    assert!(!json.contains("\"cache_misses\": null"), "{json}");
    let lines = sink.0.lock().unwrap().clone();
    let cache_lines: Vec<_> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"cache_stats\""))
        .collect();
    assert_eq!(cache_lines.len(), 1, "one effort event per run");
    assert!(
        lines.last().unwrap().contains("\"type\":\"run_end\""),
        "cache_stats precedes run_end"
    );

    let sink = Arc::new(CollectSink::default());
    let mut off = VerifierBuilder::new(netlist)
        .eval_cache(false)
        .trace(sink.clone())
        .build();
    let outcome = off.run(&RunOptions::new()).unwrap();
    assert_eq!(off.eval_cache_stats(), None);
    let report = off.report("off", &outcome.cases);
    assert_eq!(report.engine.eval_cache, None);
    assert!(report.to_json().contains("\"cache_hits\": null"));
    let lines = sink.0.lock().unwrap().clone();
    assert!(
        !lines.iter().any(|l| l.contains("\"type\":\"cache_stats\"")),
        "disabled engine must not emit cache_stats"
    );
}

/// A shared table serves a second verifier of the identical design
/// entirely from cache: no new misses, only hits — the mechanism
/// `scald-incr` sessions lean on across re-verifications.
#[test]
fn shared_cache_replays_an_identical_design_without_missing() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 30,
        seed: 0xeca1,
    });
    let cache = Arc::new(EvalCache::new());

    let mut first = VerifierBuilder::new(netlist.clone())
        .shared_eval_cache(Arc::clone(&cache))
        .build();
    let cold = first.run(&RunOptions::new()).unwrap();
    let cold_stats = cache.stats();
    assert!(cold_stats.misses > 0);

    let mut second = VerifierBuilder::new(netlist)
        .shared_eval_cache(Arc::clone(&cache))
        .build();
    let warm = second.run(&RunOptions::new()).unwrap();
    let warm_stats = cache.stats();
    assert_eq!(
        warm_stats.misses, cold_stats.misses,
        "an unchanged design re-verifies without a single cache miss"
    );
    assert!(warm_stats.hits > cold_stats.hits);
    assert_eq!(warm_stats.entries, cold_stats.entries);
    assert_eq!(
        format!("{:?}", warm.cases),
        format!("{:?}", cold.cases),
        "served-from-cache results equal computed ones"
    );
}

/// Per-verifier caches are private by default: two verifiers of the same
/// design each start cold unless a table is explicitly shared.
#[test]
fn private_caches_do_not_leak_between_verifiers() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 12,
        seed: 0xeca1,
    });
    let mut a = VerifierBuilder::new(netlist.clone()).build();
    a.run(&RunOptions::new()).unwrap();
    let mut b = VerifierBuilder::new(netlist).build();
    b.run(&RunOptions::new()).unwrap();
    let (sa, sb) = (a.eval_cache_stats().unwrap(), b.eval_cache_stats().unwrap());
    assert_eq!(sa.misses, sb.misses, "both verifiers ran cold");
    assert_eq!(sa.entries, sb.entries);
}
