//! Load test for the `scald-serve` daemon: N concurrent clients over a
//! Unix socket, measuring per-request latency (p50/p99) and what the
//! cross-client shared evaluation cache buys.
//!
//! Two phases:
//!
//! - **shared** — every client opens *the same* design. The first open
//!   is cold; the rest verify through the already-warm shared table, so
//!   the per-design cache hit rate is the headline number.
//! - **distinct** — every client opens its own seeded design: the
//!   no-sharing baseline the shared phase is compared against.
//!
//! Records everything to `BENCH_serve.json` in the current directory.
//!
//! Usage: `cargo run -p scald-bench --bin loadtest --release`
//! (`--clients N`, `--chips N`, `--rounds N`, `--out PATH` to override.)

use scald_bench::harness::{flags, nanos, obj, percentile, timed, write_record};
use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_serve::{serve, Client, Response, ServeOptions};
use scald_trace::json::Json;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

struct Args {
    clients: usize,
    chips: usize,
    rounds: usize,
    out: String,
}

/// Latencies of every request one client issued, in nanoseconds.
struct ClientRun {
    latencies: Vec<u64>,
    reused_session: bool,
    shared_cache: bool,
}

/// One client's workload: open, `rounds` run/report pairs, close. Every
/// request's wall clock lands in `latencies`.
fn drive_client(path: &PathBuf, src: &str, label: &str, rounds: usize) -> ClientRun {
    let mut client = Client::connect_unix(path).expect("connects");
    let mut latencies = Vec::new();
    let mut request = |f: &mut dyn FnMut(&mut Client) -> Response| {
        let (response, wall) = timed(|| f(&mut client));
        latencies.push(nanos(wall));
        response
    };

    let (session, reused_session, shared_cache) =
        match request(&mut |c| c.open_source(src, label).expect("opens")) {
            Response::Opened {
                session,
                reused_session,
                shared_cache,
                ..
            } => (session, reused_session, shared_cache),
            other => panic!("expected opened, got {other:?}"),
        };
    for _ in 0..rounds {
        let s = session.clone();
        assert!(matches!(
            request(&mut |c| c.run(&s).expect("runs")),
            Response::Ran { .. }
        ));
        let s = session.clone();
        assert!(matches!(
            request(&mut |c| c.report(&s, false).expect("reports")),
            Response::Report { .. }
        ));
    }
    let s = session;
    assert!(matches!(
        request(&mut |c| c.close(&s).expect("closes")),
        Response::Closed { .. }
    ));
    ClientRun {
        latencies,
        reused_session,
        shared_cache,
    }
}

/// One phase: `--clients` concurrent clients, client `i` driving the
/// `(source, label)` of `design(i)`. Returns their runs and the phase's
/// wall clock, design generation included.
fn concurrent(
    path: &Path,
    args: &Args,
    design: impl Fn(usize) -> (String, String),
) -> (Vec<ClientRun>, Duration) {
    timed(|| {
        let handles: Vec<_> = (0..args.clients)
            .map(|i| {
                let (path, (src, label), rounds) = (path.to_path_buf(), design(i), args.rounds);
                thread::spawn(move || drive_client(&path, &src, &label, rounds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    })
}

/// Latency digest + sharing counters for one phase.
struct PhaseResult {
    requests: usize,
    wall: Duration,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    reused_sessions: usize,
    shared_cache_opens: usize,
    cache_hits: u64,
    cache_misses: u64,
}

impl PhaseResult {
    fn digest(runs: Vec<ClientRun>, wall: Duration, hits: u64, misses: u64) -> PhaseResult {
        let mut latencies: Vec<u64> = runs.iter().flat_map(|r| r.latencies.clone()).collect();
        latencies.sort_unstable();
        PhaseResult {
            requests: latencies.len(),
            wall,
            p50_ns: percentile(&latencies, 0.50),
            p99_ns: percentile(&latencies, 0.99),
            max_ns: latencies.last().copied().unwrap_or(0),
            reused_sessions: runs.iter().filter(|r| r.reused_session).count(),
            shared_cache_opens: runs.iter().filter(|r| r.shared_cache).count(),
            cache_hits: hits,
            cache_misses: misses,
        }
    }

    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    fn json(&self) -> Json {
        obj([
            ("requests", Json::from(self.requests as u64)),
            ("wall_ns", Json::from(nanos(self.wall))),
            ("p50_ns", Json::from(self.p50_ns)),
            ("p99_ns", Json::from(self.p99_ns)),
            ("max_ns", Json::from(self.max_ns)),
            ("reused_sessions", Json::from(self.reused_sessions as u64)),
            (
                "shared_cache_opens",
                Json::from(self.shared_cache_opens as u64),
            ),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("cache_hit_rate", Json::from(self.hit_rate())),
        ])
    }
}

/// Sums cache traffic over every design the daemon currently tracks.
fn cache_totals(client: &mut Client) -> (u64, u64) {
    let Response::Stats { stats, .. } = client.stats().expect("stats") else {
        panic!("expected stats");
    };
    stats
        .designs
        .iter()
        .fold((0, 0), |(h, m), d| (h + d.cache_hits, m + d.cache_misses))
}

fn main() {
    let args = flags(|f| Args {
        clients: f.get("--clients", 4),
        chips: f.get("--chips", 400),
        rounds: f.get("--rounds", 3),
        out: f.get("--out", "BENCH_serve.json".to_owned()),
    });
    let path = std::env::temp_dir().join(format!("scald-loadtest-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let daemon = {
        let opts = ServeOptions {
            socket: Some(path.clone()),
            ..ServeOptions::default()
        };
        thread::spawn(move || serve(&opts).expect("daemon runs"))
    };
    while UnixStream::connect(&path).is_err() {
        thread::sleep(Duration::from_millis(5));
    }

    // Phase 1 — N clients hammer ONE design. Warm the pool with a cold
    // open first so the concurrent clients measure the shared-cache
    // path, not a thundering herd of colds.
    let shared_src = s1_like_hdl(S1Options {
        chips: args.chips,
        seed: 0x10ad,
    });
    let warmup = drive_client(&path, &shared_src, "loadtest-shared", 1);
    assert!(!warmup.reused_session && !warmup.shared_cache);
    let mut probe = Client::connect_unix(&path).expect("connects");
    let (base_hits, base_misses) = cache_totals(&mut probe);

    let (runs, shared_wall) = concurrent(&path, &args, |_| {
        (shared_src.clone(), "loadtest-shared".to_owned())
    });
    let (hits, misses) = cache_totals(&mut probe);
    let shared = PhaseResult::digest(runs, shared_wall, hits - base_hits, misses - base_misses);

    // Phase 2 — N clients, N distinct designs: nothing to share.
    let (runs, distinct_wall) = concurrent(&path, &args, |i| {
        let src = s1_like_hdl(S1Options {
            chips: args.chips,
            seed: 0xd157 + i as u64,
        });
        (src, format!("loadtest-distinct-{i}"))
    });
    let (hits2, misses2) = cache_totals(&mut probe);
    let distinct = PhaseResult::digest(runs, distinct_wall, hits2 - hits, misses2 - misses);

    probe.shutdown().expect("shutdown");
    drop(probe);
    daemon.join().expect("daemon drains");

    println!(
        "shared:   {} requests, p50 {:.3} ms, p99 {:.3} ms, cache hit rate {:.1}% \
         ({} reused sessions, {} warm-cache opens)",
        shared.requests,
        shared.p50_ns as f64 / 1e6,
        shared.p99_ns as f64 / 1e6,
        100.0 * shared.hit_rate(),
        shared.reused_sessions,
        shared.shared_cache_opens,
    );
    println!(
        "distinct: {} requests, p50 {:.3} ms, p99 {:.3} ms, cache hit rate {:.1}%",
        distinct.requests,
        distinct.p50_ns as f64 / 1e6,
        distinct.p99_ns as f64 / 1e6,
        100.0 * distinct.hit_rate(),
    );

    write_record(
        &args.out,
        "scald-bench-serve",
        1,
        [
            ("clients", Json::from(args.clients as u64)),
            ("chips", Json::from(args.chips as u64)),
            ("rounds", Json::from(args.rounds as u64)),
            ("shared", shared.json()),
            ("distinct", distinct.json()),
        ],
    );
}
