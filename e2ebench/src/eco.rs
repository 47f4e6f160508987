//! The `serve_eco` workload: an in-process `scald-serve` daemon on a Unix
//! socket and two closed-loop clients editing one S-1-like design.
//!
//! Each client opens the same design, then loops: `apply-delta` with a
//! seeded one-line source edit, then `report`. Once the timed window ends,
//! the same edit scripts are replayed through in-process `scald-incr`
//! sessions, and every `report` response must match the replay byte for
//! byte.

use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use scald_gen::prng::Rng;
use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_incr::{compile_source, Delta, DesignInput, SessionBuilder};
use scald_serve::{serve, Client, DeltaSpec, Response, RunSummary, ServeOptions};
use scald_wave::WaveStore;

use crate::spans::{Span, Tracer};
use crate::util::{fnv1a, host_probe, median, mix, ms};
use crate::JOBS;

const CLIENTS: usize = 2;
const LABEL: &str = "serve_eco";
/// Untimed edit/report pairs each client makes after its open.
const WARMUP_PAIRS: usize = 2;
/// Timed edit/report pairs each client makes even past the deadline, so a
/// segment always holds enough requests for its percentiles.
const MIN_PAIRS: usize = 10;
/// Host probes run just before and just after the timed window.
const PROBES: usize = 3;
const SLICE_PREFIX: &str = "  use 'DP SLICE' SIZE=";
const WIDTHS: [&str; 6] = ["1", "4", "8", "16", "32", "36"];
/// Stable-from points of a slice's `IN` assertion that keep the design clean.
const STABLE_FROM: [&str; 4] = ["2", "2.5", "3", "3.5"];

/// A seeded sequence of one-line edits to the generated design: each edit
/// changes one `use` line's `IN` assertion or, where no neighbour shares
/// the slice's output, its width.
pub struct Script {
    lines: Vec<String>,
    slices: Vec<usize>,
    resizable: Vec<bool>,
    rng: Rng,
}

impl Script {
    pub fn new(src: &str, seed: u64) -> Script {
        let lines: Vec<String> = src.split('\n').map(str::to_owned).collect();
        let slices: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with(SLICE_PREFIX))
            .collect();
        let resizable = (0..slices.len())
            .map(|k| {
                let own_alt = lines[slices[k]].contains(&format!("'S{k} ALT"));
                let feeds_next = slices
                    .get(k + 1)
                    .is_some_and(|&next| lines[next].contains(&format!("'S{k} Q') ->")));
                own_alt && !feeds_next
            })
            .collect();
        Script {
            lines,
            slices,
            resizable,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// Applies the next edit and returns the whole edited source.
    pub fn next_source(&mut self) -> String {
        let k = self.rng.range_usize(0, self.slices.len());
        let line = &self.lines[self.slices[k]];
        if self.resizable[k] && self.rng.bool() {
            let rest = &line[SLICE_PREFIX.len()..];
            let digits = rest.find(' ').unwrap_or(rest.len());
            let current = rest[..digits].to_owned();
            let width = self.pick(&WIDTHS, &current);
            self.lines[self.slices[k]]
                .replace_range(SLICE_PREFIX.len()..SLICE_PREFIX.len() + digits, width);
        } else {
            let key = format!("'S{k} IN .S");
            let at = line.find(&key).expect("every slice has an IN input") + key.len();
            let end = at + line[at..].find("-8'").expect("IN is asserted up to unit 8");
            let current = line[at..end].to_owned();
            let from = self.pick(&STABLE_FROM, &current);
            self.lines[self.slices[k]].replace_range(at..end, from);
        }
        self.lines.join("\n")
    }

    fn pick(&mut self, choices: &[&'static str], current: &str) -> &'static str {
        let others: Vec<&'static str> = choices.iter().copied().filter(|c| *c != current).collect();
        others[self.rng.range_usize(0, others.len())]
    }
}

/// Generates the design both clients open.
pub fn design(seed: u64, tiny: bool) -> String {
    s1_like_hdl(S1Options {
        chips: if tiny { 60 } else { 1000 },
        seed: mix(seed, 4),
    })
}

/// One client request as seen from the client side.
struct Request {
    start: Instant,
    end: Instant,
    apply: bool,
    /// The verification summary, for `apply-delta`.
    summary: Option<RunSummary>,
}

/// An edit a client sent, and the digest of the `report` that followed it
/// (`None` when either request failed).
struct Sent {
    source: String,
    applied: bool,
    report: Option<u64>,
}

struct ClientRun {
    requests: Vec<Request>,
    sent: Vec<Sent>,
    failed: u64,
}

/// What one daemon segment measured.
pub struct Segment {
    pub setup_ns: u64,
    pub window_ns: u64,
    pub latencies_ns: Vec<u64>,
    /// Latencies of the `apply-delta` requests alone: edit in, verdict out.
    pub applies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Median host-probe time, measured just before and after the window.
    pub probe_ns: u64,
    pub rss_kib: u64,
    pub counts: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

fn report_digest(response: &Response) -> Option<u64> {
    match response {
        Response::Report { report, .. } => Some(fnv1a(report.to_string().as_bytes())),
        _ => None,
    }
}

/// Runs one segment: set-up (generate, start the daemon, cold open, warm
/// up), then `window` of closed-loop traffic, then the replay check.
pub fn segment(seed: u64, tiny: bool, traced: bool, window: Duration) -> Result<Segment, String> {
    let setup_started = Instant::now();
    let src = design(seed, tiny);
    let dir = crate::util::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Unix socket paths are short; bind relative to the output directory.
    std::env::set_current_dir(&dir).map_err(|e| format!("enter {}: {e}", dir.display()))?;
    let socket = PathBuf::from(format!("eco-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let opts = ServeOptions {
        socket: Some(socket.clone()),
        jobs: JOBS,
        ..ServeOptions::default()
    };
    let daemon = thread::spawn(move || serve(&opts));
    let connect = || -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match Client::connect_unix(&socket) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => thread::sleep(Duration::from_millis(2)),
            }
        }
    };
    let mut probe = connect()?;
    let traffic = drive(
        &src,
        seed,
        traced,
        window,
        setup_started,
        &connect,
        &mut probe,
    );
    let shutdown = probe.shutdown();
    drop(probe);
    let joined = daemon.join();
    let segment = traffic?;
    shutdown.map_err(|e| format!("shutdown: {e}"))?;
    match joined {
        Ok(Ok(())) => Ok(segment),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon panicked".to_owned()),
    }
}

/// Set-up after the daemon is listening, the timed window, and the replay.
fn drive(
    src: &str,
    seed: u64,
    traced: bool,
    window: Duration,
    setup_started: Instant,
    connect: &dyn Fn() -> Result<Client, String>,
    probe: &mut Client,
) -> Result<Segment, String> {
    // Created first: recorded spans are measured from its origin.
    let mut tracer = Tracer::new(traced);
    let mut clients = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..CLIENTS {
        let mut client = connect()?;
        let session = match client.open_source(src, LABEL) {
            Ok(Response::Opened { session, .. }) => session,
            other => return Err(format!("open: {other:?}")),
        };
        let report = client
            .report(&session, false)
            .map_err(|e| format!("report: {e}"))?;
        digests.push(report_digest(&report).ok_or_else(|| format!("report: {report:?}"))?);
        clients.push((client, session));
    }
    if digests.iter().any(|d| *d != digests[0]) {
        return Err("the two clients' opening reports differ".to_owned());
    }
    let mut scripts: Vec<Script> = (0..CLIENTS)
        .map(|c| Script::new(src, mix(seed, 10 + c as u64)))
        .collect();
    let mut warmups: Vec<Vec<Sent>> = Vec::new();
    for ((client, session), script) in clients.iter_mut().zip(&mut scripts) {
        warmups.push(
            (0..WARMUP_PAIRS)
                .map(|_| pair(client, session, script).1)
                .collect(),
        );
    }
    let setup_ns = elapsed_ns(setup_started);
    let mut probes: Vec<f64> = (0..PROBES).map(|_| host_probe() as f64).collect();

    let (hits0, misses0) = cache_totals(probe)?;
    let waves0 = WaveStore::global().stats();
    let started = Instant::now();
    let deadline = started + window;
    let runs: Vec<ClientRun> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(scripts)
            .map(|((mut client, session), mut script)| {
                s.spawn(move || {
                    let mut run = ClientRun {
                        requests: Vec::new(),
                        sent: Vec::new(),
                        failed: 0,
                    };
                    while Instant::now() < deadline || run.sent.len() < MIN_PAIRS {
                        let (requests, sent) = pair(&mut client, &session, &mut script);
                        run.failed += u64::from(!sent.applied) + u64::from(sent.report.is_none());
                        run.requests.extend(requests);
                        run.sent.push(sent);
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_ns = runs
        .iter()
        .flat_map(|r| r.requests.last())
        .map(|r| ns_between(started, r.end))
        .max()
        .unwrap_or(0);
    let waves1 = WaveStore::global().stats();
    let (hits1, misses1) = cache_totals(probe)?;
    // Read before the replay, whose sessions are not part of the workload.
    let rss_kib = crate::util::peak_rss_kib().unwrap_or(0);
    probes.extend((0..PROBES).map(|_| host_probe() as f64));

    let mut latencies_ns = Vec::new();
    let mut applies_ns = Vec::new();
    let mut verify_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut seeded = Vec::new();
    let mut evaluations = Vec::new();
    for (c, run) in runs.iter().enumerate() {
        for (k, r) in run.requests.iter().enumerate() {
            let latency = ns_between(r.start, r.end);
            let wall = r.summary.map_or(0, |s| s.wall_ns.min(latency));
            latencies_ns.push(latency);
            if r.apply {
                applies_ns.push(latency);
            }
            verify_ms.extend(r.summary.map(|_| ms(wall)));
            overhead_ms.push(ms(latency - wall));
            if let Some(s) = r.summary {
                seeded.push(s.seeded_prims as f64);
                evaluations.push(s.evaluations as f64);
            }
            if traced {
                tracer.set_iter((c * 1_000_000 + k) as u64);
                let root = tracer.record("request", r.start, r.end, None);
                let split = r.start + Duration::from_nanos(wall);
                if r.summary.is_some() {
                    tracer.record("serve.verify", r.start, split, Some(root));
                }
                tracer.record("serve.overhead", split, r.end, Some(root));
            }
        }
    }
    let hits = hits1 - hits0;
    let misses = misses1 - misses0;
    let interns = waves1.interns - waves0.interns;
    let mut counts = vec![
        ("serve.verify_ms", median(&verify_ms)),
        ("serve.overhead_ms", median(&overhead_ms)),
        ("serve.seeded_prims", median(&seeded)),
        ("serve.evaluations", median(&evaluations)),
        (
            "serve.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("wave.interns", interns as f64),
        (
            "wave.intern_hit_rate",
            (waves1.hits - waves0.hits) as f64 / interns.max(1) as f64,
        ),
        (
            "wave.unique",
            waves1.unique.saturating_sub(waves0.unique) as f64,
        ),
    ];

    // Warm-up requests are checked like the timed ones, so they count.
    let warmup_requests = 2 * warmups.iter().map(Vec::len).sum::<usize>() as u64;
    let attempted = warmup_requests + runs.iter().map(|r| r.requests.len() as u64).sum::<u64>();
    let mut failed: u64 = runs.iter().map(|r| r.failed).sum::<u64>()
        + warmups
            .iter()
            .flatten()
            .map(|s| u64::from(!s.applied) + u64::from(s.report.is_none()))
            .sum::<u64>();
    let mut spans = tracer.into_spans();
    let scripts: Vec<Vec<Sent>> = warmups
        .into_iter()
        .zip(runs)
        .map(|(mut w, r)| {
            w.extend(r.sent);
            w
        })
        .collect();
    let replays = replay(src, digests[0], &scripts, traced);
    for (c, replay) in replays.into_iter().enumerate() {
        let replay = replay?;
        failed += replay.mismatches;
        counts.extend(replay.counts);
        let base = spans.len();
        spans.extend(replay.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.iter += 10_000_000 * (c as u64 + 1);
            s
        }));
    }
    Ok(Segment {
        setup_ns,
        window_ns,
        latencies_ns,
        applies_ns,
        attempted,
        failed,
        digest: digests[0],
        probe_ns: median(&probes) as u64,
        rss_kib,
        counts,
        spans,
    })
}

/// One edit then one report; both requests are returned with the edit.
fn pair(client: &mut Client, session: &str, script: &mut Script) -> ([Request; 2], Sent) {
    let source = script.next_source();
    let start = Instant::now();
    let applied = client.apply(session, DeltaSpec::Source(source.clone()));
    let end = Instant::now();
    let summary = match applied {
        Ok(Response::Applied { summary, .. }) => Some(summary),
        _ => None,
    };
    let rstart = Instant::now();
    let report = client
        .report(session, false)
        .ok()
        .as_ref()
        .and_then(report_digest);
    let rend = Instant::now();
    (
        [
            Request {
                start,
                end,
                apply: true,
                summary,
            },
            Request {
                start: rstart,
                end: rend,
                apply: false,
                summary: None,
            },
        ],
        Sent {
            source,
            applied: summary.is_some(),
            report,
        },
    )
}

struct Replay {
    mismatches: u64,
    counts: Vec<(&'static str, f64)>,
    spans: Vec<Span>,
}

/// Replays each client's edits through an in-process session and compares
/// every report. With tracing on, each replayed edit is an iteration with
/// spans around `compile_source`, the HDL phases, `Session::apply` and the
/// report render.
fn replay(
    src: &str,
    opening: u64,
    scripts: &[Vec<Sent>],
    traced: bool,
) -> Vec<Result<Replay, String>> {
    thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|sent| s.spawn(move || replay_one(src, opening, sent, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

fn replay_one(src: &str, opening: u64, sent: &[Sent], traced: bool) -> Result<Replay, String> {
    let digest = |session: &scald_incr::Session| {
        fnv1a(
            session
                .report()
                .strip_effort()
                .json_value()
                .to_string()
                .as_bytes(),
        )
    };
    let mut session = SessionBuilder::new()
        .jobs(JOBS)
        .open(DesignInput::source(src), LABEL)
        .map_err(|e| format!("replay open: {e}"))?;
    let mut mismatches = u64::from(digest(&session) != opening);
    let mut t = Tracer::new(traced);
    // Per replayed edit: source bytes, prims, pass 1 ms, pass 2 ms, instances.
    let mut hdl: [Vec<f64>; 5] = Default::default();
    for (k, edit) in sent.iter().enumerate().filter(|(_, e)| e.applied) {
        t.set_iter(k as u64);
        let outcome = t.span("replay", |t| {
            if t.is_on() {
                let _ = t.span("incr.compile", |_| compile_source(&edit.source));
                let design = t.span("hdl.parse", |_| scald_hdl::parse(&edit.source));
                let expanded = design
                    .ok()
                    .and_then(|d| t.span("hdl.expand", |_| scald_hdl::expand(&d)).ok());
                if let Some(x) = expanded {
                    hdl[1].push(x.stats.prims_emitted as f64);
                    hdl[2].push(x.stats.pass1.as_secs_f64() * 1e3);
                    hdl[3].push(x.stats.pass2.as_secs_f64() * 1e3);
                    hdl[4].push(x.stats.instances_expanded as f64);
                }
                hdl[0].push(edit.source.len() as f64);
            }
            let outcome = t.span("incr.apply", |_| {
                session.apply(Delta::Source(edit.source.clone()))
            });
            if t.is_on() {
                t.span("report.render", |_| {
                    session.report().json_value().to_string_pretty()
                });
            }
            outcome
        });
        outcome.map_err(|e| format!("replay apply: {e}"))?;
        mismatches += u64::from(edit.report != Some(digest(&session)));
    }
    let names = [
        "hdl.src_bytes",
        "hdl.prims",
        "hdl.pass1_ms",
        "hdl.pass2_ms",
        "hdl.instances",
    ];
    let counts = if traced {
        names
            .into_iter()
            .zip(&hdl)
            .map(|(n, v)| (n, median(v)))
            .collect()
    } else {
        Vec::new()
    };
    Ok(Replay {
        mismatches,
        counts,
        spans: t.into_spans(),
    })
}

fn cache_totals(probe: &mut Client) -> Result<(u64, u64), String> {
    match probe.stats() {
        Ok(Response::Stats { stats, .. }) => Ok(stats
            .designs
            .iter()
            .fold((0, 0), |(h, m), d| (h + d.cache_hits, m + d.cache_misses))),
        other => Err(format!("stats: {other:?}")),
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn elapsed_ns(from: Instant) -> u64 {
    ns_between(from, Instant::now())
}
