//! `e2ebench` — the source-to-report benchmark of the SCALD Timing
//! Verifier. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload tv_s1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics
//! `BENCHMARK.json` gates on with `--trace 0` (host-time latencies are
//! printed above it), the per-layer metrics with `--trace 1`.
//!
//! Every verdict and every daemon segment runs in a fresh child process
//! (this executable, re-invoked with `--child`), so each starts the way a
//! new `scald-tv` process does: an empty process-global `WaveStore` and a
//! verifier-private `EvalCache`. The parent generates no input: it runs
//! the correctness gate, starts the children one at a time, checks their
//! answers and aggregates their numbers.

mod batch;
mod eco;
mod spans;
mod util;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use scald_trace::json::{self, Json};
use scald_verifier::{RunOptions, VerifierBuilder};

use spans::{ledgers, per_iteration_ns, spans_from_json, spans_json, Span, Tracer};
use util::{median, ms, quantile};

/// Worker budget of every verifier and of the daemon.
pub const JOBS: usize = 2;
/// Fewest verdicts a batch run measures, however long they take.
const MIN_VERDICTS: usize = 3;
/// How long a batch run makes untimed reference verdicts before it measures.
const WARMUP: Duration = Duration::from_secs(1);
/// Daemon segments of one `serve_eco` run; each sets up from cold.
const SEGMENTS: usize = 3;
/// A child that has not finished by then is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(45);
/// Largest share of an iteration's wall clock the layer spans may leave
/// uncovered before the traced run fails.
const LEDGER_BOUND: f64 = 0.10;
/// The Fig 3-11 answer for `designs/register_file.scald`: violations and
/// error groups (distinct failing checkers).
const REGISTER_FILE_ANSWER: (usize, usize) = (3, 2);

const USAGE: &str = "usage: e2ebench --workload tv_s1|scale_settle|sweep_1k|serve_eco \
--seed N --seconds S --trace 0|1 [--size full|tiny] [--expect-register-file VIOLATIONS,GROUPS]";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TvS1,
    ScaleSettle,
    Sweep1k,
    ServeEco,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TvS1,
        Workload::ScaleSettle,
        Workload::Sweep1k,
        Workload::ServeEco,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::TvS1 => "tv_s1",
            Workload::ScaleSettle => "scale_settle",
            Workload::Sweep1k => "sweep_1k",
            Workload::ServeEco => "serve_eco",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::TvS1 => {
                "the scald-tv path of Table 3-1 from HDL text: frontend and report rendering show here"
            }
            Workload::ScaleSettle => {
                "250k-prim settle far beyond L2 with no frontend: kernel, state and wave changes show here"
            }
            Workload::Sweep1k => {
                "1,024-case sweep: case trie, release scheduler and checker/storage memo do the work"
            }
            Workload::ServeEco => {
                "warm daemon with edits and reports from 2 clients: cone-sized settles and daemon overhead"
            }
        }
    }
}

/// Per-layer metrics printed by `--trace 1`, with their units. A `_ms`
/// metric whose stem is a span name is that span's median inclusive time
/// per iteration; everything else is a counter reported by the children.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("hdl.parse_ms", "ms"),
    ("hdl.expand_ms", "ms"),
    ("hdl.pass1_ms", "ms"),
    ("hdl.pass2_ms", "ms"),
    ("hdl.src_bytes", "bytes"),
    ("hdl.instances", "count"),
    ("hdl.prims", "count"),
    ("caseset.build_ms", "ms"),
    ("caseset.cases", "count"),
    ("verifier.build_ms", "ms"),
    ("verifier.run_ms", "ms"),
    ("verifier.settle_base_ms", "ms"),
    ("verifier.cases_ms", "ms"),
    ("verifier.events", "count"),
    ("verifier.evaluations", "count"),
    ("verifier.eval_cache.hits", "count"),
    ("verifier.eval_cache.misses", "count"),
    ("verifier.eval_cache.hit_rate", "ratio"),
    ("verifier.waves", "count"),
    ("verifier.wave_width", "count"),
    ("verifier.prefix.nodes", "count"),
    ("verifier.prefix.evaluations", "count"),
    ("verifier.memo.leaf_check_evals", "count"),
    ("verifier.memo.leaf_storage_evals", "count"),
    ("verifier.memo.leaf_hit_rate", "ratio"),
    ("verifier.memo.releases", "count"),
    ("verifier.report_ms", "ms"),
    ("report.render_ms", "ms"),
    ("report.bytes", "bytes"),
    ("wave.interns", "count"),
    ("wave.intern_hit_rate", "ratio"),
    ("wave.unique", "count"),
    ("serve.verify_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.seeded_prims", "count"),
    ("serve.evaluations", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("incr.compile_ms", "ms"),
    ("incr.apply_ms", "ms"),
    ("ledger.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    expect: (usize, usize),
    /// Internal: run one verdict or one daemon segment and report it.
    child: bool,
    window_ms: u64,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = Args {
            workload: Workload::TvS1,
            seed: 0,
            seconds: 0.0,
            trace: false,
            tiny: false,
            expect: REGISTER_FILE_ANSWER,
            child: false,
            window_ms: 0,
        };
        while let Some(flag) = it.next() {
            if flag == "--child" {
                args.child = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(bad)?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(bad)?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                "--size" => {
                    args.tiny = match value.as_str() {
                        "full" => false,
                        "tiny" => true,
                        _ => return Err(bad()),
                    };
                }
                "--expect-register-file" => {
                    let (v, g) = value.split_once(',').ok_or_else(bad)?;
                    args.expect = (v.parse().map_err(|_| bad())?, g.parse().map_err(|_| bad())?);
                }
                "--window-ms" => args.window_ms = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        args.trace = trace.ok_or("--trace is required")?;
        if !args.child {
            args.seconds = seconds.ok_or("--seconds is required")?;
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return child(&args, started);
    }
    parent(&args);
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------- child

/// Runs one unit of work in this fresh process and prints its result as
/// one JSON line.
fn child(args: &Args, started: Instant) -> ExitCode {
    let result = match args.workload {
        Workload::ServeEco => eco::segment(
            args.seed,
            args.tiny,
            args.trace,
            Duration::from_millis(args.window_ms),
        )
        .map(|s| {
            Json::Obj(vec![
                ("setup_ns".into(), Json::from(s.setup_ns)),
                ("window_ns".into(), Json::from(s.window_ns)),
                (
                    "latencies_ns".into(),
                    Json::Arr(s.latencies_ns.iter().map(|&n| Json::from(n)).collect()),
                ),
                (
                    "applies_ns".into(),
                    Json::Arr(s.applies_ns.iter().map(|&n| Json::from(n)).collect()),
                ),
                ("attempted".into(), Json::from(s.attempted)),
                ("failed".into(), Json::from(s.failed)),
                ("digest".into(), Json::str(format!("{:016x}", s.digest))),
                ("probe_ns".into(), Json::from(s.probe_ns)),
                ("rss_kib".into(), Json::from(s.rss_kib)),
                ("counts".into(), counts_json(&s.counts)),
                ("spans".into(), spans_json(&s.spans)),
            ])
        }),
        w => {
            let input = batch::generate(w, args.seed, args.tiny);

            let setup_ns = elapsed_ns(started);
            let probe0 = util::host_probe();
            let mut tracer = Tracer::new(args.trace);
            batch::verdict(input, w.name(), &mut tracer).map(|v| {
                Json::Obj(vec![
                    (
                        "probe_ns".into(),
                        Json::from((probe0 + util::host_probe()) / 2),
                    ),
                    ("setup_ns".into(), Json::from(setup_ns)),
                    ("ns".into(), Json::from(v.ns)),
                    ("digest".into(), Json::str(format!("{:016x}", v.digest))),
                    ("violations".into(), Json::from(v.violations as u64)),
                    ("events".into(), Json::from(v.events)),
                    ("evaluations".into(), Json::from(v.evaluations)),
                    (
                        "rss_kib".into(),
                        Json::from(util::peak_rss_kib().unwrap_or(0)),
                    ),
                    ("counts".into(), counts_json(&v.counts)),
                    ("spans".into(), spans_json(&tracer.into_spans())),
                ])
            })
        }
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn counts_json(counts: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        counts
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Json::from(*v)))
            .collect(),
    )
}

/// Re-invokes this executable with `--child` and parses its JSON line.
fn run_child(args: &Args, trace: bool, window_ms: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--size", if args.tiny { "tiny" } else { "full" }])
        .args(["--window-ms", &window_ms.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| format!("wait: {e}"))? {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = proc.kill();
            let _ = proc.wait();
            break None;
        }
        thread::sleep(Duration::from_millis(5));
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_owned())?
        .map_err(|e| format!("read child stdout: {e}"))?;
    match status {
        None => Err(format!("child timed out after {CHILD_TIMEOUT:?}")),
        Some(s) if !s.success() => Err(format!("child exited with {s}")),
        Some(_) => {
            let line = text.lines().last().unwrap_or_default();
            json::parse(line).map_err(|e| format!("child output: {e}"))
        }
    }
}

// --------------------------------------------------------------- parent

/// Verdicts or requests attempted and failed, with every failure printed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, what: impl Display) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            println!("FAILED ({failed} of {attempted}): {what}");
        }
    }

    fn check(&mut self, ok: bool, what: impl Display) {
        self.add(1, u64::from(!ok), what);
    }
}

/// `(name, value, unit)` of one printed metric.
type Metric = (String, f64, &'static str);

/// A timed sample, ns, and the host-probe time measured beside it, ns.
type Sample = (u64, u64);

/// What a run measured, before it becomes metrics.
#[derive(Default)]
struct Measured {
    /// Per verdict: a batch verdict, or an `apply-delta` request (serve).
    verdicts: Vec<Sample>,
    /// Per request: a verdict (batch) or one daemon request (serve).
    requests: Vec<Sample>,
    /// Timed wall clock the requests completed in, ns, and the same wall
    /// clock in host-probe units.
    busy_ns: u64,
    busy_probes: f64,
    setup_ns: Vec<u64>,
    rss_kib: Vec<u64>,
    counts: BTreeMap<String, Vec<f64>>,
    spans: Vec<Span>,
    /// Median verdict or request time of the opposite-mode reference, ns.
    reference_ns: Option<f64>,
}

impl Measured {
    fn absorb_counts(&mut self, child: &Json) {
        for (k, v) in child
            .get("counts")
            .and_then(Json::as_object)
            .unwrap_or_default()
        {
            if let Some(v) = v.as_f64() {
                self.counts.entry(k.clone()).or_default().push(v);
            }
        }
    }

    fn absorb_spans(&mut self, child: &Json, iter_base: u64) -> bool {
        match child
            .get("spans")
            .map(|s| spans_from_json(s, self.spans.len(), iter_base))
        {
            Some(Some(spans)) => {
                self.spans.extend(spans);
                true
            }
            _ => false,
        }
    }
}

fn parent(args: &Args) {
    let w = args.workload;
    let (parallelism, cpus, model) = util::host_facts();
    println!(
        "e2ebench {} (seed {}, {} s, trace {}, size {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!("  why: {}", w.why());
    println!(
        "host: nproc {cpus}, available_parallelism {parallelism}, cpu \"{model}\", jobs {JOBS}"
    );

    let mut tally = Tally::default();
    let gate = register_file_gate(args.expect);
    tally.check(
        gate.is_ok(),
        format_args!(
            "register_file known answer: {}",
            gate.as_ref().err().map_or("", String::as_str)
        ),
    );
    if gate.is_ok() {
        println!(
            "gate: designs/register_file.scald gives {} violations in {} error groups, as expected",
            args.expect.0, args.expect.1
        );
    }

    let measured = match w {
        Workload::ServeEco => measure_serve(args, &mut tally),
        _ => measure_batch(args, &mut tally),
    };

    let (metrics, host_time) = if args.trace {
        (layer_metrics(&measured, &mut tally, w), Vec::new())
    } else {
        end_to_end_metrics(&measured)
    };
    let fail_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("{:<34} {:>14} unit", "metric", "value");
    for (name, value, unit) in host_time.iter().chain(&metrics) {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    println!(
        "{:<34} {:>14.4} ratio ({} failed of {} attempted)",
        "fail_share", fail_share, tally.failed, tally.attempted
    );
    if args.trace {
        write_spans(args, &measured.spans);
    }
    let doc = Json::Obj(vec![
        ("correct".into(), Json::from(tally.failed == 0)),
        ("attempted".into(), Json::from(tally.attempted)),
        ("failed".into(), Json::from(tally.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::Obj(vec![
                                ("value".into(), Json::from(value)),
                                ("unit".into(), Json::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{doc}");
}

/// Verifies `designs/register_file.scald` and compares its violation count
/// and error groups with `expect`.
fn register_file_gate(expect: (usize, usize)) -> Result<(), String> {
    let src = include_str!("../../designs/register_file.scald");
    let expansion = scald_hdl::compile(src).map_err(|e| e.to_string())?;
    let mut v = VerifierBuilder::new(expansion.netlist).jobs(JOBS).build();
    let outcome = v.run(&RunOptions::new()).map_err(|e| e.to_string())?;
    let report = v.report("register_file", &outcome.cases);
    let groups: BTreeSet<&str> = report
        .cases
        .iter()
        .flat_map(|c| c.violations.iter().map(|x| x.source.as_str()))
        .collect();
    let got = (report.total_violations(), groups.len());
    if got == expect {
        Ok(())
    } else {
        Err(format!(
            "{} violations in {} groups, expected {} in {}",
            got.0, got.1, expect.0, expect.1
        ))
    }
}

/// The batch workloads: untimed reference verdicts in the opposite trace
/// mode for `WARMUP`, then fresh-process verdicts until `--seconds` is
/// spent. The references also warm the host up and give the tracing
/// overhead its baseline.
fn measure_batch(args: &Args, tally: &mut Tally) -> Measured {
    let mut m = Measured::default();
    let warmup_started = Instant::now();
    let reference = run_child(args, !args.trace, 0);
    tally.check(
        reference.is_ok(),
        format_args!(
            "reference verdict: {}",
            reference.as_ref().err().map_or("", String::as_str)
        ),
    );
    let Ok(reference) = reference else {
        return m;
    };
    let field = |j: &Json, k: &str| j.get(k).cloned().unwrap_or(Json::Null);
    let mut reference_ns: Vec<f64> = reference
        .get("ns")
        .and_then(Json::as_f64)
        .into_iter()
        .collect();
    let mut n = 0u64;
    let mut timed = false;
    let mut started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while !timed
        || started.elapsed() < budget
        || (m.verdicts.len() < MIN_VERDICTS && n < 3 * MIN_VERDICTS as u64)
    {
        if !timed && (args.tiny || warmup_started.elapsed() >= WARMUP) {
            timed = true;
            started = Instant::now();
        }
        n += 1;
        let trace = timed == args.trace;
        let verdict = match run_child(args, trace, 0) {
            Ok(v) => v,
            Err(e) => {
                tally.check(false, format_args!("verdict {n}: {e}"));
                continue;
            }
        };
        let same = |k: &str| field(&verdict, k) == field(&reference, k);
        let clean = verdict.get("violations").and_then(Json::as_u64) == Some(0);
        let spans_ok = !(timed && args.trace) || m.absorb_spans(&verdict, n * 1_000_000);
        let ok = same("digest") && same("events") && same("evaluations") && clean && spans_ok;
        tally.check(
            ok,
            format_args!(
                "verdict {n}: digest {} events {} evaluations {} violations {} (reference {} / {} / {})",
                field(&verdict, "digest"),
                field(&verdict, "events"),
                field(&verdict, "evaluations"),
                field(&verdict, "violations"),
                field(&reference, "digest"),
                field(&reference, "events"),
                field(&reference, "evaluations"),
            ),
        );
        let ns = verdict.get("ns").and_then(Json::as_u64).unwrap_or(0);
        if !timed {
            reference_ns.push(ns as f64);
            continue;
        }
        let probe = verdict
            .get("probe_ns")
            .and_then(Json::as_u64)
            .unwrap_or(1)
            .max(1);
        m.verdicts.push((ns, probe));
        m.requests.push((ns, probe));
        m.busy_ns += ns;
        m.busy_probes += ns as f64 / probe as f64;
        m.setup_ns
            .extend(verdict.get("setup_ns").and_then(Json::as_u64));
        m.rss_kib
            .extend(verdict.get("rss_kib").and_then(Json::as_u64));
        m.absorb_counts(&verdict);
    }
    m.reference_ns = Some(median(&reference_ns));
    println!(
        "measured {} verdicts in {:.1} s after {} reference verdicts, each in a fresh process; digest {}",
        m.verdicts.len(),
        started.elapsed().as_secs_f64(),
        reference_ns.len(),
        field(&reference, "digest")
    );
    m
}

/// `serve_eco`: `SEGMENTS` daemon processes, each set up from cold and
/// measured for an equal share of `--seconds`. In a traced run the first
/// segment runs untraced as the overhead reference.
fn measure_serve(args: &Args, tally: &mut Tally) -> Measured {
    let mut m = Measured::default();
    let window_ms = (args.seconds * 1e3 / SEGMENTS as f64).round() as u64;
    let mut digests = BTreeSet::new();
    let mut reference = Vec::new();
    for i in 0..SEGMENTS {
        let traced = args.trace && i > 0;
        let seg = match run_child(args, traced, window_ms) {
            Ok(s) => s,
            Err(e) => {
                tally.check(false, format_args!("serve segment {i}: {e}"));
                continue;
            }
        };
        let num = |k: &str| seg.get(k).and_then(Json::as_u64).unwrap_or(0);
        let latencies: Vec<u64> = seg
            .get("latencies_ns")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        if args.trace && !traced {
            reference.extend(latencies.iter().map(|&n| n as f64));
        } else {
            // The daemon segment probes the host beside its window.
            let probe = num("probe_ns").max(1);
            m.requests.extend(latencies.iter().map(|&n| (n, probe)));
            m.busy_ns += num("window_ns");
            m.busy_probes += num("window_ns") as f64 / probe as f64;
            m.verdicts.extend(
                seg.get("applies_ns")
                    .and_then(Json::as_array)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Json::as_u64)
                    .map(|n| (n, probe)),
            );
        }
        if traced && !m.absorb_spans(&seg, (i as u64 + 1) * 1_000_000_000) {
            tally.check(false, format_args!("serve segment {i}: unreadable spans"));
        }
        let failed = num("failed");
        tally.add(
            num("attempted"),
            failed,
            format_args!("serve segment {i}: failed requests or replay mismatches"),
        );
        m.setup_ns.push(num("setup_ns"));
        m.rss_kib.push(num("rss_kib"));
        digests.extend(seg.get("digest").and_then(Json::as_str).map(str::to_owned));
        m.absorb_counts(&seg);
        println!(
            "segment {i}: {} requests in {:.2} s, {} failed, set-up {:.3} s",
            latencies.len(),
            num("window_ns") as f64 / 1e9,
            failed,
            num("setup_ns") as f64 / 1e9
        );
    }
    tally.check(
        digests.len() == 1,
        format_args!("opening report digests differ across segments: {digests:?}"),
    );
    if !reference.is_empty() {
        m.reference_ns = Some(median(&reference));
    }
    m
}

/// The end-to-end metrics `BENCHMARK.json` gates on, and the same
/// latencies in host time, which are printed beside them. The gated ones
/// divide each sample by the host-probe time measured beside it (see
/// `util::host_probe`): on a shared host whose speed drifts by tens of
/// percent over seconds, that ratio is steady where host time is not.
fn end_to_end_metrics(m: &Measured) -> (Vec<Metric>, Vec<Metric>) {
    let ns = |v: &[Sample]| v.iter().map(|&(n, _)| n as f64).collect::<Vec<_>>();
    let rel = |v: &[Sample]| {
        v.iter()
            .map(|&(n, p)| n as f64 / p.max(1) as f64)
            .collect::<Vec<_>>()
    };
    let f = |v: &[u64]| v.iter().map(|&n| n as f64).collect::<Vec<_>>();
    let (verdicts, requests) = (ns(&m.verdicts), ns(&m.requests));
    let probes: Vec<f64> = m.requests.iter().map(|&(_, p)| p as f64).collect();
    println!(
        "samples: {} verdicts, {} requests, {} set-ups",
        m.verdicts.len(),
        m.requests.len(),
        m.setup_ns.len()
    );
    let host_time = vec![
        ("verdict_ms".into(), median(&verdicts) / 1e6, "ms"),
        ("req_p50_ms".into(), median(&requests) / 1e6, "ms"),
        ("req_p90_ms".into(), quantile(&requests, 0.9) / 1e6, "ms"),
        (
            "req_per_s".into(),
            requests.len() as f64 / (m.busy_ns.max(1) as f64 / 1e9),
            "1/s",
        ),
        ("probe_ms".into(), median(&probes) / 1e6, "ms"),
    ];
    let requests_rel = rel(&m.requests);
    let gated = vec![
        ("verdict_rel".into(), median(&rel(&m.verdicts)), "probe"),
        ("req_p50_rel".into(), median(&requests_rel), "probe"),
        ("req_p90_rel".into(), quantile(&requests_rel, 0.9), "probe"),
        (
            "req_per_probe".into(),
            requests.len() as f64 / m.busy_probes.max(f64::MIN_POSITIVE),
            "1/probe",
        ),
        ("peak_rss_mb".into(), median(&f(&m.rss_kib)) / 1024.0, "MB"),
        ("setup_s".into(), median(&f(&m.setup_ns)) / 1e9, "s"),
    ];
    (gated, host_time)
}

/// The per-layer metrics, the ledger table and its coverage check.
fn layer_metrics(m: &Measured, tally: &mut Tally, w: Workload) -> Vec<Metric> {
    let per_iter = per_iteration_ns(&m.spans);
    let mut coverage = 1.0f64;
    for (root, ledger) in ledgers(&m.spans) {
        let cov = ledger.coverage(&root);
        coverage = coverage.min(cov);
        println!(
            "ledger {} / {root}: {} iterations, {:.3} ms per iteration, layers cover {:.1}%",
            w.name(),
            ledger.iterations,
            ms(ledger.wall_ns) / ledger.iterations.max(1) as f64,
            100.0 * cov
        );
        println!(
            "  {:<26} {:>7} {:>12} {:>8}",
            "layer (self time)", "calls", "ms/iter", "share"
        );
        let mut rows: Vec<_> = ledger.rows.iter().collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.self_ns));
        for (name, row) in rows {
            let label = if *name == root {
                "(not in any layer)"
            } else {
                name.as_str()
            };
            println!(
                "  {label:<26} {:>7} {:>12.3} {:>7.1}%",
                row.calls,
                ms(row.self_ns) / ledger.iterations.max(1) as f64,
                100.0 * row.self_ns as f64 / ledger.wall_ns.max(1) as f64
            );
        }
        tally.check(
            cov >= 1.0 - LEDGER_BOUND,
            format_args!(
                "ledger {root}: layers cover only {:.1}% of the iteration",
                100.0 * cov
            ),
        );
    }
    let timed = |name: &str| {
        per_iter
            .get(name)
            .map(|v| median(&v.iter().map(|&n| n as f64).collect::<Vec<_>>()))
    };
    let iteration = if w == Workload::ServeEco {
        "request"
    } else {
        "verdict"
    };
    let overhead = match (timed(iteration), m.reference_ns) {
        (Some(traced), Some(untraced)) => {
            println!(
                "tracing overhead: {:.3} ms ({} median {:.3} ms traced, {:.3} ms untraced)",
                (traced - untraced) / 1e6,
                iteration,
                traced / 1e6,
                untraced / 1e6
            );
            (traced - untraced) / 1e6
        }
        _ => 0.0,
    };
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "ledger.coverage" => coverage,
                "trace.overhead_ms" => overhead,
                _ => name
                    .strip_suffix("_ms")
                    .and_then(timed)
                    .map(|ns| ns / 1e6)
                    .or_else(|| m.counts.get(name).map(|v| median(v)))
                    .unwrap_or(0.0),
            };
            (name.to_owned(), value, unit)
        })
        .collect()
}

/// Writes the run's spans, kept in memory until now, beside the build.
fn write_spans(args: &Args, spans: &[Span]) {
    let dir = util::out_dir();
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::from(args.seed)),
        (
            "fields".into(),
            Json::str("name, start_ns, end_ns, parent, iteration"),
        ),
        ("spans".into(), spans_json(spans)),
    ]);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_string())) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
