//! `scald-tv` — the SCALD Timing Verifier command-line tool.
//!
//! Reads a design — SCALD-style HDL, or synthesisable Verilog via the
//! `scald-rtl` frontend — expands/elaborates it, verifies all timing
//! constraints (running the design's `case` blocks if present), and
//! prints the error report. Exits non-zero when violations are found, so
//! it slots into CI the way the thesis' designers ran the verifier daily
//! (§3.3.1). Files ending in `.v`/`.sv` select the Verilog frontend
//! automatically; `--frontend` overrides the detection.
//!
//! ```text
//! USAGE:
//!     scald-tv [OPTIONS] <DESIGN.scald | DESIGN.v>
//!     scald-tv serve [--socket PATH] [--stdio] [--timeout-ms N]
//!                    [--idle-cap N] [--no-eval-cache]
//!
//! OPTIONS:
//!     --frontend F     input language: scald or verilog (default: by
//!                      file extension — .v/.sv mean verilog)
//!     --summary        print the Fig 3-10 signal-value summary listing
//!     --diagram        print an ASCII timing diagram of all signals
//!     --slack          print per-checker timing margins (worst first)
//!     --paths          print the worst-case path analysis (GRASP-style)
//!     --prob RHO       run the probabilistic path analysis with
//!                      inter-path correlation RHO in [0, 1]: delay
//!                      ranges become ±3σ normal distributions, and the
//!                      report gains per-endpoint arrival/slack
//!                      distributions with violation probabilities (the
//!                      JSON document's v2 "probabilistic" section)
//!     --netlist        print the fully elaborated (flattened) design
//!     --xref           print the assumed-stable cross-reference listing
//!     --stats          print expansion/verification statistics (Table 3-1)
//!     --storage        print the storage breakdown (Table 3-3)
//!     --format FORMAT  output format: text (default) or json — json emits
//!                      one versioned document covering violations with
//!                      fan-in provenance, engine statistics and every
//!                      requested listing
//!     --trace FILE     stream engine trace events (one JSON object per
//!                      line) to FILE while verifying
//!     --no-cases       ignore the design's case blocks (single pass)
//!     --no-eval-cache  disable the evaluation memo table (the A/B
//!                      baseline for benchmarking; results are
//!                      byte-identical with the cache on)
//!     --watch          stay resident and re-verify DESIGN.scald on every
//!                      file change, warm-starting from the prior fixed
//!                      point and printing per-edit effort
//!     --watch-poll-ms N    watch-mode poll interval (default 200)
//!     --watch-max-edits N  exit after N re-verifications (default: run
//!                      until interrupted)
//!     --baseline OLD.scald report only the violations DESIGN.scald
//!                      introduces or fixes relative to OLD.scald
//!
//! SERVE MODE (scald-tv serve):
//!     --socket PATH    listen for clients on a Unix socket at PATH
//!     --stdio          speak the protocol on stdin/stdout (EOF begins
//!                      graceful shutdown); combinable with --socket
//!     --timeout-ms N   per-request deadline for open/apply-delta/run
//!                      (default 30000)
//!     --idle-cap N     settled sessions kept pooled per design (default 4)
//!     --no-eval-cache  disable the cross-client evaluation cache
//!     --max-sweep-cases N  largest case count a client's `sweep` spec
//!                      may expand to server-side (default 65536)
//! ```
//!
//! Exit codes: 0 = no timing errors, 1 = violations found, 2 = usage or
//! compile/oscillation error. In `--baseline` mode the exit code is 1
//! exactly when the edit *introduced* violations; pre-existing ones do
//! not fail the run. In `--watch` mode the exit code follows the last
//! completed re-verification.

use scald::hdl;
use scald::incr::{report_diff, Delta, DesignInput, IncrStats, Session, SessionBuilder};
use scald::serve::{serve, ServeOptions};
use scald::trace::json::Json;
use scald::trace::JsonlSink;
use scald::verifier::{
    Case, CaseResult, CaseSet, RunOptions, Verifier, VerifierBuilder, VerifyError, Violation,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One optional report section, in the order the text renderer prints
/// them. `--format json` folds every requested section into the single
/// output document instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Listing {
    /// Fig 3-10 signal-value summary.
    Summary,
    /// ASCII timing diagram.
    Diagram,
    /// Per-checker timing margins.
    Slack,
    /// Worst-case path analysis (the value-blind baseline).
    Paths,
    /// The fully elaborated design.
    Netlist,
    /// The assumed-stable cross-reference (§2.5).
    Xref,
    /// Expansion and verification statistics.
    Stats,
    /// The Table 3-3 storage breakdown.
    Storage,
}

impl Listing {
    fn from_flag(flag: &str) -> Option<Listing> {
        Some(match flag {
            "--summary" => Listing::Summary,
            "--diagram" => Listing::Diagram,
            "--slack" => Listing::Slack,
            "--paths" => Listing::Paths,
            "--netlist" => Listing::Netlist,
            "--xref" => Listing::Xref,
            "--stats" => Listing::Stats,
            "--storage" => Listing::Storage,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Format {
    #[default]
    Text,
    Json,
}

const USAGE: &str = "usage: scald-tv [--frontend scald|verilog] \
                     [--summary] [--diagram] [--slack] \
                     [--paths] [--prob RHO] [--netlist] [--xref] [--stats] [--storage] \
                     [--format text|json] [--trace FILE] \
                     [--no-cases] \
                     [--no-eval-cache] \
                     [--watch] [--watch-poll-ms N] [--watch-max-edits N] \
                     [--baseline OLD.scald] <DESIGN.scald | DESIGN.v>\n\
                     \u{20}      scald-tv serve [--socket PATH] [--stdio] \
                     [--timeout-ms N] [--idle-cap N] [--no-eval-cache] \
                     [--max-sweep-cases N]";

/// Which frontend parses the design file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontendKind {
    /// The SCALD-style HDL and its two-pass macro expander.
    Scald,
    /// The synthesisable-Verilog subset (`scald-rtl`).
    Verilog,
}

impl FrontendKind {
    /// Picks the frontend by file extension (`.v`/`.sv`, case-insensitive,
    /// mean Verilog; everything else is SCALD HDL).
    fn detect(path: &str) -> FrontendKind {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".v") || lower.ends_with(".sv") {
            FrontendKind::Verilog
        } else {
            FrontendKind::Scald
        }
    }
}

struct Options {
    path: String,
    frontend: FrontendKind,
    listings: Vec<Listing>,
    format: Format,
    trace: Option<String>,
    no_cases: bool,
    no_eval_cache: bool,
    watch: bool,
    watch_poll_ms: u64,
    watch_max_edits: Option<u64>,
    baseline: Option<String>,
    prob_rho: Option<f64>,
}

impl Options {
    fn wants(&self, l: Listing) -> bool {
        self.listings.contains(&l)
    }
}

fn parse_args() -> Result<Options, String> {
    let mut frontend: Option<FrontendKind> = None;
    let mut opts = Options {
        path: String::new(),
        frontend: FrontendKind::Scald,
        listings: Vec::new(),
        format: Format::Text,
        trace: None,
        no_cases: false,
        no_eval_cache: false,
        watch: false,
        watch_poll_ms: 200,
        watch_max_edits: None,
        baseline: None,
        prob_rho: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(listing) = Listing::from_flag(&arg) {
            if !opts.listings.contains(&listing) {
                opts.listings.push(listing);
            }
            continue;
        }
        match arg.as_str() {
            "--no-cases" => opts.no_cases = true,
            "--no-eval-cache" => opts.no_eval_cache = true,
            "--frontend" => {
                frontend = Some(match args.next().as_deref() {
                    Some("scald") => FrontendKind::Scald,
                    Some("verilog") => FrontendKind::Verilog,
                    _ => return Err("--frontend expects 'scald' or 'verilog'".to_owned()),
                });
            }
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    _ => return Err("--format expects 'text' or 'json'".to_owned()),
                };
            }
            "--trace" => {
                let file = args
                    .next()
                    .filter(|f| !f.is_empty())
                    .ok_or_else(|| "--trace expects a file path".to_owned())?;
                opts.trace = Some(file);
            }
            "--watch" => opts.watch = true,
            "--watch-poll-ms" => {
                let n = args
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| "--watch-poll-ms expects a millisecond count >= 1".to_owned())?;
                opts.watch_poll_ms = n;
            }
            "--watch-max-edits" => {
                let n = args
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| "--watch-max-edits expects an edit count >= 1".to_owned())?;
                opts.watch_max_edits = Some(n);
            }
            "--prob" => {
                let rho = args
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| "--prob expects a correlation in [0, 1]".to_owned())?;
                opts.prob_rho = Some(rho);
            }
            "--baseline" => {
                let file = args
                    .next()
                    .filter(|f| !f.is_empty())
                    .ok_or_else(|| "--baseline expects a design file path".to_owned())?;
                opts.baseline = Some(file);
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}; try --help"))
            }
            path => {
                if !opts.path.is_empty() {
                    return Err("exactly one design file expected".to_owned());
                }
                opts.path = path.to_owned();
            }
        }
    }
    if opts.path.is_empty() {
        return Err("no design file given; try --help".to_owned());
    }
    opts.frontend = frontend.unwrap_or_else(|| FrontendKind::detect(&opts.path));
    if opts.watch && opts.baseline.is_some() {
        return Err("--watch and --baseline are mutually exclusive".to_owned());
    }
    if (opts.watch || opts.baseline.is_some()) && opts.format == Format::Json {
        return Err("--format json is not supported with --watch/--baseline".to_owned());
    }
    Ok(opts)
}

/// The shared per-pass effort summary for the incremental modes.
fn effort_line(stats: &IncrStats) -> String {
    format!(
        "{} events ({}), seeded {}/{} prims, cone {:.1}%, {:.1?}",
        stats.events,
        if stats.warm { "warm" } else { "cold" },
        stats.seeded_prims,
        stats.total_prims,
        100.0 * stats.cone_fraction(),
        stats.wall,
    )
}

/// Builds the incremental session shared by `--watch` and `--baseline`:
/// same trace and cache plumbing as a plain run.
fn open_session(opts: &Options, src: &str) -> Result<Session, String> {
    let mut builder = SessionBuilder::new();
    if opts.no_eval_cache {
        builder = builder.eval_cache(false);
    }
    if let Some(file) = &opts.trace {
        let sink =
            JsonlSink::create(file).map_err(|e| format!("cannot create trace file {file}: {e}"))?;
        builder = builder.trace(Arc::new(sink));
    }
    let input = match opts.frontend {
        FrontendKind::Scald => DesignInput::source(src),
        FrontendKind::Verilog => DesignInput::verilog(src),
    };
    builder
        .open(input, opts.path.clone())
        .map_err(|e| e.to_string())
}

/// Wraps new source text in the delta variant matching the frontend.
fn source_delta(opts: &Options, src: String) -> Delta {
    match opts.frontend {
        FrontendKind::Scald => Delta::Source(src),
        FrontendKind::Verilog => Delta::Verilog(src),
    }
}

const SERVE_USAGE: &str = "usage: scald-tv serve [--socket PATH] [--stdio] \
                           [--timeout-ms N] [--idle-cap N] \
                           [--no-eval-cache] [--max-sweep-cases N]  \
                           (at least one of --socket/--stdio)";

/// `scald-tv serve`: run the multi-client verification daemon until it
/// is asked to shut down (a `shutdown` request, or EOF in `--stdio`
/// mode).
fn run_serve(args: impl Iterator<Item = String>) -> ExitCode {
    let mut opts = ServeOptions::default();
    let mut args = args.peekable();
    let parse_err = |msg: String| -> ExitCode {
        eprintln!("scald-tv: {msg}");
        eprintln!("{SERVE_USAGE}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next().filter(|p| !p.is_empty()) {
                Some(path) => opts.socket = Some(path.into()),
                None => return parse_err("--socket expects a path".to_owned()),
            },
            "--stdio" => opts.stdio = true,
            "--timeout-ms" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => opts.request_timeout = Duration::from_millis(n),
                _ => return parse_err("--timeout-ms expects a millisecond count >= 1".to_owned()),
            },
            "--idle-cap" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => opts.idle_cap = n,
                None => return parse_err("--idle-cap expects a session count".to_owned()),
            },
            "--no-eval-cache" => opts.eval_cache = false,
            "--max-sweep-cases" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => opts.max_sweep_cases = n,
                _ => return parse_err("--max-sweep-cases expects a case count >= 1".to_owned()),
            },
            "--help" | "-h" => {
                eprintln!("{SERVE_USAGE}");
                return ExitCode::from(2);
            }
            other => return parse_err(format!("unknown serve option {other:?}")),
        }
    }
    if opts.socket.is_none() && !opts.stdio {
        return parse_err("serve needs --socket PATH, --stdio, or both".to_owned());
    }
    match serve(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scald-tv: serve: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--watch`: poll the design file, re-verifying each time its contents
/// change. Warm starts keep per-edit work proportional to the edited
/// cone, so the loop stays interactive even on large designs.
fn run_watch(opts: &Options) -> ExitCode {
    let mut last_src = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scald-tv: cannot read {}: {e}", opts.path);
            return ExitCode::from(2);
        }
    };
    let mut session = match open_session(opts, &last_src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scald-tv: {e}");
            return ExitCode::from(2);
        }
    };
    let mut violations = session.report().total_violations();
    println!(
        "[watch] {}: {violations} violation(s); {}",
        opts.path,
        effort_line(&session.outcome().stats)
    );
    let mut edits = 0u64;
    // Debounce for torn reads: a poll can catch an editor mid-write
    // (empty or partial file), which parses as a broken design. A failed
    // apply therefore never counts as an edit and never advances
    // `last_src` — the same bytes are simply re-read on the next poll,
    // by which time a torn write will have completed and the full save
    // is verified as one edit. Content that keeps failing is diagnosed
    // once (without consuming the edit budget) so a genuinely broken
    // save is still visible.
    let mut pending_bad: Option<(String, bool)> = None;
    while opts.watch_max_edits.is_none_or(|max| edits < max) {
        std::thread::sleep(Duration::from_millis(opts.watch_poll_ms));
        // A read can fail transiently while an editor replaces the file;
        // just poll again.
        let Ok(src) = std::fs::read_to_string(&opts.path) else {
            continue;
        };
        if src == last_src {
            pending_bad = None;
            continue;
        }
        match session.apply(source_delta(opts, src.clone())) {
            Ok(stats) => {
                pending_bad = None;
                last_src = src;
                edits += 1;
                violations = session.report().total_violations();
                println!(
                    "[watch] edit {edits}: {violations} violation(s); {}",
                    effort_line(&stats)
                );
            }
            Err(e) => match &mut pending_bad {
                Some((bad, reported)) if *bad == src => {
                    // Identical bytes failing a second poll: no longer a
                    // torn write in flight. Diagnose it once and keep
                    // polling for a fixed save.
                    if !*reported {
                        *reported = true;
                        eprintln!("[watch] awaiting valid design: {e}");
                    }
                }
                _ => pending_bad = Some((src, false)),
            },
        }
    }
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line per diffed violation: compact, grep-friendly.
fn diff_lines(heading: &str, violations: &[Violation]) {
    println!("{heading} ({}):", violations.len());
    for v in violations {
        println!("  {}: {} [{}]", v.kind, v.source, v.constraint);
    }
}

/// `--baseline OLD`: verify OLD, warm-apply the positional design as an
/// edit, and report only what the edit changed.
fn run_baseline(opts: &Options, old_path: &str) -> ExitCode {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let result = read(old_path).and_then(|old_src| {
        let new_src = read(&opts.path)?;
        let mut session = open_session(opts, &old_src)?;
        let before = session.report().clone();
        session
            .apply(source_delta(opts, new_src))
            .map_err(|e| e.to_string())?;
        Ok((before, session))
    });
    let (before, session) = match result {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("scald-tv: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = session.outcome();
    let diff = report_diff(&before, &outcome.report);
    println!("baseline {old_path} -> {}", opts.path);
    if diff.is_empty() {
        println!(
            "no violations introduced or fixed ({} in both).",
            outcome.report.total_violations()
        );
    } else {
        diff_lines("introduced", &diff.introduced);
        diff_lines("fixed", &diff.fixed);
    }
    println!("re-verified with {}", effort_line(&outcome.stats));
    if diff.introduced.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The worst-case path listing, shared by the text and JSON renderers.
fn path_lines(netlist: &scald::netlist::Netlist) -> Vec<String> {
    let analysis = scald::paths::PathAnalysis::analyze(netlist);
    let mut lines: Vec<String> = analysis.reports().iter().map(ToString::to_string).collect();
    for group in analysis.loops() {
        lines.push(format!("LOOP NEEDS A BREAKPOINT: {}", group.join(", ")));
    }
    let slacks = analysis.signal_slacks(netlist);
    if !slacks.is_empty() {
        lines.push("critical region (worst signal slacks):".to_owned());
        for (sid, slack) in slacks.iter().take(8) {
            lines.push(format!("  {:<30} {slack}", netlist.signal(*sid).name()));
        }
    }
    lines
}

/// Builds the report's v2 `probabilistic` section from the scald-stats
/// distribution analysis: every delay range becomes a ±3σ normal, and
/// each checked endpoint gets arrival/slack distributions plus its
/// probability of missing the deadline.
fn prob_section(netlist: &scald::netlist::Netlist, rho: f64) -> scald::verifier::ProbSection {
    let analysis = scald::stats::ProbPathAnalysis::analyze(netlist, rho);
    scald::verifier::ProbSection {
        rho,
        endpoints: analysis
            .reports()
            .iter()
            .map(|r| {
                let slack = r.slack();
                scald::verifier::ProbEndpoint {
                    endpoint: r.endpoint.clone(),
                    constraint_source: r.constraint_source.clone(),
                    arrival_mean_ns: r.arrival.mean,
                    arrival_sigma_ns: r.arrival.sigma,
                    slack_mean_ns: slack.mean,
                    slack_sigma_ns: slack.sigma,
                    deadline_ns: r.deadline_ns,
                    worst_case_ns: r.worst_case_ns,
                    violation_probability: r.violation_probability,
                }
            })
            .collect(),
    }
}

fn run_verifier(verifier: &mut Verifier, cases: &[Case]) -> Result<Vec<CaseResult>, VerifyError> {
    let options = RunOptions::new().cases(CaseSet::list(cases.iter().cloned()));
    Ok(verifier.run(&options)?.cases)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("serve") {
        return run_serve(args);
    }
    drop(args);

    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.watch {
        return run_watch(&opts);
    }
    if let Some(old_path) = opts.baseline.clone() {
        return run_baseline(&opts, &old_path);
    }

    let src = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scald-tv: cannot read {}: {e}", opts.path);
            return ExitCode::from(2);
        }
    };

    // Each frontend reports its own expansion statistics; fold them into
    // one enum so the listing renderers below stay frontend-agnostic.
    enum ExpandInfo {
        Scald(hdl::ExpandStats),
        Rtl(scald::rtl::RtlStats),
    }

    let t = Instant::now();
    let (netlist, raw_cases, expand_stats) = match opts.frontend {
        FrontendKind::Scald => match hdl::compile(&src) {
            Ok(e) => (e.netlist, e.cases, ExpandInfo::Scald(e.stats)),
            Err(e) => {
                eprintln!("scald-tv: {e}");
                return ExitCode::from(2);
            }
        },
        FrontendKind::Verilog => match scald::rtl::compile(&src) {
            Ok(e) => (e.netlist, e.cases, ExpandInfo::Rtl(e.stats)),
            Err(e) => {
                eprintln!("scald-tv: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let expand_time = t.elapsed();
    let text = opts.format == Format::Text;

    if text && opts.wants(Listing::Stats) {
        match &expand_stats {
            ExpandInfo::Scald(s) => eprintln!(
                "expanded {} macros / {} instances -> {} primitives, {} signals \
                 (pass1 {:?}, pass2 {:?}, total {expand_time:?})",
                s.macros_defined,
                s.instances_expanded,
                s.prims_emitted,
                s.signals,
                s.pass1,
                s.pass2
            ),
            ExpandInfo::Rtl(s) => eprintln!(
                "elaborated {} module(s) / {} instance(s) -> {} primitives, \
                 {} signals ({expand_time:?})",
                s.modules, s.instances_flattened, s.prims_emitted, s.signals
            ),
        }
    }

    // Sections that need the netlist before the verifier takes ownership.
    let netlist_listing = opts.wants(Listing::Netlist).then(|| netlist.listing());
    let paths_listing = opts.wants(Listing::Paths).then(|| path_lines(&netlist));
    let probabilistic = opts.prob_rho.map(|rho| prob_section(&netlist, rho));
    if text {
        if let Some(listing) = &netlist_listing {
            println!("--- fully elaborated design ---");
            print!("{listing}");
        }
        if let Some(lines) = &paths_listing {
            println!("--- worst-case path analysis (value-blind baseline) ---");
            for line in lines {
                println!("{line}");
            }
        }
    }

    let cases: Vec<Case> = if opts.no_cases || raw_cases.is_empty() {
        vec![Case::new()]
    } else {
        raw_cases.into_iter().map(Case::from_iter).collect()
    };

    let mut builder = VerifierBuilder::new(netlist);
    if opts.no_eval_cache {
        builder = builder.eval_cache(false);
    }
    if let Some(file) = &opts.trace {
        match JsonlSink::create(file) {
            Ok(sink) => builder = builder.trace(Arc::new(sink)),
            Err(e) => {
                eprintln!("scald-tv: cannot create trace file {file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut verifier = builder.build();

    let t = Instant::now();
    let results = match run_verifier(&mut verifier, &cases) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scald-tv: {e}");
            return ExitCode::from(2);
        }
    };
    let verify_time = t.elapsed();

    let mut report = verifier.report(&opts.path, &results);
    report.probabilistic = probabilistic;
    report.engine.verify_wall = Some(verify_time);
    let total = report.total_violations();

    if text {
        for result in &results {
            if results.len() > 1 || !result.is_clean() {
                println!("{result}");
            }
        }
        if opts.wants(Listing::Stats) {
            eprintln!(
                "verified {} case(s) in {verify_time:?}, {} events total",
                results.len(),
                verifier.total_events()
            );
            if let Some(cache) = report.engine.eval_cache {
                eprintln!(
                    "eval cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
                    cache.hits,
                    cache.misses,
                    100.0 * cache.hit_rate(),
                    cache.entries
                );
            }
        }
        if opts.wants(Listing::Summary) {
            println!("--- signal values over the cycle ---");
            print!("{}", report.summary_text());
        }
        if opts.wants(Listing::Diagram) {
            println!("--- timing diagram ---");
            print!("{}", report.diagram_text(64));
        }
        if opts.wants(Listing::Slack) {
            println!("--- timing margins (worst first) ---");
            print!("{}", report.slack_text());
        }
        if let Some(prob) = report.probabilistic_text() {
            println!("--- probabilistic timing (distribution-valued slack) ---");
            print!("{prob}");
        }
        if opts.wants(Listing::Xref) {
            print!("{}", report.xref_text());
        }
        if opts.wants(Listing::Storage) {
            print!("{}", report.storage_text());
        }
        if total == 0 {
            println!("no timing errors.");
        } else {
            println!("{total} timing violation(s).");
        }
    } else {
        // One versioned document; requested listings that are not already
        // part of the schema ride along as extra top-level sections.
        let Json::Obj(mut fields) = report.json_value() else {
            unreachable!("Report::json_value returns an object");
        };
        if let Some(listing) = &netlist_listing {
            fields.push((
                "netlist".to_owned(),
                Json::Arr(listing.lines().map(Json::str).collect()),
            ));
        }
        if let Some(lines) = &paths_listing {
            fields.push((
                "paths".to_owned(),
                Json::Arr(lines.iter().map(Json::str).collect()),
            ));
        }
        if opts.wants(Listing::Stats) {
            let wall = (
                "wall_ns".to_owned(),
                Json::from(u64::try_from(expand_time.as_nanos()).unwrap_or(u64::MAX)),
            );
            let expansion_fields = match &expand_stats {
                ExpandInfo::Scald(s) => vec![
                    (
                        "macros_defined".to_owned(),
                        Json::from(s.macros_defined as u64),
                    ),
                    (
                        "instances_expanded".to_owned(),
                        Json::from(s.instances_expanded as u64),
                    ),
                    (
                        "prims_emitted".to_owned(),
                        Json::from(s.prims_emitted as u64),
                    ),
                    ("signals".to_owned(), Json::from(s.signals as u64)),
                    wall,
                ],
                ExpandInfo::Rtl(s) => vec![
                    ("modules".to_owned(), Json::from(s.modules as u64)),
                    (
                        "instances_flattened".to_owned(),
                        Json::from(s.instances_flattened as u64),
                    ),
                    (
                        "prims_emitted".to_owned(),
                        Json::from(s.prims_emitted as u64),
                    ),
                    ("signals".to_owned(), Json::from(s.signals as u64)),
                    wall,
                ],
            };
            fields.push(("expansion".to_owned(), Json::Obj(expansion_fields)));
        }
        print!("{}", Json::Obj(fields).to_string_pretty());
    }

    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
