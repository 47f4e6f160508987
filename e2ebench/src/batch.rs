//! The batch workloads: one verdict from input in memory to the rendered
//! report, the path a `scald-tv` process takes.

use std::sync::Arc;
use std::time::Instant;

use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_gen::scale::{scale_netlist, ScaleOptions};
use scald_gen::sweep::{sweep_netlist, SweepOptions};
use scald_netlist::Netlist;
use scald_trace::{TimelineSink, TraceSink};
use scald_verifier::{CaseSet, RunOptions, VerifierBuilder};
use scald_wave::WaveStore;

use crate::spans::Tracer;
use crate::util::{fnv1a, mix};
use crate::{Workload, JOBS};

/// A generated verdict input.
pub enum Input {
    /// HDL source text (`tv_s1`).
    Hdl(String),
    /// A generated netlist verified as one case (`scale_settle`).
    Netlist(Netlist),
    /// A generated netlist and the mode bits of its exhaustive sweep
    /// (`sweep_1k`).
    Sweep(Netlist, Vec<String>),
}

/// Generates the workload's input from the command-line seed; `tiny`
/// shrinks it to a smoke-test size.
pub fn generate(workload: Workload, seed: u64, tiny: bool) -> Input {
    match workload {
        Workload::TvS1 => Input::Hdl(s1_like_hdl(S1Options {
            chips: if tiny { 60 } else { 6357 },
            seed: mix(seed, 1),
        })),
        Workload::ScaleSettle => {
            let opts = ScaleOptions {
                seed: mix(seed, 2),
                ..ScaleOptions::prims(if tiny { 2_000 } else { 250_000 })
            };
            Input::Netlist(scale_netlist(&opts).0)
        }
        Workload::Sweep1k => {
            let opts = if tiny {
                SweepOptions {
                    mode_bits: 4,
                    master_slices: 40,
                    block_slices: 2,
                    seed: mix(seed, 3),
                }
            } else {
                SweepOptions {
                    seed: mix(seed, 3),
                    ..SweepOptions::default()
                }
            };
            let (netlist, stats) = sweep_netlist(&opts);
            Input::Sweep(netlist, stats.mode_bits)
        }
        Workload::ServeEco => unreachable!("serve_eco is not a batch workload"),
    }
}

/// One verdict's outcome. `counts` are the per-layer counters read from
/// the public results of each layer.
pub struct Verdict {
    pub ns: u64,
    pub digest: u64,
    pub violations: usize,
    pub events: u64,
    pub evaluations: u64,
    pub counts: Vec<(&'static str, f64)>,
}

/// Runs one verdict under `t`. With tracing on, each layer call is a span,
/// the run is split into `settle_base` plus the `run` that follows, and a
/// `TimelineSink` counts the settle waves.
pub fn verdict(input: Input, label: &str, t: &mut Tracer) -> Result<Verdict, String> {
    let with_summary = matches!(input, Input::Hdl(_));
    let timeline = t.is_on().then(|| Arc::new(TimelineSink::every(u64::MAX)));
    let waves_before = WaveStore::global().stats();
    let mut counts: Vec<(&'static str, f64)> = Vec::new();

    let started = Instant::now();
    let kept = t.span("verdict", |t| {
        let (netlist, cases, design) = match input {
            Input::Hdl(src) => {
                counts.push(("hdl.src_bytes", src.len() as f64));
                let design = t
                    .span("hdl.parse", |_| scald_hdl::parse(&src))
                    .map_err(|e| format!("parse: {e}"))?;
                let expansion = t
                    .span("hdl.expand", |_| scald_hdl::expand(&design))
                    .map_err(|e| format!("expand: {e}"))?;
                let s = expansion.stats;
                counts.extend([
                    ("hdl.pass1_ms", s.pass1.as_secs_f64() * 1e3),
                    ("hdl.pass2_ms", s.pass2.as_secs_f64() * 1e3),
                    ("hdl.instances", s.instances_expanded as f64),
                    ("hdl.prims", s.prims_emitted as f64),
                ]);
                (expansion.netlist, None, Some(design))
            }
            Input::Netlist(netlist) => (netlist, None, None),
            Input::Sweep(netlist, bits) => {
                let set = t.span("caseset.build", |_| CaseSet::exhaustive(bits));
                counts.push(("caseset.cases", set.len() as f64));
                (netlist, Some(set), None)
            }
        };
        let mut builder = VerifierBuilder::new(netlist).jobs(JOBS);
        if let Some(sink) = &timeline {
            builder = builder.trace(Arc::clone(sink) as Arc<dyn TraceSink>);
        }
        let mut v = t.span("verifier.build", |_| builder.build());
        let opts = cases.map_or_else(RunOptions::new, |set| RunOptions::new().cases(set));
        let outcome = t
            .span("verifier.run", |t| {
                if t.is_on() {
                    t.span("verifier.settle_base", |_| v.settle_base())?;
                    t.span("verifier.cases", |_| v.run(&opts))
                } else {
                    v.run(&opts)
                }
            })
            .map_err(|e| format!("verify: {e}"))?;
        let report = t.span("verifier.report", |_| v.report(label, &outcome.cases));
        let rendered = t.span("report.render", |_| {
            let mut text = report.json_value().to_string_pretty();
            if with_summary {
                text.push_str(&report.summary_text());
            }
            text
        });
        // Handed out so that dropping them stays outside the timed window.
        Ok::<_, String>((design, v, outcome, report, rendered))
    })?;
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (_design, v, outcome, report, rendered) = kept;

    let mut stripped = report.strip_effort().json_value().to_string_pretty();
    if with_summary {
        stripped.push_str(&report.summary_text());
    }
    let cache = v.eval_cache_stats().unwrap_or_default();
    let waves_after = WaveStore::global().stats();
    let interns = waves_after.interns - waves_before.interns;
    let intern_hits = waves_after.hits - waves_before.hits;
    counts.extend([
        ("verifier.events", v.total_events() as f64),
        ("verifier.evaluations", v.total_evaluations() as f64),
        ("verifier.eval_cache.hits", cache.hits as f64),
        ("verifier.eval_cache.misses", cache.misses as f64),
        ("verifier.eval_cache.hit_rate", cache.hit_rate()),
        ("verifier.prefix.nodes", outcome.prefix.nodes as f64),
        (
            "verifier.prefix.evaluations",
            outcome.prefix.evaluations as f64,
        ),
        (
            "verifier.memo.leaf_check_evals",
            outcome.memo.leaf_check_evals as f64,
        ),
        (
            "verifier.memo.leaf_storage_evals",
            outcome.memo.leaf_storage_evals as f64,
        ),
        ("verifier.memo.leaf_hit_rate", outcome.memo.leaf_hit_rate()),
        ("verifier.memo.releases", outcome.memo.releases as f64),
        ("report.bytes", rendered.len() as f64),
        ("wave.interns", interns as f64),
        (
            "wave.intern_hit_rate",
            intern_hits as f64 / interns.max(1) as f64,
        ),
        (
            "wave.unique",
            waves_after.unique.saturating_sub(waves_before.unique) as f64,
        ),
    ]);
    if let Some(sink) = &timeline {
        let waves = sink.waves();
        let prims: usize = waves.iter().map(|w| w.size).sum();
        counts.extend([
            ("verifier.waves", waves.len() as f64),
            (
                "verifier.wave_width",
                prims as f64 / waves.len().max(1) as f64,
            ),
        ]);
    }
    Ok(Verdict {
        ns,
        digest: fnv1a(stripped.as_bytes()),
        violations: report.total_violations(),
        events: v.total_events(),
        evaluations: v.total_evaluations(),
        counts,
    })
}
