//! Engine observability for the SCALD Timing Verifier.
//!
//! The thesis' designers ran the verifier nightly and read its listings to
//! find *and explain* violations (§3.3.1, Tables 3-1/3-3) — convergence
//! behaviour, evaluation effort and storage were reported product surface,
//! not debug scaffolding. This crate makes that surface pluggable: the
//! engine emits [`TraceEvent`]s describing its fixed-point iteration
//! (per-primitive evaluations, per-signal settle ordinals, queue-depth
//! samples, per-case wall-clock and effort) into any [`TraceSink`].
//!
//! Tracing is **zero-cost when disabled**: the engine holds an
//! `Option<Arc<dyn TraceSink>>` and constructs an event only inside the
//! `Some` branch, so a bare run pays one predictable branch per
//! evaluation (see the `trace_overhead` bench group).
//!
//! Shipped sinks:
//!
//! * [`CounterSink`] — lock-guarded aggregation: per-primitive evaluation
//!   counts, per-signal last-settle ordinals, queue-depth high-water mark,
//!   per-case wall-clock/effort summaries.
//! * [`TimelineSink`] — the convergence profile: `(case, ordinal, depth)`
//!   queue-depth samples over the run plus the committed
//!   [`WaveSample`]s of the level-synchronized settle loop, renderable
//!   as an ASCII profile.
//! * [`JsonlSink`] — one JSON object per event, streamed to any writer
//!   (`--trace FILE` in `scald-tv`).
//!
//! The [`json`] module is the crate's second export: a dependency-free
//! JSON value type, writer and recursive-descent parser shared by the
//! JSONL sink, the verifier's `Report::to_json`, and the golden tests
//! that validate CLI output without `serde`.

#![warn(missing_docs)]

pub mod json;
mod sinks;

pub use sinks::{
    CaseSummary, CounterSink, CounterSnapshot, JsonlSink, TimelineSample, TimelineSink, WaveSample,
};

/// One observability event emitted by the verification engine.
///
/// Events borrow names from the engine's netlist; sinks that outlive the
/// call must copy what they keep. `case` is `None` for the base
/// (no-override) settle pass and `Some(i)` for case-analysis case `i`
/// (0-based input order). A run emits its events on the thread that
/// calls it: the base settle, then the case tree's units in pre-order
/// (each prefix node before its subtree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent<'a> {
    /// A verification run (`Verifier::run`-level) is starting.
    RunStart {
        /// Signals in the design.
        signals: usize,
        /// Primitives in the design.
        prims: usize,
        /// Cases about to be analysed.
        cases: usize,
    },
    /// One primitive evaluation inside a settle loop, emitted in commit
    /// order.
    Evaluation {
        /// Case index, or `None` for the base settle.
        case: Option<u32>,
        /// Primitive index (`PrimId::index()`).
        prim: u32,
        /// Primitive instance name.
        name: &'a str,
        /// 1-based ordinal of this evaluation within its settle loop.
        ordinal: u64,
        /// Evaluations still pending after this one: the rest of the
        /// current wave plus everything already queued for the next.
        queue_depth: usize,
    },
    /// One wave of the level-synchronized settle loop finished
    /// committing: the worklist was drained into a deduplicated wave,
    /// every primitive of the wave was evaluated against the frozen
    /// pre-wave state, and the results were committed in primitive-id
    /// order.
    Wave {
        /// Case index, or `None` for the base settle.
        case: Option<u32>,
        /// 1-based ordinal of this wave within its settle loop.
        ordinal: u64,
        /// Primitives evaluated in this wave.
        size: usize,
        /// Worklist depth after the commit — the seed of the next wave
        /// (0 means the fixed point was reached).
        queue_depth: usize,
    },
    /// A signal took a new effective value (an *event* in §3.3.2 terms).
    /// The ordinal of the last such event per signal is its settle
    /// iteration: how deep into the fixed-point wave it kept moving.
    SignalSettled {
        /// Case index, or `None` for the base settle.
        case: Option<u32>,
        /// Signal index (`SignalId::index()`).
        signal: u32,
        /// Signal name.
        name: &'a str,
        /// Evaluation ordinal at which the change happened.
        ordinal: u64,
    },
    /// A leaf case is starting.
    CaseStart {
        /// Case index (0-based input order).
        case: u32,
        /// The case's human-readable label.
        label: &'a str,
    },
    /// A leaf case finished.
    CaseEnd {
        /// Case index (0-based input order).
        case: u32,
        /// Wall-clock nanoseconds the case's settle + checks took.
        wall_nanos: u64,
        /// Signal-change events within the case.
        events: u64,
        /// Primitive evaluations within the case.
        evaluations: u64,
        /// Violations the case's check pass reported.
        violations: usize,
    },
    /// An internal node of the case tree finished settling its shared
    /// assignment prefix on top of its parent's state. The contained
    /// [`Evaluation`](Self::Evaluation)/[`Wave`](Self::Wave)/
    /// [`SignalSettled`](Self::SignalSettled) events were traced with
    /// `case: None` (like the base settle): prefix effort is paid once
    /// for every descendant leaf, so it belongs to no single case. It
    /// is still included in the run totals of
    /// [`RunEnd`](Self::RunEnd).
    PrefixSettled {
        /// 0-based node index in settle order (parents before children).
        node: u32,
        /// Human-readable label of the node's cumulative overrides.
        label: &'a str,
        /// Descendant leaf cases that share this prefix.
        cases: usize,
        /// Signal-change events within the node's settle.
        events: u64,
        /// Primitive evaluations within the node's settle.
        evaluations: u64,
    },
    /// A case-tree node finished settling and hands its state on to its
    /// children (child nodes and leaf cases), which the walk runs next.
    /// Emitted right after the node's
    /// [`PrefixSettled`](Self::PrefixSettled), even when the node
    /// failed: its children then fail with it.
    SubtreeReleased {
        /// 0-based node index in the run's case tree.
        node: u32,
        /// Work units (child nodes plus leaves) the node hands on to.
        children: usize,
    },
    /// Per-case checker/storage memoization counters, emitted just
    /// before [`CaseEnd`](Self::CaseEnd): how much of the per-leaf fixed
    /// cost (checker units, storage measurements) the case evaluated
    /// versus inherited from its prefix node's cached pass. A lone case
    /// (the run's only case, at the worst-case corner) evaluates every
    /// unit and its hit counters are zero. Deterministic per case: the
    /// counters depend on the case set and the netlist.
    LeafChecks {
        /// Case index (0-based input order).
        case: u32,
        /// Checker units (checker prims, hazard pairs, assertions)
        /// evaluated for this case.
        check_evals: u64,
        /// Checker units inherited clean-and-empty from the prefix.
        check_hits: u64,
        /// Signals measured for the case's storage accounting.
        storage_evals: u64,
        /// Signals whose storage measurement was inherited.
        storage_hits: u64,
    },
    /// The run finished (all cases merged).
    RunEnd {
        /// Wall-clock nanoseconds for the whole run.
        wall_nanos: u64,
        /// Total signal-change events across base + all cases.
        events: u64,
        /// Total primitive evaluations across base + all cases.
        evaluations: u64,
    },
    /// The verifier was warm-started from a prior session's fixed point
    /// (`scald-incr`): only the structurally dirty cone was seeded into
    /// the worklist; every other signal kept its settled value.
    WarmStart {
        /// Signals whose settled state was carried over unchanged.
        copied_signals: usize,
        /// Primitives seeded into the worklist (the dirty frontier).
        seeded_prims: usize,
        /// Total primitives in the (edited) design, for cone ratios.
        prims: usize,
    },
    /// Evaluation-memo-table counters at the end of a run (emitted just
    /// before [`RunEnd`](Self::RunEnd) when caching is enabled). These
    /// are effort counters, like wall-clock: they vary with cache
    /// configuration and sharing while every verification result stays
    /// byte-identical.
    CacheStats {
        /// Evaluations served from the memo table.
        hits: u64,
        /// Evaluations that ran the kernels (and populated the table).
        misses: u64,
        /// Distinct outcomes stored.
        entries: usize,
    },
}

impl TraceEvent<'_> {
    /// Stable lower-snake token naming the event variant (the `"type"`
    /// field of the JSONL stream).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::Evaluation { .. } => "evaluation",
            TraceEvent::Wave { .. } => "wave",
            TraceEvent::SignalSettled { .. } => "signal_settled",
            TraceEvent::CaseStart { .. } => "case_start",
            TraceEvent::CaseEnd { .. } => "case_end",
            TraceEvent::PrefixSettled { .. } => "prefix_settled",
            TraceEvent::SubtreeReleased { .. } => "subtree_released",
            TraceEvent::LeafChecks { .. } => "leaf_checks",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::WarmStart { .. } => "warm_start",
            TraceEvent::CacheStats { .. } => "cache_stats",
        }
    }

    /// The event as a [`json::Json`] object — what [`JsonlSink`] writes,
    /// one per line.
    #[must_use]
    pub fn to_json(&self) -> json::Json {
        use json::Json;
        let case_field = |c: &Option<u32>| c.map_or(Json::Null, |i| Json::from(u64::from(i)));
        let mut obj: Vec<(String, Json)> = vec![("type".into(), Json::str(self.kind()))];
        match *self {
            TraceEvent::RunStart {
                signals,
                prims,
                cases,
            } => {
                obj.push(("signals".into(), Json::from(signals as u64)));
                obj.push(("prims".into(), Json::from(prims as u64)));
                obj.push(("cases".into(), Json::from(cases as u64)));
            }
            TraceEvent::Evaluation {
                ref case,
                prim,
                name,
                ordinal,
                queue_depth,
            } => {
                obj.push(("case".into(), case_field(case)));
                obj.push(("prim".into(), Json::from(u64::from(prim))));
                obj.push(("name".into(), Json::str(name)));
                obj.push(("ordinal".into(), Json::from(ordinal)));
                obj.push(("queue_depth".into(), Json::from(queue_depth as u64)));
            }
            TraceEvent::Wave {
                ref case,
                ordinal,
                size,
                queue_depth,
            } => {
                obj.push(("case".into(), case_field(case)));
                obj.push(("ordinal".into(), Json::from(ordinal)));
                obj.push(("size".into(), Json::from(size as u64)));
                obj.push(("queue_depth".into(), Json::from(queue_depth as u64)));
            }
            TraceEvent::SignalSettled {
                ref case,
                signal,
                name,
                ordinal,
            } => {
                obj.push(("case".into(), case_field(case)));
                obj.push(("signal".into(), Json::from(u64::from(signal))));
                obj.push(("name".into(), Json::str(name)));
                obj.push(("ordinal".into(), Json::from(ordinal)));
            }
            TraceEvent::CaseStart { case, label } => {
                obj.push(("case".into(), Json::from(u64::from(case))));
                obj.push(("label".into(), Json::str(label)));
            }
            TraceEvent::CaseEnd {
                case,
                wall_nanos,
                events,
                evaluations,
                violations,
            } => {
                obj.push(("case".into(), Json::from(u64::from(case))));
                obj.push(("wall_nanos".into(), Json::from(wall_nanos)));
                obj.push(("events".into(), Json::from(events)));
                obj.push(("evaluations".into(), Json::from(evaluations)));
                obj.push(("violations".into(), Json::from(violations as u64)));
            }
            TraceEvent::PrefixSettled {
                node,
                label,
                cases,
                events,
                evaluations,
            } => {
                obj.push(("node".into(), Json::from(u64::from(node))));
                obj.push(("label".into(), Json::str(label)));
                obj.push(("cases".into(), Json::from(cases as u64)));
                obj.push(("events".into(), Json::from(events)));
                obj.push(("evaluations".into(), Json::from(evaluations)));
            }
            TraceEvent::SubtreeReleased { node, children } => {
                obj.push(("node".into(), Json::from(u64::from(node))));
                obj.push(("children".into(), Json::from(children as u64)));
            }
            TraceEvent::LeafChecks {
                case,
                check_evals,
                check_hits,
                storage_evals,
                storage_hits,
            } => {
                obj.push(("case".into(), Json::from(u64::from(case))));
                obj.push(("check_evals".into(), Json::from(check_evals)));
                obj.push(("check_hits".into(), Json::from(check_hits)));
                obj.push(("storage_evals".into(), Json::from(storage_evals)));
                obj.push(("storage_hits".into(), Json::from(storage_hits)));
            }
            TraceEvent::RunEnd {
                wall_nanos,
                events,
                evaluations,
            } => {
                obj.push(("wall_nanos".into(), Json::from(wall_nanos)));
                obj.push(("events".into(), Json::from(events)));
                obj.push(("evaluations".into(), Json::from(evaluations)));
            }
            TraceEvent::WarmStart {
                copied_signals,
                seeded_prims,
                prims,
            } => {
                obj.push(("copied_signals".into(), Json::from(copied_signals as u64)));
                obj.push(("seeded_prims".into(), Json::from(seeded_prims as u64)));
                obj.push(("prims".into(), Json::from(prims as u64)));
            }
            TraceEvent::CacheStats {
                hits,
                misses,
                entries,
            } => {
                obj.push(("hits".into(), Json::from(hits)));
                obj.push(("misses".into(), Json::from(misses)));
                obj.push(("entries".into(), Json::from(entries as u64)));
            }
        }
        Json::Obj(obj)
    }
}

/// A consumer of engine observability events.
///
/// Sinks must be `Send + Sync`: a verifier moves between threads with
/// its sink (a daemon request runs on a worker thread), and one sink
/// may serve several verifiers at once. A sink that cannot keep up
/// slows the engine down (events are delivered synchronously), so heavy
/// sinks should aggregate cheaply and defer formatting.
pub trait TraceSink: Send + Sync {
    /// Receives one event. Called from the engine's hot loop when
    /// tracing is enabled; implementations should be quick.
    fn record(&self, event: &TraceEvent<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kinds_are_stable_tokens() {
        let e = TraceEvent::RunEnd {
            wall_nanos: 1,
            events: 2,
            evaluations: 3,
        };
        assert_eq!(e.kind(), "run_end");
        let text = e.to_json().to_string();
        assert!(text.contains("\"type\":\"run_end\""), "{text}");
        assert!(text.contains("\"evaluations\":3"), "{text}");
    }

    #[test]
    fn evaluation_event_round_trips_through_json() {
        let e = TraceEvent::Evaluation {
            case: Some(4),
            prim: 7,
            name: "TOP/REG#3",
            ordinal: 19,
            queue_depth: 2,
        };
        let parsed = json::parse(&e.to_json().to_string()).expect("valid");
        assert_eq!(parsed.get("case").and_then(json::Json::as_u64), Some(4));
        assert_eq!(
            parsed.get("name").and_then(json::Json::as_str),
            Some("TOP/REG#3")
        );
        assert_eq!(
            parsed.get("queue_depth").and_then(json::Json::as_u64),
            Some(2)
        );
    }
}
