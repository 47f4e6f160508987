//! Shipped [`TraceSink`] implementations: counter aggregation, the
//! queue-depth/convergence-wave timeline, and the JSONL event stream.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::{TraceEvent, TraceSink};

/// Per-case wall-clock and effort, as reported by [`CounterSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSummary {
    /// Case index (0-based input order).
    pub case: u32,
    /// The case's label.
    pub label: String,
    /// Wall-clock nanoseconds the case took.
    pub wall_nanos: u64,
    /// Signal-change events within the case.
    pub events: u64,
    /// Primitive evaluations within the case.
    pub evaluations: u64,
    /// Violations the case reported.
    pub violations: usize,
}

#[derive(Debug, Default)]
struct CounterInner {
    eval_counts: HashMap<u32, (String, u64)>,
    settle_ordinals: HashMap<u32, (String, u64)>,
    events: u64,
    evaluations: u64,
    max_queue_depth: usize,
    waves: u64,
    max_wave: usize,
    cases: Vec<CaseSummary>,
    run_wall_nanos: u64,
    leaf_check_evals: u64,
    leaf_check_hits: u64,
    leaf_storage_evals: u64,
    leaf_storage_hits: u64,
    subtree_releases: u64,
    released_units: u64,
}

/// Aggregating sink: per-primitive evaluation counts, per-signal settle
/// ordinals, the queue-depth high-water mark, and per-case summaries.
///
/// All aggregation happens under one mutex per event; cheap enough for
/// interactive use, and the engine pays nothing when no sink is set.
#[derive(Debug, Default)]
pub struct CounterSink {
    inner: Mutex<CounterInner>,
}

/// A point-in-time copy of everything a [`CounterSink`] accumulated.
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    /// `(primitive name, evaluation count)`, most-evaluated first.
    pub hottest_prims: Vec<(String, u64)>,
    /// `(signal name, last-change evaluation ordinal)`, latest-settling
    /// first — the signals that kept moving deepest into the fixed-point
    /// wave.
    pub last_settled: Vec<(String, u64)>,
    /// Total signal-change events observed.
    pub events: u64,
    /// Total primitive evaluations observed.
    pub evaluations: u64,
    /// Deepest worklist observed across all settle loops.
    pub max_queue_depth: usize,
    /// Waves committed across all settle loops (level-synchronized
    /// engine: one wave = one drain/evaluate/commit round).
    pub waves: u64,
    /// Largest single wave (primitives evaluated in one round).
    pub max_wave: usize,
    /// Per-case wall-clock/effort summaries, in completion order.
    pub cases: Vec<CaseSummary>,
    /// Whole-run wall-clock nanoseconds (0 until `RunEnd` arrives).
    pub run_wall_nanos: u64,
    /// Checker units evaluated at leaf cases (`leaf_checks` events).
    pub leaf_check_evals: u64,
    /// Checker units leaf cases inherited from their prefix node's
    /// cached pass — the memoization rate is `hits / (hits + evals)`.
    pub leaf_check_hits: u64,
    /// Signals measured for per-case storage accounting.
    pub leaf_storage_evals: u64,
    /// Per-case storage measurements inherited from the prefix.
    pub leaf_storage_hits: u64,
    /// Subtree releases: one per settled case-tree node, which hands
    /// its state on to its children.
    pub subtree_releases: u64,
    /// Work units (child nodes + leaves) those releases handed on to.
    pub released_units: u64,
}

impl CounterSink {
    /// A fresh, empty sink.
    #[must_use]
    pub fn new() -> CounterSink {
        CounterSink::default()
    }

    /// Copies out the current aggregates, sorted for reporting.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        let inner = self.inner.lock().expect("counter sink poisoned");
        let mut hottest_prims: Vec<(String, u64)> = inner.eval_counts.values().cloned().collect();
        hottest_prims.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut last_settled: Vec<(String, u64)> =
            inner.settle_ordinals.values().cloned().collect();
        last_settled.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        CounterSnapshot {
            hottest_prims,
            last_settled,
            events: inner.events,
            evaluations: inner.evaluations,
            max_queue_depth: inner.max_queue_depth,
            waves: inner.waves,
            max_wave: inner.max_wave,
            cases: inner.cases.clone(),
            run_wall_nanos: inner.run_wall_nanos,
            leaf_check_evals: inner.leaf_check_evals,
            leaf_check_hits: inner.leaf_check_hits,
            leaf_storage_evals: inner.leaf_storage_evals,
            leaf_storage_hits: inner.leaf_storage_hits,
            subtree_releases: inner.subtree_releases,
            released_units: inner.released_units,
        }
    }
}

impl TraceSink for CounterSink {
    fn record(&self, event: &TraceEvent<'_>) {
        let mut inner = self.inner.lock().expect("counter sink poisoned");
        match *event {
            TraceEvent::Evaluation {
                prim,
                name,
                queue_depth,
                ..
            } => {
                inner
                    .eval_counts
                    .entry(prim)
                    .or_insert_with(|| (name.to_owned(), 0))
                    .1 += 1;
                inner.evaluations += 1;
                inner.max_queue_depth = inner.max_queue_depth.max(queue_depth);
            }
            TraceEvent::SignalSettled {
                signal,
                name,
                ordinal,
                ..
            } => {
                let entry = inner
                    .settle_ordinals
                    .entry(signal)
                    .or_insert_with(|| (name.to_owned(), 0));
                entry.1 = entry.1.max(ordinal);
                inner.events += 1;
            }
            TraceEvent::CaseStart { case, label } => {
                // The label only travels on CaseStart; park a placeholder
                // the matching CaseEnd fills in.
                let label = label.to_owned();
                inner.cases.push(CaseSummary {
                    case,
                    label,
                    wall_nanos: 0,
                    events: 0,
                    evaluations: 0,
                    violations: 0,
                });
            }
            TraceEvent::CaseEnd {
                case,
                wall_nanos,
                events,
                evaluations,
                violations,
            } => {
                let filled = CaseSummary {
                    case,
                    label: String::new(),
                    wall_nanos,
                    events,
                    evaluations,
                    violations,
                };
                match inner
                    .cases
                    .iter_mut()
                    .rev()
                    .find(|c| c.case == case && c.wall_nanos == 0)
                {
                    Some(slot) => {
                        let label = std::mem::take(&mut slot.label);
                        *slot = CaseSummary { label, ..filled };
                    }
                    None => inner.cases.push(filled),
                }
            }
            TraceEvent::Wave { size, .. } => {
                inner.waves += 1;
                inner.max_wave = inner.max_wave.max(size);
            }
            TraceEvent::RunEnd { wall_nanos, .. } => {
                inner.run_wall_nanos = wall_nanos;
            }
            TraceEvent::LeafChecks {
                check_evals,
                check_hits,
                storage_evals,
                storage_hits,
                ..
            } => {
                inner.leaf_check_evals += check_evals;
                inner.leaf_check_hits += check_hits;
                inner.leaf_storage_evals += storage_evals;
                inner.leaf_storage_hits += storage_hits;
            }
            TraceEvent::SubtreeReleased { children, .. } => {
                inner.subtree_releases += 1;
                inner.released_units += children as u64;
            }
            TraceEvent::RunStart { .. }
            | TraceEvent::PrefixSettled { .. }
            | TraceEvent::WarmStart { .. }
            | TraceEvent::CacheStats { .. } => {}
        }
    }
}

/// One queue-depth sample on the convergence timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSample {
    /// Case index, or `None` for the base settle.
    pub case: Option<u32>,
    /// Evaluation ordinal within that settle loop.
    pub ordinal: u64,
    /// Worklist depth at that point.
    pub depth: usize,
}

/// One committed wave of the level-synchronized settle loop, as recorded
/// from [`TraceEvent::Wave`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveSample {
    /// Case index, or `None` for the base settle.
    pub case: Option<u32>,
    /// 1-based wave ordinal within its settle loop.
    pub ordinal: u64,
    /// Primitives evaluated in the wave.
    pub size: usize,
    /// Worklist depth after the commit (the next wave's seed).
    pub depth: usize,
}

/// Records the *convergence wave*: worklist depth over evaluation
/// ordinal, per settle loop. A settling circuit shows a rising front as
/// events fan out, then a collapse to zero; an oscillating one plateaus.
///
/// Sampling every `stride`-th evaluation (constructor argument) bounds
/// memory on large designs.
#[derive(Debug)]
pub struct TimelineSink {
    stride: u64,
    samples: Mutex<Vec<TimelineSample>>,
    waves: Mutex<Vec<WaveSample>>,
}

impl TimelineSink {
    /// A sink sampling every `stride`-th evaluation (`stride` is clamped
    /// to at least 1). Wave events are always recorded — there are only
    /// as many as the settle loop has levels.
    #[must_use]
    pub fn every(stride: u64) -> TimelineSink {
        TimelineSink {
            stride: stride.max(1),
            samples: Mutex::new(Vec::new()),
            waves: Mutex::new(Vec::new()),
        }
    }

    /// A sink sampling every evaluation.
    #[must_use]
    pub fn new() -> TimelineSink {
        TimelineSink::every(1)
    }

    /// The samples recorded so far, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn samples(&self) -> Vec<TimelineSample> {
        self.samples.lock().expect("timeline sink poisoned").clone()
    }

    /// The committed waves recorded so far, in arrival order: the
    /// wave-by-wave convergence profile of the level-synchronized engine
    /// (size shrinking to the fixed point, depth reaching 0 at the end).
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn waves(&self) -> Vec<WaveSample> {
        self.waves.lock().expect("timeline sink poisoned").clone()
    }

    /// Renders the base-settle convergence wave as an ASCII profile,
    /// `width` columns wide: each column shows the maximum queue depth
    /// in its ordinal bucket, scaled to 8 rows of `#`.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn render_base_wave(&self, width: usize) -> String {
        let samples = self.samples.lock().expect("timeline sink poisoned");
        let base: Vec<&TimelineSample> = samples.iter().filter(|s| s.case.is_none()).collect();
        let Some(last) = base.last() else {
            return String::from("(no samples)\n");
        };
        let width = width.max(1);
        let span = last.ordinal.max(1);
        let mut buckets = vec![0usize; width];
        for s in &base {
            #[allow(clippy::cast_possible_truncation)]
            let col = ((s.ordinal.saturating_sub(1)) * width as u64 / span) as usize;
            let col = col.min(width - 1);
            buckets[col] = buckets[col].max(s.depth);
        }
        let peak = buckets.iter().copied().max().unwrap_or(0).max(1);
        const ROWS: usize = 8;
        let mut out = String::new();
        for row in (1..=ROWS).rev() {
            let threshold = peak * row;
            for &b in &buckets {
                out.push(if b * ROWS >= threshold { '#' } else { ' ' });
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "queue depth 0..{peak} over {span} evaluations (base settle)\n"
        ));
        out
    }
}

impl Default for TimelineSink {
    fn default() -> TimelineSink {
        TimelineSink::new()
    }
}

impl TraceSink for TimelineSink {
    fn record(&self, event: &TraceEvent<'_>) {
        match *event {
            TraceEvent::Evaluation {
                case,
                ordinal,
                queue_depth,
                ..
            } if (ordinal % self.stride == 0 || queue_depth == 0) => {
                self.samples
                    .lock()
                    .expect("timeline sink poisoned")
                    .push(TimelineSample {
                        case,
                        ordinal,
                        depth: queue_depth,
                    });
            }
            TraceEvent::Wave {
                case,
                ordinal,
                size,
                queue_depth,
            } => {
                self.waves
                    .lock()
                    .expect("timeline sink poisoned")
                    .push(WaveSample {
                        case,
                        ordinal,
                        size,
                        depth: queue_depth,
                    });
            }
            _ => {}
        }
    }
}

/// Streams every event as one JSON object per line to a writer — the
/// machine-readable event log behind `scald-tv --trace FILE`.
///
/// Each line is written atomically under the sink's lock, so verifiers
/// sharing one sink never tear a line; consumers can partition by the
/// `case` field.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and streams events to it, buffered.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps any writer. Each event becomes one line.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Flushes and returns the writer.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner().expect("jsonl sink poisoned");
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent<'_>) {
        let line = event.to_json().to_string();
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        // A full disk mid-trace should not abort verification; the
        // stream just goes quiet.
        let _ = writeln!(w, "{line}");
        if matches!(event, TraceEvent::RunEnd { .. }) {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(prim: u32, name: &str, ordinal: u64, depth: usize) -> TraceEvent<'_> {
        TraceEvent::Evaluation {
            case: None,
            prim,
            name,
            ordinal,
            queue_depth: depth,
        }
    }

    #[test]
    fn counter_sink_aggregates() {
        let sink = CounterSink::new();
        sink.record(&eval(0, "A", 1, 3));
        sink.record(&eval(0, "A", 2, 5));
        sink.record(&eval(1, "B", 3, 1));
        sink.record(&TraceEvent::SignalSettled {
            case: None,
            signal: 7,
            name: "X",
            ordinal: 2,
        });
        sink.record(&TraceEvent::SignalSettled {
            case: None,
            signal: 7,
            name: "X",
            ordinal: 9,
        });
        let snap = sink.snapshot();
        assert_eq!(snap.evaluations, 3);
        assert_eq!(snap.events, 2);
        assert_eq!(snap.max_queue_depth, 5);
        assert_eq!(snap.hottest_prims[0], ("A".to_owned(), 2));
        assert_eq!(snap.last_settled, vec![("X".to_owned(), 9)]);
    }

    #[test]
    fn counter_sink_case_summaries_merge_start_and_end() {
        let sink = CounterSink::new();
        sink.record(&TraceEvent::CaseStart {
            case: 0,
            label: "case 1",
        });
        sink.record(&TraceEvent::CaseEnd {
            case: 0,
            wall_nanos: 42,
            events: 5,
            evaluations: 9,
            violations: 1,
        });
        let snap = sink.snapshot();
        assert_eq!(snap.cases.len(), 1);
        assert_eq!(snap.cases[0].label, "case 1");
        assert_eq!(snap.cases[0].wall_nanos, 42);
        assert_eq!(snap.cases[0].violations, 1);
    }

    #[test]
    fn timeline_sink_strides_and_renders() {
        let sink = TimelineSink::every(2);
        for i in 1..=10u64 {
            sink.record(&eval(0, "A", i, (10 - i) as usize));
        }
        let samples = sink.samples();
        assert!(samples.iter().all(|s| s.ordinal % 2 == 0 || s.depth == 0));
        let art = sink.render_base_wave(10);
        assert!(art.contains('#'));
        assert!(art.contains("base settle"));
        assert_eq!(TimelineSink::new().render_base_wave(10), "(no samples)\n");
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(&eval(3, "G#1", 1, 2));
        sink.record(&TraceEvent::RunEnd {
            wall_nanos: 5,
            events: 1,
            evaluations: 1,
        });
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let doc = crate::json::parse(line).expect("each line parses");
            assert!(doc.get("type").is_some());
        }
    }
}
