//! In-memory span recording and the per-layer ledger built from it.
//!
//! A span is one call into a layer's public function: name, start, end,
//! parent span and iteration id. Spans stay in memory while the run
//! measures and are written out once it ends. A layer's *self* time is its
//! span's duration minus the durations of its child spans; a root span
//! (one verdict, one request, one replayed edit) is an iteration.

use std::collections::BTreeMap;
use std::time::Instant;

use scald_trace::json::Json;

/// One timed call. Times are nanoseconds since the recording process's
/// tracer origin; `parent` indexes the same span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when switched on; otherwise a closure call and a branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    iter: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            iter: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with iteration `iter`.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = Instant::now();
        let idx = self.push(name, start, start);
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = ns_between(self.origin, Instant::now());
        out
    }

    /// Records a span timed elsewhere, under `parent` (or as a root).
    /// Returns its index for use as a later parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let idx = self.push(name, start, end);
        self.spans[idx].parent = parent;
        idx
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: ns_between(self.origin, start),
            end_ns: ns_between(self.origin, end),
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(&s.name),
                    Json::from(s.start_ns),
                    Json::from(s.end_ns),
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    Json::from(s.iter),
                ])
            })
            .collect(),
    )
}

/// Parses [`spans_json`] output, shifting parent indices by `base` and
/// iteration ids by `iter_base` so several processes' spans share one list.
pub fn spans_from_json(json: &Json, base: usize, iter_base: u64) -> Option<Vec<Span>> {
    json.as_array()?
        .iter()
        .map(|s| {
            let f = s.as_array()?;
            Some(Span {
                name: f.first()?.as_str()?.to_owned(),
                start_ns: f.get(1)?.as_u64()?,
                end_ns: f.get(2)?.as_u64()?,
                parent: match f.get(3)? {
                    Json::Null => None,
                    p => Some(usize::try_from(p.as_u64()?).ok()? + base),
                },
                iter: f.get(4)?.as_u64()? + iter_base,
            })
        })
        .collect()
}

/// One layer's row of the ledger of one iteration kind.
#[derive(Debug, Default)]
pub struct Row {
    pub calls: u64,
    pub self_ns: u64,
}

/// Self time per layer for one iteration kind (the root span's name).
/// The root's own self time is what no layer span covers.
#[derive(Debug, Default)]
pub struct Ledger {
    pub iterations: u64,
    pub wall_ns: u64,
    pub rows: BTreeMap<String, Row>,
}

impl Ledger {
    /// Share of the iterations' wall clock that the layer spans cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let uncovered = self.rows.get(root).map_or(0, |r| r.self_ns);
        if self.wall_ns == 0 {
            0.0
        } else {
            1.0 - uncovered as f64 / self.wall_ns as f64
        }
    }
}

/// Builds one ledger per root-span name.
pub fn ledgers(spans: &[Span]) -> BTreeMap<String, Ledger> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut out: BTreeMap<String, Ledger> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = &spans[root_of(i)];
        let ledger = out.entry(root.name.clone()).or_default();
        if s.parent.is_none() {
            ledger.iterations += 1;
            ledger.wall_ns += s.dur();
        }
        let row = ledger.rows.entry(s.name.clone()).or_default();
        row.calls += 1;
        row.self_ns += s.dur().saturating_sub(child_ns[i]);
    }
    out
}

/// Per-iteration inclusive time of every span name, in iteration order:
/// the samples behind the per-layer `*_ms` metrics.
pub fn per_iteration_ns(spans: &[Span]) -> BTreeMap<String, Vec<u64>> {
    let mut sums: BTreeMap<(String, u64), u64> = BTreeMap::new();
    for s in spans {
        *sums.entry((s.name.clone(), s.iter)).or_default() += s.dur();
    }
    let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for ((name, _), ns) in sums {
        out.entry(name).or_default().push(ns);
    }
    out
}
