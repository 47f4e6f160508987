//! The report layer: timing-violation records with fan-in provenance,
//! and the [`Report`] document that owns every listing the Timing
//! Verifier prints — the error report of Fig 3-11, the signal-value
//! summary of Fig 3-10, the cross-reference, slack and storage views —
//! renderable as text sections or as one versioned JSON document.
//!
//! # JSON schema (version 2)
//!
//! [`Report::to_json`] emits a single top-level object:
//!
//! ```text
//! {
//!   "schema": "scald-tv-report",        // REPORT_SCHEMA, always present
//!   "version": 2,                       // REPORT_VERSION, bumped on breaking change
//!   "design": "designs/foo.scald",      // caller-supplied design label
//!   "clean": false,
//!   "total_violations": 3,
//!   "engine": {
//!     "signals": 61, "prims": 50,       // design size
//!     "cases": 1, "jobs": 1,            // case count; jobs is always 1
//!     "case_strategy": "auto",          // constant; see below
//!     "events": 123, "evaluations": 456,// cumulative effort (§3.3.2)
//!     "wall_ns": 183042,                // null when not measured
//!     "period_ns": 50
//!   },
//!   "cases": [ {
//!     "name": "case 1: no case overrides",
//!     "events": 123, "evaluations": 456, "value_records": 78,
//!     "violations": [ {
//!       "kind": "setup",                // stable lower-snake token
//!       "label": "SETUP TIME VIOLATED", // the Fig 3-11 heading
//!       "source": "TOP/REG#14/setup_hold#16",
//!       "constraint": "SETUP TIME = 2.5, HOLD TIME = 1.5",
//!       "missed_by_ns": 2.5,            // null when not meaningful
//!       "at": {"start_ns": 49, "width_ns": 2},   // null when not localized
//!       "observed": ["CK INPUT   = ...", ...],
//!       "provenance": {                 // fan-in cone of the checked input
//!         "truncated": false,
//!         "hops": [ {
//!           "signal": "READ BUS",
//!           "depth": 0,                 // 0 = the checked input itself
//!           "via": "TOP/RAM#6",         // driving primitive; null at a source
//!           "arrival": [{"start_ns": 0, "width_ns": 1.4}, ...]
//!         }, ... ]
//!       }
//!     } ]
//!   } ],
//!   "slack": [ {"checker": ..., "signal": ...,
//!               "setup_slack_ns": 1.5|null, "hold_slack_ns": ..., "pulse_slack_ns": ...} ],
//!   "storage": { "rows": [{"area": "SIGNAL VALUES", "bytes": N}, ...],
//!                "total_bytes": N, "value_records_per_signal": 2.97 },
//!   "assumed_stable": ["NAME", ...],    // the §2.5 cross-reference
//!   "summary": [ {"signal": "ADR", "wave": "S 0.0 C 0.5 S 13.5"}, ... ],
//!   "probabilistic": {                  // v2: present only when the run
//!     "rho": 0.5,                       // was given delay distributions
//!     "endpoints": [ {                  // (scald-tv --prob RHO)
//!       "endpoint": "DATA BUS",
//!       "constraint_source": "TOP/REG CHK#12",
//!       "arrival_mean_ns": 41.2, "arrival_sigma_ns": 1.7,
//!       "slack_mean_ns": 6.3,   "slack_sigma_ns": 1.7,
//!       "deadline_ns": 47.5, "worst_case_ns": 46.1,
//!       "violation_probability": 0.0001
//!     } ]
//!   }
//! }
//! ```
//!
//! `arrival` windows are the spans (start + width within the cycle,
//! nanoseconds) where the signal *may be changing*; spans can wrap the
//! period. Consumers must ignore unknown fields; within a major version
//! fields are only added, never removed or retyped. Version 2 is a
//! purely additive revision of version 1: the only change is the
//! optional `probabilistic` section, which is **omitted** (not null)
//! when no distribution analysis ran, so version-1 consumers keep
//! working unchanged.
//!
//! `engine.case_strategy` is always `"auto"`, and `engine.jobs` is
//! always 1. They once named which case engine a run took and how many
//! workers ran it; there is now one engine on one thread, and both
//! fields stay because a field is never removed within a major version.
//!
//! The probabilistic section reports each checked endpoint's arrival
//! time and slack as normal distributions (mean + sigma, nanoseconds)
//! instead of single worst-case numbers, plus the probability the
//! endpoint misses its deadline — §4.2.4's "verified to a specified
//! level of probability". The verifier itself never fills it in (the
//! seven-value algebra is worst-case by construction); callers with
//! distribution data — `scald-tv --prob RHO`, via `scald-stats` — attach
//! it before rendering.

use scald_netlist::{Netlist, SignalId};
use scald_trace::json::{Json, Writer};
use scald_wave::{Span, Time, Waveform};
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::EvalCacheStats;
use crate::checkers::CheckMargin;
use crate::state::StateId;
use crate::storage::StorageReport;
use crate::view::StateView;

/// The JSON document identifier emitted in the `"schema"` field.
pub const REPORT_SCHEMA: &str = "scald-tv-report";
/// Current major version of the JSON report schema. Version 2 adds the
/// optional `probabilistic` section (omitted when absent); everything
/// else is identical to version 1.
pub const REPORT_VERSION: u64 = 2;

/// The class of a detected timing error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Set-up time violated: the checked input was still changing within
    /// the set-up interval before a clock edge (§2.4.4).
    Setup,
    /// Hold time violated: the checked input changed within the hold
    /// interval after a clock edge.
    Hold,
    /// The checked input changed while the clock was true
    /// (`SETUP RISE HOLD FALL CHK`, §2.4.4).
    StableWhileTrue,
    /// A high pulse could be narrower than the specified minimum (§2.4.5).
    MinPulseHigh,
    /// A low pulse could be narrower than the specified minimum.
    MinPulseLow,
    /// A control input gated with a clock was not stable while the clock
    /// was asserted — the `&A`/`&H` hazard check (§2.6, Fig 1-5).
    Hazard,
    /// A generated signal's actual timing violates the stable assertion in
    /// its name (§2.5.2).
    AssertionViolated,
    /// A checker's clock input is undefined (`U`) for part of the cycle —
    /// usually a missing clock assertion or an unconnected clock tree.
    UndefinedClock,
}

impl ViolationKind {
    /// Stable lower-snake token for machine-readable output (the JSON
    /// `"kind"` field). Display gives the Fig 3-11 heading instead.
    #[must_use]
    pub const fn token(self) -> &'static str {
        match self {
            ViolationKind::Setup => "setup",
            ViolationKind::Hold => "hold",
            ViolationKind::StableWhileTrue => "stable_while_true",
            ViolationKind::MinPulseHigh => "min_pulse_high",
            ViolationKind::MinPulseLow => "min_pulse_low",
            ViolationKind::Hazard => "hazard",
            ViolationKind::AssertionViolated => "assertion_violated",
            ViolationKind::UndefinedClock => "undefined_clock",
        }
    }

    /// The Fig 3-11 heading (the JSON `"label"` field), as `Display`
    /// prints it.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ViolationKind::Setup => "SETUP TIME VIOLATED",
            ViolationKind::Hold => "HOLD TIME VIOLATED",
            ViolationKind::StableWhileTrue => "INPUT CHANGING WHILE CLOCK TRUE",
            ViolationKind::MinPulseHigh => "MINIMUM HIGH PULSE WIDTH VIOLATED",
            ViolationKind::MinPulseLow => "MINIMUM LOW PULSE WIDTH VIOLATED",
            ViolationKind::Hazard => "CONTROL SIGNAL CHANGING WHILE CLOCK ASSERTED",
            ViolationKind::AssertionViolated => "STABLE ASSERTION VIOLATED",
            ViolationKind::UndefinedClock => "CLOCK INPUT UNDEFINED",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One hop of a violation's fan-in provenance: a signal in the cone
/// walked back from the failing checker input, with the arrival windows
/// it contributed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceHop {
    /// Full display name of the signal (assertion suffix included).
    pub signal: String,
    /// Distance from the checked input (0 = the checked input itself).
    pub depth: usize,
    /// The primitive driving this signal, or `None` at a source (an
    /// asserted or assumed-stable signal, or a primary input).
    pub via: Option<String>,
    /// Windows within the cycle where the signal may be changing — the
    /// arrival time this hop feeds forward. Empty if quiescent all cycle.
    pub arrival: Vec<Span>,
}

/// The fan-in cone of a failing checker input, breadth-first from the
/// checked signal back through its drivers (§2.9's explanation listings,
/// made structural). Walks stop at asserted signals — their timing is a
/// designer-stated fact, the root cause boundary of §2.5.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// Hops in breadth-first order; the first is the checked input.
    pub hops: Vec<ProvenanceHop>,
    /// `true` if the walk hit its depth or size cap before exhausting
    /// the cone.
    pub truncated: bool,
}

/// One detected timing error, with the context the thesis' reports carry
/// (Fig 3-11): the checker involved, the constraint, the margin by which
/// it was missed, and the value listings of the signals the checker saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What constraint failed.
    pub kind: ViolationKind,
    /// Instance name of the checker/gate/signal reporting the error.
    pub source: String,
    /// The constraint as specified, e.g. `SETUP TIME = 3.5, HOLD = 1.0`.
    pub constraint: String,
    /// How much the constraint was missed by, when meaningful.
    pub missed_by: Option<Time>,
    /// The interval within the cycle in which the failure occurs.
    pub at: Option<Span>,
    /// `NAME: value listing` lines for the signals the check examined.
    pub observed: Vec<String>,
    /// The fan-in cone of the failing input, walked back with the
    /// arrival window contributed at each hop.
    pub provenance: Option<Provenance>,
}

impl Violation {
    /// `true` if this violation's margin is at least `margin`.
    #[must_use]
    pub fn missed_by_at_least(&self, margin: Time) -> bool {
        self.missed_by.is_some_and(|m| m >= margin)
    }

    fn write_json<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.begin_object()?;
        w.field("kind", self.kind.token())?;
        w.field("label", self.kind.label())?;
        w.field("source", &self.source)?;
        w.field("constraint", &self.constraint)?;
        w.field("missed_by_ns", &self.missed_by.map(Time::as_ns))?;
        w.key("at")?;
        match self.at {
            Some(span) => write_span(w, span)?,
            None => w.null()?,
        }
        w.key("observed")?;
        w.begin_array()?;
        for line in &self.observed {
            w.str(line)?;
        }
        w.end_array()?;
        w.key("provenance")?;
        match &self.provenance {
            Some(p) => p.write_json(w)?,
            None => w.null()?,
        }
        w.end_object()
    }

    fn json_value(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str(self.kind.token())),
            ("label".into(), Json::str(self.kind.to_string())),
            ("source".into(), Json::str(&self.source)),
            ("constraint".into(), Json::str(&self.constraint)),
            (
                "missed_by_ns".into(),
                self.missed_by.map_or(Json::Null, |t| Json::from(t.as_ns())),
            ),
            ("at".into(), self.at.map_or(Json::Null, span_json)),
            (
                "observed".into(),
                Json::Arr(self.observed.iter().map(Json::str).collect()),
            ),
            (
                "provenance".into(),
                self.provenance
                    .as_ref()
                    .map_or(Json::Null, Provenance::json_value),
            ),
        ])
    }
}

fn span_json(s: Span) -> Json {
    Json::Obj(vec![
        ("start_ns".into(), Json::from(s.start().as_ns())),
        ("width_ns".into(), Json::from(s.width().as_ns())),
    ])
}

fn write_span<W: fmt::Write>(w: &mut Writer<W>, s: Span) -> fmt::Result {
    w.begin_object()?;
    w.field("start_ns", &s.start().as_ns())?;
    w.field("width_ns", &s.width().as_ns())?;
    w.end_object()
}

impl Provenance {
    fn write_json<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.begin_object()?;
        w.field("truncated", &self.truncated)?;
        w.key("hops")?;
        w.begin_array()?;
        for h in &self.hops {
            w.begin_object()?;
            w.field("signal", &h.signal)?;
            w.field("depth", &h.depth)?;
            w.field("via", &h.via)?;
            w.key("arrival")?;
            w.begin_array()?;
            for &span in &h.arrival {
                write_span(w, span)?;
            }
            w.end_array()?;
            w.end_object()?;
        }
        w.end_array()?;
        w.end_object()
    }

    fn json_value(&self) -> Json {
        Json::Obj(vec![
            ("truncated".into(), Json::from(self.truncated)),
            (
                "hops".into(),
                Json::Arr(
                    self.hops
                        .iter()
                        .map(|h| {
                            Json::Obj(vec![
                                ("signal".into(), Json::str(&h.signal)),
                                ("depth".into(), Json::from(h.depth as u64)),
                                ("via".into(), h.via.as_deref().map_or(Json::Null, Json::str)),
                                (
                                    "arrival".into(),
                                    Json::Arr(h.arrival.iter().map(|s| span_json(*s)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "** {}", self.kind)?;
        if !self.constraint.is_empty() {
            write!(f, ", {}", self.constraint)?;
        }
        if let Some(m) = self.missed_by {
            write!(f, ", VIOLATED BY {m} NSEC")?;
        }
        if let Some(at) = self.at {
            write!(f, " (AT {at})")?;
        }
        writeln!(f, "  [{}]", self.source)?;
        for line in &self.observed {
            writeln!(f, "     {line}")?;
        }
        if let Some(p) = &self.provenance {
            if !p.hops.is_empty() {
                writeln!(f, "     FAN-IN PROVENANCE:")?;
                for hop in &p.hops {
                    let via = hop
                        .via
                        .as_deref()
                        .map_or_else(|| "(source)".to_owned(), |v| format!("<- {v}"));
                    let windows = if hop.arrival.is_empty() {
                        "quiescent".to_owned()
                    } else {
                        let spans: Vec<String> =
                            hop.arrival.iter().map(ToString::to_string).collect();
                        format!("changing {}", spans.join(", "))
                    };
                    writeln!(
                        f,
                        "       {:pad$}{} {via}, {windows}",
                        "",
                        hop.signal,
                        pad = 2 * hop.depth
                    )?;
                }
                if p.truncated {
                    writeln!(f, "       ... (cone truncated)")?;
                }
            }
        }
        Ok(())
    }
}

/// Outcome of verifying one case (§2.7): the violations found plus the
/// execution statistics the thesis reports in Table 3-1.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case label (`"case 1"`, or the assignments for named cases).
    pub name: String,
    /// All violations, in netlist order.
    pub violations: Vec<Violation>,
    /// Events processed for this case: the number of times an output was
    /// given a new value (20 052 for the thesis' full-design run).
    pub events: u64,
    /// Primitive evaluations performed for this case.
    pub evaluations: u64,
    /// Value records (Fig 2-7 run-length nodes) across all signals in
    /// this case's settled state — the per-case slice of the Table 3-3
    /// `SIGNAL VALUES` storage accounting.
    pub value_records: usize,
}

impl CaseResult {
    /// Violations of one kind.
    #[must_use]
    pub fn of_kind(&self, kind: ViolationKind) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.kind == kind).collect()
    }

    /// `true` if no timing errors were found for this case.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Writes the case's JSON object; without `effort` the event and
    /// evaluation counters read zero, as after [`Report::strip_effort`].
    fn write_json<W: fmt::Write>(&self, w: &mut Writer<W>, effort: bool) -> fmt::Result {
        let (events, evaluations) = if effort {
            (self.events, self.evaluations)
        } else {
            (0, 0)
        };
        w.begin_object()?;
        w.field("name", &self.name)?;
        w.field("events", &events)?;
        w.field("evaluations", &evaluations)?;
        w.field("value_records", &self.value_records)?;
        w.key("violations")?;
        w.begin_array()?;
        for v in &self.violations {
            v.write_json(w)?;
        }
        w.end_array()?;
        w.end_object()
    }

    /// The tree [`write_json`](Self::write_json) streams.
    fn json_value(&self, effort: bool) -> Json {
        let (events, evaluations) = if effort {
            (self.events, self.evaluations)
        } else {
            (0, 0)
        };
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("events".into(), Json::from(events)),
            ("evaluations".into(), Json::from(evaluations)),
            (
                "value_records".into(),
                Json::from(self.value_records as u64),
            ),
            (
                "violations".into(),
                Json::Arr(self.violations.iter().map(Violation::json_value).collect()),
            ),
        ])
    }
}

impl fmt::Display for CaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== {}: {} violation(s), {} events, {} evaluations",
            self.name,
            self.violations.len(),
            self.events,
            self.evaluations
        )?;
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

/// One endpoint of a probabilistic timing analysis: arrival and slack
/// as normal distributions plus the probability of missing the
/// deadline. Plain data — the verifier does not compute these (its
/// algebra is worst-case); `scald-tv --prob` fills them from
/// `scald-stats` before rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbEndpoint {
    /// The checked signal.
    pub endpoint: String,
    /// The checker/storage primitive imposing the deadline.
    pub constraint_source: String,
    /// Mean arrival time at the endpoint, ns.
    pub arrival_mean_ns: f64,
    /// Arrival-time standard deviation, ns.
    pub arrival_sigma_ns: f64,
    /// Mean slack (`deadline - arrival`), ns; negative means a probable
    /// violation.
    pub slack_mean_ns: f64,
    /// Slack standard deviation, ns (equal to the arrival sigma).
    pub slack_sigma_ns: f64,
    /// The latest acceptable arrival, ns.
    pub deadline_ns: f64,
    /// The worst-case (min/max algebra) arrival, for comparison with
    /// the distribution view.
    pub worst_case_ns: f64,
    /// Probability the endpoint misses its deadline.
    pub violation_probability: f64,
}

/// The optional probabilistic section of a [`Report`] (schema v2):
/// per-endpoint arrival/slack distributions at a given inter-path
/// correlation. Omitted from the JSON document entirely when absent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbSection {
    /// Inter-path correlation used at reconvergent fan-in (0 =
    /// independent components, 1 = perfectly correlated).
    pub rho: f64,
    /// Per-endpoint results, in netlist order.
    pub endpoints: Vec<ProbEndpoint>,
}

impl ProbSection {
    /// Endpoints whose violation probability exceeds `threshold`.
    #[must_use]
    pub fn risky(&self, threshold: f64) -> Vec<&ProbEndpoint> {
        self.endpoints
            .iter()
            .filter(|e| e.violation_probability > threshold)
            .collect()
    }

    fn write_json<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        w.begin_object()?;
        w.field("rho", &self.rho)?;
        w.key("endpoints")?;
        w.begin_array()?;
        for e in &self.endpoints {
            w.begin_object()?;
            w.field("endpoint", &e.endpoint)?;
            w.field("constraint_source", &e.constraint_source)?;
            w.field("arrival_mean_ns", &e.arrival_mean_ns)?;
            w.field("arrival_sigma_ns", &e.arrival_sigma_ns)?;
            w.field("slack_mean_ns", &e.slack_mean_ns)?;
            w.field("slack_sigma_ns", &e.slack_sigma_ns)?;
            w.field("deadline_ns", &e.deadline_ns)?;
            w.field("worst_case_ns", &e.worst_case_ns)?;
            w.field("violation_probability", &e.violation_probability)?;
            w.end_object()?;
        }
        w.end_array()?;
        w.end_object()
    }

    fn json_value(&self) -> Json {
        Json::Obj(vec![
            ("rho".into(), Json::from(self.rho)),
            (
                "endpoints".into(),
                Json::Arr(
                    self.endpoints
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("endpoint".into(), Json::str(&e.endpoint)),
                                ("constraint_source".into(), Json::str(&e.constraint_source)),
                                ("arrival_mean_ns".into(), Json::from(e.arrival_mean_ns)),
                                ("arrival_sigma_ns".into(), Json::from(e.arrival_sigma_ns)),
                                ("slack_mean_ns".into(), Json::from(e.slack_mean_ns)),
                                ("slack_sigma_ns".into(), Json::from(e.slack_sigma_ns)),
                                ("deadline_ns".into(), Json::from(e.deadline_ns)),
                                ("worst_case_ns".into(), Json::from(e.worst_case_ns)),
                                (
                                    "violation_probability".into(),
                                    Json::from(e.violation_probability),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for ProbEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<40} arrival N({:.3}, {:.3}²) slack N({:.3}, {:.3}²) \
             P(viol) = {:.2e}",
            self.endpoint,
            self.arrival_mean_ns,
            self.arrival_sigma_ns,
            self.slack_mean_ns,
            self.slack_sigma_ns,
            self.violation_probability
        )
    }
}

/// Execution statistics of one verification run — the Table 3-1 numbers
/// plus the run shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Signals in the design.
    pub signals: usize,
    /// Primitives in the design.
    pub prims: usize,
    /// Cases analysed.
    pub cases: usize,
    /// Threads the run verified on: always 1, since a run walks its
    /// cases on the calling thread. Kept because report schema v2
    /// removes no field; [`Report::strip_effort`] writes 0.
    pub jobs: usize,
    /// Cumulative signal-change events (§3.3.2).
    pub events: u64,
    /// Cumulative primitive evaluations.
    pub evaluations: u64,
    /// Wall-clock time of the run, when the caller measured it.
    pub verify_wall: Option<Duration>,
    /// Evaluation-memo-table counters, when caching was enabled.
    pub eval_cache: Option<EvalCacheStats>,
}

/// Everything one verification run produced, in one place: per-case
/// results (violations with provenance), engine statistics, the slack
/// and storage views, the assumed-stable cross-reference, and the
/// settled waveform of every signal.
///
/// This is the API the listings hang off — `scald-tv` renders a
/// `Report` either as the classic text sections or as the versioned
/// JSON document described in the module docs in `report.rs`.
#[derive(Debug, Clone)]
pub struct Report {
    /// Caller-supplied design label (usually the source path).
    pub design: String,
    /// Per-case outcomes, in input-case order.
    pub cases: Vec<CaseResult>,
    /// Run statistics.
    pub engine: EngineStats,
    /// Per-checker timing margins, worst first.
    pub slack: Vec<CheckMargin>,
    /// Table 3-3 storage accounting of the settled state.
    pub storage: StorageReport,
    /// Names of undriven, unasserted signals assumed always stable (§2.5).
    pub assumed_stable: Vec<String>,
    /// Notes about generated signals whose clock assertion pins them.
    pub clock_driver_notes: Vec<String>,
    /// Every signal's settled state in full-name order — the data
    /// behind the Fig 3-10 summary and the timing diagram; read it
    /// through [`waves`](Self::waves).
    pub(crate) summary: SummaryRows,
    /// Clock period, for interpreting wrapping spans.
    pub period: Time,
    /// Distribution-valued arrival/slack results, when the caller ran a
    /// probabilistic analysis (`scald-tv --prob`). `None` — and omitted
    /// from the JSON document — otherwise.
    pub probabilistic: Option<ProbSection>,
}

impl Report {
    /// Total violations across all cases.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.cases.iter().map(|c| c.violations.len()).sum()
    }

    /// `true` if every case is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.cases.iter().all(CaseResult::is_clean)
    }

    /// A copy of the report with all *effort* counters zeroed: engine and
    /// per-case events/evaluations, the thread count, and the wall clock.
    ///
    /// Everything that remains — violations with provenance, slack,
    /// storage, value records, waveforms, cross-references — is a pure
    /// function of the settled fixed point, so two runs that reach the
    /// same fixed point by different routes (a cold run vs. a
    /// warm-started `scald-incr` re-verification, a case in a sweep vs.
    /// the same case run alone) produce byte-identical stripped reports. Used by
    /// the `--baseline` diff and the incremental-vs-cold property tests.
    #[must_use]
    pub fn strip_effort(&self) -> Report {
        let mut r = self.clone();
        r.engine.jobs = 0;
        r.engine.events = 0;
        r.engine.evaluations = 0;
        r.engine.verify_wall = None;
        r.engine.eval_cache = None;
        for case in &mut r.cases {
            case.events = 0;
            case.evaluations = 0;
        }
        r
    }

    /// `(full signal name, settled waveform)` for every signal, sorted
    /// by name — the rows of the Fig 3-10 summary and the timing
    /// diagram. Each waveform has its skew folded in, computed as the
    /// iterator reaches it.
    pub fn waves(&self) -> impl ExactSizeIterator<Item = (&str, Waveform)> + '_ {
        self.summary
            .rows
            .iter()
            .map(|row| (self.summary.name(row), folded(row.state)))
    }

    /// The signal-value summary listing of Fig 3-10.
    #[must_use]
    pub fn summary_text(&self) -> String {
        self.summary.text()
    }

    /// An ASCII timing diagram of all signals, `columns` buckets wide.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero.
    #[must_use]
    pub fn diagram_text(&self, columns: usize) -> String {
        self.summary.diagram(columns)
    }

    /// The §2.5 cross-reference listing of assumed-stable signals.
    #[must_use]
    pub fn xref_text(&self) -> String {
        format_xref(&self.assumed_stable, &self.clock_driver_notes)
    }

    /// The per-checker slack table, worst margins first.
    #[must_use]
    pub fn slack_text(&self) -> String {
        let mut out = format!(
            "{:<40} {:>8} {:>8} {:>8}\n",
            "CHECKER", "SETUP", "HOLD", "PULSE"
        );
        for m in &self.slack {
            let name = self.summary.netlist.prim(m.checker).name();
            let _ = write!(out, "{name:<40}");
            for slack in [m.setup_slack, m.hold_slack, m.pulse_slack] {
                out.push(' ');
                let start = out.len();
                match slack {
                    Some(t) => {
                        let _ = write!(out, "{t}");
                    }
                    None => out.push('-'),
                }
                // `Time` ignores width flags: right-align the cell by
                // hand, as `{:>8}` aligned the cell's formatted copy.
                let width = out[start..].chars().count();
                out.insert_str(start, &"        "[..8usize.saturating_sub(width)]);
            }
            out.push('\n');
        }
        out
    }

    /// The Table 3-3 storage breakdown.
    #[must_use]
    pub fn storage_text(&self) -> String {
        format!("{}\n", self.storage)
    }

    /// The probabilistic timing listing, one endpoint per line, when the
    /// section is present.
    #[must_use]
    pub fn probabilistic_text(&self) -> Option<String> {
        let prob = self.probabilistic.as_ref()?;
        let mut out = format!(
            "probabilistic timing at rho = {} ({} endpoint(s)):\n",
            prob.rho,
            prob.endpoints.len()
        );
        for e in &prob.endpoints {
            let _ = writeln!(out, "{e}");
        }
        Some(out)
    }

    /// The full JSON document, written straight to text by the returned
    /// view; `scald-tv` appends its extra top-level sections through
    /// [`ReportJson::write_with`].
    #[must_use]
    pub fn json_value(&self) -> ReportJson<'_> {
        ReportJson {
            report: self,
            effort: true,
        }
    }

    /// The document of the [effort-stripped](Self::strip_effort) report:
    /// byte-identical to `strip_effort().json_value()`, but written
    /// straight from this report without copying it first.
    #[must_use]
    pub fn stripped_json_value(&self) -> ReportJson<'_> {
        ReportJson {
            report: self,
            effort: false,
        }
    }

    /// The engine statistics the document writes: without `effort`,
    /// every field that [`strip_effort`](Self::strip_effort) resets is
    /// at its reset value.
    fn engine_stats(&self, effort: bool) -> EngineStats {
        if effort {
            self.engine
        } else {
            EngineStats {
                jobs: 0,
                events: 0,
                evaluations: 0,
                verify_wall: None,
                eval_cache: None,
                ..self.engine
            }
        }
    }

    /// Streams the document into `w`, then lets `extra` append members
    /// before the closing brace. Without `effort`, every field that
    /// [`strip_effort`](Self::strip_effort) resets is written at its
    /// reset value.
    fn write_document<W: fmt::Write>(
        &self,
        w: &mut Writer<W>,
        effort: bool,
        extra: impl FnOnce(&mut Writer<W>) -> fmt::Result,
    ) -> fmt::Result {
        let stats = self.engine_stats(effort);
        w.begin_object()?;
        w.field("schema", REPORT_SCHEMA)?;
        w.field("version", &REPORT_VERSION)?;
        w.field("design", &self.design)?;
        w.field("clean", &self.is_clean())?;
        w.field("total_violations", &self.total_violations())?;
        w.key("engine")?;
        w.begin_object()?;
        w.field("signals", &stats.signals)?;
        w.field("prims", &stats.prims)?;
        w.field("cases", &stats.cases)?;
        w.field("jobs", &stats.jobs)?;
        w.field("case_strategy", "auto")?;
        w.field("events", &stats.events)?;
        w.field("evaluations", &stats.evaluations)?;
        w.field(
            "wall_ns",
            &stats
                .verify_wall
                .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        )?;
        w.field("cache_hits", &stats.eval_cache.map(|c| c.hits))?;
        w.field("cache_misses", &stats.eval_cache.map(|c| c.misses))?;
        w.field("cache_entries", &stats.eval_cache.map(|c| c.entries))?;
        w.field("period_ns", &self.period.as_ns())?;
        w.end_object()?;
        w.key("cases")?;
        w.begin_array()?;
        for case in &self.cases {
            case.write_json(w, effort)?;
        }
        w.end_array()?;
        let netlist = &self.summary.netlist;
        w.key("slack")?;
        w.begin_array()?;
        for m in &self.slack {
            let checker = netlist.prim(m.checker);
            w.begin_object()?;
            w.field("checker", checker.name())?;
            w.field("signal", netlist.signal(checker.input(0).signal()).name())?;
            w.field("setup_slack_ns", &m.setup_slack.map(Time::as_ns))?;
            w.field("hold_slack_ns", &m.hold_slack.map(Time::as_ns))?;
            w.field("pulse_slack_ns", &m.pulse_slack.map(Time::as_ns))?;
            w.end_object()?;
        }
        w.end_array()?;
        w.key("storage")?;
        w.begin_object()?;
        w.key("rows")?;
        w.begin_array()?;
        for (area, bytes, _pct) in self.storage.rows() {
            w.begin_object()?;
            w.field("area", area)?;
            w.field("bytes", &bytes)?;
            w.end_object()?;
        }
        w.end_array()?;
        w.field("total_bytes", &self.storage.total())?;
        w.field(
            "value_records_per_signal",
            &self.storage.value_records_per_signal(),
        )?;
        w.end_object()?;
        w.key("assumed_stable")?;
        w.begin_array()?;
        for name in &self.assumed_stable {
            w.str(name)?;
        }
        w.end_array()?;
        w.key("summary")?;
        self.summary.write_json(w)?;
        // Schema v2: the probabilistic section is omitted (not null) when
        // absent, so v1 consumers see a byte-for-byte v1 document.
        if let Some(prob) = &self.probabilistic {
            w.key("probabilistic")?;
            prob.write_json(w)?;
        }
        extra(w)?;
        w.end_object()
    }

    /// The document as a [`Json`] tree: the builder the streamed
    /// document replaced, kept as its oracle ([`ReportJson::tree`]).
    fn document(&self, effort: bool) -> Json {
        let mut doc;
        let stats = self.engine_stats(effort);
        let engine = Json::Obj(vec![
            ("signals".into(), Json::from(stats.signals as u64)),
            ("prims".into(), Json::from(stats.prims as u64)),
            ("cases".into(), Json::from(stats.cases as u64)),
            ("jobs".into(), Json::from(stats.jobs as u64)),
            // Schema v1 additive extension, kept as a constant (see the
            // module doc).
            ("case_strategy".into(), Json::str("auto")),
            ("events".into(), Json::from(stats.events)),
            ("evaluations".into(), Json::from(stats.evaluations)),
            (
                "wall_ns".into(),
                stats.verify_wall.map_or(Json::Null, |d| {
                    Json::from(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                }),
            ),
            // Schema v1 additive extension: cache counters are null when
            // the evaluation cache is disabled (`--no-eval-cache`).
            (
                "cache_hits".into(),
                stats.eval_cache.map_or(Json::Null, |c| Json::from(c.hits)),
            ),
            (
                "cache_misses".into(),
                stats
                    .eval_cache
                    .map_or(Json::Null, |c| Json::from(c.misses)),
            ),
            (
                "cache_entries".into(),
                stats
                    .eval_cache
                    .map_or(Json::Null, |c| Json::from(c.entries as u64)),
            ),
            ("period_ns".into(), Json::from(self.period.as_ns())),
        ]);
        let slack_ns = |s: Option<Time>| s.map_or(Json::Null, |t| Json::from(t.as_ns()));
        let netlist = &self.summary.netlist;
        let slack = Json::Arr(
            self.slack
                .iter()
                .map(|m| {
                    let checker = netlist.prim(m.checker);
                    Json::Obj(vec![
                        ("checker".into(), Json::str(checker.name())),
                        (
                            "signal".into(),
                            Json::str(netlist.signal(checker.input(0).signal()).name()),
                        ),
                        ("setup_slack_ns".into(), slack_ns(m.setup_slack)),
                        ("hold_slack_ns".into(), slack_ns(m.hold_slack)),
                        ("pulse_slack_ns".into(), slack_ns(m.pulse_slack)),
                    ])
                })
                .collect(),
        );
        let storage = Json::Obj(vec![
            (
                "rows".into(),
                Json::Arr(
                    self.storage
                        .rows()
                        .into_iter()
                        .map(|(area, bytes, _pct)| {
                            Json::Obj(vec![
                                ("area".into(), Json::str(area)),
                                ("bytes".into(), Json::from(bytes as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "total_bytes".into(),
                Json::from(self.storage.total() as u64),
            ),
            (
                "value_records_per_signal".into(),
                Json::from(self.storage.value_records_per_signal()),
            ),
        ]);
        let summary = self.summary.json();
        doc = Json::Obj(vec![
            ("schema".into(), Json::str(REPORT_SCHEMA)),
            ("version".into(), Json::from(REPORT_VERSION)),
            ("design".into(), Json::str(&self.design)),
            ("clean".into(), Json::from(self.is_clean())),
            (
                "total_violations".into(),
                Json::from(self.total_violations() as u64),
            ),
            ("engine".into(), engine),
            (
                "cases".into(),
                Json::Arr(self.cases.iter().map(|c| c.json_value(effort)).collect()),
            ),
            ("slack".into(), slack),
            ("storage".into(), storage),
            (
                "assumed_stable".into(),
                Json::Arr(self.assumed_stable.iter().map(Json::str).collect()),
            ),
            ("summary".into(), summary),
        ]);
        // Schema v2: the probabilistic section is omitted (not null) when
        // absent, so v1 consumers see a byte-for-byte v1 document.
        if let (Json::Obj(fields), Some(prob)) = (&mut doc, &self.probabilistic) {
            fields.push(("probabilistic".into(), prob.json_value()));
        }
        doc
    }

    /// The versioned JSON document, pretty-printed (see the
    /// module docs in `report.rs` for the schema).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json_value().to_string_pretty()
    }
}

/// A report's JSON document (schema in the module docs), borrowed from
/// the report and written straight to text: `Display` is the compact
/// form, [`to_string_pretty`](Self::to_string_pretty) the pretty one, and
/// [`write`](Self::write) streams it into any [`Writer`]. Nothing is
/// built per row: names are read from the netlist and each distinct
/// folded wave of the summary is formatted once.
#[derive(Debug, Clone, Copy)]
pub struct ReportJson<'r> {
    report: &'r Report,
    effort: bool,
}

impl ReportJson<'_> {
    /// Pretty-printed with two-space indentation and a trailing newline,
    /// as [`Json::to_string_pretty`] prints the same document.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut Writer::pretty(&mut out))
            .expect("String write cannot fail");
        out.push('\n');
        out
    }

    /// Writes the document as the writer's next value.
    ///
    /// # Errors
    ///
    /// Whatever the writer's output returns.
    pub fn write<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        self.write_with(w, |_| Ok(()))
    }

    /// Writes the document, letting `extra` append top-level members
    /// (each a key and its value) after the last section — the hook
    /// `scald-tv` writes its `netlist`, `paths` and `expansion` sections
    /// through.
    ///
    /// # Errors
    ///
    /// Whatever the writer's output or `extra` returns.
    pub fn write_with<W: fmt::Write>(
        &self,
        w: &mut Writer<W>,
        extra: impl FnOnce(&mut Writer<W>) -> fmt::Result,
    ) -> fmt::Result {
        self.report.write_document(w, self.effort, extra)
    }

    /// The same document built as a [`Json`] tree, one node per value:
    /// the reference the tests compare the streamed bytes against. No
    /// program path calls it.
    #[must_use]
    pub fn tree(&self) -> Json {
        self.report.document(self.effort)
    }
}

impl fmt::Display for ReportJson<'_> {
    /// The compact (single-line) document.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(&mut Writer::compact(f))
    }
}

/// One signal's row of the summary: its settled state, and where its
/// full name lives.
#[derive(Debug, Clone)]
struct Row {
    sid: SignalId,
    state: StateId,
    /// The byte range of an asserted signal's full name in
    /// [`SummaryRows::names`]; `None` borrows the netlist's base name,
    /// which is then the full name.
    name: Option<(u32, u32)>,
}

/// The settled state as the Fig 3-10 summary reads it: one row per
/// signal, in the order of a stable sort on full names, over the
/// verifier's netlist. A row holds the signal's state id, not a copy of
/// the waveform; a name is borrowed from the netlist unless the signal
/// is asserted, and then its full name is formatted once, into one
/// buffer shared by all rows.
#[derive(Clone)]
pub(crate) struct SummaryRows {
    netlist: Arc<Netlist>,
    rows: Vec<Row>,
    /// The full names of asserted signals, back to back.
    names: String,
}

impl fmt::Debug for SummaryRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SummaryRows")
            .field("rows", &self.rows.len())
            .finish_non_exhaustive()
    }
}

/// The first 16 bytes of `name`, zero-padded, as a big-endian integer:
/// ordering these orders the names, except that equal prefixes need
/// the whole names to decide.
fn name_prefix(name: &str) -> u128 {
    let mut buf = [0u8; 16];
    let n = name.len().min(16);
    buf[..n].copy_from_slice(&name.as_bytes()[..n]);
    u128::from_be_bytes(buf)
}

/// A state's waveform with its skew folded in.
fn folded(state: StateId) -> Waveform {
    let st = state.get();
    st.wave.with_skew_applied(st.skew)
}

impl SummaryRows {
    /// The rows of every signal of `netlist` against `states`.
    pub(crate) fn new<S: StateView + ?Sized>(netlist: Arc<Netlist>, states: &S) -> SummaryRows {
        let mut names = String::new();
        let mut spans: Vec<Option<(u32, u32)>> = vec![None; netlist.signal_count()];
        for (sid, a) in netlist.asserted_signals() {
            let start = names.len() as u32;
            write!(names, "{} {a}", netlist.signal(sid).name()).expect("String write cannot fail");
            spans[sid.index()] = Some((start, names.len() as u32));
        }
        let full_name = |sid: SignalId| match spans[sid.index()] {
            Some((a, b)) => &names[a as usize..b as usize],
            None => netlist.signal(sid).name(),
        };
        // Sort packed keys; the signal id breaks ties, as a stable sort
        // on the names would.
        let mut order: Vec<(u128, SignalId)> = netlist
            .iter_signals()
            .map(|(sid, _)| (name_prefix(full_name(sid)), sid))
            .collect();
        order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| full_name(a.1).cmp(full_name(b.1)))
                .then(a.1.cmp(&b.1))
        });
        let rows = order
            .iter()
            .map(|&(_, sid)| Row {
                sid,
                state: states.state_at(sid.index()),
                name: spans[sid.index()],
            })
            .collect();
        SummaryRows {
            netlist,
            rows,
            names,
        }
    }

    fn name(&self, row: &Row) -> &str {
        match row.name {
            Some((a, b)) => &self.names[a as usize..b as usize],
            None => self.netlist.signal(row.sid).name(),
        }
    }

    /// Applies `render` to each distinct state's folded wave once, and
    /// returns per row the index of its result in the returned list,
    /// which holds the rows' distinct states in id order. The work is
    /// sized by the rows, not by how many states the process has
    /// interned.
    fn per_wave<T>(&self, mut render: impl FnMut(&Waveform) -> T) -> (Vec<u32>, Vec<T>) {
        let mut ids: Vec<StateId> = self.rows.iter().map(|row| row.state).collect();
        ids.sort_unstable();
        ids.dedup();
        let index = self
            .rows
            .iter()
            .map(|row| {
                ids.binary_search(&row.state)
                    .expect("a row's state is listed") as u32
            })
            .collect();
        let out = ids.iter().map(|&id| render(&folded(id))).collect();
        (index, out)
    }

    /// The Fig 3-10 listing. The name column is as wide as the longest
    /// name in bytes, and names are padded by char count (as `{:width$}`
    /// pads).
    pub(crate) fn text(&self) -> String {
        let (index, waves) = self.per_wave(ToString::to_string);
        let width = self
            .rows
            .iter()
            .map(|r| self.name(r).len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (row, &w) in self.rows.iter().zip(&index) {
            let name = self.name(row);
            out.push_str(name);
            let pad = width.saturating_sub(name.chars().count());
            out.extend(std::iter::repeat_n(' ', pad + 2));
            out.push_str(&waves[w as usize]);
            out.push('\n');
        }
        out
    }

    /// Writes the document's `summary` rows.
    fn write_json<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        let (index, waves) = self.per_wave(ToString::to_string);
        w.begin_array()?;
        for (row, &i) in self.rows.iter().zip(&index) {
            w.begin_object()?;
            w.field("signal", self.name(row))?;
            w.field("wave", &waves[i as usize])?;
            w.end_object()?;
        }
        w.end_array()
    }

    /// The tree [`write_json`](Self::write_json) streams.
    fn json(&self) -> Json {
        let (index, waves) = self.per_wave(ToString::to_string);
        Json::Arr(
            self.rows
                .iter()
                .zip(&index)
                .map(|(row, &w)| {
                    Json::Obj(vec![
                        ("signal".into(), Json::str(self.name(row))),
                        ("wave".into(), Json::str(waves[w as usize].as_str())),
                    ])
                })
                .collect(),
        )
    }

    /// The timing diagram, `columns` buckets wide.
    pub(crate) fn diagram(&self, columns: usize) -> String {
        assert!(columns > 0, "diagram needs at least one column");
        let Some(first) = self.rows.first() else {
            return String::new();
        };
        let period = first.state.get().wave.period();
        let (index, glyphs) = self.per_wave(|w| {
            assert!(
                w.period() == period,
                "all diagram waveforms must share one period"
            );
            crate::diagram::glyph_row(w, columns)
        });
        let label_width = self
            .rows
            .iter()
            .map(|r| self.name(r).len())
            .max()
            .unwrap_or(0)
            .max(4);
        let mut out = crate::diagram::header(label_width, period, columns);
        for (row, &g) in self.rows.iter().zip(&index) {
            let _ = writeln!(
                out,
                "{:<label_width$}  {}",
                self.name(row),
                glyphs[g as usize]
            );
        }
        out
    }
}

/// Formats the §2.5 assumed-stable cross-reference listing.
pub(crate) fn format_xref(assumed_stable: &[String], clock_driver_notes: &[String]) -> String {
    let mut out = String::from("SIGNALS ASSUMED ALWAYS STABLE (no assertion, not generated):\n");
    for name in assumed_stable {
        let _ = writeln!(out, "  {name}");
    }
    for note in clock_driver_notes {
        let _ = writeln!(
            out,
            "NOTE: {note} carries a clock assertion and is also generated; \
             the asserted (de-skewed) timing is used."
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_resembles_fig_3_11() {
        let v = Violation {
            kind: ViolationKind::Setup,
            source: "ADR CHK".to_owned(),
            constraint: "SETUP TIME = 3.5, HOLD TIME = 1.0".to_owned(),
            missed_by: Some(Time::from_ns(3.5)),
            at: None,
            observed: vec![
                "CK INPUT  = WE: 0 0.0 R 11.5 1 13.5".to_owned(),
                "DATA INPUT = ADR: S 0.0 C 0.5 S 11.5".to_owned(),
            ],
            provenance: None,
        };
        let text = v.to_string();
        assert!(text.contains("SETUP TIME VIOLATED"));
        assert!(text.contains("VIOLATED BY 3.5 NSEC"));
        assert!(text.contains("DATA INPUT = ADR"));
        assert!(v.missed_by_at_least(Time::from_ns(3.0)));
        assert!(!v.missed_by_at_least(Time::from_ns(4.0)));
    }

    #[test]
    fn violation_display_includes_provenance_chain() {
        let period = Time::from_ns(50.0);
        let v = Violation {
            kind: ViolationKind::Hold,
            source: "CHK".to_owned(),
            constraint: String::new(),
            missed_by: None,
            at: None,
            observed: Vec::new(),
            provenance: Some(Provenance {
                hops: vec![
                    ProvenanceHop {
                        signal: "BUS".to_owned(),
                        depth: 0,
                        via: Some("TOP/RAM#6".to_owned()),
                        arrival: vec![Span::new(Time::from_ns(0.5), Time::from_ns(4.0), period)],
                    },
                    ProvenanceHop {
                        signal: "ADR .S0-2".to_owned(),
                        depth: 1,
                        via: None,
                        arrival: Vec::new(),
                    },
                ],
                truncated: true,
            }),
        };
        let text = v.to_string();
        assert!(text.contains("FAN-IN PROVENANCE"), "{text}");
        assert!(
            text.contains("BUS <- TOP/RAM#6, changing 0.5..4.5"),
            "{text}"
        );
        assert!(text.contains("ADR .S0-2 (source), quiescent"), "{text}");
        assert!(text.contains("cone truncated"), "{text}");
    }

    #[test]
    fn case_result_filters() {
        let mk = |kind| Violation {
            kind,
            source: String::new(),
            constraint: String::new(),
            missed_by: None,
            at: None,
            observed: Vec::new(),
            provenance: None,
        };
        let r = CaseResult {
            name: "case 1".to_owned(),
            violations: vec![mk(ViolationKind::Setup), mk(ViolationKind::Hazard)],
            events: 10,
            evaluations: 12,
            value_records: 0,
        };
        assert!(!r.is_clean());
        assert_eq!(r.of_kind(ViolationKind::Setup).len(), 1);
        assert_eq!(r.of_kind(ViolationKind::Hold).len(), 0);
        assert!(r.to_string().contains("case 1"));
    }

    /// The `--slack` listing as it was formatted: a `format!` per row
    /// and a `String` per slack cell.
    fn oracle_slack_text(report: &Report) -> String {
        let fmt_slack =
            |s: Option<Time>| s.map_or_else(|| "     -".to_owned(), |t| format!("{t:>6}"));
        let mut out = format!(
            "{:<40} {:>8} {:>8} {:>8}\n",
            "CHECKER", "SETUP", "HOLD", "PULSE"
        );
        for m in &report.slack {
            out.push_str(&format!(
                "{:<40} {:>8} {:>8} {:>8}\n",
                report.summary.netlist.prim(m.checker).name(),
                fmt_slack(m.setup_slack),
                fmt_slack(m.hold_slack),
                fmt_slack(m.pulse_slack)
            ));
        }
        out
    }

    /// The cross-reference as it was formatted: a `format!` per line.
    fn oracle_xref(assumed_stable: &[String], clock_driver_notes: &[String]) -> String {
        let mut out =
            String::from("SIGNALS ASSUMED ALWAYS STABLE (no assertion, not generated):\n");
        for name in assumed_stable {
            out.push_str(&format!("  {name}\n"));
        }
        for note in clock_driver_notes {
            out.push_str(&format!(
                "NOTE: {note} carries a clock assertion and is also generated; \
                 the asserted (de-skewed) timing is used.\n"
            ));
        }
        out
    }

    /// The probabilistic listing as it was formatted: a `format!` per
    /// line.
    fn oracle_probabilistic_text(report: &Report) -> Option<String> {
        let prob = report.probabilistic.as_ref()?;
        let mut out = format!(
            "probabilistic timing at rho = {} ({} endpoint(s)):\n",
            prob.rho,
            prob.endpoints.len()
        );
        for e in &prob.endpoints {
            out.push_str(&format!("{e}\n"));
        }
        Some(out)
    }

    #[test]
    fn listings_match_the_format_oracle() {
        let src = include_str!("../../../designs/register_file.scald");
        let design = scald_hdl::parse(src).expect("the register file parses");
        let register_file = scald_hdl::expand(&design)
            .expect("the register file expands")
            .netlist;
        let (scale, _) =
            scald_gen::scale::scale_netlist(&scald_gen::scale::ScaleOptions::prims(3_000));
        // Undriven, unasserted inputs: the cross-reference lists them.
        let mut b = scald_netlist::NetlistBuilder::new(scald_netlist::Config::s1_example());
        for (i, name) in ["DATA IN", "LOAD", "ÉCLAT"].iter().enumerate() {
            let input = b.signal(name).expect("a plain name");
            let output = b.signal(&format!("Q{i}")).expect("a plain name");
            b.buf(
                format!("B{i}"),
                scald_wave::DelayRange::from_ns(1.0, 3.0),
                input,
                output,
            );
        }
        let undriven = b.finish().expect("the netlist builds");
        let (mut slack_rows, mut stable_rows) = (0, 0);
        for (label, netlist) in [
            ("register_file", register_file),
            ("scale 3k", scale),
            ("undriven", undriven),
        ] {
            let mut v = crate::Verifier::new(netlist);
            let outcome = v
                .run(&crate::RunOptions::new())
                .expect("the design settles");
            let mut report = v.report(label, &outcome.cases);
            slack_rows += report.slack.len();
            stable_rows += report.assumed_stable.len();
            assert_eq!(report.slack_text(), oracle_slack_text(&report), "{label}");
            assert_eq!(
                report.probabilistic_text(),
                oracle_probabilistic_text(&report),
                "{label}"
            );
            report
                .clock_driver_notes
                .extend(["CK .P2-3".to_owned(), "ÉCLAT \"B\"".to_owned()]);
            let xref = oracle_xref(&report.assumed_stable, &report.clock_driver_notes);
            assert_eq!(report.xref_text(), xref, "{label}");
            report.probabilistic = Some(ProbSection {
                rho: 0.25,
                endpoints: (0..3)
                    .map(|i| ProbEndpoint {
                        endpoint: format!("DATA BUS {i} .S0-{i}"),
                        constraint_source: format!("TOP/REG CHK#{i}"),
                        arrival_mean_ns: 41.2 + f64::from(i),
                        arrival_sigma_ns: 1.7,
                        slack_mean_ns: 6.3 - 4.0 * f64::from(i),
                        slack_sigma_ns: 1.7,
                        deadline_ns: 47.5,
                        worst_case_ns: 46.1,
                        violation_probability: 1e-4 * f64::from(i),
                    })
                    .collect(),
            });
            assert_eq!(
                report.probabilistic_text(),
                oracle_probabilistic_text(&report),
                "{label} + probabilistic"
            );
        }
        assert!(slack_rows > 500, "{slack_rows} slack rows");
        assert!(stable_rows > 0, "no assumed-stable signal");
    }

    #[test]
    fn kind_tokens_are_lower_snake() {
        for kind in [
            ViolationKind::Setup,
            ViolationKind::Hold,
            ViolationKind::StableWhileTrue,
            ViolationKind::MinPulseHigh,
            ViolationKind::MinPulseLow,
            ViolationKind::Hazard,
            ViolationKind::AssertionViolated,
            ViolationKind::UndefinedClock,
        ] {
            let t = kind.token();
            assert!(t.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{t}");
        }
    }
}
