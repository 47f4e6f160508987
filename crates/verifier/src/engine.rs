//! The event-driven verification engine (§2.9).
//!
//! The engine initializes every signal from its assertion (or to unknown /
//! assumed-stable), then repeatedly re-evaluates primitives whose inputs
//! changed until all signals settle. Each output change is an *event*; the
//! fan-out index supplies the primitives to re-evaluate. After the fixed
//! point, the checker pass examines every constraint. Case analysis (§2.7)
//! re-uses the settled state: switching cases dirties only the overridden
//! signals' cones.
//!
//! Settling is *level-synchronized*: the worklist is drained into a
//! deduplicated wave, every primitive of the wave is evaluated against
//! the frozen pre-wave state, and the results are then committed in
//! primitive-id order. That order fixes the trajectory — events,
//! evaluations and trace streams. A run's cases are walked one after
//! another on the calling thread, as the thesis analyses them (§2.7):
//! the case trie in pre-order, each unit settled on its parent's state
//! (DESIGN.md § "The wave engine" and § "The case tree").

use scald_logic::Value;
use scald_netlist::{Netlist, PrimId, SignalId};
use scald_trace::{TraceEvent, TraceSink};
use scald_wave::{DelayCorner, WaveRef, Waveform};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{EvalCache, Tally};
use crate::caseset::CaseSet;
use crate::checkers::{
    run_all_checks, run_checks_cached, slack_report, CheckCache, CheckMargin, CheckMemo,
};
use crate::eval::{evaluate, EvalOutcome};
use crate::report::{CaseResult, EngineStats, Report, SummaryRows, Violation};
use crate::state::{SignalState, StateId, StateStore};
use crate::storage::StorageReport;
use crate::view::{ConeState, StateView, StateWrite};

/// One case for case analysis (§2.7.1): a set of `signal = 0/1`
/// assignments applied wherever the circuit would set the signal
/// stable, optionally evaluated at a non-default [`DelayCorner`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Case {
    assigns: Vec<(String, bool)>,
    corner: DelayCorner,
}

impl Case {
    /// An empty case (no overrides) — what a plain run uses.
    #[must_use]
    pub fn new() -> Case {
        Case::default()
    }

    /// Adds a `signal = value` assignment, e.g.
    /// `Case::new().assign("CONTROL SIGNAL", true)`.
    #[must_use]
    pub fn assign(mut self, signal: impl Into<String>, value: bool) -> Case {
        self.assigns.push((signal.into(), value));
        self
    }

    /// Sets the delay corner every primitive delay is evaluated at for
    /// this case. The default, [`DelayCorner::Worst`], keeps the full
    /// `[min, max]` ranges (the thesis' value-independent analysis); a
    /// point corner re-settles the whole design at that corner.
    #[must_use]
    pub fn corner(mut self, corner: DelayCorner) -> Case {
        self.corner = corner;
        self
    }

    /// The assignments in this case.
    #[must_use]
    pub fn assignments(&self) -> &[(String, bool)] {
        &self.assigns
    }

    /// The delay corner this case is evaluated at.
    #[must_use]
    pub fn delay_corner(&self) -> DelayCorner {
        self.corner
    }

    /// Case label for reports, e.g. `CONTROL SIGNAL = 1` or
    /// `corner=min; MODE = 0`. A non-default corner always prefixes the
    /// label, so corner cases stay distinguishable everywhere a label
    /// travels (reports, traces, incremental-session design hashes).
    #[must_use]
    pub fn label(&self) -> String {
        let mut out = String::new();
        self.write_label(&mut out);
        out
    }

    /// Appends [`label`](Self::label) to `out`.
    fn write_label(&self, out: &mut String) {
        let mut sep = "";
        if self.corner != DelayCorner::Worst {
            let _ = write!(out, "corner={}", self.corner);
            sep = "; ";
        }
        for (s, v) in &self.assigns {
            let _ = write!(out, "{sep}{s} = {}", u8::from(*v));
            sep = "; ";
        }
        if sep.is_empty() {
            out.push_str("no case overrides");
        }
    }
}

/// A worst-corner case of `(signal, value)` assignments, in order — the
/// form the frontends declare cases in.
impl<S: Into<String>> FromIterator<(S, bool)> for Case {
    fn from_iter<I: IntoIterator<Item = (S, bool)>>(assigns: I) -> Case {
        assigns
            .into_iter()
            .fold(Case::new(), |case, (signal, value)| {
                case.assign(signal, value)
            })
    }
}

/// Errors raised while running the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The circuit failed to settle: a combinational loop (or model bug)
    /// kept generating events past the evaluation budget.
    Oscillation {
        /// How many primitive evaluations were performed before giving up.
        evaluations: u64,
        /// Names of some primitives still active.
        active: Vec<String>,
    },
    /// A case names a signal not present in the design.
    UnknownCaseSignal {
        /// The missing signal name.
        name: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Oscillation {
                evaluations,
                active,
            } => write!(
                f,
                "circuit did not settle after {evaluations} evaluations; \
                 still active: {}",
                active.join(", ")
            ),
            VerifyError::UnknownCaseSignal { name } => {
                write!(f, "case analysis names unknown signal {name:?}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Error of [`RunOutcome::try_sole`]: the run analysed more than one
/// case, so there is no single result to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiCaseError {
    /// How many cases the run analysed.
    pub cases: usize,
}

impl fmt::Display for MultiCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expected a single-case run, but {} cases were analysed",
            self.cases
        )
    }
}

impl std::error::Error for MultiCaseError {}

/// Options for one [`Verifier::run`]: the cases to analyse and whether
/// to checkpoint the settled base. The default (`RunOptions::new()`)
/// verifies the single no-override base case.
///
/// # Examples
///
/// ```
/// use scald_netlist::{Config, NetlistBuilder};
/// use scald_verifier::{CaseSet, CheckpointPolicy, RunOptions, Verifier};
/// use scald_wave::DelayRange;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new(Config::s1_example());
/// let mode0 = b.signal("MODE0")?;
/// let mode1 = b.signal("MODE1")?;
/// let both = b.signal("BOTH")?;
/// b.and2("AND", DelayRange::from_ns(1.0, 2.0), mode0, mode1, both);
///
/// let mut verifier = Verifier::new(b.finish()?);
/// let outcome = verifier.run(
///     &RunOptions::new()
///         .cases(CaseSet::exhaustive(["MODE0", "MODE1"]))
///         .checkpoint(CheckpointPolicy::SettledBase),
/// )?;
/// assert_eq!(outcome.cases.len(), 4);
/// assert!(outcome.checkpoint.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct RunOptions {
    cases: CaseSet,
    checkpoint: CheckpointPolicy,
}

impl RunOptions {
    /// Options for a plain single-case (no-override) run.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Sets the cases to analyse (§2.7), replacing any set before —
    /// usually a [`CaseSet`] built with its sweep constructors. An empty
    /// set means "just the base case": the outcome then holds one
    /// [`CaseResult`] with no overrides.
    pub fn cases(mut self, cases: impl Into<CaseSet>) -> RunOptions {
        self.cases = cases.into();
        self
    }

    /// Adds one case to the analysis.
    pub fn case(mut self, case: Case) -> RunOptions {
        self.cases.push(case);
        self
    }

    /// Sets the checkpoint policy; see [`CheckpointPolicy`].
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> RunOptions {
        self.checkpoint = policy;
        self
    }
}

/// Effort spent settling shared-prefix case-tree nodes in one
/// [`Verifier::run`] (zero when no two cases share a prefix and every
/// case is at the worst-case corner). Node effort is
/// paid once per prefix on behalf of all its leaves, so it is *not*
/// folded into any per-case counters; it does count toward the engine
/// totals and the `RunEnd` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Internal tree nodes settled (shared prefixes + corner roots).
    pub nodes: usize,
    /// Signal-change events across all node settles.
    pub events: u64,
    /// Primitive evaluations across all node settles.
    pub evaluations: u64,
}

/// Checker/storage memoization counters of one [`Verifier::run`] — the
/// per-leaf *fixed* cost the case tree amortizes. Checker units are
/// checker primitives, `&A`/`&H` hazard pairs and signal assertions;
/// storage units are per-signal value-record measurements. A lone leaf
/// (a run of one case at the worst-case corner) computes no node pass
/// and evaluates every unit itself: all evals, zero hits. All fields
/// are deterministic: they depend on the case set and the netlist,
/// never on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Checker/storage passes run at tree nodes (shared prefixes,
    /// corner roots, and the lazily-computed base pass) — paid once per
    /// prefix on behalf of all its leaves.
    pub node_passes: u64,
    /// Checker units evaluated during node passes.
    pub node_check_evals: u64,
    /// Checker units node passes inherited from their parent's pass.
    pub node_check_hits: u64,
    /// Checker units evaluated at leaves (the per-case dirty cone).
    pub leaf_check_evals: u64,
    /// Checker units leaves inherited clean-and-empty from their node.
    pub leaf_check_hits: u64,
    /// Signals measured for storage accounting at leaves.
    pub leaf_storage_evals: u64,
    /// Signals whose storage measurement was inherited from the node.
    pub leaf_storage_hits: u64,
    /// Work units (child nodes and leaves) each settled node handed
    /// its state on to: one per unit whose parent is a tree node.
    pub releases: u64,
}

impl MemoStats {
    /// Fraction of leaf checker units inherited rather than evaluated,
    /// in `0.0..=1.0`; `0.0` when no leaf checks ran at all.
    #[must_use]
    pub fn leaf_hit_rate(&self) -> f64 {
        let total = self.leaf_check_evals + self.leaf_check_hits;
        if total == 0 {
            0.0
        } else {
            // Precision loss needs > 2^52 checker units; counters never
            // get near that.
            #[allow(clippy::cast_precision_loss)]
            {
                self.leaf_check_hits as f64 / total as f64
            }
        }
    }
}

/// Whether [`Verifier::run`] snapshots the verifier at the settled base
/// (the §2.9 fixed point, before any case overlay is installed) into
/// [`RunOutcome::checkpoint`]. The snapshot is the correct `prior` for a
/// later [`Verifier::warm_start`]; `scald-incr` uses it to checkpoint
/// sessions without a separate settle call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// No snapshot (the default); [`RunOutcome::checkpoint`] is `None`.
    #[default]
    None,
    /// Clone the verifier right after the base settle, before the case
    /// fan-out. Costs one deep copy of the design state.
    SettledBase,
}

/// Effort of the base (no-override) settle inside one [`Verifier::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BaseResult {
    /// Signal-change events during the base settle.
    pub events: u64,
    /// Primitive evaluations during the base settle.
    pub evaluations: u64,
    /// `true` for a cold full settle (every primitive enqueued, §2.9)
    /// rather than a return to an already settled base. On a cold run
    /// the base effort is *also* folded into the first case's counters,
    /// preserving the invariant that per-case counters sum to the
    /// engine totals.
    pub full_settle: bool,
}

/// Everything one [`Verifier::run`] produced: the base settle's effort,
/// one [`CaseResult`] per analysed case, and (when requested) a
/// settled-base checkpoint for incremental re-verification.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The base settle's effort, shared by every case.
    pub base: BaseResult,
    /// Per-case results in input order — never empty (a run with no
    /// explicit cases analyses the implicit base case).
    pub cases: Vec<CaseResult>,
    /// Shared-prefix settle effort, when the case tree ran.
    pub prefix: PrefixStats,
    /// Checker/storage memoization counters (see [`MemoStats`]).
    pub memo: MemoStats,
    /// The settled-base snapshot, if
    /// [`CheckpointPolicy::SettledBase`] was requested.
    pub checkpoint: Option<Box<Verifier>>,
}

impl RunOutcome {
    /// The sole case's result, or a [`MultiCaseError`] if the run
    /// analysed more than one case — the accessor library code should
    /// use when it *expects* a single-case run but cannot prove it.
    ///
    /// # Errors
    ///
    /// Returns [`MultiCaseError`] when the run analysed several cases.
    pub fn try_sole(&self) -> Result<&CaseResult, MultiCaseError> {
        match self.cases.as_slice() {
            [one] => Ok(one),
            _ => Err(MultiCaseError {
                cases: self.cases.len(),
            }),
        }
    }

    /// The sole case's result — a CLI/example convenience for runs that
    /// are single-case *by construction*. Library code handling caller
    /// input should prefer [`try_sole`](Self::try_sole).
    ///
    /// # Panics
    ///
    /// Panics if the run analysed more than one case.
    #[must_use]
    pub fn sole(&self) -> &CaseResult {
        assert!(
            self.cases.len() == 1,
            "RunOutcome::sole on a {}-case run",
            self.cases.len()
        );
        &self.cases[0]
    }

    /// Owning [`sole`](Self::sole): consumes the outcome and returns the
    /// single case's result. Like [`sole`](Self::sole), a convenience
    /// for runs single-case by construction; library code should prefer
    /// [`try_sole`](Self::try_sole).
    ///
    /// # Panics
    ///
    /// Panics if the run analysed more than one case.
    #[must_use]
    pub fn into_sole(self) -> CaseResult {
        assert!(
            self.cases.len() == 1,
            "RunOutcome::into_sole on a {}-case run",
            self.cases.len()
        );
        self.cases.into_iter().next().expect("one case")
    }
}

/// Configures and builds a [`Verifier`]: the front door for everything
/// beyond a plain run — oscillation budget, evaluation cache and an
/// observability [`TraceSink`].
///
/// [`Verifier::new`] is a shim over the all-defaults builder, so simple
/// callers never see this type.
///
/// # Examples
///
/// ```
/// use scald_netlist::{Config, NetlistBuilder};
/// use scald_trace::CounterSink;
/// use scald_verifier::{RunOptions, VerifierBuilder};
/// use scald_wave::{DelayRange, Time};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new(Config::s1_example());
/// let clk = b.signal("CLK .P2-3")?;
/// let d = b.signal_vec("IN .S0-6", 32)?;
/// let q = b.signal_vec("OUT", 32)?;
/// b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
/// b.setup_hold("R CHK", Time::from_ns(2.5), Time::from_ns(1.5), d, clk);
///
/// let sink = Arc::new(CounterSink::new());
/// let mut v = VerifierBuilder::new(b.finish()?)
///     .trace(Arc::clone(&sink) as Arc<_>)
///     .build();
/// let outcome = v.run(&RunOptions::new())?;
/// assert!(outcome.sole().is_clean());
/// assert_eq!(sink.snapshot().evaluations, outcome.sole().evaluations);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
#[must_use]
pub struct VerifierBuilder {
    oscillation_budget: Option<u64>,
    trace: Option<Arc<dyn TraceSink>>,
    netlist: Option<Netlist>,
    eval_cache: Option<bool>,
    shared_cache: Option<Arc<EvalCache>>,
}

impl VerifierBuilder {
    /// Starts a builder for verifying `netlist`, with the default
    /// oscillation budget (256 evaluations per primitive, plus slack for
    /// tiny designs), the evaluation cache on and no tracing.
    pub fn new(netlist: Netlist) -> VerifierBuilder {
        VerifierBuilder {
            netlist: Some(netlist),
            ..VerifierBuilder::default()
        }
    }

    /// Has no effect: a run walks its cases on the calling thread. It
    /// stays only until the `e2ebench` benchmark stops passing its
    /// `JOBS` constant here.
    pub fn jobs(self, _jobs: usize) -> VerifierBuilder {
        self
    }

    /// Sets the oscillation budget: the maximum primitive evaluations one
    /// settle pass may perform before the engine reports
    /// [`VerifyError::Oscillation`]. Lower it to fail fast on designs
    /// with suspected combinational loops; raise it for pathological but
    /// convergent circuits.
    pub fn oscillation_budget(mut self, evaluations: u64) -> VerifierBuilder {
        self.oscillation_budget = Some(evaluations.max(1));
        self
    }

    /// Attaches an observability sink. Every settle loop then emits
    /// [`TraceEvent`]s (per-primitive evaluations, per-signal settle
    /// ordinals, queue depths, per-case wall-clock/effort). Without a
    /// sink the engine pays only an `Option` check per evaluation.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> VerifierBuilder {
        self.trace = Some(sink);
        self
    }

    /// Enables or disables the evaluation memo table (on by default).
    /// Disabling it (`--no-eval-cache` on the CLI) re-runs every kernel —
    /// the A/B baseline for benchmarking; results are byte-identical
    /// either way.
    pub fn eval_cache(mut self, enabled: bool) -> VerifierBuilder {
        self.eval_cache = Some(enabled);
        self
    }

    /// Injects an existing [`EvalCache`] instead of creating a private
    /// one, so several verifiers (e.g. a `scald-incr` session's
    /// re-verifications) share one memo table. Ignored if the cache is
    /// explicitly disabled via [`eval_cache(false)`](Self::eval_cache).
    pub fn shared_eval_cache(mut self, cache: Arc<EvalCache>) -> VerifierBuilder {
        self.shared_cache = Some(cache);
        self
    }

    /// Builds the verifier and initializes all signal states per §2.9.
    ///
    /// # Panics
    ///
    /// Panics if the builder was obtained via `Default` instead of
    /// [`VerifierBuilder::new`] (there is no netlist to verify).
    #[must_use]
    pub fn build(self) -> Verifier {
        let netlist = self.netlist.expect("VerifierBuilder::new sets the netlist");
        let budget = self
            .oscillation_budget
            .unwrap_or_else(|| 256 * (netlist.prim_count() as u64 + 64));
        let cache = if self.eval_cache.unwrap_or(true) {
            Some(self.shared_cache.unwrap_or_default())
        } else {
            None
        };
        let mut v = Verifier::init(Arc::new(netlist));
        if let Some(cache) = cache {
            // Intern every primitive's static descriptor once: unchanged
            // prims of a rebuilt (incr-session) netlist land on the same
            // signature, which is what makes warm re-runs hit.
            v.prim_sigs = Arc::new(cache.sigs_for(&v.netlist));
            v.eval_cache = Some(cache);
        }
        v.budget = budget;
        v.trace = self.trace;
        v
    }
}

/// The SCALD Timing Verifier: simulates one clock period of the circuit
/// symbolically and checks every timing constraint (§2.1, §2.9).
///
/// # Examples
///
/// ```
/// use scald_netlist::{Config, NetlistBuilder};
/// use scald_verifier::{RunOptions, Verifier};
/// use scald_wave::{DelayRange, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new(Config::s1_example());
/// let clk = b.signal("CLK .P2-3")?;
/// let d = b.signal_vec("IN .S0-6", 32)?;
/// let q = b.signal_vec("OUT", 32)?;
/// b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
/// b.setup_hold("R CHK", Time::from_ns(2.5), Time::from_ns(1.5), d, clk);
///
/// let mut v = Verifier::new(b.finish()?);
/// let outcome = v.run(&RunOptions::new())?;
/// assert!(outcome.sole().is_clean());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Verifier {
    /// Shared, never mutated: a checkpoint clone (and anything else
    /// that clones the verifier) shares the netlist instead of copying
    /// it.
    netlist: Arc<Netlist>,
    /// Computed (pre-case-mapping) states, one id per signal.
    raw: Vec<StateId>,
    /// Effective states seen by evaluation: raw with case overrides applied.
    eff: Vec<StateId>,
    /// Signals whose state is fixed by an assertion (clocks, asserted or
    /// assumed-stable undriven signals) and never overwritten by a driver.
    pinned: Vec<bool>,
    queue: VecDeque<PrimId>,
    queued: Vec<bool>,
    /// Case overrides in force. `BTreeMap` so any iteration that reaches
    /// a report or trace is in signal order, never `HashMap` order.
    overrides: BTreeMap<SignalId, Value>,
    hazards: BTreeSet<(PrimId, usize)>,
    /// Undriven, unasserted signals assumed always stable (§2.5) — the
    /// special cross-reference listing for the designer.
    assumed_stable: Vec<SignalId>,
    /// Driven signals whose clock assertion pins their value (§2.6 clock
    /// tuning): the driver's computed value is ignored.
    pinned_clock_drivers: Vec<SignalId>,
    /// Per-driver output states for wired-OR signals (§3.1, Fig 3-1's
    /// ECL bus): the signal's effective value is the worst-case OR of all
    /// contributions. `BTreeMap` keeps every walk of it deterministic.
    wired_contributions: BTreeMap<(SignalId, PrimId), StateId>,
    /// The delay corner of the currently installed state — the last
    /// run's final case's corner. Post-run inspection (`check_now`,
    /// `slack_report`) evaluates at this corner, and the next base
    /// settle re-evaluates everything when leaving a point corner.
    corner: DelayCorner,
    total_events: u64,
    total_evaluations: u64,
    /// Set by [`warm_start`](Self::warm_start): suppresses the
    /// enqueue-everything initial pass even when no evaluation has
    /// happened yet (a warm verifier whose dirty cone is empty must not
    /// re-evaluate the whole design).
    warmed: bool,
    /// Evaluation budget per settle pass before declaring oscillation.
    budget: u64,
    /// Observability sink; `None` keeps the hot loops branch-only.
    trace: Option<Arc<dyn TraceSink>>,
    /// Memo table for pure primitive evaluations; shared (`Arc`) so
    /// checkpoint clones and incr-session re-verifications reuse it.
    eval_cache: Option<Arc<EvalCache>>,
    /// Per-primitive descriptor signature in the cache (`None` for
    /// checkers); indexed by `PrimId::index()`. Empty when uncached.
    prim_sigs: Arc<Vec<Option<u32>>>,
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Verifier")
            .field("signals", &self.netlist.signal_count())
            .field("prims", &self.netlist.prim_count())
            .field("budget", &self.budget)
            .field("traced", &self.trace.is_some())
            .field("cached", &self.eval_cache.is_some())
            .field("total_events", &self.total_events)
            .field("total_evaluations", &self.total_evaluations)
            .finish_non_exhaustive()
    }
}

impl Verifier {
    /// Creates a verifier with all defaults — a shim over
    /// [`VerifierBuilder`], which configures the oscillation budget, the
    /// evaluation cache and tracing.
    #[must_use]
    pub fn new(netlist: Netlist) -> Verifier {
        VerifierBuilder::new(netlist).build()
    }

    /// Initializes all signal states per §2.9: asserted signals take
    /// their asserted values, undriven unasserted signals are assumed
    /// stable (and cross-referenced), everything else starts `U`. The
    /// `U` and `S` states are interned once and shared.
    fn init(netlist: Arc<Netlist>) -> Verifier {
        let period = netlist.config().timing.period;
        let timing = netlist.config().timing;
        let n = netlist.signal_count();
        let unknown = StateId::of(&SignalState::new(Waveform::constant(
            period,
            Value::Unknown,
        )));
        let stable = StateId::of(&SignalState::new(Waveform::constant(period, Value::Stable)));
        let asserted = |wave: Waveform, skew| {
            StateId::of(&SignalState {
                wave: wave.into(),
                skew,
                eval: None,
            })
        };
        let mut raw = Vec::with_capacity(n);
        let mut pinned = vec![false; n];
        let mut assumed_stable = Vec::new();
        let mut pinned_clock_drivers = Vec::new();

        // The assertions come sorted by signal, so one pass pairs them up.
        let mut assertions = netlist.asserted_signals().peekable();
        for (sid, _) in netlist.iter_signals() {
            let driven = netlist.driver(sid).is_some();
            let assertion = assertions.next_if(|&(s, _)| s == sid).map(|(_, a)| a);
            let state = match assertion {
                Some(a) if a.kind.is_clock() => {
                    let (wave, skew) = a.to_state(&timing);
                    pinned[sid.index()] = true;
                    if driven {
                        pinned_clock_drivers.push(sid);
                    }
                    asserted(wave, skew)
                }
                Some(a) => {
                    if driven {
                        unknown
                    } else {
                        pinned[sid.index()] = true;
                        let (wave, skew) = a.to_state(&timing);
                        asserted(wave, skew)
                    }
                }
                None => {
                    if driven {
                        unknown
                    } else {
                        pinned[sid.index()] = true;
                        assumed_stable.push(sid);
                        stable
                    }
                }
            };
            raw.push(state);
        }
        drop(assertions);

        let eff = raw.clone();
        let queued = vec![false; netlist.prim_count()];
        Verifier {
            netlist,
            raw,
            eff,
            pinned,
            queue: VecDeque::new(),
            queued,
            overrides: BTreeMap::new(),
            hazards: BTreeSet::new(),
            wired_contributions: BTreeMap::new(),
            corner: DelayCorner::Worst,
            assumed_stable,
            pinned_clock_drivers,
            total_events: 0,
            total_evaluations: 0,
            warmed: false,
            budget: 0,
            trace: None,
            eval_cache: None,
            prim_sigs: Arc::new(Vec::new()),
        }
    }

    /// The netlist being verified.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The settled effective state of a signal (after [`run`](Self::run)).
    /// Owned: the engine keeps one interned state id per signal; the
    /// clone is a reference-count bump on the interned wave handle.
    #[must_use]
    pub fn state(&self, id: SignalId) -> SignalState {
        self.eff[id.index()].get().clone()
    }

    /// The fully resolved (skew-folded) waveform of a signal. The fold is
    /// computed as a plain copy, not interned into the wave store.
    #[must_use]
    pub fn resolved(&self, id: SignalId) -> Waveform {
        let state = self.eff[id.index()].get();
        state.wave.with_skew_applied(state.skew)
    }

    /// Hit/miss/size counters of the evaluation memo table, if caching is
    /// enabled.
    #[must_use]
    pub fn eval_cache_stats(&self) -> Option<crate::EvalCacheStats> {
        self.eval_cache.as_ref().map(|c| c.stats())
    }

    /// Undriven, unasserted signals assumed always stable — the thesis'
    /// special cross-reference listing (§2.5).
    #[must_use]
    pub fn assumed_stable_signals(&self) -> &[SignalId] {
        &self.assumed_stable
    }

    /// Total events processed so far (an event = an output given a new
    /// value, §3.3.2).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Total primitive evaluations performed so far.
    #[must_use]
    pub fn total_evaluations(&self) -> u64 {
        self.total_evaluations
    }

    fn enqueue(&mut self, pid: PrimId) {
        if !self.queued[pid.index()] {
            self.queued[pid.index()] = true;
            self.queue.push_back(pid);
        }
    }

    fn enqueue_fanout(&mut self, sid: SignalId) {
        let fanout: Vec<PrimId> = self.netlist.fanout(sid).to_vec();
        for pid in fanout {
            self.enqueue(pid);
        }
    }

    /// Runs the worklist to a fixed point; returns `(events,
    /// evaluations)`. Effort is folded into the running totals on the
    /// error path too, matching the thesis' effort accounting.
    fn settle(&mut self) -> Result<(u64, u64), VerifyError> {
        let mut events = 0u64;
        let mut evaluations = 0u64;
        let mut scratch = WaveScratch::default();
        let result = settle_waves(
            &WaveParams {
                netlist: &self.netlist,
                pinned: &self.pinned,
                overrides: &self.overrides,
                budget: self.budget,
                corner: self.corner,
                case: None,
                trace: self.trace.as_deref(),
                cache: self
                    .eval_cache
                    .as_deref()
                    .map(|c| (c, self.prim_sigs.as_slice())),
            },
            WaveBooks {
                hazards: &mut self.hazards,
                wired: &mut self.wired_contributions,
                queue: &mut self.queue,
                queued: &mut self.queued,
                events: &mut events,
                evaluations: &mut evaluations,
            },
            &mut scratch,
            self.raw.as_mut_slice(),
            self.eff.as_mut_slice(),
        );
        self.total_events += events;
        self.total_evaluations += evaluations;
        result.map(|()| (events, evaluations))
    }

    /// Applies a case's overrides, dirtying the affected signals' fan-out.
    fn apply_case(&mut self, case: &Case) -> Result<(), VerifyError> {
        let mut new_overrides = BTreeMap::new();
        for (name, v) in case.assignments() {
            let sid = self
                .netlist
                .signal_by_name(name)
                .ok_or_else(|| VerifyError::UnknownCaseSignal { name: name.clone() })?;
            new_overrides.insert(sid, if *v { Value::One } else { Value::Zero });
        }
        let affected: BTreeSet<SignalId> = self
            .overrides
            .keys()
            .chain(new_overrides.keys())
            .copied()
            .collect();
        self.overrides = new_overrides;
        for sid in affected {
            let eff = override_state(self.overrides.get(&sid).copied(), self.raw[sid.index()]);
            if self.eff[sid.index()] != eff {
                self.eff[sid.index()] = eff;
                self.enqueue_fanout(sid);
            }
        }
        Ok(())
    }

    /// Settles the base (no-override) fixed point and returns the
    /// `(events, evaluations)` this settle took. On a fresh verifier this
    /// is the full evaluation of §2.9; on a [warm-started](Self::warm_start)
    /// one only the seeded dirty cone is processed.
    ///
    /// A verifier in this state is the correct `prior` for a later
    /// [`warm_start`](Self::warm_start): its signal states, hazard set and
    /// wired-OR contributions describe the base fixed point, not some
    /// case's overlay (which [`run`](Self::run) installs when it
    /// finishes). [`CheckpointPolicy::SettledBase`] captures the same
    /// state without a separate settle call.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Oscillation`] if the circuit does not
    /// settle.
    pub fn settle_base(&mut self) -> Result<(u64, u64), VerifyError> {
        self.prepare_base()?;
        self.settle()
    }

    /// Returns the verifier to the base configuration (no overrides,
    /// worst-case corner) and enqueues whatever the next settle must
    /// re-evaluate: everything on a cold verifier (§2.9's initial pass)
    /// or when the installed state was settled at a point corner, just
    /// the dirtied override cones otherwise. Returns whether this was
    /// the cold first run.
    fn prepare_base(&mut self) -> Result<bool, VerifyError> {
        let first_run = self.total_evaluations == 0 && !self.warmed;
        let corner_reset = self.corner != DelayCorner::Worst;
        self.apply_case(&Case::new())?;
        self.corner = DelayCorner::Worst;
        if first_run || corner_reset {
            let all: Vec<PrimId> = self.netlist.iter_prims().map(|(p, _)| p).collect();
            for pid in all {
                self.enqueue(pid);
            }
        }
        Ok(first_run)
    }

    /// Seeds this (freshly built, not yet run) verifier from `prior`'s
    /// settled base fixed point, so the next settle only re-evaluates the
    /// structurally dirty cone. The caller asserts, via the maps, which
    /// parts of the design survived the edit:
    ///
    /// * `signal_map` — `(self, prior)` id pairs of signals whose
    ///   definition (width, assertion, wire delay, wired-OR flag, driver
    ///   set) is unchanged. Their settled states are copied over; every
    ///   other signal keeps its §2.9 init value until re-derived.
    /// * `prim_map` — `(self, prior)` id pairs of unchanged primitives.
    ///   Their recorded hazards and wired-OR contributions carry over.
    /// * `seeds` — the dirty frontier to enqueue: edited primitives, the
    ///   fan-out of dirtied signals, *and the drivers of dirtied signals*
    ///   (a dirtied signal's value must be recomputed even when its
    ///   driver itself is clean). Propagation handles everything
    ///   transitively downstream.
    ///
    /// `prior` must be at its settled base — i.e. right after
    /// [`settle_base`](Self::settle_base), before any case overlay was
    /// installed. With correct maps the subsequent
    /// [`settle_base`](Self::settle_base)/[`run`](Self::run)
    /// reach a state identical to a cold run of the edited design
    /// (`scald-incr` property-tests this; see `Report::strip_effort` for
    /// the one caveat, effort counters). Exactness relies on hazard sets
    /// being trajectory-independent, which holds for connection-attribute
    /// directives (`&H` on a pin); designs relying on *propagated*
    /// evaluation directives through edited regions should re-verify
    /// cold.
    pub fn warm_start(
        &mut self,
        prior: &Verifier,
        signal_map: &[(SignalId, SignalId)],
        prim_map: &[(PrimId, PrimId)],
        seeds: &[PrimId],
    ) {
        let mut copied = 0usize;
        for &(new, old) in signal_map {
            if self.pinned[new.index()] {
                continue; // init already pinned it to its asserted value
            }
            let st = prior.raw[old.index()];
            self.eff[new.index()] = st;
            self.raw[new.index()] = st;
            copied += 1;
        }
        let prim_back: HashMap<PrimId, PrimId> =
            prim_map.iter().map(|&(new, old)| (old, new)).collect();
        let sig_back: HashMap<SignalId, SignalId> =
            signal_map.iter().map(|&(new, old)| (old, new)).collect();
        for &(pid, idx) in &prior.hazards {
            if let Some(&np) = prim_back.get(&pid) {
                self.hazards.insert((np, idx));
            }
        }
        for (&(sid, pid), &st) in &prior.wired_contributions {
            if let (Some(&ns), Some(&np)) = (sig_back.get(&sid), prim_back.get(&pid)) {
                if self.netlist.drivers(ns).contains(&np) {
                    self.wired_contributions.insert((ns, np), st);
                }
            }
        }
        for &pid in seeds {
            self.enqueue(pid);
        }
        self.warmed = true;
        if let Some(trace) = &self.trace {
            trace.record(&TraceEvent::WarmStart {
                copied_signals: copied,
                seeded_prims: self.queue.len(),
                prims: self.netlist.prim_count(),
            });
        }
    }

    /// Verifies the circuit per `options` — the single entry point for
    /// plain runs, case analysis (§2.7) and incremental sessions. The
    /// base (no-override) fixed point is settled once — the full
    /// evaluation of §2.9 on a cold verifier, only the dirty cone after
    /// a [`warm_start`](Self::warm_start) — then every case re-evaluates
    /// the cone its overrides dirty on its own copy-on-write overlay.
    /// The cases run as a trie on their shared assignment prefixes (each
    /// prefix settled once), walked in pre-order on the calling thread;
    /// each case's result equals that case run alone.
    ///
    /// Results are deterministic: waveforms, violation lists, report
    /// JSON and per-case trace streams depend only on the netlist and
    /// the cases.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::UnknownCaseSignal`] if a case names an
    /// unknown signal (checked up front, before any evaluation) and
    /// [`VerifyError::Oscillation`] if a settle exceeds the evaluation
    /// budget. On a case error the first failing case (by input order)
    /// is reported; completed cases' effort still counts in the totals.
    pub fn run(&mut self, options: &RunOptions) -> Result<RunOutcome, VerifyError> {
        let base_case;
        let cases: &[Case] = if options.cases.is_empty() {
            base_case = [Case::new()];
            &base_case
        } else {
            options.cases.cases()
        };
        self.run_impl(cases, options.checkpoint == CheckpointPolicy::SettledBase)
    }

    /// The engine behind [`run`](Self::run): resolves case names, settles
    /// the base, optionally checkpoints, walks the case tree, then
    /// installs the last case's state.
    fn run_impl(&mut self, cases: &[Case], checkpoint: bool) -> Result<RunOutcome, VerifyError> {
        let run_started = Instant::now();
        let effort_before = (self.total_events, self.total_evaluations);
        if let Some(trace) = &self.trace {
            trace.record(&TraceEvent::RunStart {
                signals: self.netlist.signal_count(),
                prims: self.netlist.prim_count(),
                cases: cases.len(),
            });
        }
        // Resolve every case's signal names up front, so an unknown name
        // errors deterministically before any evaluation runs.
        let mut resolved: Vec<Vec<(SignalId, Value)>> = Vec::with_capacity(cases.len());
        for case in cases {
            let mut assigns = Vec::with_capacity(case.assignments().len());
            for (name, v) in case.assignments() {
                let sid = self
                    .netlist
                    .signal_by_name(name)
                    .ok_or_else(|| VerifyError::UnknownCaseSignal { name: name.clone() })?;
                assigns.push((sid, if *v { Value::One } else { Value::Zero }));
            }
            // Deterministic seeding order for the unit's worklist.
            assigns.sort_by_key(|(sid, _)| sid.index());
            resolved.push(assigns);
        }
        let corners: Vec<DelayCorner> = cases.iter().map(Case::delay_corner).collect();
        let tree = CaseTree::build(&resolved, &corners);

        // Establish (or return to) the settled base: no overrides, at
        // the worst-case corner.
        let first_run = self.prepare_base()?;
        let (base_events, base_evaluations) = self.settle()?;
        let checkpoint = checkpoint.then(|| Box::new(self.clone()));

        // Walk the trie in pre-order. The stack holds the settled states
        // of the current unit's ancestors, so a node's state lives only
        // while its subtree runs. Each unit is a pure function of its
        // parent's settled state (DESIGN.md § "The case tree").
        let mut walk = CaseWalk {
            netlist: &self.netlist,
            pinned: &self.pinned,
            base_raw: &self.raw,
            base_eff: &self.eff,
            base_raw_view: ConeState::new(&self.raw),
            base_eff_view: ConeState::new(&self.eff),
            base_hazards: &self.hazards,
            base_wired: &self.wired_contributions,
            budget: self.budget,
            cache: self
                .eval_cache
                .as_deref()
                .map(|c| (c, self.prim_sigs.as_slice())),
            trace: self.trace.as_deref(),
            lone_leaf: tree.nodes.is_empty() && tree.leaves.len() == 1,
            scratch: CaseScratch::default(),
            base_check: None,
            base_records: None,
            prefix: PrefixStats::default(),
            memo: MemoStats::default(),
        };
        let last_case = cases.len() - 1;
        let mut outcomes: Vec<Option<Result<CaseOutcome, VerifyError>>> =
            (0..cases.len()).map(|_| None).collect();
        let mut stack: Vec<(usize, NodeState<'_>)> = Vec::new();
        for &unit in &tree.order {
            let parent = match unit {
                Unit::Node(ni) => tree.nodes[ni].parent,
                Unit::Leaf(li) => tree.leaves[li].node,
            };
            while stack.last().is_some_and(|&(top, _)| Some(top) != parent) {
                stack.pop();
            }
            let parent_state = stack.last().map(|(_, st)| st);
            match unit {
                Unit::Node(ni) => {
                    let st = walk.node(ni, &tree.nodes[ni], parent_state);
                    stack.push((ni, st));
                }
                Unit::Leaf(li) => {
                    let leaf = &tree.leaves[li];
                    let i = leaf.case;
                    let outcome = walk.leaf(
                        leaf,
                        &resolved[i],
                        corners[i],
                        &cases[i],
                        parent_state,
                        i == last_case,
                    );
                    outcomes[i] = Some(outcome);
                }
            }
        }
        drop(stack);
        let (prefix, mut memo) = (walk.prefix, walk.memo);
        // Every leaf that settled counts, including those after the
        // first failing case.
        self.total_events += prefix.events;
        self.total_evaluations += prefix.evaluations;
        for settled in outcomes.iter().flatten().flatten() {
            self.total_events += settled.events;
            self.total_evaluations += settled.evaluations;
        }

        // Merge in input-case order; the first error (by case index) wins.
        let mut results = Vec::with_capacity(cases.len());
        let mut installed: Option<InstalledCase> = None;
        // Each name is written into one scratch buffer, then copied out
        // at its exact length.
        let mut name = String::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let outcome = outcome.expect("the walk visits every leaf")?;
            name.clear();
            let _ = write!(name, "case {}: ", i + 1);
            cases[i].write_label(&mut name);
            let base_share = |effort| if i == 0 && first_run { effort } else { 0 };
            results.push(CaseResult {
                name: name.clone(),
                violations: outcome.violations,
                events: outcome.events + base_share(base_events),
                evaluations: outcome.evaluations + base_share(base_evaluations),
                value_records: outcome.value_records,
            });
            memo.leaf_check_evals += outcome.check_evals;
            memo.leaf_check_hits += outcome.check_hits;
            memo.leaf_storage_evals += outcome.storage_evals;
            memo.leaf_storage_hits += outcome.storage_hits;
            installed = outcome.installed;
        }

        // Install the last case's state so `state`/`resolved`/listings
        // reflect it.
        let last = installed.expect("the last case keeps its state");
        for (idx, st) in last.raw_overlay {
            self.raw[idx] = st;
        }
        for (idx, st) in last.eff_overlay {
            self.eff[idx] = st;
        }
        self.overrides = last.overrides;
        self.hazards = last.hazards;
        self.wired_contributions = last.wired;
        self.corner = corners[last_case];
        if let Some(trace) = &self.trace {
            // Effort-class observability: cache counters vary with cache
            // configuration and sharing, so (like RunEnd's wall-clock)
            // they are excluded from determinism comparisons.
            if let Some(cache) = &self.eval_cache {
                let stats = cache.stats();
                trace.record(&TraceEvent::CacheStats {
                    hits: stats.hits,
                    misses: stats.misses,
                    entries: stats.entries,
                });
            }
            trace.record(&TraceEvent::RunEnd {
                wall_nanos: u64::try_from(run_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                events: self.total_events - effort_before.0,
                evaluations: self.total_evaluations - effort_before.1,
            });
        }
        Ok(RunOutcome {
            base: BaseResult {
                events: base_events,
                evaluations: base_evaluations,
                full_settle: first_run,
            },
            cases: results,
            prefix,
            memo,
            checkpoint,
        })
    }

    /// Runs all checks against the current settled state without further
    /// evaluation. Useful for inspecting intermediate cases.
    #[must_use]
    pub fn check_now(&self) -> Vec<Violation> {
        let hazards: Vec<(PrimId, usize)> = self.hazards.iter().copied().collect();
        run_all_checks(&self.netlist, &self.eff[..], &hazards, self.corner)
    }

    /// The signal-value summary listing of Fig 3-10: one line per signal
    /// with its value over the cycle.
    #[must_use]
    pub fn summary_listing(&self) -> String {
        self.summary_rows().text()
    }

    /// The cross-reference listing of undriven, unasserted signals the
    /// verifier assumed stable (§2.5).
    #[must_use]
    pub fn xref_listing(&self) -> String {
        crate::report::format_xref(&self.assumed_stable_names(), &self.clock_driver_notes())
    }

    /// Storage accounting in the categories of Table 3-3.
    #[must_use]
    pub fn storage_report(&self) -> StorageReport {
        StorageReport::measure(&self.netlist, &self.raw[..])
    }

    /// Timing margins of every checker against the current settled state:
    /// the slack view (worst margins first). Negative slack corresponds to
    /// a reported violation.
    #[must_use]
    pub fn slack_report(&self) -> Vec<CheckMargin> {
        slack_report(&self.netlist, &self.eff[..], self.corner)
    }

    /// An ASCII timing diagram of all signals (sorted by name), `columns`
    /// buckets wide — the visual companion to
    /// [`summary_listing`](Self::summary_listing).
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero.
    #[must_use]
    pub fn timing_diagram(&self, columns: usize) -> String {
        self.summary_rows().diagram(columns)
    }

    /// Every signal's settled state in full-name order — the rows behind
    /// the summary listing, the timing diagram and a report's summary.
    fn summary_rows(&self) -> SummaryRows {
        SummaryRows::new(Arc::clone(&self.netlist), &self.eff[..])
    }

    fn assumed_stable_names(&self) -> Vec<String> {
        self.assumed_stable
            .iter()
            .map(|sid| self.netlist.signal(*sid).name().to_owned())
            .collect()
    }

    fn clock_driver_notes(&self) -> Vec<String> {
        self.pinned_clock_drivers
            .iter()
            .map(|sid| self.netlist.signal(*sid).full_name())
            .collect()
    }

    /// Bundles everything this verifier knows about its last run into one
    /// [`Report`]: the per-case results, engine statistics, the slack and
    /// storage views, the assumed-stable cross-reference and every settled
    /// waveform. `design` labels the report (usually the source path);
    /// `results` are the [`RunOutcome::cases`] of [`run`](Self::run).
    ///
    /// The caller may fill in [`EngineStats::verify_wall`] afterwards if
    /// it measured the run.
    #[must_use]
    pub fn report(&self, design: impl Into<String>, results: &[CaseResult]) -> Report {
        Report {
            design: design.into(),
            cases: results.to_vec(),
            engine: EngineStats {
                signals: self.netlist.signal_count(),
                prims: self.netlist.prim_count(),
                cases: results.len(),
                jobs: 1,
                events: self.total_events,
                evaluations: self.total_evaluations,
                verify_wall: None,
                eval_cache: self.eval_cache.as_ref().map(|c| c.stats()),
            },
            slack: self.slack_report(),
            storage: self.storage_report(),
            assumed_stable: self.assumed_stable_names(),
            clock_driver_notes: self.clock_driver_notes(),
            summary: self.summary_rows(),
            period: self.netlist.config().timing.period,
            probabilistic: None,
        }
    }
}

/// Applies a case override to a computed state: the override replaces the
/// signal's value wherever the circuit would leave it merely *stable*
/// (§2.7.1) — asserted changing windows and computed constants win.
fn override_state(over: Option<Value>, state: StateId) -> StateId {
    match over {
        None => state,
        Some(v) => StateStore::global().overridden(state, v),
    }
}

/// Immutable inputs of one settle loop, shared by the base settle (the
/// engine's state columns) and the per-case settle (cone overlays).
struct WaveParams<'a> {
    netlist: &'a Netlist,
    pinned: &'a [bool],
    overrides: &'a BTreeMap<SignalId, Value>,
    budget: u64,
    /// Delay corner every evaluation collapses its delay ranges at.
    corner: DelayCorner,
    /// Case index for trace events; `None` for the base settle.
    case: Option<u32>,
    trace: Option<&'a dyn TraceSink>,
    /// Evaluation memo table plus per-primitive descriptor signatures;
    /// `None` when caching is disabled.
    cache: Option<(&'a EvalCache, &'a [Option<u32>])>,
}

/// Mutable bookkeeping of one settle loop, borrowed from whoever owns
/// it (the [`Verifier`] for the base settle, the walk's scratch
/// for a case settle). `events`/`evaluations` accumulate even when the
/// loop errors out, so callers can fold partial effort into totals.
struct WaveBooks<'a> {
    hazards: &'a mut BTreeSet<(PrimId, usize)>,
    wired: &'a mut BTreeMap<(SignalId, PrimId), StateId>,
    queue: &'a mut VecDeque<PrimId>,
    queued: &'a mut [bool],
    events: &'a mut u64,
    evaluations: &'a mut u64,
}

/// Buffers a settle loop reuses from wave to wave (and a run
/// from unit to unit): the drained wave and, for each of its
/// primitives, the driven signal (`None` for a checker) and the
/// evaluation outcome. After the first few waves a settle allocates
/// nothing proportional to a wave's width.
#[derive(Default)]
struct WaveScratch {
    wave: Vec<PrimId>,
    outcomes: Vec<(Option<SignalId>, EvalOutcome)>,
}

/// One level-synchronized settle loop — the wave engine. Each iteration
/// drains the worklist into a deduplicated wave, evaluates every
/// primitive of the wave against the frozen pre-wave state, then commits
/// the results in primitive-id order.
///
/// The commit decides each output against the live state: unchanged,
/// raw only (the override mapping hides the change), or raw and
/// effective (an event). A single-driver output's live state is its
/// pre-wave state, since a deduplicated wave writes it at most once;
/// a wired-OR bus recombines its drivers' terms against the live
/// contribution map, where another driver may have committed this wave.
///
/// The oscillation budget is charged per committed evaluation, and a
/// budget overrun aborts *before* the offending primitive's effects are
/// applied — exactly the single-worklist engine's semantics. A commit
/// that changes a signal read by a later member of the same wave simply
/// re-enqueues that member: its stale result is committed now and
/// corrected next wave, which cannot change the fixed point because
/// evaluation is a pure function of the inputs.
fn settle_waves<R, E>(
    p: &WaveParams<'_>,
    books: WaveBooks<'_>,
    scratch: &mut WaveScratch,
    raw: &mut R,
    eff: &mut E,
) -> Result<(), VerifyError>
where
    R: StateWrite + ?Sized,
    E: StateWrite + ?Sized,
{
    let WaveBooks {
        hazards,
        wired,
        queue,
        queued,
        events,
        evaluations,
    } = books;
    let period = p.netlist.config().timing.period;
    let mut wave_ordinal = 0u64;
    while !queue.is_empty() {
        let wave = &mut scratch.wave;
        wave.clear();
        wave.extend(queue.drain(..));
        for pid in wave.iter() {
            queued[pid.index()] = false;
        }
        // Commit in primitive-id order: canonical, and independent of
        // how last wave's commits happened to interleave enqueues.
        wave.sort_unstable();
        evaluate_wave(p, &*eff, scratch);
        let wave = &scratch.wave;
        for (i, (&pid, &(out, outcome))) in wave.iter().zip(&scratch.outcomes).enumerate() {
            *evaluations += 1;
            if let Some(t) = p.trace {
                t.record(&TraceEvent::Evaluation {
                    case: p.case,
                    prim: pid.index() as u32,
                    name: p.netlist.prim(pid).name(),
                    ordinal: *evaluations,
                    queue_depth: wave.len() - i - 1 + queue.len(),
                });
            }
            if *evaluations > p.budget {
                // Everything not yet committed is still active: the rest
                // of this wave (the offender included) plus the queue.
                let active: Vec<String> = wave[i..]
                    .iter()
                    .chain(queue.iter())
                    .take(8)
                    .map(|&prim| p.netlist.prim(prim).name().to_owned())
                    .collect();
                return Err(VerifyError::Oscillation {
                    evaluations: *evaluations,
                    active,
                });
            }
            for &idx in outcome.hazard_inputs.unwrap_or_default() {
                hazards.insert((pid, idx as usize));
            }
            // Checkers drive nothing; asserted clocks keep their asserted
            // value.
            let (Some(term), Some(out)) = (outcome.output, out) else {
                continue;
            };
            if p.pinned[out.index()] {
                continue;
            }
            let new_raw = if p.netlist.drivers(out).len() > 1 {
                // Wired-OR buses: this driver contributes one term; the
                // signal's state is the worst-case OR of all drivers.
                wired.insert((out, pid), term);
                let resolved: Vec<WaveRef> = p
                    .netlist
                    .drivers(out)
                    .iter()
                    .map(|d| {
                        wired.get(&(out, *d)).map_or_else(
                            || Waveform::constant(period, Value::Unknown).into(),
                            |term| term.get().resolved(),
                        )
                    })
                    .collect();
                let refs: Vec<&Waveform> = resolved.iter().map(WaveRef::as_wave).collect();
                StateId::of(&SignalState::new(Waveform::combine_many(&refs, |vals| {
                    scald_logic::or_all(vals.iter().copied())
                })))
            } else {
                term
            };
            if raw.state_at(out.index()) == new_raw {
                continue;
            }
            raw.set_state(out.index(), new_raw);
            let new_eff = override_state(p.overrides.get(&out).copied(), new_raw);
            if eff.state_at(out.index()) == new_eff {
                continue;
            }
            eff.set_state(out.index(), new_eff);
            *events += 1;
            if let Some(t) = p.trace {
                t.record(&TraceEvent::SignalSettled {
                    case: p.case,
                    signal: out.index() as u32,
                    name: p.netlist.signal(out).name(),
                    ordinal: *evaluations,
                });
            }
            for &fan in p.netlist.fanout(out) {
                if !queued[fan.index()] {
                    queued[fan.index()] = true;
                    queue.push_back(fan);
                }
            }
        }
        wave_ordinal += 1;
        if let Some(t) = p.trace {
            t.record(&TraceEvent::Wave {
                case: p.case,
                ordinal: wave_ordinal,
                size: wave.len(),
                queue_depth: queue.len(),
            });
        }
    }
    Ok(())
}

/// Evaluates every primitive of `scratch.wave` against the frozen
/// pre-wave state, refilling `scratch.outcomes` indexed like the wave.
/// Each outcome carries its primitive's driven signal, read here while
/// the primitive is in cache: on a wide wave the commit would otherwise
/// reload every primitive from memory.
///
/// With a `cache`, each evaluation first checks the memo table: because
/// `evaluate` is a pure function of the primitive descriptor (interned
/// as the signature) and the input states (interned as state ids), a hit
/// returns the identical outcome the kernel would recompute — serving
/// from cache is unobservable in every result. The wave's hits and
/// misses are counted in one [`Tally`], added to the table's counters
/// once the wave is done.
fn evaluate_wave<E>(p: &WaveParams<'_>, eff: &E, scratch: &mut WaveScratch)
where
    E: StateView + ?Sized,
{
    let netlist = p.netlist;
    let mut tally = Tally::default();
    let WaveScratch { wave, outcomes } = scratch;
    outcomes.clear();
    outcomes.extend(wave.iter().map(|&pid| {
        let prim = netlist.prim(pid);
        let memo = p
            .cache
            .and_then(|(cache, sigs)| Some((cache, sigs[pid.index()]?)));
        let outcome = match memo {
            Some((cache, sig)) => {
                let key = cache.key_for(sig, prim, eff, p.corner);
                cache.lookup(&key, &mut tally).unwrap_or_else(|| {
                    let out = evaluate(netlist, prim, eff, p.corner);
                    cache.insert(key, out, &mut tally);
                    out
                })
            }
            None => evaluate(netlist, prim, eff, p.corner),
        };
        (prim.output(), outcome)
    }));
    if let Some((cache, _)) = p.cache {
        cache.add(tally);
    }
}

/// Everything one leaf produced: the check results and its effort
/// counters, plus — for the last input case only — the state the run
/// installs back into the [`Verifier`].
struct CaseOutcome {
    violations: Vec<Violation>,
    events: u64,
    evaluations: u64,
    value_records: usize,
    /// Checker units evaluated / inherited for this case's check pass.
    check_evals: u64,
    check_hits: u64,
    /// Signals measured / inherited for this case's storage accounting.
    storage_evals: u64,
    storage_hits: u64,
    /// The case's settled state; `None` for every case but the last.
    installed: Option<InstalledCase>,
}

/// The settled state of a run's last case, which the run installs so
/// that `state`, `resolved` and the listings reflect it.
struct InstalledCase {
    /// Dirtied (index, state) pairs in index order.
    raw_overlay: Vec<(usize, StateId)>,
    eff_overlay: Vec<(usize, StateId)>,
    hazards: BTreeSet<(PrimId, usize)>,
    wired: BTreeMap<(SignalId, PrimId), StateId>,
    overrides: BTreeMap<SignalId, Value>,
}

/// What a run's walk keeps from unit to unit, so that a unit's settle
/// allocates nothing the size of the design: the worklist, its
/// membership flags and the wave buffers. Between settles `queue` is
/// empty and `queued` all `false` — a settle that drains its queue
/// leaves it so, and an aborted one clears what it queued.
#[derive(Default)]
struct CaseScratch {
    queue: VecDeque<PrimId>,
    queued: Vec<bool>,
    wave: WaveScratch,
}

/// One unit of a tree run: settling an internal prefix node, or settling
/// one leaf case. Each unit settles on its parent node's state (the
/// settled base for roots and node-less leaves).
#[derive(Debug, Clone, Copy)]
enum Unit {
    Node(usize),
    Leaf(usize),
}

/// The run's cases organized as a trie on shared assignment prefixes,
/// plus one root per non-default delay corner. `order` lists every unit
/// in pre-order (each node before its subtree), the order the run walks
/// them in; `leaves` carry each case's residual suffix.
struct CaseTree {
    nodes: Vec<TreeNode>,
    leaves: Vec<LeafTask>,
    order: Vec<Unit>,
}

/// One internal trie node: the assignments it adds on top of its parent.
struct TreeNode {
    /// Parent node index; `None` roots directly on the settled base.
    parent: Option<usize>,
    /// The new `(signal, value)` assignments this node applies.
    chunk: Vec<(SignalId, Value)>,
    /// Delay corner of the whole subtree (cases are grouped by corner).
    corner: DelayCorner,
    /// Whether this node's settle must re-evaluate every primitive: the
    /// root of a non-worst corner group, where every delay changes.
    reseed_all: bool,
    /// Descendant leaf cases, for the `PrefixSettled` trace event.
    leaf_count: usize,
    /// Child units (nodes and leaves) this node's state is handed on
    /// to, for the `SubtreeReleased` trace event and
    /// [`MemoStats::releases`].
    children: usize,
}

/// One case's residual work after its deepest shared prefix.
struct LeafTask {
    /// Input case index.
    case: usize,
    /// The node whose settled overlay the leaf forks; `None` settles
    /// directly from the base (no shared prefix, worst-case corner).
    node: Option<usize>,
    /// Where in the case's resolved assignments the unshared suffix
    /// starts.
    suffix_start: usize,
}

impl CaseTree {
    /// Organizes resolved cases into the trie: group by corner, sort
    /// each group by assignment list (tie-broken by input index so the
    /// structure is deterministic), and recursively split on the
    /// longest shared prefix. A prefix node is created only when ≥ 2
    /// cases share it; every non-worst corner group gets a root node so
    /// the full corner re-settle is paid once per corner, not per case.
    fn build(resolved: &[Vec<(SignalId, Value)>], corners: &[DelayCorner]) -> CaseTree {
        let mut tree = CaseTree {
            nodes: Vec::new(),
            leaves: Vec::new(),
            order: Vec::new(),
        };
        let mut groups: BTreeMap<DelayCorner, Vec<usize>> = BTreeMap::new();
        for (i, &corner) in corners.iter().enumerate().take(resolved.len()) {
            groups.entry(corner).or_default().push(i);
        }
        // Comparison key: `Value` here is only ever One/Zero, so the
        // pair (signal index, is-one) sorts assignment lists totally.
        let key = |case: usize| {
            resolved[case]
                .iter()
                .map(|&(sid, v)| (sid.index(), v == Value::One))
        };
        for (corner, mut idxs) in groups {
            idxs.sort_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
            let root = (corner != DelayCorner::Worst).then(|| {
                tree.push_node(TreeNode {
                    parent: None,
                    chunk: Vec::new(),
                    corner,
                    reseed_all: true,
                    leaf_count: idxs.len(),
                    children: 0,
                })
            });
            tree.split(resolved, corner, &idxs, 0, root);
        }
        tree
    }

    /// Recursively splits a sorted case group whose members all share
    /// `depth` leading assignments already applied by `parent`. Units
    /// are pushed in pre-order: each node before its subtree.
    fn split(
        &mut self,
        resolved: &[Vec<(SignalId, Value)>],
        corner: DelayCorner,
        idxs: &[usize],
        depth: usize,
        parent: Option<usize>,
    ) {
        let mut i = 0;
        while i < idxs.len() {
            let case = idxs[i];
            if resolved[case].len() == depth {
                // No assignments left: the case *is* its prefix.
                self.push_leaf(LeafTask {
                    case,
                    node: parent,
                    suffix_start: depth,
                });
                i += 1;
                continue;
            }
            // The sort makes cases agreeing at `depth` contiguous.
            let head = resolved[case][depth];
            let mut j = i + 1;
            while j < idxs.len()
                && resolved[idxs[j]].len() > depth
                && resolved[idxs[j]][depth] == head
            {
                j += 1;
            }
            if j - i == 1 {
                // Nothing shares this prefix: leaf directly on `parent`.
                self.push_leaf(LeafTask {
                    case,
                    node: parent,
                    suffix_start: depth,
                });
            } else {
                // Extend the shared prefix as far as the group agrees.
                let group = &idxs[i..j];
                let mut end = depth + 1;
                while let Some(next) = resolved[case].get(end) {
                    if group.iter().all(|&c| resolved[c].get(end) == Some(next)) {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let node = self.push_node(TreeNode {
                    parent,
                    chunk: resolved[case][depth..end].to_vec(),
                    corner,
                    reseed_all: false,
                    leaf_count: group.len(),
                    children: 0,
                });
                self.split(resolved, corner, group, end, Some(node));
            }
            i = j;
        }
    }

    /// Appends a node, counting it as a child of its parent; returns its
    /// index.
    fn push_node(&mut self, node: TreeNode) -> usize {
        if let Some(p) = node.parent {
            self.nodes[p].children += 1;
        }
        self.order.push(Unit::Node(self.nodes.len()));
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Appends a leaf, counting it as a child of its node.
    fn push_leaf(&mut self, leaf: LeafTask) {
        if let Some(n) = leaf.node {
            self.nodes[n].children += 1;
        }
        self.order.push(Unit::Leaf(self.leaves.len()));
        self.leaves.push(leaf);
    }
}

/// A settled internal tree node: the forked overlays and bookkeeping
/// every descendant (node or leaf) builds on.
struct NodeState<'a> {
    raw: ConeState<'a>,
    eff: ConeState<'a>,
    hazards: BTreeSet<(PrimId, usize)>,
    wired: BTreeMap<(SignalId, PrimId), StateId>,
    /// Cumulative overrides from the root down to this node.
    overrides: BTreeMap<SignalId, Value>,
    /// A settle failure here (or above) fails every descendant leaf.
    error: Option<VerifyError>,
    /// Empty-verdict summary of this node's checker pass, computed once
    /// after the settle (chained as a delta off the parent's pass);
    /// `None` when the settle failed. Descendants re-check only units
    /// inside their dirty cone and inherit the rest from here.
    cache: Option<CheckCache>,
    /// Total value-record count of this node's raw state, so leaves pay
    /// a cone-sized storage delta instead of a full measure.
    value_records: usize,
}

/// Parent context for a memoized per-case checker/storage pass: the
/// cached results of the prefix node (or the settled base) a leaf forked
/// from.
struct LeafMemo<'a> {
    /// The parent pass's empty-verdict summary.
    cache: &'a CheckCache,
    /// The parent's hazard set (a hazard unit new to the leaf was never
    /// checked by the parent and must be evaluated).
    hazards: &'a BTreeSet<(PrimId, usize)>,
    /// The parent's raw/effective states, for dirty-cone diffs.
    raw_parent: &'a ConeState<'a>,
    eff_parent: &'a ConeState<'a>,
    /// The parent's total value-record count.
    value_records: usize,
}

/// One run's walk over its case tree: the settled base and settle
/// parameters every unit reads, the counters the units add to, and the
/// base checker pass and record total, each computed on first use.
struct CaseWalk<'a> {
    netlist: &'a Netlist,
    pinned: &'a [bool],
    base_raw: &'a [StateId],
    base_eff: &'a [StateId],
    /// The base as a parent view with nothing dirtied, beside the
    /// prefix nodes' overlays.
    base_raw_view: ConeState<'a>,
    base_eff_view: ConeState<'a>,
    base_hazards: &'a BTreeSet<(PrimId, usize)>,
    base_wired: &'a BTreeMap<(SignalId, PrimId), StateId>,
    budget: u64,
    cache: Option<(&'a EvalCache, &'a [Option<u32>])>,
    trace: Option<&'a dyn TraceSink>,
    /// One case at the worst-case corner, so a tree with no node: the
    /// leaf checks its own state in full. Rooting it on a base pass
    /// would compute that pass only to discard it, then re-check every
    /// checker the case fires.
    lone_leaf: bool,
    scratch: CaseScratch,
    base_check: Option<CheckCache>,
    base_records: Option<usize>,
    prefix: PrefixStats,
    memo: MemoStats,
}

impl<'a> CaseWalk<'a> {
    /// Runs the base checker pass, unless an earlier unit that roots on
    /// the settled base already did.
    fn ensure_base_check(&mut self) {
        if self.base_check.is_none() {
            let hazard_list: Vec<(PrimId, usize)> = self.base_hazards.iter().copied().collect();
            let pass = run_checks_cached(
                self.netlist,
                self.base_eff,
                &hazard_list,
                DelayCorner::Worst,
                None,
            );
            self.memo.node_passes += 1;
            self.memo.node_check_evals += pass.evaluated;
            self.base_check = Some(pass.cache);
        }
    }

    /// The base's total value-record count, measured on first use.
    fn base_records(&mut self) -> usize {
        let (netlist, base_raw) = (self.netlist, self.base_raw);
        *self
            .base_records
            .get_or_insert_with(|| crate::storage::value_records(netlist, base_raw))
    }

    /// Settles one internal node on its parent's state (the base for a
    /// root), then runs the node's own checker/storage pass — a delta
    /// off the parent's — so every descendant inherits from it. A node
    /// under a failed parent inherits the error without settling, and a
    /// failed node skips its pass: its subtree's leaves then fail
    /// without settling.
    fn node(
        &mut self,
        ni: usize,
        node: &TreeNode,
        parent: Option<&NodeState<'a>>,
    ) -> NodeState<'a> {
        let mut st = match parent {
            None => NodeState {
                raw: ConeState::new(self.base_raw),
                eff: ConeState::new(self.base_eff),
                hazards: self.base_hazards.clone(),
                wired: self.base_wired.clone(),
                overrides: BTreeMap::new(),
                error: None,
                cache: None,
                value_records: 0,
            },
            Some(ps) => NodeState {
                raw: ps.raw.fork(),
                eff: ps.eff.fork(),
                hazards: ps.hazards.clone(),
                wired: ps.wired.clone(),
                overrides: ps.overrides.clone(),
                error: ps.error.clone(),
                cache: None,
                value_records: 0,
            },
        };
        for &(sid, v) in &node.chunk {
            st.overrides.insert(sid, v);
        }
        let mut events = 0u64;
        let mut evaluations = 0u64;
        if st.error.is_none() {
            st.error = settle_overlay(
                self.netlist,
                self.pinned,
                &mut self.scratch,
                &mut st.raw,
                &mut st.eff,
                &mut st.hazards,
                &mut st.wired,
                &node.chunk,
                &st.overrides,
                node.corner,
                node.reseed_all,
                self.budget,
                self.cache,
                self.trace.map(|t| (t, None)),
                &mut events,
                &mut evaluations,
            )
            .err();
        }
        if st.error.is_none() {
            // The node's checker pass. Violations are discarded (a node
            // is not a case); the empty-verdict summary seeds every
            // descendant's delta pass. A corner root re-times every
            // wave, so nothing from the Worst-corner base pass is
            // inheritable there.
            let hazard_list: Vec<(PrimId, usize)> = st.hazards.iter().copied().collect();
            let pass = if node.reseed_all {
                run_checks_cached(self.netlist, &st.eff, &hazard_list, node.corner, None)
            } else {
                if parent.is_none() {
                    self.ensure_base_check();
                }
                let (cache, hazards, eff_parent): (
                    &CheckCache,
                    &BTreeSet<(PrimId, usize)>,
                    &ConeState<'_>,
                ) = match parent {
                    Some(ps) => (
                        ps.cache.as_ref().expect("settled parent has a cache"),
                        &ps.hazards,
                        &ps.eff,
                    ),
                    None => (
                        self.base_check.as_ref().expect("base pass ran above"),
                        self.base_hazards,
                        &self.base_eff_view,
                    ),
                };
                let dirty = st.eff.dirty_vs(eff_parent);
                run_checks_cached(
                    self.netlist,
                    &st.eff,
                    &hazard_list,
                    node.corner,
                    Some(&CheckMemo {
                        cache,
                        hazards,
                        dirty: &dirty,
                    }),
                )
            };
            self.memo.node_passes += 1;
            self.memo.node_check_evals += pass.evaluated;
            self.memo.node_check_hits += pass.inherited;
            st.cache = Some(pass.cache);
            // Storage is corner-independent, so the records chain runs
            // through corner roots too.
            let parent_records = match parent {
                Some(ps) => ps.value_records,
                None => self.base_records(),
            };
            let raw_parent = parent.map_or(&self.base_raw_view, |ps| &ps.raw);
            st.value_records = st.raw.value_records_vs(raw_parent, parent_records).0;
        }
        self.prefix.nodes += 1;
        self.prefix.events += events;
        self.prefix.evaluations += evaluations;
        self.memo.releases += node.children as u64;
        if let Some(t) = self.trace {
            let label = node_label(self.netlist, node.corner, &st.overrides);
            t.record(&TraceEvent::PrefixSettled {
                node: ni as u32,
                label: &label,
                cases: node.leaf_count,
                events,
                evaluations,
            });
            t.record(&TraceEvent::SubtreeReleased {
                node: ni as u32,
                children: node.children,
            });
        }
        st
    }

    /// Runs one leaf case, bracketed by its trace events. `keep_state`
    /// keeps the settled state for installation.
    fn leaf(
        &mut self,
        leaf: &LeafTask,
        assigns: &[(SignalId, Value)],
        corner: DelayCorner,
        case: &Case,
        parent: Option<&NodeState<'a>>,
        keep_state: bool,
    ) -> Result<CaseOutcome, VerifyError> {
        let i = leaf.case as u32;
        if let Some(t) = self.trace {
            t.record(&TraceEvent::CaseStart {
                case: i,
                label: &case.label(),
            });
        }
        let case_started = Instant::now();
        let outcome = self.settle_leaf(leaf, assigns, corner, parent, keep_state)?;
        if let Some(t) = self.trace {
            t.record(&TraceEvent::LeafChecks {
                case: i,
                check_evals: outcome.check_evals,
                check_hits: outcome.check_hits,
                storage_evals: outcome.storage_evals,
                storage_hits: outcome.storage_hits,
            });
            t.record(&TraceEvent::CaseEnd {
                case: i,
                wall_nanos: u64::try_from(case_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                events: outcome.events,
                evaluations: outcome.evaluations,
                violations: outcome.violations.len(),
            });
        }
        Ok(outcome)
    }

    /// Settles one leaf: forks its parent's settled overlay (the node's,
    /// or the base's for a node-less leaf) and settles only the suffix
    /// of assignments the parent did not already apply. The fixed point,
    /// and therefore the leaf's violations, waveforms and value records,
    /// equals a settle of the full assignment list from the base,
    /// because the fixed point is unique and the seed diff re-dirties
    /// exactly the signals whose override mapping changed (DESIGN.md
    /// § "The case tree"). The leaf inherits its parent's cached checker
    /// verdicts and storage total, re-checking only the units its settle
    /// dirtied — except a lone leaf, which has no parent pass and checks
    /// in full.
    fn settle_leaf(
        &mut self,
        leaf: &LeafTask,
        assigns: &[(SignalId, Value)],
        corner: DelayCorner,
        parent: Option<&NodeState<'a>>,
        keep_state: bool,
    ) -> Result<CaseOutcome, VerifyError> {
        let (mut raw, mut eff, mut hazards, mut wired, memo) = match parent {
            None => {
                // Node-less leaves exist only in the Worst-corner group
                // (every other corner gets a root node), which makes the
                // base pass their valid parent.
                debug_assert_eq!(corner, DelayCorner::Worst);
                let value_records = (!self.lone_leaf).then(|| {
                    self.ensure_base_check();
                    self.base_records()
                });
                let memo = value_records.map(|value_records| LeafMemo {
                    cache: self.base_check.as_ref().expect("base pass ran above"),
                    hazards: self.base_hazards,
                    raw_parent: &self.base_raw_view,
                    eff_parent: &self.base_eff_view,
                    value_records,
                });
                let (raw, eff) = (ConeState::new(self.base_raw), ConeState::new(self.base_eff));
                (
                    raw,
                    eff,
                    self.base_hazards.clone(),
                    self.base_wired.clone(),
                    memo,
                )
            }
            Some(node) => {
                if let Some(e) = &node.error {
                    return Err(e.clone());
                }
                // A settled node always carries a cache (built right
                // after its settle).
                let memo = node.cache.as_ref().map(|cache| LeafMemo {
                    cache,
                    hazards: &node.hazards,
                    raw_parent: &node.raw,
                    eff_parent: &node.eff,
                    value_records: node.value_records,
                });
                let (raw, eff) = (node.raw.fork(), node.eff.fork());
                (raw, eff, node.hazards.clone(), node.wired.clone(), memo)
            }
        };
        let overrides: BTreeMap<SignalId, Value> = assigns.iter().copied().collect();
        let mut events = 0u64;
        let mut evaluations = 0u64;
        settle_overlay(
            self.netlist,
            self.pinned,
            &mut self.scratch,
            &mut raw,
            &mut eff,
            &mut hazards,
            &mut wired,
            &assigns[leaf.suffix_start..],
            &overrides,
            corner,
            false,
            self.budget,
            self.cache,
            self.trace.map(|t| (t, Some(leaf.case as u32))),
            &mut events,
            &mut evaluations,
        )?;
        Ok(case_outcome(
            self.netlist,
            corner,
            raw,
            eff,
            hazards,
            wired,
            overrides,
            events,
            evaluations,
            memo.as_ref(),
            keep_state,
        ))
    }
}

/// Human-readable label of a tree node's cumulative overrides, for the
/// `PrefixSettled` trace event.
fn node_label(
    netlist: &Netlist,
    corner: DelayCorner,
    overrides: &BTreeMap<SignalId, Value>,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    if corner != DelayCorner::Worst {
        parts.push(format!("corner={corner}"));
    }
    parts.extend(overrides.iter().map(|(sid, v)| {
        format!(
            "{} = {}",
            netlist.signal(*sid).name(),
            u8::from(*v == Value::One)
        )
    }));
    if parts.is_empty() {
        "no overrides".to_owned()
    } else {
        parts.join("; ")
    }
}

/// One incremental settle on top of an existing overlay: seeds the new
/// assignments (diffing the effective state through the overlay, so a
/// leaf re-seeds exactly the signals whose override map changed since
/// its node settled), optionally re-enqueues every primitive (corner
/// roots, where every delay changes), and runs the wave loop to the
/// fixed point on the walk's `scratch`. Effort accumulates into
/// `events`/`evaluations` even on the error path.
#[allow(clippy::too_many_arguments)]
fn settle_overlay(
    netlist: &Netlist,
    pinned: &[bool],
    scratch: &mut CaseScratch,
    raw: &mut ConeState<'_>,
    eff: &mut ConeState<'_>,
    hazards: &mut BTreeSet<(PrimId, usize)>,
    wired: &mut BTreeMap<(SignalId, PrimId), StateId>,
    seeds: &[(SignalId, Value)],
    overrides: &BTreeMap<SignalId, Value>,
    corner: DelayCorner,
    reseed_all: bool,
    budget: u64,
    cache: Option<(&EvalCache, &[Option<u32>])>,
    trace: Option<(&dyn TraceSink, Option<u32>)>,
    events: &mut u64,
    evaluations: &mut u64,
) -> Result<(), VerifyError> {
    let CaseScratch {
        queue,
        queued,
        wave,
    } = scratch;
    queued.resize(netlist.prim_count(), false);

    // Seed: apply the new overrides (in SignalId order) and dirty their
    // fan-out cones.
    for &(sid, v) in seeds {
        let new_eff = override_state(Some(v), raw.state_at(sid.index()));
        if eff.state_at(sid.index()) != new_eff {
            eff.set(sid.index(), new_eff);
            for &pid in netlist.fanout(sid) {
                if !queued[pid.index()] {
                    queued[pid.index()] = true;
                    queue.push_back(pid);
                }
            }
        }
    }
    if reseed_all {
        for (pid, _) in netlist.iter_prims() {
            if !queued[pid.index()] {
                queued[pid.index()] = true;
                queue.push_back(pid);
            }
        }
    }

    let settled = settle_waves(
        &WaveParams {
            netlist,
            pinned,
            overrides,
            budget,
            corner,
            case: trace.and_then(|(_, c)| c),
            trace: trace.map(|(t, _)| t),
            cache,
        },
        WaveBooks {
            hazards,
            wired,
            queue,
            queued,
            events,
            evaluations,
        },
        wave,
        raw,
        eff,
    );
    for pid in queue.drain(..) {
        queued[pid.index()] = false;
    }
    settled
}

/// Runs the check pass over a settled overlay and packages everything
/// the merge step needs back into a [`CaseOutcome`]; with `keep_state`,
/// also the overlay and maps the run installs.
///
/// With `memo: Some`, the checker pass runs as a dirty-cone delta
/// against the parent's cached pass and storage accounting as a records
/// delta against the parent's total — byte-identical to the full pass
/// (see `run_checks_cached` and `ConeState::value_records_vs` for the
/// argument) while evaluating only units the suffix settle touched.
#[allow(clippy::too_many_arguments)]
fn case_outcome(
    netlist: &Netlist,
    corner: DelayCorner,
    raw: ConeState<'_>,
    eff: ConeState<'_>,
    hazards: BTreeSet<(PrimId, usize)>,
    wired: BTreeMap<(SignalId, PrimId), StateId>,
    overrides: BTreeMap<SignalId, Value>,
    events: u64,
    evaluations: u64,
    memo: Option<&LeafMemo<'_>>,
    keep_state: bool,
) -> CaseOutcome {
    let hazard_list: Vec<(PrimId, usize)> = hazards.iter().copied().collect();
    let signals = netlist.signal_count() as u64;
    let (pass, value_records, storage_evals) = match memo {
        Some(m) => {
            let dirty = eff.dirty_vs(m.eff_parent);
            let pass = run_checks_cached(
                netlist,
                &eff,
                &hazard_list,
                corner,
                Some(&CheckMemo {
                    cache: m.cache,
                    hazards: m.hazards,
                    dirty: &dirty,
                }),
            );
            let (value_records, examined) = raw.value_records_vs(m.raw_parent, m.value_records);
            (pass, value_records, examined)
        }
        None => {
            let pass = run_checks_cached(netlist, &eff, &hazard_list, corner, None);
            let value_records = crate::storage::value_records(netlist, &raw);
            (pass, value_records, signals)
        }
    };
    CaseOutcome {
        violations: pass.violations,
        events,
        evaluations,
        value_records,
        check_evals: pass.evaluated,
        check_hits: pass.inherited,
        storage_evals,
        storage_hits: signals.saturating_sub(storage_evals),
        installed: keep_state.then(|| InstalledCase {
            raw_overlay: raw.into_overlay(),
            eff_overlay: eff.into_overlay(),
            hazards,
            wired,
            overrides,
        }),
    }
}

/// Checks that the interface signals of separately verified design
/// sections carry consistent assertions (§2.5.2): "after each section is
/// verified, SCALD checks to see that all interface signals have the same
/// timing assertions on them. If no section … has a timing error and if
/// all of the interface signals … have consistent assertions, then the
/// entire design must be free of timing errors."
///
/// Returns one message per inconsistency: a signal name appearing in two
/// sections with differing assertions (including asserted in one and
/// unasserted in the other).
#[must_use]
pub fn check_interfaces(sections: &[&Netlist]) -> Vec<String> {
    use scald_assertions::Assertion;
    // BTreeMap as structural hardening: `seen`'s order never escapes
    // today (problems follow section/signal input order), but a map that
    // feeds a user-facing listing must not depend on `RandomState`.
    let mut seen: BTreeMap<String, (usize, Option<Assertion>)> = BTreeMap::new();
    let mut problems = Vec::new();
    for (idx, section) in sections.iter().enumerate() {
        for (_, sig) in section.iter_signals() {
            match seen.get(sig.name()) {
                None => {
                    seen.insert(sig.name().to_owned(), (idx, sig.assertion().cloned()));
                }
                Some((first_idx, first)) if first.as_ref() != sig.assertion() => {
                    let show = |a: Option<&Assertion>| {
                        a.map_or_else(|| "(no assertion)".to_owned(), ToString::to_string)
                    };
                    problems.push(format!(
                        "interface signal {:?}: section {} asserts {}, \
                         section {} asserts {}",
                        sig.name(),
                        first_idx + 1,
                        show(first.as_ref()),
                        idx + 1,
                        show(sig.assertion())
                    ));
                }
                Some(_) => {}
            }
        }
    }
    problems
}
