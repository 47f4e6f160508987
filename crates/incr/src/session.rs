//! The [`Session`] type: a settled verifier plus content hashes, and the
//! warm-start re-verification pipeline behind [`Session::apply`].

use scald_netlist::{DeltaError, Netlist, NetlistDelta, PrimId, Primitive, Signal, SignalId};
use scald_trace::TraceSink;
use scald_verifier::{
    Case, CaseSet, CheckpointPolicy, EvalCache, MemoStats, PrefixStats, Report, RunOptions,
    Verifier, VerifierBuilder, VerifyError,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A design to open a [`Session`] on — the one input type shared by the
/// CLI, the `scald-serve` daemon and library callers, so every consumer
/// constructs sessions identically ([`SessionBuilder::open`]).
#[derive(Debug, Clone)]
// Consumed by value the moment a session opens — the size gap between
// the variants never sits in long-lived storage, so boxing would only
// tax every construction site.
#[allow(clippy::large_enum_variant)]
pub enum DesignInput {
    /// HDL source text; the design's `case` blocks become the session's
    /// case set (one empty base case when it declares none).
    Source(String),
    /// Verilog source text, compiled through the `scald-rtl` frontend;
    /// the design's `// scald: case` pragmas become the session's case
    /// set (one empty base case when it declares none).
    Verilog(String),
    /// An already-built netlist plus an explicit case set (pass
    /// `vec![Case::new()]` for a single base case).
    Netlist {
        /// The elaborated design.
        netlist: Netlist,
        /// The cases to analyse on every verification.
        cases: Vec<Case>,
    },
}

impl DesignInput {
    /// Source-text input (convenience over the variant).
    pub fn source(src: impl Into<String>) -> DesignInput {
        DesignInput::Source(src.into())
    }

    /// Verilog-source input (convenience over the variant).
    pub fn verilog(src: impl Into<String>) -> DesignInput {
        DesignInput::Verilog(src.into())
    }

    /// Netlist input (convenience over the variant).
    #[must_use]
    pub fn netlist(netlist: Netlist, cases: Vec<Case>) -> DesignInput {
        DesignInput::Netlist { netlist, cases }
    }
}

/// An edit to re-verify against a [`Session`].
#[derive(Debug, Clone)]
pub enum Delta {
    /// Replace the whole design from HDL source text. The source is
    /// re-expanded by `scald-hdl`; because expanded instance names are
    /// stable across re-expansion (per-block ordinals), primitives whose
    /// definition did not change hash identically and stay warm. The
    /// design's `case` blocks replace the session's case set.
    Source(String),
    /// Replace the whole design from Verilog source text, re-compiled
    /// through the `scald-rtl` frontend. Lowered primitive names are
    /// stable across re-compilation (per-body ordinals mirroring the
    /// expander), so unchanged logic hashes identically and stays warm.
    /// The design's `// scald: case` pragmas replace the case set.
    Verilog(String),
    /// Apply structural edits ([`NetlistDelta`]) to the current netlist:
    /// add/remove/retime primitives, change assertions. The case set is
    /// kept.
    Netlist(NetlistDelta),
    /// Replace the case set only; the netlist (and its settled base
    /// fixed point) carries over untouched.
    Cases(Vec<Case>),
}

/// Effort accounting for one [`Session::apply`] (or initial open).
#[derive(Debug, Clone, Copy)]
pub struct IncrStats {
    /// `false` when the session fell back to a cold run (initial open,
    /// or a design-configuration change).
    pub warm: bool,
    /// Primitives whose content hash changed (or that are new).
    pub dirty_prims: usize,
    /// Primitives seeded into the worklist (the dirty frontier).
    pub seeded_prims: usize,
    /// Size of the structurally affected cone
    /// ([`Netlist::affected_cone`]): the upper bound on what re-settling
    /// may touch.
    pub cone_prims: usize,
    /// Total primitives in the (edited) design.
    pub total_prims: usize,
    /// Signal-change events this re-verification processed (base settle
    /// plus all cases).
    pub events: u64,
    /// Primitive evaluations this re-verification processed.
    pub evaluations: u64,
    /// Shared-prefix settle effort of the case tree (zero when no two
    /// cases share a prefix and every case is at the worst-case corner).
    pub prefix: PrefixStats,
    /// Checker/storage memoization counters of the case tree (no node
    /// pass and no hits for a single case at the worst-case corner).
    pub memo: MemoStats,
    /// Wall-clock time of the re-verification.
    pub wall: Duration,
}

impl IncrStats {
    /// The affected cone as a fraction of the design, in `[0, 1]`.
    #[must_use]
    pub fn cone_fraction(&self) -> f64 {
        if self.total_prims == 0 {
            0.0
        } else {
            self.cone_prims as f64 / self.total_prims as f64
        }
    }
}

/// What one verification pass produced: the full [`Report`] plus the
/// incremental-effort statistics. The session keeps the latest one; read
/// it through [`Session::outcome`].
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The report, exactly as a cold run of the same design would
    /// produce it (modulo effort counters; see [`Report::strip_effort`]).
    pub report: Report,
    /// How much of the design the pass actually touched.
    pub stats: IncrStats,
}

/// Errors from opening a session or applying a delta.
#[derive(Debug)]
pub enum SessionError {
    /// The HDL source failed to compile.
    Compile(scald_hdl::HdlError),
    /// The Verilog source failed to compile.
    Rtl(scald_rtl::RtlError),
    /// A [`NetlistDelta`] failed to apply.
    Delta(DeltaError),
    /// Verification failed (oscillation, unknown case signal).
    Verify(VerifyError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Compile(e) => write!(f, "{e}"),
            SessionError::Rtl(e) => write!(f, "{e}"),
            SessionError::Delta(e) => write!(f, "{e}"),
            SessionError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<scald_hdl::HdlError> for SessionError {
    fn from(e: scald_hdl::HdlError) -> SessionError {
        SessionError::Compile(e)
    }
}

impl From<scald_rtl::RtlError> for SessionError {
    fn from(e: scald_rtl::RtlError) -> SessionError {
        SessionError::Rtl(e)
    }
}

impl From<DeltaError> for SessionError {
    fn from(e: DeltaError) -> SessionError {
        SessionError::Delta(e)
    }
}

impl From<VerifyError> for SessionError {
    fn from(e: VerifyError) -> SessionError {
        SessionError::Verify(e)
    }
}

/// Configures and opens a [`Session`].
#[derive(Default)]
pub struct SessionBuilder {
    trace: Option<Arc<dyn TraceSink>>,
    /// Inverted so `Default` means "cache on".
    no_eval_cache: bool,
    /// A caller-supplied memo table; overrides `no_eval_cache`.
    shared_cache: Option<Arc<EvalCache>>,
}

impl SessionBuilder {
    /// A builder with defaults: the evaluation cache on, no trace sink.
    #[must_use]
    pub fn new() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Has no effect: every verification walks its cases on the calling
    /// thread. It stays only until the `e2ebench` benchmark stops
    /// passing its `JOBS` constant here.
    #[must_use]
    pub fn jobs(self, _jobs: usize) -> SessionBuilder {
        self
    }

    /// Attaches a trace sink to every verifier the session builds. The
    /// sink outlives individual passes, so per-session counters (e.g. a
    /// `CounterSink`, or the JSONL stream behind `scald-tv --watch
    /// --trace`) accumulate across edits; warm starts are marked with a
    /// `warm_start` event.
    #[must_use]
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> SessionBuilder {
        self.trace = Some(sink);
        self
    }

    /// Enables or disables the shared evaluation memo table (on by
    /// default). When enabled, one [`EvalCache`] spans every
    /// re-verification of the session, so evaluations in regions an edit
    /// did not touch replay from the table; results are byte-identical
    /// either way.
    #[must_use]
    pub fn eval_cache(mut self, enabled: bool) -> SessionBuilder {
        self.no_eval_cache = !enabled;
        self
    }

    /// Uses a caller-owned [`EvalCache`] instead of a private one, so
    /// several sessions (e.g. every `scald-serve` client of one popular
    /// design) share a single memo table: evaluations one session
    /// performed replay in every other. Overrides
    /// [`eval_cache`](Self::eval_cache).
    #[must_use]
    pub fn shared_eval_cache(mut self, cache: Arc<EvalCache>) -> SessionBuilder {
        self.shared_cache = Some(cache);
        self
    }

    /// Opens a session on a [`DesignInput`] — the single constructor the
    /// CLI, the `scald-serve` daemon and library callers all use.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if source input fails to compile or
    /// the initial cold verification fails.
    pub fn open(
        self,
        input: DesignInput,
        label: impl Into<String>,
    ) -> Result<Session, SessionError> {
        let (netlist, cases) = match input {
            DesignInput::Source(src) => compile_source(&src)?,
            DesignInput::Verilog(src) => compile_verilog(&src)?,
            DesignInput::Netlist { netlist, cases } => (netlist, cases),
        };
        let eval_cache = match &self.shared_cache {
            Some(cache) => Some(Arc::clone(cache)),
            None => (!self.no_eval_cache).then(|| Arc::new(EvalCache::new())),
        };
        let settings = Settings {
            label: label.into(),
            trace: self.trace,
            eval_cache,
        };
        let pass = settings.verify(None, netlist, &cases)?;
        Ok(Session {
            settled: pass.settled,
            keys: pass.keys,
            cases,
            settings,
            last: pass.outcome,
        })
    }
}

/// What every verification of a session shares: the report label, the
/// trace sink and the memo table.
struct Settings {
    label: String,
    trace: Option<Arc<dyn TraceSink>>,
    /// One memo table across every re-verification of this session
    /// (`None` when disabled): unchanged regions of an edited design
    /// replay their evaluations instead of re-running the kernels.
    eval_cache: Option<Arc<EvalCache>>,
}

/// What one verification pass leaves for the session to commit.
struct Pass {
    /// The verifier at its settled base fixed point.
    settled: Verifier,
    /// Content keys of the pass's netlist.
    keys: Keys,
    outcome: SessionOutcome,
}

/// An incremental re-verification session. See the [crate docs](crate).
pub struct Session {
    /// Verifier snapshotted at its settled base fixed point — the
    /// `prior` of the next warm start. Never holds a case overlay.
    settled: Verifier,
    /// Content keys of `settled`'s netlist.
    keys: Keys,
    cases: Vec<Case>,
    settings: Settings,
    /// The latest pass's report and effort; the one copy of either.
    last: SessionOutcome,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("label", &self.settings.label)
            .field("signals", &self.keys.sigs.len())
            .field("prims", &self.keys.prims.len())
            .field("cases", &self.cases.len())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// [`SessionBuilder::open`] with default options.
    ///
    /// # Errors
    ///
    /// As for [`SessionBuilder::open`].
    pub fn open(input: DesignInput, label: impl Into<String>) -> Result<Session, SessionError> {
        SessionBuilder::new().open(input, label)
    }

    /// The current (edited-to-date) netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.settled.netlist()
    }

    /// The current case set.
    #[must_use]
    pub fn cases(&self) -> &[Case] {
        &self.cases
    }

    /// The session's design label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.settings.label
    }

    /// The shared evaluation memo table, when caching is enabled.
    #[must_use]
    pub fn eval_cache(&self) -> Option<&Arc<EvalCache>> {
        self.settings.eval_cache.as_ref()
    }

    /// Cumulative hit/miss/entry counters of the session's memo table
    /// (`None` when caching is disabled). For a shared table
    /// ([`SessionBuilder::shared_eval_cache`]) the counters span every
    /// session on it.
    #[must_use]
    pub fn cache_stats(&self) -> Option<scald_verifier::EvalCacheStats> {
        self.settings.eval_cache.as_ref().map(|c| c.stats())
    }

    /// Content hash of the session's *current* design: netlist
    /// configuration, every signal and primitive content key, and the
    /// case set. Two sessions with equal hashes verify identically, so
    /// this is the `scald-serve` pool key — see [`design_hash`].
    #[must_use]
    pub fn design_hash(&self) -> u64 {
        hash_design(self.netlist(), &self.keys, &self.cases)
    }

    /// Re-verifies the current design as-is (no edit). With a prior
    /// fixed point everything is clean, so the pass warm-starts with an
    /// empty frontier and replays cheaply; the refreshed report stays
    /// in the session (see [`outcome`](Self::outcome)) and the pass's
    /// effort is returned.
    ///
    /// # Errors
    ///
    /// As for [`Session::apply`].
    pub fn reverify(&mut self) -> Result<IncrStats, SessionError> {
        self.apply(Delta::Cases(self.cases.clone()))
    }

    /// The report and effort statistics of the most recent pass.
    #[must_use]
    pub fn outcome(&self) -> &SessionOutcome {
        &self.last
    }

    /// The report of the most recent pass.
    #[must_use]
    pub fn report(&self) -> &Report {
        &self.last.report
    }

    /// Applies an edit and re-verifies, warm-starting from the prior
    /// fixed point. On success the session advances to the edited
    /// design and keeps the new report (read it through
    /// [`report`](Self::report)); the pass's effort is returned. On
    /// error the session is left unchanged (the prior state stays
    /// valid, so a failed edit can simply be corrected and re-applied).
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the delta fails to compile/apply or
    /// verification fails.
    pub fn apply(&mut self, delta: Delta) -> Result<IncrStats, SessionError> {
        let (netlist, cases) = match delta {
            Delta::Source(src) => compile_source(&src)?,
            Delta::Verilog(src) => compile_verilog(&src)?,
            Delta::Netlist(d) => (d.apply(self.settled.netlist())?, self.cases.clone()),
            Delta::Cases(cases) => (self.settled.netlist().clone(), cases),
        };
        let pass = self
            .settings
            .verify(Some((&self.settled, &self.keys)), netlist, &cases)?;
        let stats = pass.outcome.stats;
        self.settled = pass.settled;
        self.keys = pass.keys;
        self.cases = cases;
        self.last = pass.outcome;
        Ok(stats)
    }
}

impl Settings {
    /// One verification pass over `netlist` and `cases`, warm-started
    /// from `prior` (a settled verifier and its netlist's keys) when its
    /// configuration matches. The netlist moves into the new verifier;
    /// the diff and the frontier read it back through
    /// [`Verifier::netlist`].
    fn verify(
        &self,
        prior: Option<(&Verifier, &Keys)>,
        netlist: Netlist,
        cases: &[Case],
    ) -> Result<Pass, SessionError> {
        let keys = Keys::of(&netlist);
        let total_prims = netlist.prims().len();
        // A configuration change (period, clock units, skews, default
        // wire delay) invalidates every settled waveform: run cold.
        let prior = prior
            .filter(|(v, _)| v.netlist().config() == netlist.config())
            .map(|(v, prior_keys)| (v, Diff::of(v.netlist(), prior_keys, &netlist, &keys)));

        let mut builder = VerifierBuilder::new(netlist);
        if let Some(trace) = &self.trace {
            builder = builder.trace(Arc::clone(trace));
        }
        match &self.eval_cache {
            Some(cache) => builder = builder.shared_eval_cache(Arc::clone(cache)),
            None => builder = builder.eval_cache(false),
        }
        let mut verifier = builder.build();

        let (warm, dirty_prims, seeded_prims, cone_prims) = match &prior {
            Some((prior, diff)) => {
                // Seed frontier: edited primitives, plus the fan-out and
                // the drivers of every dirtied signal (its value must be
                // re-derived even when its driver itself is clean).
                let net = verifier.netlist();
                let mut seeds: BTreeSet<PrimId> = diff.dirty_prims.iter().copied().collect();
                for &sid in &diff.dirty_sigs {
                    seeds.extend(net.fanout(sid).iter().copied());
                    seeds.extend(net.drivers(sid).iter().copied());
                }
                let seeds: Vec<PrimId> = seeds.into_iter().collect();
                let cone = net.affected_cone(&diff.dirty_sigs, &diff.dirty_prims).len();
                verifier.warm_start(prior, &diff.sig_pairs, &diff.prim_pairs, &seeds);
                (true, diff.dirty_prims.len(), seeds.len(), cone)
            }
            None => (false, total_prims, total_prims, total_prims),
        };

        let started = Instant::now();
        // Checkpoint at the base fixed point, *before* the last case's
        // overlay/hazards are installed — the next warm start must not
        // inherit a case's state as its base.
        let outcome = verifier.run(
            &RunOptions::new()
                .cases(CaseSet::list(cases.iter().cloned()))
                .checkpoint(CheckpointPolicy::SettledBase),
        )?;
        let settled = *outcome.checkpoint.expect("checkpoint was requested");
        let (prefix, memo) = (outcome.prefix, outcome.memo);
        let results = outcome.cases;
        let wall = started.elapsed();

        let mut report = verifier.report(self.label.clone(), &results);
        report.engine.verify_wall = Some(wall);
        let stats = IncrStats {
            warm,
            dirty_prims,
            seeded_prims,
            cone_prims,
            total_prims,
            events: verifier.total_events(),
            evaluations: verifier.total_evaluations(),
            prefix,
            memo,
            wall,
        };
        Ok(Pass {
            settled,
            keys,
            outcome: SessionOutcome { report, stats },
        })
    }
}

/// Compiles HDL source into the `(netlist, cases)` pair that
/// [`DesignInput::Source`] opens — exposed so callers that need the
/// netlist *before* opening (e.g. `scald-serve`, which keys its session
/// pool on [`design_hash`]) compile exactly once, exactly the way
/// [`SessionBuilder::open`] would.
///
/// # Errors
///
/// [`SessionError::Compile`] when the source fails to compile.
pub fn compile_source(src: &str) -> Result<(Netlist, Vec<Case>), SessionError> {
    let expansion = scald_hdl::compile(src)?;
    Ok(with_cases(expansion.netlist, expansion.cases))
}

/// Compiles Verilog source into the `(netlist, cases)` pair that
/// [`DesignInput::Verilog`] opens — the `scald-rtl` twin of
/// [`compile_source`], for callers that need the netlist before opening
/// a session.
///
/// # Errors
///
/// [`SessionError::Rtl`] when the source fails to compile.
pub fn compile_verilog(src: &str) -> Result<(Netlist, Vec<Case>), SessionError> {
    let expansion = scald_rtl::compile(src)?;
    Ok(with_cases(expansion.netlist, expansion.cases))
}

/// A compiled netlist with the cases its source declares, or one empty
/// base case when it declares none, mirroring `scald-tv`.
fn with_cases(netlist: Netlist, declared: Vec<Vec<(String, bool)>>) -> (Netlist, Vec<Case>) {
    let cases = if declared.is_empty() {
        vec![Case::new()]
    } else {
        declared.into_iter().map(Case::from_iter).collect()
    };
    (netlist, cases)
}

/// Content hash of a whole design: the netlist configuration (period,
/// clock units, skews, default wire delay), every signal's content key
/// in name order, every primitive's name and content key in name order
/// (duplicate names included, ordered by key), and the case set (labels
/// + assignments).
///
/// Everything a verification result depends on feeds the hash, so equal
/// hashes mean byte-identical (effort-stripped) reports. `scald-serve`
/// keys its session pool on it: clients opening equal designs share one
/// [`EvalCache`] and can reuse each other's settled sessions. The value
/// is an in-memory key, stable within a build but never persisted.
#[must_use]
pub fn design_hash(netlist: &Netlist, cases: &[Case]) -> u64 {
    hash_design(netlist, &Keys::of(netlist), cases)
}

/// [`design_hash`] over already-computed keys of `netlist`.
fn hash_design(netlist: &Netlist, keys: &Keys, cases: &[Case]) -> u64 {
    let mut h = DefaultHasher::new();
    let config = netlist.config();
    let timing = &config.timing;
    timing.period.hash(&mut h);
    timing.clock_unit.hash(&mut h);
    timing.precision_skew.hash(&mut h);
    timing.nonprecision_skew.hash(&mut h);
    config.default_wire_delay.hash(&mut h);
    // Name order, never id or per-process hash order. Primitive names
    // need not be unique, so equal names fall back to key order.
    let mut sigs: Vec<(&str, u64)> = netlist
        .signals()
        .iter()
        .zip(&keys.sigs)
        .map(|(s, &k)| (s.name.as_str(), k))
        .collect();
    sigs.sort_unstable();
    let mut prims: Vec<(&str, u64)> = netlist
        .prims()
        .iter()
        .zip(&keys.prims)
        .map(|(p, &k)| (p.name.as_str(), k))
        .collect();
    prims.sort_unstable();
    sigs.hash(&mut h);
    prims.hash(&mut h);
    cases.len().hash(&mut h);
    for case in cases {
        case.label().hash(&mut h);
        for (signal, value) in case.assignments() {
            signal.hash(&mut h);
            value.hash(&mut h);
        }
    }
    h.finish()
}

/// Content keys of one netlist, indexed by id: `sigs[s.index()]` and
/// `prims[p.index()]`. A key hashes what a warm start must not carry
/// over when it changes; the settled *values* are deliberately left out,
/// since values are what warm starting carries.
struct Keys {
    sigs: Vec<u64>,
    prims: Vec<u64>,
}

impl Keys {
    /// Hashes every signal and primitive from its structure: no text is
    /// formatted and nothing is allocated per element.
    fn of(netlist: &Netlist) -> Keys {
        let mut drivers: Vec<&str> = Vec::new();
        Keys {
            sigs: netlist
                .iter_signals()
                .map(|(sid, _)| signal_key(netlist, sid, &mut drivers))
                .collect(),
            prims: netlist
                .prims()
                .iter()
                .map(|p| prim_key(netlist, p))
                .collect(),
        }
    }
}

/// A signal's key: name, width, assertion, wire-delay override, wired-OR
/// flag, and the (sorted) names of its drivers — everything that feeds
/// the verifier's init and wiring decisions for it. `drivers` is scratch
/// space reused across signals.
fn signal_key<'a>(netlist: &'a Netlist, sid: SignalId, drivers: &mut Vec<&'a str>) -> u64 {
    let sig = netlist.signal(sid);
    let mut h = DefaultHasher::new();
    sig.name.hash(&mut h);
    sig.width.hash(&mut h);
    hash_assertion(sig, &mut h);
    sig.wire_delay.hash(&mut h);
    sig.wired_or.hash(&mut h);
    drivers.clear();
    drivers.extend(
        netlist
            .drivers(sid)
            .iter()
            .map(|&p| netlist.prim(p).name.as_str()),
    );
    drivers.sort_unstable();
    drivers.hash(&mut h);
    h.finish()
}

/// A primitive's key: kind (with parameters), delays, and each
/// connection — source signal name and assertion, the source's
/// wire-delay override, inversion, directive, per-connection wire delay
/// — plus the output signal's name. Any attribute change that could
/// alter the primitive's evaluation changes the key.
fn prim_key(netlist: &Netlist, p: &Primitive) -> u64 {
    let mut h = DefaultHasher::new();
    p.kind.hash(&mut h);
    p.delay.hash(&mut h);
    p.edge_delays.hash(&mut h);
    p.inputs.len().hash(&mut h);
    for conn in &p.inputs {
        let src = netlist.signal(conn.signal);
        src.name.hash(&mut h);
        hash_assertion(src, &mut h);
        src.wire_delay.hash(&mut h);
        conn.invert.hash(&mut h);
        conn.directive.hash(&mut h);
        conn.wire_delay.hash(&mut h);
    }
    p.output
        .map(|out| netlist.signal(out).name.as_str())
        .hash(&mut h);
    h.finish()
}

/// Feeds a signal's assertion, or its absence, to `h`.
fn hash_assertion(sig: &Signal, h: &mut DefaultHasher) {
    match &sig.assertion {
        None => h.write_u8(0),
        Some(a) => {
            h.write_u8(1);
            a.hash_bits(h);
        }
    }
}

/// Which elements of an edited netlist survived the edit: `(new, prior)`
/// id pairs of clean signals and primitives, and the dirty rest, all in
/// new-id order.
struct Diff {
    sig_pairs: Vec<(SignalId, SignalId)>,
    prim_pairs: Vec<(PrimId, PrimId)>,
    dirty_sigs: Vec<SignalId>,
    dirty_prims: Vec<PrimId>,
}

impl Diff {
    /// Matches `next`'s elements to `prior`'s by name and compares their
    /// keys. A primitive name that is ambiguous in either netlist (the
    /// expander makes names unique; hand-built netlists might not) pairs
    /// nothing, so every primitive carrying it re-verifies dirty.
    fn of(prior: &Netlist, prior_keys: &Keys, next: &Netlist, keys: &Keys) -> Diff {
        let mut diff = Diff {
            sig_pairs: Vec::with_capacity(next.signals().len()),
            prim_pairs: Vec::with_capacity(next.prims().len()),
            dirty_sigs: Vec::new(),
            dirty_prims: Vec::new(),
        };
        for (nid, sig) in next.iter_signals() {
            match prior.signal_by_name(&sig.name) {
                Some(oid) if prior_keys.sigs[oid.index()] == keys.sigs[nid.index()] => {
                    diff.sig_pairs.push((nid, oid));
                }
                _ => diff.dirty_sigs.push(nid),
            }
        }

        // `None` marks a name the prior netlist uses more than once.
        let mut by_name: HashMap<&str, Option<PrimId>> =
            HashMap::with_capacity(prior.prims().len());
        for (oid, p) in prior.iter_prims() {
            by_name
                .entry(p.name.as_str())
                .and_modify(|id| *id = None)
                .or_insert(Some(oid));
        }
        let matched: Vec<Option<PrimId>> = next
            .prims()
            .iter()
            .map(|p| by_name.get(p.name.as_str()).copied().flatten())
            .collect();
        // More than one claim on a prior primitive marks a name `next`
        // uses more than once.
        let mut claims = vec![0_u32; prior.prims().len()];
        for oid in matched.iter().flatten() {
            claims[oid.index()] += 1;
        }
        for ((nid, _), matched) in next.iter_prims().zip(matched) {
            match matched {
                Some(oid)
                    if claims[oid.index()] == 1
                        && prior_keys.prims[oid.index()] == keys.prims[nid.index()] =>
                {
                    diff.prim_pairs.push((nid, oid));
                }
                _ => diff.dirty_prims.push(nid),
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    //! Oracle for the structural content keys: the `format!`-based keys
    //! and the `BTreeMap` name index they replaced, kept as they were.
    use super::*;
    use scald_gen::rtl_pairs::paired_design;
    use scald_gen::s1::{s1_like_hdl, s1_like_netlist, S1Options};
    use scald_netlist::{DeltaConn, PrimKind, PrimSpec};
    use scald_rng::Rng;
    use scald_wave::DelayRange;
    use std::collections::BTreeMap;

    fn hash_signal(netlist: &Netlist, sid: SignalId) -> u64 {
        let sig = netlist.signal(sid);
        let mut h = DefaultHasher::new();
        sig.width.hash(&mut h);
        sig.full_name().hash(&mut h);
        format!("{:?}", sig.wire_delay).hash(&mut h);
        sig.wired_or.hash(&mut h);
        let mut drivers: Vec<&str> = netlist
            .drivers(sid)
            .iter()
            .map(|p| netlist.prim(*p).name.as_str())
            .collect();
        drivers.sort_unstable();
        drivers.hash(&mut h);
        h.finish()
    }

    fn hash_prim(netlist: &Netlist, pid: PrimId) -> u64 {
        let p = netlist.prim(pid);
        let mut h = DefaultHasher::new();
        format!("{:?}", p.kind).hash(&mut h);
        format!("{:?}", p.delay).hash(&mut h);
        format!("{:?}", p.edge_delays).hash(&mut h);
        for conn in &p.inputs {
            let src = netlist.signal(conn.signal);
            src.full_name().hash(&mut h);
            format!("{:?}", src.wire_delay).hash(&mut h);
            conn.invert.hash(&mut h);
            conn.directive.hash(&mut h);
            format!("{:?}", conn.wire_delay).hash(&mut h);
        }
        match p.output {
            Some(out) => netlist.signal(out).name.hash(&mut h),
            None => 0_u8.hash(&mut h),
        }
        h.finish()
    }

    fn index_signals(netlist: &Netlist) -> BTreeMap<String, (SignalId, u64)> {
        netlist
            .iter_signals()
            .map(|(sid, sig)| (sig.name.clone(), (sid, hash_signal(netlist, sid))))
            .collect()
    }

    fn index_prims(netlist: &Netlist) -> BTreeMap<String, (PrimId, u64)> {
        let mut map: BTreeMap<String, (PrimId, u64)> = BTreeMap::new();
        let mut dup: Vec<String> = Vec::new();
        for (pid, p) in netlist.iter_prims() {
            if map
                .insert(p.name.clone(), (pid, hash_prim(netlist, pid)))
                .is_some()
            {
                dup.push(p.name.clone());
            }
        }
        for name in dup {
            map.remove(&name);
        }
        map
    }

    /// The old diff's dirty signals and primitives of `next`, in id order.
    fn oracle_dirty(prior: &Netlist, next: &Netlist) -> (Vec<SignalId>, Vec<PrimId>) {
        let (old_sigs, old_prims) = (index_signals(prior), index_prims(prior));
        let mut dirty_sigs: Vec<SignalId> = Vec::new();
        let mut dirty_prims: Vec<PrimId> = Vec::new();
        for (name, &(nid, nh)) in &index_signals(next) {
            match old_sigs.get(name) {
                Some(&(_, oh)) if oh == nh => {}
                _ => dirty_sigs.push(nid),
            }
        }
        for (name, &(nid, nh)) in &index_prims(next) {
            match old_prims.get(name) {
                Some(&(_, oh)) if oh == nh => {}
                _ => dirty_prims.push(nid),
            }
        }
        dirty_sigs.sort_unstable();
        dirty_prims.sort_unstable();
        (dirty_sigs, dirty_prims)
    }

    /// Tallies of one corpus: diffs checked, and dirty and clean
    /// elements seen, so a corpus that never edits anything shows.
    #[derive(Default)]
    struct Tally {
        diffs: usize,
        dirty: usize,
        clean: usize,
    }

    /// Checks the edit `prior` → `next` against the oracle: the same
    /// clean/dirty partition of signals and primitives, and no new key
    /// shared by two elements (of either netlist) whose old keys differ.
    fn check(label: &str, prior: &Netlist, next: &Netlist, tally: &mut Tally) {
        let (prior_keys, keys) = (Keys::of(prior), Keys::of(next));
        let diff = Diff::of(prior, &prior_keys, next, &keys);
        let (dirty_sigs, dirty_prims) = oracle_dirty(prior, next);
        assert_eq!(diff.dirty_sigs, dirty_sigs, "{label}: dirty signals");
        assert_eq!(diff.dirty_prims, dirty_prims, "{label}: dirty primitives");
        assert_eq!(
            diff.sig_pairs.len() + diff.dirty_sigs.len(),
            next.signals().len()
        );
        assert_eq!(
            diff.prim_pairs.len() + diff.dirty_prims.len(),
            next.prims().len()
        );
        let mut sig_old: HashMap<u64, u64> = HashMap::new();
        let mut prim_old: HashMap<u64, u64> = HashMap::new();
        for (netlist, keys) in [(prior, &prior_keys), (next, &keys)] {
            for (sid, _) in netlist.iter_signals() {
                let old = hash_signal(netlist, sid);
                let seen = *sig_old.entry(keys.sigs[sid.index()]).or_insert(old);
                assert_eq!(seen, old, "{label}: a signal key merges old keys");
            }
            for (pid, _) in netlist.iter_prims() {
                let old = hash_prim(netlist, pid);
                let seen = *prim_old.entry(keys.prims[pid.index()]).or_insert(old);
                assert_eq!(seen, old, "{label}: a primitive key merges old keys");
            }
        }
        tally.diffs += 1;
        tally.dirty += diff.dirty_sigs.len() + diff.dirty_prims.len();
        tally.clean += diff.sig_pairs.len() + diff.prim_pairs.len();
    }

    fn compiled(src: &str) -> Netlist {
        compile_source(src).expect("corpus design compiles").0
    }

    /// A one-line edit of an `s1_like_hdl` design in the style of the
    /// `serve_eco` benchmark: one slice's `IN` assertion moves, or a
    /// slice whose output no neighbour reads changes width.
    fn one_line_edit(src: &str, rng: &mut Rng) -> String {
        const PREFIX: &str = "  use 'DP SLICE' SIZE=";
        let mut lines: Vec<String> = src.split('\n').map(str::to_owned).collect();
        let slices: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with(PREFIX))
            .collect();
        let k = rng.range_usize(0, slices.len());
        let line = &lines[slices[k]];
        let resizable = line.contains(&format!("'S{k} ALT"))
            && !slices
                .get(k + 1)
                .is_some_and(|&n| lines[n].contains(&format!("'S{k} Q') ->")));
        let (at, end, to) = if resizable && rng.bool() {
            let at = PREFIX.len();
            let end = at + line[at..].find(' ').expect("SIZE is followed by ports");
            (
                at,
                end,
                ["1", "4", "8", "16", "32", "36"][rng.range_usize(0, 6)],
            )
        } else {
            let key = format!("'S{k} IN .S");
            let at = line.find(&key).expect("every slice has an IN input") + key.len();
            let end = at + line[at..].find("-8'").expect("IN is asserted to unit 8");
            (at, end, ["2", "2.5", "3", "3.5"][rng.range_usize(0, 4)])
        };
        lines[slices[k]].replace_range(at..end, to);
        lines.join("\n")
    }

    /// The structural edits of `incr_props`: retime, removal, buffer
    /// splice, assertion change. (Its case-set swaps leave the netlist
    /// as it is; the identical pairs below cover them.)
    fn structural_edit(rng: &mut Rng, netlist: &Netlist, tag: &str) -> NetlistDelta {
        let prims = netlist.prims();
        let mut d = NetlistDelta::new();
        match rng.range_u32(0, 4) {
            0 => {
                let p = rng.range_usize(0, prims.len());
                let lo = rng.range_f64(0.5, 4.0);
                let hi = lo + rng.range_f64(0.0, 6.0);
                d.retime(prims[p].name.clone(), DelayRange::from_ns(lo, hi));
            }
            1 => {
                let p = rng.range_usize(0, prims.len());
                d.remove_prim(prims[p].name.clone());
            }
            2 => {
                let ctl = rng.range_u32(0, 24);
                d.add_prim(PrimSpec {
                    name: format!("ECO/{tag}"),
                    kind: PrimKind::Buf,
                    delay: DelayRange::from_ns(0.5, 2.5),
                    inputs: vec![DeltaConn::new(format!("CTL {ctl}"))],
                    output: Some(format!("ECO/{tag} OUT")),
                });
            }
            _ => {
                let sigs = netlist.signals();
                let s = rng.range_usize(0, sigs.len());
                let assertion = rng.bool().then(|| {
                    let lo = ["2", "2.5", "3"][rng.range_usize(0, 3)];
                    format!(".S{lo}-8")
                });
                d.set_assertion(sigs[s].name.clone(), assertion);
            }
        }
        d
    }

    #[test]
    fn content_keys_match_the_format_oracle() {
        // The shipped designs: each against itself and against the next
        // in name order (which pairs the two ECO designs).
        let mut tally = Tally::default();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("designs/ is readable")
            .map(|e| e.expect("directory entry").path())
            .collect();
        paths.sort();
        let shipped: Vec<(String, Netlist)> = paths
            .iter()
            .map(|path| {
                let src = std::fs::read_to_string(path).expect("design is readable");
                let netlist = match path.extension().and_then(|e| e.to_str()) {
                    Some("v") => compile_verilog(&src).expect("shipped Verilog compiles").0,
                    _ => compiled(&src),
                };
                (path.display().to_string(), netlist)
            })
            .collect();
        assert!(shipped.len() >= 5, "designs/ holds the shipped designs");
        for (i, (name, netlist)) in shipped.iter().enumerate() {
            check(name, netlist, netlist, &mut tally);
            if let Some((next, other)) = shipped.get(i + 1) {
                check(&format!("{name} -> {next}"), netlist, other, &mut tally);
            }
        }

        // `s1_like_hdl` at three sizes, through seeded one-line edits.
        for chips in [60, 400, 1000] {
            let mut rng = Rng::seed_from_u64(0x0ec0 + chips as u64);
            let mut src = s1_like_hdl(S1Options { chips, seed: 7 });
            let mut prior = compiled(&src);
            for edit in 0..6 {
                src = one_line_edit(&src, &mut rng);
                let next = compiled(&src);
                check(
                    &format!("s1 {chips} edit {edit}"),
                    &prior,
                    &next,
                    &mut tally,
                );
                prior = next;
            }
        }

        // The `rtl_pairs` twins: each twin against the other, and each
        // pair against the next seed's.
        let mut previous: Option<Netlist> = None;
        for seed in 0..50 {
            let pair = paired_design(seed);
            let rtl = compile_verilog(&pair.verilog).expect("twin compiles").0;
            let hdl = compiled(&pair.scald);
            check(&format!("twins {seed}"), &rtl, &hdl, &mut tally);
            if let Some(prev) = &previous {
                check(&format!("twins {seed} after"), prev, &hdl, &mut tally);
            }
            previous = Some(rtl);
        }

        // The seeded structural edit scripts of `incr_props`.
        for design in 0..6 {
            let (mut current, _) = s1_like_netlist(S1Options {
                chips: 8 + 2 * design,
                seed: 0xec0_0000 + design as u64,
            });
            let mut rng = Rng::seed_from_u64(0x5eed_0000 + design as u64);
            for edit in 0..9 {
                let d = structural_edit(&mut rng, &current, &format!("{design}_{edit}"));
                let next = d.apply(&current).expect("edit applies");
                check(
                    &format!("script {design} edit {edit}"),
                    &current,
                    &next,
                    &mut tally,
                );
                current = next;
            }
        }

        assert!(tally.diffs >= 150, "{} diffs checked", tally.diffs);
        assert!(tally.dirty > 0 && tally.clean > tally.dirty);
    }
}
