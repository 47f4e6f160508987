//! Constraint checking: the post-fixed-point pass of §2.9 that examines
//! every checker primitive, every `&A`/`&H` gating directive, and every
//! stable assertion on a generated signal.

use scald_assertions::Assertion;
use scald_logic::Value;
use scald_netlist::{ConnRef, Netlist, PrimId, PrimKind, PrimRef, SignalId, SignalRef};
use scald_wave::{
    edge_windows, pulses, DelayCorner, DelayRange, Edge, EdgeWindow, Span, Time, Waveform,
};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::eval::{pin_wave, pin_wave_pulse_view};
use crate::report::{Provenance, ProvenanceHop, Violation, ViolationKind};
use crate::state::{Directive, EvalStr, StateId};
use crate::view::StateView;

/// Fan-in walk caps: deep enough to cross several levels of gating, small
/// enough that a wide bus cone doesn't swamp the report.
const PROVENANCE_MAX_DEPTH: usize = 8;
const PROVENANCE_MAX_HOPS: usize = 24;

/// Walks the fan-in cone back from `anchor` (breadth-first) and records,
/// at each signal, the windows where it may be changing — the arrival
/// time it feeds forward. The walk stops at asserted signals (their
/// timing is a designer-stated fact, the §2.5 root-cause boundary) and
/// at undriven sources, and is capped by depth and hop count.
pub(crate) fn provenance_for<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    anchor: SignalId,
) -> Provenance {
    let mut hops = Vec::new();
    let mut truncated = false;
    let mut visited = BTreeSet::new();
    let mut queue = VecDeque::new();
    visited.insert(anchor);
    queue.push_back((anchor, 0usize));
    while let Some((sid, depth)) = queue.pop_front() {
        if hops.len() >= PROVENANCE_MAX_HOPS {
            truncated = true;
            break;
        }
        let sig = netlist.signal(sid);
        let driver = netlist.driver(sid);
        let wave = states.state_at(sid.index()).get().resolved();
        hops.push(ProvenanceHop {
            signal: sig.full_name(),
            depth,
            via: driver.map(|pid| netlist.prim(pid).name().to_owned()),
            arrival: wave.spans_where(|v| !v.is_quiescent()),
        });
        if driver.is_none() || sig.assertion().is_some() {
            continue;
        }
        if depth >= PROVENANCE_MAX_DEPTH {
            truncated = true;
            continue;
        }
        for pid in netlist.drivers(sid) {
            for &input in netlist.prim(*pid).input_signals() {
                if visited.insert(input) {
                    queue.push_back((input, depth + 1));
                }
            }
        }
    }
    Provenance { hops, truncated }
}

/// Attaches the fan-in provenance of `anchor` to every violation in
/// `slice` — computed once per batch, only when a check actually fired.
fn attach_provenance<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    anchor: SignalId,
    slice: &mut [Violation],
) {
    if slice.is_empty() {
        return;
    }
    let p = provenance_for(netlist, states, anchor);
    for v in slice {
        v.provenance = Some(p.clone());
    }
}

/// How long `wave` has been quiescent immediately before instant `t`
/// (up to one full period). Zero if the signal may be changing just
/// before `t`.
fn quiescent_before(wave: &Waveform, t: Time) -> Time {
    let period = wave.period();
    let probe = (t - Time::from_ps(1)).rem_period(period);
    if !wave.value_at(probe).is_quiescent() {
        return Time::ZERO;
    }
    for q in wave.spans_where(Value::is_quiescent) {
        if q.is_full(period) {
            return period;
        }
        if q.contains(probe, period) {
            return (t - q.start()).rem_period(period);
        }
    }
    Time::ZERO
}

/// How long `wave` stays quiescent from instant `t` onward (up to one full
/// period). Zero if the signal may be changing at `t`.
fn quiescent_after(wave: &Waveform, t: Time) -> Time {
    let period = wave.period();
    let t = t.rem_period(period);
    if !wave.value_at(t).is_quiescent() {
        return Time::ZERO;
    }
    for q in wave.spans_where(Value::is_quiescent) {
        if q.is_full(period) {
            return period;
        }
        if q.contains(t, period) {
            let end = q.start() + q.width();
            return (end - t).rem_period(period).max(
                // t == q.start of a span whose width is the distance
                Time::ZERO,
            );
        }
    }
    Time::ZERO
}

fn observed_line(label: &str, name: &str, wave: &Waveform) -> String {
    format!("{label} = {name}: {wave}")
}

/// Emits an `UndefinedClock` diagnostic when a checker clock carries `U`
/// anywhere — a missing assertion or unconnected clock is far easier to
/// act on than the avalanche of set-up noise it would otherwise cause.
fn check_clock_defined(
    source: &str,
    clock_name: &str,
    clock: &Waveform,
    out: &mut Vec<Violation>,
) -> bool {
    let undefined = clock.spans_where(|v| v == Value::Unknown);
    if undefined.is_empty() {
        return true;
    }
    out.push(Violation {
        kind: ViolationKind::UndefinedClock,
        source: source.to_owned(),
        constraint: format!("CLOCK {clock_name} HAS NO DEFINED VALUE"),
        missed_by: None,
        at: undefined.first().copied(),
        observed: vec![observed_line("CK INPUT  ", clock_name, clock)],
        provenance: None,
    });
    false
}

/// Runs the `SETUP HOLD CHK` semantics (§2.4.4): the input must be
/// quiescent from `setup` before until `hold` after each rising edge of
/// the clock. Returns one violation per failed edge/phase.
#[allow(clippy::too_many_arguments)]
fn check_setup_hold_edges(
    source: &str,
    setup: Time,
    hold: Time,
    input: &Waveform,
    input_name: &str,
    clock: &Waveform,
    clock_name: &str,
    edges: &[EdgeWindow],
    out: &mut Vec<Violation>,
) {
    let period = input.period();
    // The constraint and listings are formatted only for a pushed
    // violation: a clean check costs no text.
    let violation = |kind, missed_by, at| Violation {
        kind,
        source: source.to_owned(),
        constraint: format!("SETUP TIME = {setup}, HOLD TIME = {hold}"),
        missed_by: Some(missed_by),
        at: Some(at),
        observed: vec![
            observed_line("CK INPUT  ", clock_name, clock),
            observed_line("DATA INPUT", input_name, input),
        ],
        provenance: None,
    };
    for e in edges {
        let w = e.span;
        // Data changing during the edge window itself: the full set-up is
        // missed (the register may sample mid-transition).
        let window_quiescent = input.quiescent_throughout(w);
        if !window_quiescent && setup > Time::ZERO {
            out.push(violation(ViolationKind::Setup, setup, w));
        } else if setup > Time::ZERO {
            let avail = quiescent_before(input, w.start());
            if avail < setup {
                out.push(violation(ViolationKind::Setup, setup - avail, w));
            }
        }
        if hold > Time::ZERO {
            let edge_end = w.end(period);
            let avail = quiescent_after(input, edge_end);
            if avail < hold {
                out.push(violation(ViolationKind::Hold, hold - avail, w));
            }
        }
    }
}

/// Pairs each rising window with the nearest following falling window
/// (the clock's asserted pulse).
fn clock_pulses(clock: &Waveform) -> Vec<(EdgeWindow, EdgeWindow)> {
    let period = clock.period();
    let rising = edge_windows(clock, Edge::Rising);
    let falling = edge_windows(clock, Edge::Falling);
    let mut out = Vec::new();
    for r in &rising {
        let after_r = r.span.end(period);
        if let Some(f) = falling
            .iter()
            .min_by_key(|f| (f.span.start() - after_r).rem_period(period))
        {
            out.push((*r, *f));
        }
    }
    out
}

/// The timing margin of one checker: how much headroom each of its
/// constraints has. Negative slack corresponds to a reported violation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckMargin {
    /// Checker instance name.
    pub checker: String,
    /// The checked input signal.
    pub signal: String,
    /// Worst set-up slack across all clock edges: available stability
    /// minus required set-up. `None` if the check did not apply (no
    /// set-up requirement or no edges).
    pub setup_slack: Option<Time>,
    /// Worst hold slack across all clock edges.
    pub hold_slack: Option<Time>,
    /// Worst pulse-width slack (min possible width minus required), over
    /// both polarities of a `MIN PULSE WIDTH` check.
    pub pulse_slack: Option<Time>,
}

/// What `prep_input` reads for one checker pin with the gate delay off:
/// the source state (wave, skew and riding string), the inversion, and
/// the wire delay that reaches the pin (after the corner collapse, zero
/// when the directive head zeroes the wire). The pin's prepared wave is
/// a pure function of these, so pins with equal keys see equal waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PinKey {
    state: StateId,
    invert: bool,
    wire: DelayRange,
}

impl PinKey {
    fn of<S: StateView + ?Sized>(
        netlist: &Netlist,
        conn: ConnRef<'_>,
        states: &S,
        corner: DelayCorner,
    ) -> PinKey {
        let state = states.state_at(conn.signal().index());
        // The directive head, read from the first letter directly: a
        // connection's own string wins over the one riding on the value.
        let head = match conn.directive() {
            Some(d) => d.chars().next().and_then(Directive::from_letter),
            None => state.get().eval.as_ref().and_then(EvalStr::head),
        };
        let wire = if head.is_some_and(Directive::zeroes_wire) {
            DelayRange::ZERO
        } else {
            corner.collapse(netlist.wire_delay(conn))
        };
        PinKey {
            state,
            invert: conn.invert(),
            wire,
        }
    }
}

/// Everything a checker primitive's verdict and margins depend on: its
/// kind with both parameters, and the key of each pin the kind reads
/// (the clock is absent for `MinPulseWidth`). The period is the
/// design's. Names and provenance enter only a violation's text, so two
/// primitives with equal keys are both clean or both fire, with equal
/// margins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CheckerKey {
    kind: PrimKind,
    data: PinKey,
    clock: Option<PinKey>,
}

impl CheckerKey {
    /// The key of checker primitive `prim` against `states`; allocates
    /// nothing.
    fn of<S: StateView + ?Sized>(
        netlist: &Netlist,
        prim: PrimRef<'_>,
        states: &S,
        corner: DelayCorner,
    ) -> CheckerKey {
        let pin = |i: usize| PinKey::of(netlist, prim.input(i), states, corner);
        CheckerKey {
            kind: prim.kind(),
            data: pin(0),
            clock: match prim.kind() {
                PrimKind::MinPulseWidth { .. } => None,
                _ => Some(pin(1)),
            },
        }
    }
}

/// The checker primitives of one pass, evaluated once per distinct
/// clean key. A primitive whose key is already known clean is counted
/// by the caller but not re-run; one that fires is always evaluated in
/// full, because its text and provenance are its own.
struct CheckerRun<'a, S: ?Sized> {
    netlist: &'a Netlist,
    states: &'a S,
    corner: DelayCorner,
    clean: HashSet<CheckerKey>,
}

impl<'a, S: StateView + ?Sized> CheckerRun<'a, S> {
    fn new(netlist: &'a Netlist, states: &'a S, corner: DelayCorner) -> CheckerRun<'a, S> {
        CheckerRun {
            netlist,
            states,
            corner,
            clean: HashSet::new(),
        }
    }

    /// Checks `prim`, appending its violations; `true` if it fired.
    fn check(&mut self, prim: PrimRef<'_>, out: &mut Vec<Violation>) -> bool {
        let key = CheckerKey::of(self.netlist, prim, self.states, self.corner);
        if self.clean.contains(&key) {
            return false;
        }
        let before = out.len();
        check_checker_prim(self.netlist, self.states, prim, self.corner, out);
        let fired = out.len() > before;
        if !fired {
            self.clean.insert(key);
        }
        fired
    }
}

/// One checker's worst margins, as [`CheckMargin`] carries them.
#[derive(Debug, Clone, Copy)]
struct Margins {
    setup: Option<Time>,
    hold: Option<Time>,
    pulse: Option<Time>,
}

/// The margins of one checker primitive against `states`.
fn checker_margins<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> Margins {
    let period = netlist.config().timing.period;
    let worst = |acc: &mut Option<Time>, s: Time| *acc = Some(acc.map_or(s, |m| m.min(s)));
    let mut m = Margins {
        setup: None,
        hold: None,
        pulse: None,
    };
    match prim.kind() {
        PrimKind::SetupHold { setup, hold } => {
            let input = pin_wave(netlist, prim, prim.input(0), states, corner);
            let clock = pin_wave(netlist, prim, prim.input(1), states, corner);
            for e in edge_windows(&clock, Edge::Rising) {
                let avail_setup = if input.quiescent_throughout(e.span) {
                    quiescent_before(&input, e.span.start())
                } else {
                    Time::ZERO
                };
                worst(&mut m.setup, avail_setup - setup);
                worst(
                    &mut m.hold,
                    quiescent_after(&input, e.span.end(period)) - hold,
                );
            }
        }
        PrimKind::SetupRiseHoldFall { setup, hold } => {
            let input = pin_wave(netlist, prim, prim.input(0), states, corner);
            let clock = pin_wave(netlist, prim, prim.input(1), states, corner);
            for (r, f) in clock_pulses(&clock) {
                worst(
                    &mut m.setup,
                    quiescent_before(&input, r.span.start()) - setup,
                );
                worst(
                    &mut m.hold,
                    quiescent_after(&input, f.span.end(period)) - hold,
                );
            }
        }
        PrimKind::MinPulseWidth { high, low } => {
            let input = pin_wave_pulse_view(netlist, prim, prim.input(0), states, corner);
            if high > Time::ZERO {
                for p in pulses(&input, true) {
                    worst(&mut m.pulse, p.min_possible_width - high);
                }
            }
            if low > Time::ZERO {
                for p in pulses(&input, false) {
                    worst(&mut m.pulse, p.min_possible_width - low);
                }
            }
        }
        _ => {}
    }
    m
}

/// Computes the timing margins of every checker primitive against the
/// settled states — the slack view designers use to see how much headroom
/// a passing design has (and by how much a failing one misses). Margins
/// are computed once per [`CheckerKey`]; rows come in netlist order,
/// then sort worst first.
pub(crate) fn slack_report<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    corner: DelayCorner,
) -> Vec<CheckMargin> {
    let mut table: HashMap<CheckerKey, Margins> = HashMap::new();
    let mut out = Vec::new();
    for (_, prim) in netlist.iter_prims() {
        if !prim.kind().is_checker() {
            continue;
        }
        let key = CheckerKey::of(netlist, prim, states, corner);
        let m = *table
            .entry(key)
            .or_insert_with(|| checker_margins(netlist, prim, states, corner));
        out.push(CheckMargin {
            checker: prim.name().to_owned(),
            signal: netlist.signal(prim.input(0).signal()).name().to_owned(),
            setup_slack: m.setup,
            hold_slack: m.hold,
            pulse_slack: m.pulse,
        });
    }
    // Worst margins first.
    out.sort_by_key(|m| {
        [m.setup_slack, m.hold_slack, m.pulse_slack]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Time::from_ps(i64::MAX))
    });
    #[cfg(test)]
    key_oracle::cross_check_slack(netlist, states, corner, &out);
    out
}

/// The design's static checker units: fixed by the netlist, recorded by
/// a full pass and shared down the case tree, so that a delta pass can
/// count what it inherits without walking the design.
#[derive(Debug)]
pub(crate) struct StaticUnits {
    /// Checker primitives (`SetupHold`/`SetupRiseHoldFall`/`MinPulseWidth`).
    pub checker_prims: u64,
    /// Signals carrying an assertion-check unit, in id order.
    pub assert_signals: Vec<SignalId>,
}

/// The empty-verdict summary of one checker pass: which units (checker
/// primitives, hazard-flagged gates, asserted signals) fired at least one
/// violation. Everything *not* listed here produced an empty verdict, and
/// an empty verdict depends only on the unit's direct input states — so a
/// child state whose inputs to that unit are unchanged can inherit the
/// emptiness without re-running the check (§2.7 incremental case
/// analysis, applied to the checker pass).
#[derive(Debug, Clone)]
pub(crate) struct CheckCache {
    /// Checker primitives (`SetupHold`/`SetupRiseHoldFall`/`MinPulseWidth`)
    /// that reported at least one violation.
    pub violating_prims: BTreeSet<PrimId>,
    /// `(gate, asserted input index)` hazard units that reported.
    pub violating_hazards: BTreeSet<(PrimId, usize)>,
    /// Asserted generated signals whose assertion check reported.
    pub violating_asserts: BTreeSet<SignalId>,
    /// The design's static units, from the full pass this cache chains
    /// back to.
    pub units: Arc<StaticUnits>,
}

/// Parent context for a memoized checker pass.
pub(crate) struct CheckMemo<'a> {
    /// The parent state's empty-verdict summary.
    pub cache: &'a CheckCache,
    /// The parent state's hazard set — a hazard unit may only be
    /// inherited if the parent actually checked it.
    pub hazards: &'a BTreeSet<(PrimId, usize)>,
    /// Signal indices whose state differs from the parent (effective
    /// view), ascending. A unit touching none of these has the same
    /// inputs as the parent's pass.
    pub dirty: &'a [usize],
}

/// Outcome of one (possibly memoized) checker pass.
pub(crate) struct CheckPass {
    pub violations: Vec<Violation>,
    pub cache: CheckCache,
    /// Units actually evaluated against `states`.
    pub evaluated: u64,
    /// Units inherited as clean-and-empty from the parent.
    pub inherited: u64,
}

/// True if every direct input signal of `prim` is outside `dirty`
/// (ascending signal indices).
fn inputs_clean(prim: PrimRef<'_>, dirty: &[usize]) -> bool {
    prim.input_signals()
        .iter()
        .all(|s| dirty.binary_search(&s.index()).is_err())
}

/// Runs one checker primitive (the three `PrimKind` checker variants)
/// against `states`, appending any violations. Reads only the prim's
/// direct input states — except through `attach_provenance`, which walks
/// the fan-in cone but only when a violation actually fired.
fn check_checker_prim<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    prim: PrimRef<'_>,
    corner: DelayCorner,
    out: &mut Vec<Violation>,
) {
    let period = netlist.config().timing.period;
    match prim.kind() {
        PrimKind::SetupHold { setup, hold } => {
            let input = pin_wave(netlist, prim, prim.input(0), states, corner);
            let clock = pin_wave(netlist, prim, prim.input(1), states, corner);
            let in_name = netlist.signal(prim.input(0).signal()).name();
            let ck_name = netlist.signal(prim.input(1).signal()).name();
            let len_before = out.len();
            if !check_clock_defined(prim.name(), ck_name, &clock, out) {
                attach_provenance(
                    netlist,
                    states,
                    prim.input(1).signal(),
                    &mut out[len_before..],
                );
                return;
            }
            let edges = edge_windows(&clock, Edge::Rising);
            check_setup_hold_edges(
                prim.name(),
                setup,
                hold,
                &input,
                in_name,
                &clock,
                ck_name,
                &edges,
                out,
            );
            attach_provenance(
                netlist,
                states,
                prim.input(0).signal(),
                &mut out[len_before..],
            );
        }
        PrimKind::SetupRiseHoldFall { setup, hold } => {
            let input = pin_wave(netlist, prim, prim.input(0), states, corner);
            let clock = pin_wave(netlist, prim, prim.input(1), states, corner);
            let in_name = netlist.signal(prim.input(0).signal()).name();
            let ck_name = netlist.signal(prim.input(1).signal()).name();
            let len_before = out.len();
            if !check_clock_defined(prim.name(), ck_name, &clock, out) {
                attach_provenance(
                    netlist,
                    states,
                    prim.input(1).signal(),
                    &mut out[len_before..],
                );
                return;
            }
            let violation = |kind, missed_by, at| Violation {
                kind,
                source: prim.name().to_owned(),
                constraint: format!("SETUP (RISE) = {setup}, HOLD (FALL) = {hold}"),
                missed_by,
                at: Some(at),
                observed: vec![
                    observed_line("CK INPUT  ", ck_name, &clock),
                    observed_line("DATA INPUT", in_name, &input),
                ],
                provenance: None,
            };
            for (r, f) in clock_pulses(&clock) {
                // Stability over the definitely-high interior of the
                // pulse (rise window end to fall window start); the
                // edge windows themselves are covered by the set-up
                // and hold checks, so each cause reports once.
                let interior = (f.span.start() - r.span.end(period)).rem_period(period);
                let high = Span::new(r.span.end(period), interior, period);
                if interior > Time::ZERO
                    && !high.is_full(period)
                    && !input.quiescent_throughout(high)
                {
                    out.push(violation(ViolationKind::StableWhileTrue, None, high));
                }
                if setup > Time::ZERO {
                    let avail = quiescent_before(&input, r.span.start());
                    if avail < setup {
                        out.push(violation(ViolationKind::Setup, Some(setup - avail), r.span));
                    }
                }
                if hold > Time::ZERO {
                    let avail = quiescent_after(&input, f.span.end(period));
                    if avail < hold {
                        out.push(violation(ViolationKind::Hold, Some(hold - avail), f.span));
                    }
                }
            }
            attach_provenance(
                netlist,
                states,
                prim.input(0).signal(),
                &mut out[len_before..],
            );
        }
        PrimKind::MinPulseWidth { high, low } => {
            // Pulse widths are measured with skew kept separate: skew
            // shifts both edges of a pulse together (§2.8).
            let input = pin_wave_pulse_view(netlist, prim, prim.input(0), states, corner);
            let name = netlist.signal(prim.input(0).signal()).name();
            let len_before = out.len();
            let observed = || vec![observed_line("INPUT     ", name, &input)];
            if high > Time::ZERO {
                for p in pulses(&input, true) {
                    if p.min_possible_width < high {
                        let glitch = if p.certain {
                            ""
                        } else {
                            " (POTENTIAL SPURIOUS PULSE)"
                        };
                        out.push(Violation {
                            kind: ViolationKind::MinPulseHigh,
                            source: prim.name().to_owned(),
                            constraint: format!(
                                "MIN HIGH WIDTH = {high}, POSSIBLE WIDTH = {}{glitch}",
                                p.min_possible_width
                            ),
                            missed_by: Some(high - p.min_possible_width),
                            at: Some(p.possible),
                            observed: observed(),
                            provenance: None,
                        });
                    }
                }
            }
            if low > Time::ZERO {
                for p in pulses(&input, false) {
                    if p.min_possible_width < low {
                        let glitch = if p.certain {
                            ""
                        } else {
                            " (POTENTIAL SPURIOUS PULSE)"
                        };
                        out.push(Violation {
                            kind: ViolationKind::MinPulseLow,
                            source: prim.name().to_owned(),
                            constraint: format!(
                                "MIN LOW WIDTH = {low}, POSSIBLE WIDTH = {}{glitch}",
                                p.min_possible_width
                            ),
                            missed_by: Some(low - p.min_possible_width),
                            at: Some(p.possible),
                            observed: observed(),
                            provenance: None,
                        });
                    }
                }
            }
            attach_provenance(
                netlist,
                states,
                prim.input(0).signal(),
                &mut out[len_before..],
            );
        }
        _ => {}
    }
}

/// Runs one `&A`/`&H` directive check (§2.6) for `(pid, clock_idx)`: the
/// other inputs of the gate must be quiescent whenever the asserted
/// (clock) input could be true.
fn check_hazard_gate<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    pid: PrimId,
    clock_idx: usize,
    corner: DelayCorner,
    out: &mut Vec<Violation>,
) {
    let prim = netlist.prim(pid);
    let clock = pin_wave(netlist, prim, prim.input(clock_idx), states, corner);
    let asserted = clock.spans_where(Value::could_be_high);
    let ck_name = netlist.signal(prim.input(clock_idx).signal()).name();
    for (i, conn) in prim.inputs().enumerate() {
        if i == clock_idx {
            continue;
        }
        let other = pin_wave(netlist, prim, conn, states, corner);
        let name = netlist.signal(conn.signal()).name();
        for span in &asserted {
            if !other.quiescent_throughout(*span) {
                out.push(Violation {
                    kind: ViolationKind::Hazard,
                    source: prim.name().to_owned(),
                    constraint: format!("CONTROL MUST BE STABLE WHILE {ck_name} ASSERTED"),
                    missed_by: None,
                    at: Some(*span),
                    observed: vec![
                        observed_line("CLOCK     ", ck_name, &clock),
                        observed_line("CONTROL   ", name, &other),
                    ],
                    provenance: Some(provenance_for(netlist, states, conn.signal())),
                });
                break; // one report per (gate, control input)
            }
        }
    }
}

/// True if signal `sid` carries the §2.5.2 assertion-check unit: a non-clock
/// assertion on a generated (driven) signal.
fn has_assertion_unit(netlist: &Netlist, sid: SignalId, assertion: Option<&Assertion>) -> bool {
    assertion.is_some_and(|a| !a.kind.is_clock() && netlist.driver(sid).is_some())
}

/// Checks one stable assertion on a generated signal (§2.5.2): the
/// designer's assertion against the actual settled timing. Reads only
/// `sid`'s own state (plus provenance, computed only on failure).
fn check_signal_assertion<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    sid: SignalId,
    sig: SignalRef<'_>,
    out: &mut Vec<Violation>,
) {
    let timing = netlist.config().timing;
    let assertion = sig.assertion().expect("assertion unit");
    let (asserted_wave, _) = assertion.to_state(&timing);
    let actual = states.state_at(sid.index()).get().resolved();
    for span in asserted_wave.spans_where(|v| v == Value::Stable) {
        if !actual.quiescent_throughout(span) {
            out.push(Violation {
                kind: ViolationKind::AssertionViolated,
                source: sig.full_name(),
                constraint: format!("ASSERTED STABLE {span}"),
                missed_by: None,
                at: Some(span),
                observed: vec![observed_line("ACTUAL    ", sig.name(), &actual)],
                provenance: Some(provenance_for(netlist, states, sid)),
            });
        }
    }
}

/// Verifies all checker primitives, `&A`/`&H` gate directives and stable
/// assertions against the settled signal states, optionally inheriting
/// empty verdicts from a parent pass. `hazards` lists `(gate, asserted
/// input index)` pairs collected during evaluation.
///
/// With `parent: Some(memo)`, a unit is *skipped* — its (empty) verdict
/// inherited — exactly when the parent evaluated the same unit, found
/// nothing, and none of the unit's direct input signals are dirty. Units
/// that fired at the parent are always re-evaluated so the violations
/// (and their cone-walking provenance) come out byte-identical to a full
/// pass; units with a dirty input are re-evaluated because their verdict
/// may have changed. Violations are appended in netlist order, the same
/// order as a full pass, so the memoized result *is* the full result.
///
/// Only the full pass walks the design. A delta pass finds its units
/// from the dirty signals and the parent's firing sets, so it costs the
/// dirty cone, and counts the rest as inherited against the design's
/// [`StaticUnits`].
pub(crate) fn run_checks_cached<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
    parent: Option<&CheckMemo<'_>>,
) -> CheckPass {
    let Some(memo) = parent else {
        let pass = run_full_pass(netlist, states, hazards, corner);
        #[cfg(test)]
        key_oracle::cross_check_full(netlist, states, hazards, corner, &pass);
        return pass;
    };
    let pass = run_delta_pass(netlist, states, hazards, corner, memo);
    #[cfg(test)]
    delta_oracle::cross_check(netlist, states, hazards, corner, memo, &pass);
    pass
}

/// The full pass: every unit of the design, evaluated. Records the
/// design's [`StaticUnits`] for the delta passes that chain off it.
fn run_full_pass<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
) -> CheckPass {
    let mut out = Vec::new();
    let mut violating_prims = BTreeSet::new();
    let mut violating_hazards = BTreeSet::new();
    let mut violating_asserts = BTreeSet::new();
    let mut checker_prims = 0u64;
    let mut assert_signals = Vec::new();

    let mut checkers = CheckerRun::new(netlist, states, corner);
    for (pid, prim) in netlist.iter_prims() {
        if !prim.kind().is_checker() {
            continue;
        }
        checker_prims += 1;
        if checkers.check(prim, &mut out) {
            violating_prims.insert(pid);
        }
    }
    for &(pid, clock_idx) in hazards {
        let before = out.len();
        check_hazard_gate(netlist, states, pid, clock_idx, corner, &mut out);
        if out.len() > before {
            violating_hazards.insert((pid, clock_idx));
        }
    }
    for (sid, assertion) in netlist.asserted_signals() {
        if !has_assertion_unit(netlist, sid, Some(assertion)) {
            continue;
        }
        assert_signals.push(sid);
        let before = out.len();
        check_signal_assertion(netlist, states, sid, netlist.signal(sid), &mut out);
        if out.len() > before {
            violating_asserts.insert(sid);
        }
    }

    let evaluated = checker_prims + hazards.len() as u64 + assert_signals.len() as u64;
    CheckPass {
        violations: out,
        cache: CheckCache {
            violating_prims,
            violating_hazards,
            violating_asserts,
            units: Arc::new(StaticUnits {
                checker_prims,
                assert_signals,
            }),
        },
        evaluated,
        inherited: 0,
    }
}

/// The delta pass: evaluates the checker primitives on a dirty signal's
/// CALL LIST row, the assertion units on dirty signals, the hazard units
/// with a dirty input or new to this state, and every unit that fired at
/// the parent; inherits the rest. Each unit list is sorted and
/// deduplicated (one checker may read two dirty signals) and evaluated
/// in id order, so violations come out in the full pass's order.
fn run_delta_pass<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
    memo: &CheckMemo<'_>,
) -> CheckPass {
    let units = &memo.cache.units;
    let mut out = Vec::new();
    let mut cache = CheckCache {
        violating_prims: BTreeSet::new(),
        violating_hazards: BTreeSet::new(),
        violating_asserts: BTreeSet::new(),
        units: Arc::clone(units),
    };
    let mut evaluated = 0u64;
    let mut inherited = 0u64;

    let fanout = netlist.fanout_csr();
    let mut prims: Vec<PrimId> = memo.cache.violating_prims.iter().copied().collect();
    for &idx in memo.dirty {
        prims.extend(
            fanout
                .row(idx)
                .iter()
                .copied()
                .filter(|&pid| netlist.prim(pid).kind().is_checker()),
        );
    }
    prims.sort_unstable();
    prims.dedup();
    let mut checkers = CheckerRun::new(netlist, states, corner);
    for &pid in &prims {
        if checkers.check(netlist.prim(pid), &mut out) {
            cache.violating_prims.insert(pid);
        }
    }
    evaluated += prims.len() as u64;
    inherited += units.checker_prims - prims.len() as u64;

    for &(pid, clock_idx) in hazards {
        // A hazard unit may only be inherited if the parent's hazard set
        // contained the same (gate, input) pair — a unit new to this
        // state was never checked before.
        let clean = memo.hazards.contains(&(pid, clock_idx))
            && !memo.cache.violating_hazards.contains(&(pid, clock_idx))
            && inputs_clean(netlist.prim(pid), memo.dirty);
        if clean {
            inherited += 1;
            continue;
        }
        evaluated += 1;
        let before = out.len();
        check_hazard_gate(netlist, states, pid, clock_idx, corner, &mut out);
        if out.len() > before {
            cache.violating_hazards.insert((pid, clock_idx));
        }
    }

    let mut asserts: Vec<SignalId> = memo.cache.violating_asserts.iter().copied().collect();
    asserts.extend(memo.dirty.iter().filter_map(|&idx| {
        units
            .assert_signals
            .binary_search_by_key(&idx, |s| s.index())
            .ok()
            .map(|at| units.assert_signals[at])
    }));
    asserts.sort_unstable();
    asserts.dedup();
    for &sid in &asserts {
        let before = out.len();
        check_signal_assertion(netlist, states, sid, netlist.signal(sid), &mut out);
        if out.len() > before {
            cache.violating_asserts.insert(sid);
        }
    }
    evaluated += asserts.len() as u64;
    inherited += units.assert_signals.len() as u64 - asserts.len() as u64;

    CheckPass {
        violations: out,
        cache,
        evaluated,
        inherited,
    }
}

/// Verifies all checker primitives, `&A`/`&H` gate directives and stable
/// assertions against the settled signal states — the full, unmemoized
/// checker pass. `hazards` lists `(gate, asserted input index)` pairs
/// collected during evaluation.
pub(crate) fn run_all_checks<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
) -> Vec<Violation> {
    run_checks_cached(netlist, states, hazards, corner, None).violations
}

#[cfg(test)]
mod delta_oracle;

#[cfg(test)]
mod key_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value::*;

    const P: Time = Time::from_ps(50_000);

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn quiescent_before_measures_stable_run() {
        let w = Waveform::from_intervals(P, Stable, [(ns(5.0), ns(10.0), Change)]);
        assert_eq!(quiescent_before(&w, ns(20.0)), ns(10.0));
        assert_eq!(quiescent_before(&w, ns(10.0)), Time::ZERO);
        assert_eq!(quiescent_before(&w, ns(7.0)), Time::ZERO);
        // Wrapping: stable 10..50 and 0..5 => at t=3 the run is 43 ns.
        assert_eq!(quiescent_before(&w, ns(3.0)), ns(43.0));
    }

    #[test]
    fn quiescent_before_full_period() {
        let w = Waveform::constant(P, Stable);
        assert_eq!(quiescent_before(&w, ns(20.0)), P);
    }

    #[test]
    fn quiescent_after_measures_stable_run() {
        let w = Waveform::from_intervals(P, Stable, [(ns(5.0), ns(10.0), Change)]);
        assert_eq!(quiescent_after(&w, ns(10.0)), ns(45.0)); // 10..50 + 0..5
        assert_eq!(quiescent_after(&w, ns(48.0)), ns(7.0));
        assert_eq!(quiescent_after(&w, ns(6.0)), Time::ZERO);
    }

    #[test]
    fn setup_hold_edges_report_margins() {
        // Paper example shape: data stable at 11.5, clock edge window
        // starting at 11.5 => setup of 3.5 missed by the full 3.5 ns.
        let data = Waveform::from_intervals(P, Stable, [(ns(0.5), ns(11.5), Change)]);
        let clock = Waveform::from_intervals(P, Zero, [(ns(11.5), ns(13.5), Rise)])
            .overwrite(Span::new(ns(13.5), ns(16.5), P), One);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(3.5),
            ns(1.0),
            &data,
            "ADR",
            &clock,
            "WE",
            &edges,
            &mut v,
        );
        assert_eq!(v.len(), 1, "violations: {v:#?}");
        assert_eq!(v[0].kind, ViolationKind::Setup);
        assert_eq!(v[0].missed_by, Some(ns(3.5)));
    }

    #[test]
    fn setup_satisfied_with_enough_margin() {
        let data = Waveform::from_intervals(P, Stable, [(ns(0.5), ns(5.5), Change)]);
        let clock = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), One)]);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(3.5),
            ns(1.0),
            &data,
            "D",
            &clock,
            "CK",
            &edges,
            &mut v,
        );
        assert!(v.is_empty(), "unexpected: {v:#?}");
    }

    #[test]
    fn hold_violation_detected() {
        // Data starts changing 0.5 ns after the clock edge; hold is 1.5.
        let clock = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), One)]);
        let data = Waveform::from_intervals(P, Stable, [(ns(20.5), ns(30.0), Change)]);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(2.0),
            ns(1.5),
            &data,
            "D",
            &clock,
            "CK",
            &edges,
            &mut v,
        );
        let holds: Vec<_> = v.iter().filter(|x| x.kind == ViolationKind::Hold).collect();
        assert_eq!(holds.len(), 1);
        assert_eq!(holds[0].missed_by, Some(ns(1.0)));
    }

    #[test]
    fn negative_hold_never_violates_after_edge() {
        // The thesis' register file specifies a hold of -1.0 ns.
        let clock = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), One)]);
        let data = Waveform::from_intervals(P, Stable, [(ns(21.0), ns(30.0), Change)]);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(2.0),
            ns(-1.0),
            &data,
            "D",
            &clock,
            "CK",
            &edges,
            &mut v,
        );
        assert!(v.is_empty(), "negative hold must not fire: {v:#?}");
    }

    #[test]
    fn clock_pulse_pairing() {
        let clock = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(20.0), One)]);
        let pairs = clock_pulses(&clock);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.span.start(), ns(10.0));
        assert_eq!(pairs[0].1.span.start(), ns(20.0));
    }
}
