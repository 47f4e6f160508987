//! Primitive evaluation: computing a primitive's output state from its
//! input states (§2.9).
//!
//! Each evaluator implements the worst-case semantics of §2.4 on whole
//! waveforms. Delay handling follows §2.8: a lone varying input keeps its
//! skew separate through the gate (preserving pulse widths); when two or
//! more varying signals are combined, each is first *resolved* — its skew
//! folded into `R`/`F`/`C` windows — and the result carries no skew.
//!
//! Evaluation directives (§2.6) are honoured here: the effective directive
//! for an input is the first letter of the directive string attached to its
//! connection, or of the string riding on the incoming signal value; the
//! string's tail is passed along with the output value.

use std::collections::HashSet;
use std::sync::{OnceLock, RwLock};

use scald_logic::{mux as mux_value, Value};
use scald_netlist::{ConnRef, Netlist, PrimKind, PrimRef};
use scald_wave::{
    edge_windows, DelayCorner, DelayRange, Edge, Skew, Span, Time, WaveRef, Waveform,
};

use crate::state::{Directive, EvalStr, SignalState, StateId};
use crate::view::StateView;

/// The result of evaluating one primitive: two words, copied out of the
/// evaluation cache on a hit without touching anything shared.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalOutcome {
    /// New output state (`None` for checkers, which drive nothing).
    pub output: Option<StateId>,
    /// Indices of inputs whose directive requests the asserted-stability
    /// check (`A`/`H`, §2.6), `None` when there are none; collected by
    /// the engine and verified after the fixed point. Interned (see
    /// [`interned_pins`]).
    pub hazard_inputs: Option<&'static [u32]>,
}

impl EvalOutcome {
    /// The outcome of a primitive driving `output`.
    fn driving(output: SignalState, hazard_inputs: Option<&'static [u32]>) -> EvalOutcome {
        EvalOutcome {
            output: Some(StateId::of(output)),
            hazard_inputs,
        }
    }
}

/// The one process-wide copy of a hazard pin list. Distinct lists are
/// few (one per shape of asserting gate), so like states they are kept
/// for the life of the process, which is what lets an outcome be `Copy`.
fn interned_pins(pins: &[u32]) -> &'static [u32] {
    static PINS: OnceLock<RwLock<HashSet<&'static [u32]>>> = OnceLock::new();
    let table = PINS.get_or_init(RwLock::default);
    if let Some(&known) = table.read().expect("pin table poisoned").get(pins) {
        return known;
    }
    let mut table = table.write().expect("pin table poisoned");
    if let Some(&known) = table.get(pins) {
        return known;
    }
    let leaked: &'static [u32] = Box::leak(pins.into());
    table.insert(leaked);
    leaked
}

/// An input as seen at the gate pin: inversion applied, wire (and possibly
/// gate) delay folded per its directive, and the directive bookkeeping.
struct Pin {
    state: SignalState,
    directive: Option<Directive>,
    /// The directive string's tail, to be passed downstream — `Some` only
    /// if this input carried a string at all.
    had_string: bool,
    tail: Option<EvalStr>,
}

fn prep_input<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    conn: ConnRef<'_>,
    states: &S,
    include_gate_delay: bool,
    corner: DelayCorner,
) -> Pin {
    let src = states.state_at(conn.signal().index()).get();
    let eval = conn
        .directive()
        .map(EvalStr::new)
        .or_else(|| src.eval.clone());
    let directive = eval.as_ref().and_then(EvalStr::head);
    let tail = eval.as_ref().and_then(EvalStr::tail);
    let had_string = eval.is_some();

    let wire = if directive.is_some_and(Directive::zeroes_wire) {
        DelayRange::ZERO
    } else {
        corner.collapse(netlist.wire_delay(conn))
    };
    let gate = if include_gate_delay && !directive.is_some_and(Directive::zeroes_gate) {
        corner.collapse(prim.delay())
    } else {
        DelayRange::ZERO
    };
    let mut st = src.clone();
    if conn.invert() {
        st.wave = st.wave.map(Value::not).into();
    }
    let mut st = st.delayed(wire.then(gate));
    st.eval = None; // output eval computed separately
    Pin {
        state: st,
        directive,
        had_string,
        tail,
    }
}

/// Positions of the pins whose directive requests the asserted-stability
/// check, `None` when no pin does.
fn asserted_pins(pins: &[Pin]) -> Option<&'static [u32]> {
    let asserted = |p: &Pin| p.directive.is_some_and(Directive::checks_assertion);
    pins.iter().any(asserted).then(|| {
        let list: Vec<u32> = (0u32..)
            .zip(pins)
            .filter(|&(_, p)| asserted(p))
            .map(|(i, _)| i)
            .collect();
        interned_pins(&list)
    })
}

/// Output eval string: the tail of the (single) input string, per §2.8.
/// If several inputs carry strings the first one wins (the thesis assumes
/// one directive path per gate).
fn output_eval(pins: &[Pin]) -> Option<EvalStr> {
    pins.iter()
        .find(|p| p.had_string)
        .and_then(|p| p.tail.clone())
}

/// Combines pin states with an n-ary fold, preserving separated skew when
/// at most one input actually varies (§2.8).
fn combine_pins(states: &[&SignalState], fold: impl Fn(&[Value]) -> Value) -> SignalState {
    let varying: Vec<&SignalState> = states
        .iter()
        .copied()
        .filter(|s| !s.wave.is_constant())
        .collect();
    if varying.len() <= 1 {
        let waves: Vec<&Waveform> = states.iter().map(|s| s.wave.as_wave()).collect();
        let wave = Waveform::combine_many(&waves, &fold);
        let skew = varying.first().map_or(Skew::ZERO, |s| s.skew);
        SignalState {
            wave: wave.into(),
            skew,
            eval: None,
        }
    } else {
        let resolved: Vec<WaveRef> = states.iter().map(|s| s.resolved()).collect();
        let refs: Vec<&Waveform> = resolved.iter().map(WaveRef::as_wave).collect();
        let wave = Waveform::combine_many(&refs, &fold);
        SignalState {
            wave: wave.into(),
            skew: Skew::ZERO,
            eval: None,
        }
    }
}

/// Evaluates `prim` against the current signal states, returning the new
/// output state and any asserted-check requests. `corner` selects how
/// every [`DelayRange`] the evaluation reads is collapsed
/// ([`DelayCorner::Worst`] keeps the full range — the default analysis).
pub(crate) fn evaluate<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> EvalOutcome {
    let period = netlist.config().timing.period;
    match prim.kind() {
        PrimKind::And
        | PrimKind::Or
        | PrimKind::Nand
        | PrimKind::Nor
        | PrimKind::Xor
        | PrimKind::Xnor
        | PrimKind::Chg => eval_gate(netlist, prim, states, corner),
        PrimKind::Not | PrimKind::Buf | PrimKind::Delay => {
            eval_unary(netlist, prim, states, corner)
        }
        PrimKind::Mux { .. } => eval_mux(netlist, prim, states, corner),
        PrimKind::Reg { set_reset } => eval_reg(netlist, prim, states, set_reset, corner),
        PrimKind::Latch { set_reset } => eval_latch(netlist, prim, states, set_reset, corner),
        PrimKind::Const(v) => {
            EvalOutcome::driving(SignalState::new(Waveform::constant(period, v)), None)
        }
        // Checkers compute nothing during the fixed point; they are
        // examined afterwards (§2.9). Their hazard semantics are fixed, so
        // no directive scan is needed either.
        PrimKind::SetupHold { .. }
        | PrimKind::SetupRiseHoldFall { .. }
        | PrimKind::MinPulseWidth { .. } => EvalOutcome {
            output: None,
            hazard_inputs: None,
        },
    }
}

/// The identity element substituted for "the other inputs" of a gate when
/// an `A`/`H` directive assumes they are enabling it (§2.6).
fn enabling_identity(kind: PrimKind) -> Value {
    match kind {
        PrimKind::And | PrimKind::Nand => Value::One,
        PrimKind::Or | PrimKind::Nor | PrimKind::Xor | PrimKind::Xnor => Value::Zero,
        // For CHG the quiescent value is the identity.
        _ => Value::Stable,
    }
}

fn gate_fold(kind: PrimKind, vals: &[Value]) -> Value {
    let base = match kind {
        PrimKind::And | PrimKind::Nand => scald_logic::and_all(vals.iter().copied()),
        PrimKind::Or | PrimKind::Nor => scald_logic::or_all(vals.iter().copied()),
        PrimKind::Xor | PrimKind::Xnor => scald_logic::xor_all(vals.iter().copied()),
        PrimKind::Chg => scald_logic::chg(vals.iter().copied()),
        _ => unreachable!("gate_fold on non-gate"),
    };
    match kind {
        PrimKind::Nand | PrimKind::Nor | PrimKind::Xnor => base.not(),
        _ => base,
    }
}

fn eval_gate<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> EvalOutcome {
    let pins: Vec<Pin> = prim
        .inputs()
        .map(|c| prep_input(netlist, prim, c, states, true, corner))
        .collect();
    let hazard_inputs = asserted_pins(&pins);

    let period = netlist.config().timing.period;
    // Assume-enabling (§2.6): with an A/H input present, the other inputs
    // are replaced by the gate's identity so the output value is
    // determined only by the asserted (clock) input.
    let ident = SignalState::new(Waveform::constant(period, enabling_identity(prim.kind())));
    let participating: Vec<&SignalState> = if hazard_inputs.is_none() {
        pins.iter().map(|p| &p.state).collect()
    } else {
        pins.iter()
            .map(|p| {
                if p.directive.is_some_and(Directive::checks_assertion) {
                    &p.state
                } else {
                    &ident
                }
            })
            .collect()
    };

    let mut out = combine_pins(&participating, |vals| gate_fold(prim.kind(), vals));
    out.eval = output_eval(&pins);
    EvalOutcome::driving(out, hazard_inputs)
}

fn eval_unary<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> EvalOutcome {
    // §4.2.2 extension: with asymmetric rise/fall delays the gate delay is
    // applied per output edge instead of uniformly.
    if let Some(ed) = prim.edge_delays() {
        let ed = scald_netlist::EdgeDelays {
            rise: corner.collapse(ed.rise),
            fall: corner.collapse(ed.fall),
        };
        let pin = prep_input(netlist, prim, prim.input(0), states, false, corner);
        let apply_gate = !pin.directive.is_some_and(Directive::zeroes_gate);
        let resolved = pin.state.resolved();
        let wave: WaveRef = match (prim.kind() == PrimKind::Not, apply_gate) {
            (true, true) => delayed_per_edge(&resolved.map(Value::not), ed).into(),
            (true, false) => resolved.map(Value::not).into(),
            (false, true) => delayed_per_edge(&resolved, ed).into(),
            (false, false) => resolved,
        };
        let out = SignalState {
            wave,
            skew: scald_wave::Skew::ZERO,
            eval: pin.tail.clone(),
        };
        return EvalOutcome::driving(out, asserted_pins(std::slice::from_ref(&pin)));
    }
    let pin = prep_input(netlist, prim, prim.input(0), states, true, corner);
    let hazard_inputs = asserted_pins(std::slice::from_ref(&pin));
    let mut st = pin.state;
    if prim.kind() == PrimKind::Not {
        st.wave = st.wave.map(Value::not).into();
    }
    st.eval = pin.tail;
    EvalOutcome::driving(st, hazard_inputs)
}

/// Applies per-edge propagation delays to an (output-polarity) waveform:
/// rising transitions are delayed by `ed.rise`, falling by `ed.fall`, and
/// polarity-unknown transitions by the conservative envelope (§4.2.2).
///
/// Each transition becomes an uncertainty window `[t + d.min, t + d.max)`
/// holding its edge value; the value between windows is that of the most
/// recently completed transition, with overlapping windows joined. Narrow
/// pulses whose opposite-edge delays reorder collapse conservatively into
/// `C` regions.
fn delayed_per_edge(wave: &Waveform, ed: scald_netlist::EdgeDelays) -> Waveform {
    if wave.is_constant() {
        return wave.clone();
    }
    let period = wave.period();
    let n = wave.transitions().len();
    // Choose each transition's delay range by output-edge polarity.
    let delays: Vec<DelayRange> = (0..n)
        .map(|i| {
            let (_, v_new) = wave.transitions()[i];
            let v_old = wave.transitions()[(i + n - 1) % n].1;
            match v_old.edge_to(v_new) {
                Value::Rise => ed.rise,
                Value::Fall => ed.fall,
                _ => ed.envelope(),
            }
        })
        .collect();
    // Soundness guard: the per-edge shift is only exact while output
    // events keep the input order. A pulse narrower than the opposite
    // edges' delay difference reorders (is swallowed or glitches); fall
    // back to the uniform envelope then — still the "correct choice" the
    // thesis prescribes for the value-unknown case.
    for i in 0..n {
        let prev = (i + n - 1) % n;
        let gap = (wave.transitions()[i].0 - wave.transitions()[prev].0).rem_period(period);
        if gap + delays[i].min < delays[prev].max {
            let env = ed.envelope();
            return wave
                .delayed(env.min)
                .with_skew_applied(scald_wave::Skew::new(Time::ZERO, env.spread()));
        }
    }
    // Per transition: (window span, edge value, settled value, window end).
    let mut events = Vec::with_capacity(n);
    for (i, &(t, v_new)) in wave.transitions().iter().enumerate() {
        let v_old = wave.transitions()[(i + n - 1) % n].1;
        let d = delays[i];
        let start = (t + d.min).rem_period(period);
        let width = d.spread();
        events.push((
            Span::new(start, width, period),
            v_old.edge_to(v_new),
            v_new,
            (t + d.max).rem_period(period),
        ));
    }
    let mut bounds: Vec<Time> = events
        .iter()
        .flat_map(|(span, _, _, end)| [span.start(), *end])
        .collect();
    bounds.sort();
    bounds.dedup();
    let trans = bounds
        .into_iter()
        .map(|b| {
            // Base: the settled value of the most recently completed
            // transition (smallest circular distance back from b).
            let base = events
                .iter()
                .min_by_key(|(_, _, _, end)| (b - *end).rem_period(period))
                .map(|(_, _, v, _)| *v)
                .expect("non-constant wave has transitions");
            let mut v = base;
            for (span, edge, _, _) in &events {
                if span.contains(b, period) && !span.is_empty() {
                    v = v.join(*edge);
                }
            }
            (b, v)
        })
        .collect();
    Waveform::from_transitions(period, trans)
}

fn eval_mux<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> EvalOutcome {
    let pins: Vec<Pin> = prim
        .inputs()
        .map(|c| prep_input(netlist, prim, c, states, true, corner))
        .collect();
    let select = &pins[0].state;
    // A constant known select routes one data input straight through,
    // preserving its separated skew — this is what makes case analysis
    // (mapping a STABLE select to 0 or 1, §2.7) recover tight timing.
    let routed = match (select.wave.is_constant(), select.wave.value_at(Time::ZERO)) {
        (true, Value::Zero) => Some(1),
        (true, Value::One) => Some(2),
        _ => None,
    };
    let mut out = match routed {
        Some(idx) if idx < pins.len() => pins[idx].state.clone(),
        _ => {
            let parts: Vec<&SignalState> = pins.iter().map(|p| &p.state).collect();
            combine_pins(&parts, |vals| mux_value(vals[0], &vals[1..]))
        }
    };
    out.eval = output_eval(&pins);
    EvalOutcome::driving(out, asserted_pins(&pins))
}

/// Joins the values a waveform takes over a (possibly zero-width) window.
fn sample_window(wave: &Waveform, w: Span) -> Value {
    if w.is_empty() {
        return wave.value_at(w.start());
    }
    let period = wave.period();
    let mut acc: Option<Value> = None;
    for (a, b) in w.linear_pieces(period) {
        for (t, v, width) in wave.segments() {
            if t < b && a < t + width {
                acc = Some(acc.map_or(v, |x| x.join(v)));
            }
        }
    }
    acc.unwrap_or_else(|| wave.value_at(w.start()))
}

/// What a storage element latches from the sampled data value: a known
/// constant passes through; anything else — including `U` — becomes `S`
/// for the rest of the cycle, exactly as §2.4.3 specifies ("unless the
/// DATA input is a true or false during the rising edge of CLOCK, the
/// output will be set to the STABLE value"). A register holds *some*
/// steady level once clocked, which is all that matters for timing; the
/// set-up checker reports sampling of changing data separately. Mapping
/// `U` to `S` here is also what lets register feedback loops (counters,
/// shift registers, §4.2.3) settle instead of sticking at `U`.
fn latched_value(sampled: Value) -> Value {
    match sampled {
        Value::Zero | Value::One => sampled,
        _ => Value::Stable,
    }
}

fn eval_reg<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    states: &S,
    set_reset: bool,
    corner: DelayCorner,
) -> EvalOutcome {
    let period = netlist.config().timing.period;
    let delay = corner.collapse(prim.delay());
    // Clock and data are observed at the pins (wire delay only); the
    // register's own delay is applied from the clock edge to the output.
    let ck_pin = prep_input(netlist, prim, prim.input(0), states, false, corner);
    let d_pin = prep_input(netlist, prim, prim.input(1), states, false, corner);
    let ck = ck_pin.state.resolved();
    let dd = d_pin.state.resolved();

    let edges = edge_windows(&ck, Edge::Rising);
    let clocked = if edges.is_empty() {
        let v = if ck.transitions().iter().any(|&(_, v)| v == Value::Unknown) {
            Value::Unknown
        } else {
            Value::Stable
        };
        Waveform::constant(period, v)
    } else {
        let spread = delay.spread();
        // Output value regions: from the end of each change span until the
        // start of the next, the output holds what that edge latched.
        let change_spans: Vec<Span> = edges
            .iter()
            .map(|e| Span::new(e.span.start() + delay.min, e.span.width() + spread, period))
            .collect();
        let sampled: Vec<Value> = edges
            .iter()
            .map(|e| latched_value(sample_window(&dd, e.span)))
            .collect();
        let mut wave = Waveform::from_transitions(
            period,
            change_spans
                .iter()
                .zip(&sampled)
                .map(|(c, &v)| (c.end(period), v))
                .collect(),
        );
        for c in &change_spans {
            if !c.is_empty() {
                wave = wave.overwrite(*c, Value::Change);
            }
        }
        wave
    };

    let wave = if set_reset {
        let s = prep_input(netlist, prim, prim.input(2), states, true, corner)
            .state
            .resolved();
        let r = prep_input(netlist, prim, prim.input(3), states, true, corner)
            .state
            .resolved();
        overlay_set_reset(&clocked, &s, &r)
    } else {
        clocked
    };

    EvalOutcome::driving(SignalState::new(wave), None)
}

/// Asynchronous SET/RESET overlay shared by registers and latches
/// (§2.4.3).
fn overlay_set_reset(base: &Waveform, set: &Waveform, reset: &Waveform) -> Waveform {
    Waveform::combine_many(&[set, reset, base], |vals| {
        let (s, r, b) = (vals[0], vals[1], vals[2]);
        use Value::*;
        match (s, r) {
            (Unknown, _) | (_, Unknown) => Unknown,
            _ if s.is_transitioning() || r.is_transitioning() => Change,
            (One, Zero) => One,
            (Zero, One) => Zero,
            (One, One) => Unknown,
            (Zero, Zero) => b,
            // At least one side is S (steady, level unknown): the output
            // is forced-or-clocked but not changing, unless the clocked
            // value itself is in flux.
            _ => match b {
                Unknown => Unknown,
                Change | Rise | Fall => Change,
                _ => Stable,
            },
        }
    })
}

/// The fully resolved waveform seen at a primitive's input pin: inversion
/// applied, wire delay (subject to `W`/`Z`/`H` zeroing) folded, skew
/// resolved. Set-up/hold checkers observe their inputs through this view.
pub(crate) fn pin_wave<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    conn: ConnRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> WaveRef {
    prep_input(netlist, prim, conn, states, false, corner)
        .state
        .resolved()
}

/// The *unresolved* pin waveform: wire delay applied as a shift, skew kept
/// separate. The minimum-pulse-width checker measures pulses on this view,
/// because skew displaces both edges of a pulse equally and must not
/// narrow it — the precise reason §2.8 separates skew from the value list
/// ("to avoid incorrect assertions ... that minimum pulse width
/// requirements have not been met").
pub(crate) fn pin_wave_pulse_view<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    conn: ConnRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> WaveRef {
    prep_input(netlist, prim, conn, states, false, corner)
        .state
        .wave
}

fn eval_latch<S: StateView + ?Sized>(
    netlist: &Netlist,
    prim: PrimRef<'_>,
    states: &S,
    set_reset: bool,
    corner: DelayCorner,
) -> EvalOutcome {
    let period = netlist.config().timing.period;
    // The latch's propagation delay applies from every input (§2.4.3), so
    // both enable and data are viewed after wire + latch delay.
    let en = prep_input(netlist, prim, prim.input(0), states, true, corner)
        .state
        .resolved();
    let dd = prep_input(netlist, prim, prim.input(1), states, true, corner)
        .state
        .resolved();

    // Held values: sampled at each falling (closing) edge of the enable.
    let falls = edge_windows(&en, Edge::Falling);
    let held: Vec<(Time, Value)> = falls
        .iter()
        .map(|f| {
            (
                f.span.end(period),
                latched_value(sample_window(&dd, f.span)),
            )
        })
        .collect();
    let held_at = |t: Time| -> Value {
        if held.is_empty() {
            return Value::Stable;
        }
        // Most recent closing at or before t, circularly.
        held.iter()
            .filter(|&&(ht, _)| ht <= t)
            .max_by_key(|&&(ht, _)| ht)
            .or_else(|| held.iter().max_by_key(|&&(ht, _)| ht))
            .map(|&(_, v)| v)
            .expect("held is non-empty")
    };

    let mut bounds: Vec<Time> = en
        .transitions()
        .iter()
        .chain(dd.transitions())
        .map(|&(t, _)| t)
        .chain(held.iter().map(|&(t, _)| t))
        .collect();
    bounds.sort();
    bounds.dedup();
    if bounds.is_empty() {
        bounds.push(Time::ZERO);
    }
    let trans: Vec<(Time, Value)> = bounds
        .into_iter()
        .map(|t| {
            let e = en.value_at(t);
            let v = dd.value_at(t);
            let h = held_at(t);
            let out = match e {
                Value::One => v,
                Value::Zero => h,
                Value::Unknown => Value::Unknown,
                Value::Stable => {
                    if v == h {
                        v
                    } else {
                        v.join(h)
                    }
                }
                // Closing (enable falling): the held value is sampled from
                // this very instant's data, so quiescent data passes
                // through without a transition — only changing data can
                // glitch the output while the latch closes.
                Value::Fall => match v {
                    Value::Unknown => Value::Unknown,
                    Value::Zero | Value::One => v,
                    Value::Stable => Value::Stable,
                    _ => Value::Change,
                },
                // Opening (or ambiguous): the previously held value and the
                // incoming data may differ, so only identical known
                // constants are guaranteed transition-free.
                Value::Rise | Value::Change => {
                    if v == h && v.is_constant() {
                        v
                    } else if v == Value::Unknown || h == Value::Unknown {
                        Value::Unknown
                    } else {
                        Value::Change
                    }
                }
            };
            (t, out)
        })
        .collect();
    let transparent = Waveform::from_transitions(period, trans);

    let wave = if set_reset {
        let s = prep_input(netlist, prim, prim.input(2), states, true, corner)
            .state
            .resolved();
        let r = prep_input(netlist, prim, prim.input(3), states, true, corner)
            .state
            .resolved();
        overlay_set_reset(&transparent, &s, &r)
    } else {
        transparent
    };

    EvalOutcome::driving(SignalState::new(wave), None)
}
