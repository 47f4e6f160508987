//! Min/max event-driven gate-level logic simulation (§1.4.1).
//!
//! This is the *baseline* the Timing Verifier is compared against: a
//! TEGAS-style simulator that needs concrete input values every cycle and
//! therefore must be run over many patterns to cover the distinct timing
//! paths of a design — the exponential cost the symbolic verifier avoids.
//!
//! The simulator is event-driven over absolute time. When a gate input
//! changes at `t` and the output's settled value changes, the output is
//! scheduled to an *ambiguity* value (`U`/`D`/`E`) at `t + min_delay` and
//! to its final value at `t + max_delay`; pulses shorter than the pending
//! window are filtered inertially. Registers sample their data on definite
//! rising clock edges; sampling an ambiguous value, or being clocked by an
//! ambiguous edge, is reported as a dynamic timing violation. Checker
//! primitives are monitored dynamically (set-up/hold distances measured
//! between observed events).
//!
//! Interconnect is modelled by the receiving connection's wire delay added
//! to the gate delay of the evaluation it triggers.

use scald_logic::Value;
use scald_netlist::{Netlist, PrimId, PrimKind, SignalId};
use scald_wave::Time;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::value::SimValue;

/// Per-cycle stimulus for the primary inputs.
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    /// Number of clock cycles to simulate.
    pub cycles: usize,
    /// For each driven primary input: its value on each cycle.
    pub inputs: HashMap<SignalId, Vec<bool>>,
}

impl Stimulus {
    /// Builds a stimulus from one bit per `(input, cycle)` taken from the
    /// low bits of `pattern` — the enumeration the exhaustive-coverage
    /// benchmark sweeps.
    #[must_use]
    pub fn from_pattern(inputs: &[SignalId], cycles: usize, pattern: u64) -> Stimulus {
        let mut map = HashMap::new();
        for (i, sid) in inputs.iter().enumerate() {
            let vals = (0..cycles)
                .map(|c| (pattern >> (i * cycles + c)) & 1 == 1)
                .collect();
            map.insert(*sid, vals);
        }
        Stimulus {
            cycles,
            inputs: map,
        }
    }
}

/// A dynamic timing violation observed during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimViolation {
    /// What went wrong.
    pub kind: SimViolationKind,
    /// The checker or storage primitive reporting it.
    pub source: String,
    /// Absolute simulation time.
    pub at: Time,
}

/// Classes of dynamic violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimViolationKind {
    /// Input changed within the set-up interval before a clock edge.
    Setup,
    /// Input changed within the hold interval after a clock edge.
    Hold,
    /// Input changed while the checker's clock was true.
    ChangedWhileTrue,
    /// High pulse narrower than specified.
    MinPulseHigh,
    /// Low pulse narrower than specified.
    MinPulseLow,
    /// A register sampled an ambiguous (`X`/`U`/`D`/`E`) data value.
    AmbiguousData,
    /// A register was clocked by an ambiguous edge (possible hazard).
    AmbiguousClock,
}

impl fmt::Display for SimViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SimViolationKind::Setup => "SETUP",
            SimViolationKind::Hold => "HOLD",
            SimViolationKind::ChangedWhileTrue => "CHANGED WHILE CLOCK TRUE",
            SimViolationKind::MinPulseHigh => "MIN HIGH PULSE",
            SimViolationKind::MinPulseLow => "MIN LOW PULSE",
            SimViolationKind::AmbiguousData => "REGISTER SAMPLED AMBIGUOUS DATA",
            SimViolationKind::AmbiguousClock => "REGISTER CLOCKED BY AMBIGUOUS EDGE",
        };
        f.write_str(s)
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Dynamic violations, in time order.
    pub violations: Vec<SimViolation>,
    /// Events processed (signal value changes).
    pub events: u64,
    /// Final value of every signal.
    pub final_values: Vec<SimValue>,
    /// Per-signal event trace: `(time, new value)` in time order, starting
    /// from the implicit `X` at time zero. Lets callers reconstruct the
    /// concrete waveform at any instant (see [`SimResult::value_at`]).
    pub traces: Vec<Vec<(Time, SimValue)>>,
}

impl SimResult {
    /// `true` if the run saw no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The concrete value a signal held at absolute instant `t`: the value
    /// of its latest trace event at or before `t` (`X` before the first).
    #[must_use]
    pub fn value_at(&self, signal: scald_netlist::SignalId, t: Time) -> SimValue {
        let trace = &self.traces[signal.index()];
        match trace.partition_point(|&(et, _)| et <= t) {
            0 => SimValue::X,
            i => trace[i - 1].1,
        }
    }
}

/// The primary inputs a stimulus must drive: undriven signals without a
/// clock assertion (clocks are generated from their assertions).
#[must_use]
pub fn primary_inputs(netlist: &Netlist) -> Vec<SignalId> {
    netlist
        .iter_signals()
        .filter(|(sid, sig)| {
            netlist.driver(*sid).is_none() && !sig.assertion().is_some_and(|a| a.kind.is_clock())
        })
        .map(|(sid, _)| sid)
        .collect()
}

struct CheckerState {
    /// Last observed change time per watched input signal index 0.
    last_input_change: Option<Time>,
    /// Last rising edge of the checker clock.
    last_rise: Option<Time>,
    /// Last falling edge of the checker clock.
    last_fall: Option<Time>,
    /// Current clock pin level.
    clock_high: bool,
}

/// Runs an event-driven min/max simulation of `netlist` under `stimulus`.
///
/// Undriven inputs missing from the stimulus hold `X` for the whole run.
///
/// # Panics
///
/// Panics if a stimulus vector is shorter than `stimulus.cycles`.
#[must_use]
pub fn simulate(netlist: &Netlist, stimulus: &Stimulus) -> SimResult {
    let period = netlist.config().timing.period;
    let timing = netlist.config().timing;
    let n_signals = netlist.signal_count();
    let mut values = vec![SimValue::X; n_signals];
    // The settled value each driver is currently heading towards.
    let mut target = vec![SimValue::X; n_signals];
    let mut queue: BTreeMap<(Time, u64), (SignalId, SimValue)> = BTreeMap::new();
    let mut seq = 0u64;
    let schedule = |queue: &mut BTreeMap<(Time, u64), (SignalId, SimValue)>,
                    seq: &mut u64,
                    t: Time,
                    sid: SignalId,
                    v: SimValue| {
        *seq += 1;
        queue.insert((t, *seq), (sid, v));
    };

    // Clock generation from assertions: nominal edges every cycle.
    for (sid, sig) in netlist.iter_signals() {
        if let Some(a) = sig.assertion() {
            if a.kind.is_clock() {
                let (wave, _) = a.to_state(&timing);
                for c in 0..stimulus.cycles {
                    let base = period * c as i64;
                    for &(t, v) in wave.transitions() {
                        let sv = match v {
                            Value::One => SimValue::One,
                            Value::Zero => SimValue::Zero,
                            _ => SimValue::X,
                        };
                        schedule(&mut queue, &mut seq, base + t, sid, sv);
                    }
                }
            }
        }
    }
    // Primary-input stimulus: new value at each cycle boundary.
    for (sid, vals) in &stimulus.inputs {
        assert!(
            vals.len() >= stimulus.cycles,
            "stimulus for {:?} shorter than cycle count",
            netlist.signal(*sid).name()
        );
        for (c, v) in vals.iter().take(stimulus.cycles).enumerate() {
            schedule(
                &mut queue,
                &mut seq,
                period * c as i64,
                *sid,
                SimValue::from_bool(*v),
            );
        }
    }
    // Constants.
    for (_, prim) in netlist.iter_prims() {
        if let PrimKind::Const(v) = prim.kind() {
            if let Some(out) = prim.output() {
                let sv = match v {
                    Value::One => SimValue::One,
                    Value::Zero => SimValue::Zero,
                    _ => SimValue::X,
                };
                schedule(&mut queue, &mut seq, Time::ZERO, out, sv);
            }
        }
    }

    // Checker bookkeeping.
    let mut checkers: HashMap<PrimId, CheckerState> = netlist
        .iter_prims()
        .filter(|(_, p)| p.kind().is_checker())
        .map(|(pid, _)| {
            (
                pid,
                CheckerState {
                    last_input_change: None,
                    last_rise: None,
                    last_fall: None,
                    clock_high: false,
                },
            )
        })
        .collect();

    let mut violations = Vec::new();
    let mut traces: Vec<Vec<(Time, SimValue)>> = vec![Vec::new(); n_signals];
    let mut events = 0u64;
    let end = period * stimulus.cycles as i64 + period;

    while let Some((&(t, s), &(sid, new_v))) = queue.iter().next() {
        queue.remove(&(t, s));
        if t > end {
            break;
        }
        let old = values[sid.index()];
        if old == new_v {
            continue;
        }
        values[sid.index()] = new_v;
        traces[sid.index()].push((t, new_v));
        events += 1;

        // Notify every primitive reading this signal.
        for &pid in netlist.fanout(sid) {
            let prim = netlist.prim(pid);
            match prim.kind() {
                PrimKind::And
                | PrimKind::Or
                | PrimKind::Nand
                | PrimKind::Nor
                | PrimKind::Xor
                | PrimKind::Xnor
                | PrimKind::Not
                | PrimKind::Buf
                | PrimKind::Chg
                | PrimKind::Delay
                | PrimKind::Mux { .. } => {
                    let out = prim.output().expect("gates drive outputs");
                    let pin = |i: usize| -> SimValue {
                        let c = prim.input(i);
                        let v = values[c.signal().index()];
                        if c.invert() {
                            v.not()
                        } else {
                            v
                        }
                    };
                    let f = match prim.kind() {
                        PrimKind::And => fold(prim.input_count(), &pin, SimValue::and),
                        PrimKind::Or => fold(prim.input_count(), &pin, SimValue::or),
                        PrimKind::Nand => fold(prim.input_count(), &pin, SimValue::and).not(),
                        PrimKind::Nor => fold(prim.input_count(), &pin, SimValue::or).not(),
                        PrimKind::Xor => fold(prim.input_count(), &pin, SimValue::xor),
                        PrimKind::Xnor => fold(prim.input_count(), &pin, SimValue::xor).not(),
                        PrimKind::Not => pin(0).not(),
                        PrimKind::Buf | PrimKind::Delay | PrimKind::Chg => {
                            // CHG in concrete simulation is a buffer of its
                            // first input's "changing-ness"; model as the
                            // fold of all inputs via XOR-ish sensitivity:
                            // simplest faithful choice is to recompute a
                            // deterministic function (parity).
                            if prim.kind() == PrimKind::Chg {
                                fold(prim.input_count(), &pin, SimValue::xor)
                            } else {
                                pin(0)
                            }
                        }
                        PrimKind::Mux { .. } => {
                            let sel = pin(0);
                            match sel {
                                SimValue::Zero => pin(1),
                                SimValue::One => pin(2.min(prim.input_count() - 1)),
                                _ => SimValue::X,
                            }
                        }
                        _ => unreachable!(),
                    };
                    if f != target[out.index()] {
                        let trigger_conn = prim
                            .inputs()
                            .find(|c| c.signal() == sid)
                            .expect("fanout lists only readers");
                        let wire = netlist.wire_delay(trigger_conn);
                        let t_min = t + wire.min + prim.delay().min;
                        let t_max = t + wire.max + prim.delay().max;
                        // Inertial filtering: cancel pending events on the
                        // output at or after the new ambiguity start.
                        let stale: Vec<(Time, u64)> = queue
                            .range((t_min, 0)..)
                            .filter(|(_, (osid, _))| *osid == out)
                            .map(|(k, _)| *k)
                            .collect();
                        for k in stale {
                            queue.remove(&k);
                        }
                        let ambiguity = target[out.index()].transition_to(f);
                        if t_min < t_max && ambiguity != f {
                            schedule(&mut queue, &mut seq, t_min, out, ambiguity);
                        }
                        schedule(&mut queue, &mut seq, t_max, out, f);
                        target[out.index()] = f;
                    }
                }
                PrimKind::Reg { set_reset } | PrimKind::Latch { set_reset } => {
                    let is_reg = matches!(prim.kind(), PrimKind::Reg { .. });
                    let out = prim.output().expect("storage drives outputs");
                    let pin = |i: usize| -> SimValue {
                        let c = prim.input(i);
                        let v = values[c.signal().index()];
                        if c.invert() {
                            v.not()
                        } else {
                            v
                        }
                    };
                    // Asynchronous overrides first.
                    if set_reset {
                        let (sv, rv) = (pin(2), pin(3));
                        if sv == SimValue::One || rv == SimValue::One {
                            let forced = match (sv, rv) {
                                (SimValue::One, SimValue::One) => SimValue::X,
                                (SimValue::One, _) => SimValue::One,
                                _ => SimValue::Zero,
                            };
                            if forced != target[out.index()] {
                                schedule_storage(
                                    &mut queue,
                                    &mut seq,
                                    &mut target,
                                    netlist,
                                    prim,
                                    out,
                                    t,
                                    forced,
                                );
                            }
                            continue;
                        }
                    }
                    let is_ctl = prim.input(0).signal() == sid;
                    let ctl_new = pin(0);
                    if is_reg {
                        if is_ctl {
                            let ctl_old = if prim.input(0).invert() {
                                old.not()
                            } else {
                                old
                            };
                            if ctl_old == SimValue::Zero && ctl_new == SimValue::One {
                                // Definite rising edge: sample.
                                let d = pin(1);
                                if d.is_definite() {
                                    if d != target[out.index()] {
                                        schedule_storage(
                                            &mut queue,
                                            &mut seq,
                                            &mut target,
                                            netlist,
                                            prim,
                                            out,
                                            t,
                                            d,
                                        );
                                    }
                                } else {
                                    violations.push(SimViolation {
                                        kind: SimViolationKind::AmbiguousData,
                                        source: prim.name().to_owned(),
                                        at: t,
                                    });
                                    schedule_storage(
                                        &mut queue,
                                        &mut seq,
                                        &mut target,
                                        netlist,
                                        prim,
                                        out,
                                        t,
                                        SimValue::X,
                                    );
                                }
                            } else if ctl_old == SimValue::Zero && ctl_new.is_ambiguous() {
                                violations.push(SimViolation {
                                    kind: SimViolationKind::AmbiguousClock,
                                    source: prim.name().to_owned(),
                                    at: t,
                                });
                                schedule_storage(
                                    &mut queue,
                                    &mut seq,
                                    &mut target,
                                    netlist,
                                    prim,
                                    out,
                                    t,
                                    SimValue::X,
                                );
                            }
                        }
                    } else {
                        // Latch: transparent while enable is high.
                        match ctl_new {
                            SimValue::One => {
                                let d = pin(1);
                                if d != target[out.index()] {
                                    schedule_storage(
                                        &mut queue,
                                        &mut seq,
                                        &mut target,
                                        netlist,
                                        prim,
                                        out,
                                        t,
                                        d,
                                    );
                                }
                            }
                            SimValue::Zero => {} // holds
                            _ => {
                                let d = pin(1);
                                if d != target[out.index()] {
                                    schedule_storage(
                                        &mut queue,
                                        &mut seq,
                                        &mut target,
                                        netlist,
                                        prim,
                                        out,
                                        t,
                                        SimValue::X,
                                    );
                                }
                            }
                        }
                    }
                }
                PrimKind::SetupHold { setup, hold }
                | PrimKind::SetupRiseHoldFall { setup, hold } => {
                    let srhf = matches!(prim.kind(), PrimKind::SetupRiseHoldFall { .. });
                    let input_sig = prim.input(0).signal();
                    let clock_sig = prim.input(1).signal();
                    let st = checkers.get_mut(&pid).expect("checker state exists");
                    if sid == input_sig {
                        st.last_input_change = Some(t);
                        if srhf && st.clock_high {
                            violations.push(SimViolation {
                                kind: SimViolationKind::ChangedWhileTrue,
                                source: prim.name().to_owned(),
                                at: t,
                            });
                        }
                        // Hold check against the most recent relevant edge.
                        let anchor = if srhf { st.last_fall } else { st.last_rise };
                        if let Some(e) = anchor {
                            if t - e < hold {
                                violations.push(SimViolation {
                                    kind: SimViolationKind::Hold,
                                    source: prim.name().to_owned(),
                                    at: t,
                                });
                            }
                        }
                    }
                    if sid == clock_sig {
                        let cv = if prim.input(1).invert() {
                            new_v.not()
                        } else {
                            new_v
                        };
                        let was_high = st.clock_high;
                        st.clock_high = cv == SimValue::One;
                        if !was_high && cv == SimValue::One {
                            st.last_rise = Some(t);
                            if setup > Time::ZERO {
                                if let Some(c) = st.last_input_change {
                                    if t - c < setup {
                                        violations.push(SimViolation {
                                            kind: SimViolationKind::Setup,
                                            source: prim.name().to_owned(),
                                            at: t,
                                        });
                                    }
                                }
                            }
                        }
                        if was_high && cv == SimValue::Zero {
                            st.last_fall = Some(t);
                        }
                    }
                }
                PrimKind::MinPulseWidth { high, low } => {
                    let cv = if prim.input(0).invert() {
                        new_v.not()
                    } else {
                        new_v
                    };
                    let ov = if prim.input(0).invert() {
                        old.not()
                    } else {
                        old
                    };
                    let st = checkers.get_mut(&pid).expect("checker state exists");
                    if ov != SimValue::One && cv == SimValue::One {
                        if let Some(f) = st.last_fall {
                            if low > Time::ZERO && t - f < low {
                                violations.push(SimViolation {
                                    kind: SimViolationKind::MinPulseLow,
                                    source: prim.name().to_owned(),
                                    at: t,
                                });
                            }
                        }
                        st.last_rise = Some(t);
                    }
                    if ov == SimValue::One && cv != SimValue::One {
                        if let Some(r) = st.last_rise {
                            if high > Time::ZERO && t - r < high {
                                violations.push(SimViolation {
                                    kind: SimViolationKind::MinPulseHigh,
                                    source: prim.name().to_owned(),
                                    at: t,
                                });
                            }
                        }
                        st.last_fall = Some(t);
                    }
                }
                PrimKind::Const(_) => {}
            }
        }
    }

    SimResult {
        violations,
        events,
        final_values: values,
        traces,
    }
}

fn fold(
    n: usize,
    pin: &dyn Fn(usize) -> SimValue,
    f: impl Fn(SimValue, SimValue) -> SimValue,
) -> SimValue {
    let mut acc = pin(0);
    for i in 1..n {
        acc = f(acc, pin(i));
    }
    acc
}

/// Schedules a storage element's output transition through its min/max
/// delay window.
#[allow(clippy::too_many_arguments)]
fn schedule_storage(
    queue: &mut BTreeMap<(Time, u64), (SignalId, SimValue)>,
    seq: &mut u64,
    target: &mut [SimValue],
    _netlist: &Netlist,
    prim: scald_netlist::PrimRef<'_>,
    out: SignalId,
    t: Time,
    v: SimValue,
) {
    let t_min = t + prim.delay().min;
    let t_max = t + prim.delay().max;
    let stale: Vec<(Time, u64)> = queue
        .range((t_min, 0)..)
        .filter(|(_, (osid, _))| *osid == out)
        .map(|(k, _)| *k)
        .collect();
    for k in stale {
        queue.remove(&k);
    }
    let ambiguity = target[out.index()].transition_to(v);
    if t_min < t_max && ambiguity != v {
        *seq += 1;
        queue.insert((t_min, *seq), (out, ambiguity));
    }
    *seq += 1;
    queue.insert((t_max, *seq), (out, v));
    target[out.index()] = v;
}
