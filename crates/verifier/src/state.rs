//! Per-signal dynamic state: the "VALUE BASE" record of Fig 2-7, and
//! the store that names each distinct one.
//!
//! Each signal carries its waveform over the period, its separated skew
//! (§2.8), and the evaluation string being propagated through gating
//! levels (§2.6, the `EVAL STR PTR` field).
//!
//! The thesis points each signal's VALUE BASE record into one shared
//! value area, because a large design has few distinct timing values
//! (Table 3-3). [`StateStore::global`] is that area: it interns each
//! distinct (wave, skew, remaining evaluation letters) once, for the
//! life of the process, and names it by a [`StateId`], one `u32`. The
//! engine's state columns, eval-cache keys and outcomes, and commits
//! move ids; a reader turns an id back into its [`SignalState`] with
//! two atomic loads and no lock. Two states are one id exactly when
//! their waves are one id in [`WaveStore::global`], their skews are
//! equal and the same letters remain of their evaluation strings, which
//! is all any reader consumes of a string.
//!
//! [`WaveStore::global`]: scald_wave::WaveStore::global

use scald_logic::Value;
use scald_wave::{DelayRange, Interner, Skew, StoreStats, Time, WaveRef, Waveform};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

/// One evaluation directive letter (§2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Directive {
    /// `E` — evaluate the gate with no special action (the default).
    Evaluate,
    /// `W` — zero the wire going into the gate.
    ZeroWire,
    /// `Z` — zero the gate delay and the wire going into it (the clock
    /// timing refers to the gate *output*).
    ZeroGateAndWire,
    /// `A` — check that the other inputs of the gate are not changing
    /// while this input is asserted; assume the other inputs enable the
    /// gate when computing the output.
    AssertedCheck,
    /// `H` — the combined effect of `Z` and `A`.
    HoldCheck,
}

impl Directive {
    /// Parses a single directive letter.
    #[must_use]
    pub fn from_letter(c: char) -> Option<Directive> {
        match c {
            'E' => Some(Directive::Evaluate),
            'W' => Some(Directive::ZeroWire),
            'Z' => Some(Directive::ZeroGateAndWire),
            'A' => Some(Directive::AssertedCheck),
            'H' => Some(Directive::HoldCheck),
            _ => None,
        }
    }

    /// Whether this directive zeroes the wire delay into the gate.
    #[must_use]
    pub const fn zeroes_wire(self) -> bool {
        matches!(
            self,
            Directive::ZeroWire | Directive::ZeroGateAndWire | Directive::HoldCheck
        )
    }

    /// Whether this directive zeroes the gate's own delay.
    #[must_use]
    pub const fn zeroes_gate(self) -> bool {
        matches!(self, Directive::ZeroGateAndWire | Directive::HoldCheck)
    }

    /// Whether this directive requests the asserted-stability check and
    /// the assume-enabling treatment of the other inputs.
    #[must_use]
    pub const fn checks_assertion(self) -> bool {
        matches!(self, Directive::AssertedCheck | Directive::HoldCheck)
    }
}

/// A directive string positioned at the next letter to consume — the
/// thesis' evaluation-string pointer (§2.8).
///
/// The string `"HZZW"` controls four levels of gating: the first gate
/// consumes the `H`, passes `"ZZW"` along with its output value, and so on.
///
/// Equality and hashing follow the remaining letters alone: they are
/// all that any reader consumes, so `"HZW"` and `"AZW"` after one level
/// are the same string.
#[derive(Debug, Clone)]
pub struct EvalStr {
    text: Arc<str>,
    pos: usize,
}

impl EvalStr {
    /// Creates an evaluation string starting at its first letter.
    ///
    /// The caller must have validated the letters (the netlist builder
    /// rejects anything outside `E W Z A H`).
    #[must_use]
    pub fn new(text: impl Into<Arc<str>>) -> EvalStr {
        EvalStr {
            text: text.into(),
            pos: 0,
        }
    }

    /// The directive for the current gating level, if any remains.
    #[must_use]
    pub fn head(&self) -> Option<Directive> {
        self.text[self.pos..]
            .chars()
            .next()
            .and_then(Directive::from_letter)
    }

    /// The remainder of the string for the next gating level; `None` when
    /// this was the last letter.
    #[must_use]
    pub fn tail(&self) -> Option<EvalStr> {
        let next = self.pos + 1;
        if next < self.text.len() {
            Some(EvalStr {
                text: Arc::clone(&self.text),
                pos: next,
            })
        } else {
            None
        }
    }

    /// The remaining letters, e.g. `"ZW"`.
    #[must_use]
    pub fn remaining(&self) -> &str {
        &self.text[self.pos..]
    }
}

impl PartialEq for EvalStr {
    fn eq(&self, other: &EvalStr) -> bool {
        self.remaining() == other.remaining()
    }
}

impl Eq for EvalStr {}

impl Hash for EvalStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.remaining().hash(state);
    }
}

impl fmt::Display for EvalStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}", self.remaining())
    }
}

/// The dynamic state of one signal during verification: waveform, separate
/// skew, and the propagating evaluation string (Fig 2-7).
///
/// The waveform is an interned handle ([`WaveRef`]), copied as an id
/// and a reference. The engine itself holds each state as an id in
/// [`StateStore`], so its commit-time convergence check compares ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignalState {
    /// The signal's value over the period (interned, shared).
    pub wave: WaveRef,
    /// Separated transition-time uncertainty (§2.8).
    pub skew: Skew,
    /// Evaluation string travelling with the value (§2.6).
    pub eval: Option<EvalStr>,
}

impl SignalState {
    /// A state with no skew and no evaluation string.
    #[must_use]
    pub fn new(wave: Waveform) -> SignalState {
        SignalState {
            wave: wave.into(),
            skew: Skew::ZERO,
            eval: None,
        }
    }

    /// The worst-case waveform with the separated skew folded back into
    /// the value list (Fig 2-9). Checkers and multi-input combines see
    /// this view.
    ///
    /// With zero skew the fold is the identity, so the interned base
    /// handle is returned directly — no deep clone, no re-intern.
    #[must_use]
    pub fn resolved(&self) -> WaveRef {
        if self.skew.is_zero() {
            self.wave
        } else {
            self.wave.with_skew_applied(self.skew).into()
        }
    }

    /// The state after travelling through a min/max delay while remaining
    /// a lone delayed signal: the waveform shifts by the minimum and the
    /// delay spread accumulates into the skew, preserving pulse widths
    /// (§2.8, Fig 2-8).
    #[must_use]
    pub fn delayed(&self, delay: DelayRange) -> SignalState {
        let wave = if delay.min == Time::ZERO {
            self.wave
        } else {
            self.wave.delayed(delay.min).into()
        };
        SignalState {
            wave,
            skew: self.skew.after_delay(delay),
            eval: self.eval.clone(),
        }
    }

    /// The fully resolved waveform after a delay — for use when the signal
    /// is about to be combined with others and the skew can no longer be
    /// kept separate (§2.8).
    #[must_use]
    pub fn resolved_after(&self, delay: DelayRange) -> WaveRef {
        self.delayed(delay).resolved()
    }

    /// Number of value records (run-length nodes) plus the base record, as
    /// Table 3-3 counts them.
    #[must_use]
    pub fn value_records(&self) -> usize {
        self.wave.value_record_count()
    }
}

/// A process-wide name for one distinct [`SignalState`], issued densely
/// from 0 by [`StateStore::global`]. Two ids are equal exactly when the
/// states they name are equal, so comparing and copying states is
/// comparing and copying `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub(crate) struct StateId(u32);

impl StateId {
    /// Interns `state` into the global store.
    pub(crate) fn of(state: SignalState) -> StateId {
        StateId(StateStore::global().states.intern(state).0)
    }

    /// The state this id names.
    pub(crate) fn get(self) -> &'static SignalState {
        StateStore::global().states.get(self.0)
    }

    /// The id's number; ids are issued densely from 0.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The process-wide, append-only store of distinct signal states: the
/// value area every [`Verifier`](crate::Verifier) keeps its signals'
/// states in, one entry per distinct (wave, skew, remaining evaluation
/// letters).
///
/// It is an [`Interner`] of [`SignalState`]s, the same one the
/// [`WaveStore`](scald_wave::WaveStore) is built on, plus a memo of case
/// overrides. Like the wave store, it grows with the distinct states,
/// not with intern traffic:
///
/// ```
/// use scald_netlist::{Config, NetlistBuilder};
/// use scald_verifier::{RunOptions, StateStore, Verifier};
/// use scald_wave::{DelayRange, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new(Config::s1_example());
/// let clk = b.signal("CLK .P2-3")?;
/// let d = b.signal_vec("IN .S0-6", 8)?;
/// let q = b.signal_vec("OUT", 8)?;
/// b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
/// let netlist = b.finish()?;
///
/// Verifier::new(netlist.clone()).run(&RunOptions::new())?;
/// let states = StateStore::global().len();
/// Verifier::new(netlist).run(&RunOptions::new())?;
/// assert_eq!(StateStore::global().len(), states, "nothing new to intern");
/// # Ok(())
/// # }
/// ```
pub struct StateStore {
    states: Interner<SignalState>,
    /// Memoized case overrides: a state with a value mapped over its
    /// stable stretches (see `StateStore::overridden`).
    overrides: RwLock<HashMap<(StateId, Value), StateId>>,
}

impl StateStore {
    /// The store every verifier interns through.
    #[must_use]
    pub fn global() -> &'static StateStore {
        static GLOBAL: OnceLock<StateStore> = OnceLock::new();
        GLOBAL.get_or_init(|| StateStore {
            states: Interner::default(),
            overrides: RwLock::default(),
        })
    }

    /// Distinct states interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Snapshot of the effort counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.states.stats()
    }

    /// `id` under a case override to `value` (§2.7.1): the value
    /// replaces the state's wherever the circuit would leave it merely
    /// stable, and the skew and evaluation string stay. Memoized, so a
    /// repeated override costs one table probe.
    pub(crate) fn overridden(&self, id: StateId, value: Value) -> StateId {
        let memo = &self.overrides;
        if let Some(&out) = memo.read().expect("state store poisoned").get(&(id, value)) {
            return out;
        }
        let state = id.get();
        let out = StateId::of(SignalState {
            wave: state
                .wave
                .map(|x| if x == Value::Stable { value } else { x })
                .into(),
            skew: state.skew,
            eval: state.eval.clone(),
        });
        memo.write()
            .expect("state store poisoned")
            .insert((id, value), out);
        out
    }
}

impl fmt::Debug for StateStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateStore")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_wave::Time;
    use std::hash::{BuildHasher, RandomState};

    #[test]
    fn directive_letters() {
        assert_eq!(Directive::from_letter('E'), Some(Directive::Evaluate));
        assert_eq!(Directive::from_letter('H'), Some(Directive::HoldCheck));
        assert_eq!(Directive::from_letter('X'), None);
        assert!(Directive::HoldCheck.zeroes_wire());
        assert!(Directive::HoldCheck.zeroes_gate());
        assert!(Directive::HoldCheck.checks_assertion());
        assert!(Directive::ZeroWire.zeroes_wire());
        assert!(!Directive::ZeroWire.zeroes_gate());
        assert!(!Directive::Evaluate.zeroes_wire());
        assert!(Directive::AssertedCheck.checks_assertion());
        assert!(!Directive::AssertedCheck.zeroes_gate());
    }

    #[test]
    fn eval_string_consumes_level_by_level() {
        let s = EvalStr::new("HZZW");
        assert_eq!(s.head(), Some(Directive::HoldCheck));
        let s2 = s.tail().unwrap();
        assert_eq!(s2.head(), Some(Directive::ZeroGateAndWire));
        assert_eq!(s2.remaining(), "ZZW");
        let s3 = s2.tail().unwrap().tail().unwrap();
        assert_eq!(s3.head(), Some(Directive::ZeroWire));
        assert!(s3.tail().is_none());
        assert_eq!(s3.to_string(), "&W");
    }

    /// Regression: with zero skew, `resolved` must hand back the interned
    /// base handle itself (same id) instead of re-running the
    /// identity skew fold and re-interning — and a zero-spread,
    /// zero-minimum delay must keep the same handle through
    /// `delayed`/`resolved_after` too.
    #[test]
    fn zero_skew_resolution_returns_the_base_handle() {
        let period = Time::from_ns(50.0);
        let wave = Waveform::from_intervals(
            period,
            Value::Zero,
            [(Time::from_ns(10.0), Time::from_ns(20.0), Value::One)],
        );
        let st = SignalState::new(wave.clone());
        assert!(st.skew.is_zero());
        let resolved = st.resolved();
        assert_eq!(resolved.id(), st.wave.id(), "no re-fold on zero skew");
        assert_eq!(*resolved, wave);

        let after = st.resolved_after(DelayRange::ZERO);
        assert_eq!(after.id(), st.wave.id(), "zero delay keeps the handle");

        // Non-zero skew still folds.
        let skewed = SignalState {
            skew: Skew::from_ns(0.0, 5.0),
            ..st.clone()
        };
        assert_ne!(skewed.resolved().id(), st.wave.id());
        assert_eq!(
            *skewed.resolved(),
            wave.with_skew_applied(Skew::from_ns(0.0, 5.0))
        );
    }

    #[test]
    fn delayed_keeps_pulse_width_in_wave() {
        let period = Time::from_ns(50.0);
        let wave = Waveform::from_intervals(
            period,
            Value::Zero,
            [(Time::from_ns(10.0), Time::from_ns(20.0), Value::One)],
        );
        let st = SignalState::new(wave).delayed(DelayRange::from_ns(5.0, 10.0));
        // Wave shifted by min only; spread lives in the skew.
        assert_eq!(st.wave.value_at(Time::from_ns(16.0)), Value::One);
        assert_eq!(st.skew, Skew::from_ns(0.0, 5.0));
        // Resolution folds it into R/F windows.
        let folded = st.resolved();
        assert_eq!(folded.value_at(Time::from_ns(16.0)), Value::Rise);
        assert_eq!(folded.value_at(Time::from_ns(21.0)), Value::One);
    }

    /// A clock-like wave no other test interns: high from `start`.
    fn pulse(start_ps: i64) -> Waveform {
        Waveform::from_intervals(
            Time::from_ns(50.0),
            Value::Zero,
            [(Time::from_ps(start_ps), Time::from_ns(31.0), Value::One)],
        )
    }

    #[test]
    fn strings_differing_only_in_consumed_letters_share_an_id() {
        let h = EvalStr::new("HZW").tail().unwrap();
        let a = EvalStr::new("AZW").tail().unwrap();
        assert_eq!(h, a);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&h), hasher.hash_one(&a));
        let state = |eval| SignalState {
            wave: pulse(3_000).into(),
            skew: Skew::ZERO,
            eval: Some(eval),
        };
        assert_eq!(state(h.clone()), state(a.clone()));
        assert_eq!(StateId::of(state(h)), StateId::of(state(a)));
        assert_ne!(
            StateId::of(state(EvalStr::new("HZW"))),
            StateId::of(state(EvalStr::new("AZW")))
        );
    }

    #[test]
    fn overrides_map_stable_stretches_and_are_memoized() {
        let period = Time::from_ns(50.0);
        let wave = Waveform::from_intervals(
            period,
            Value::Stable,
            [(Time::from_ns(5.0), Time::from_ns(9.0), Value::Change)],
        );
        let st = SignalState {
            wave: wave.into(),
            skew: Skew::from_ns(0.0, 1.0),
            eval: Some(EvalStr::new("ZW")),
        };
        let store = StateStore::global();
        let id = StateId::of(st.clone());
        let one = store.overridden(id, Value::One);
        assert_eq!(store.overridden(id, Value::One), one);
        let got = one.get();
        assert_eq!(got.wave.value_at(Time::from_ns(20.0)), Value::One);
        assert_eq!(got.wave.value_at(Time::from_ns(6.0)), Value::Change);
        assert_eq!((got.skew, &got.eval), (st.skew, &st.eval));
        assert_ne!(store.overridden(id, Value::Zero), one);
    }
}
