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
//! their waves are structurally equal (whichever [`WaveStore`] interned
//! them), their skews are equal and the same letters remain of their
//! evaluation strings, which is all any reader consumes of a string.

use scald_logic::Value;
use scald_wave::{DelayRange, Skew, StoreStats, Time, WaveId, WaveRef, WaveStore, Waveform};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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
/// The waveform is an interned handle ([`WaveRef`]): clones are
/// reference-count bumps. The engine itself holds each state as an id
/// in [`StateStore`], so its commit-time convergence check compares ids.
#[derive(Debug, Clone, PartialEq)]
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
            self.wave.clone()
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
            self.wave.clone()
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
    pub(crate) fn of(state: &SignalState) -> StateId {
        StateStore::global().intern(state)
    }

    /// The state this id names.
    pub(crate) fn get(self) -> &'static SignalState {
        StateStore::global().get(self)
    }

    /// The id's number; ids are issued densely from 0.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// log2 of the shard count, as in the wave store.
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;
/// Where a key's shard index sits in its hash: clear of the bits the
/// shard's table uses for its bucket index (low) and its control tag
/// (top seven).
const SHARD_SHIFT: u32 = 32;
/// log2 of the slots in the first chunk; chunk `c` holds twice as many
/// as chunk `c - 1`.
const FIRST_CHUNK_BITS: u32 = 10;
/// Enough chunks that every `u32` id has a slot.
const CHUNKS: usize = (33 - FIRST_CHUNK_BITS) as usize;

/// A value alone on its cache lines (128 bytes: the pair of lines x86
/// prefetches together), so that a counter or lock one worker writes
/// does not evict what another worker reads.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The hasher of tables whose keys carry the hash they were built with:
/// it hands that hash back.
#[derive(Default)]
pub(crate) struct CarriedHash(u64);

impl Hasher for CarriedHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("carried-hash keys hash themselves once, through `write_u64`");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A table keyed by carried-hash keys.
pub(crate) type CarriedMap<K, V> = HashMap<K, V, BuildHasherDefault<CarriedHash>>;

/// What makes a state distinct: the id of its wave in the global wave
/// store, its skew, and its remaining evaluation letters.
#[derive(Debug)]
struct StateKey {
    hash: u64,
    wave: WaveId,
    skew: Skew,
    eval: Option<EvalStr>,
}

impl PartialEq for StateKey {
    fn eq(&self, other: &StateKey) -> bool {
        self.wave == other.wave && self.skew == other.skew && self.eval == other.eval
    }
}

impl Eq for StateKey {}

impl Hash for StateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The process-wide, append-only store of distinct signal states: the
/// value area every [`Verifier`](crate::Verifier) keeps its signals'
/// states in, one entry per distinct (wave, skew, remaining evaluation
/// letters).
///
/// Interning hashes the state once and probes one of 16 shards under its
/// read lock, taking the write lock only for a state new to the store.
/// A state is kept in a chunked slot array that never moves or frees an
/// entry, so the engine reads one back without a lock, from any thread.
/// A wave from another [`WaveStore`] is re-interned into
/// [`WaveStore::global`] first, so structurally equal waves are one
/// state whichever store issued them. Like the wave store, it grows with
/// the distinct states, not with intern traffic:
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
    /// Keyed, so states derived from client designs (the daemon shares
    /// one process) cannot be chosen to collide.
    hasher: RandomState,
    shards: [Padded<RwLock<CarriedMap<StateKey, StateId>>>; SHARDS],
    /// Slot `id` lives in chunk `c`, allocated on first use.
    chunks: [OnceLock<Box<[OnceLock<SignalState>]>>; CHUNKS],
    /// Ids handed out so far. Relaxed: the counter only makes ids
    /// distinct; a slot's `OnceLock` publishes its state (`set` is a
    /// release, `get` an acquire), and an id reaches another thread only
    /// through the shard lock or whatever hands the id over.
    issued: Padded<AtomicU32>,
    interns: Padded<AtomicU64>,
    hits: Padded<AtomicU64>,
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
            hasher: RandomState::new(),
            shards: std::array::from_fn(|_| Padded::default()),
            chunks: std::array::from_fn(|_| OnceLock::new()),
            issued: Padded::default(),
            interns: Padded::default(),
            hits: Padded::default(),
            overrides: RwLock::default(),
        })
    }

    /// The id of `state`, issuing one if the store has not seen it.
    ///
    /// # Panics
    ///
    /// Panics if the store would hold more than `u32::MAX` states.
    pub(crate) fn intern(&self, state: &SignalState) -> StateId {
        self.interns.fetch_add(1, Ordering::Relaxed);
        let global = WaveStore::global();
        let rehomed = (state.wave.store_tag() != global.tag())
            .then(|| global.intern(state.wave.to_waveform()));
        let wave = rehomed.as_ref().unwrap_or(&state.wave);
        let mut key = StateKey {
            hash: 0,
            wave: wave.id(),
            skew: state.skew,
            eval: state.eval.clone(),
        };
        key.hash = self.hasher.hash_one((key.wave, key.skew, &key.eval));
        let shard = &self.shards[(key.hash >> SHARD_SHIFT) as usize & (SHARDS - 1)];
        if let Some(&id) = shard.read().expect("state store poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let mut table = shard.write().expect("state store poisoned");
        // Another thread may have interned it between the two locks.
        if let Some(&id) = table.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let raw = self.issued.fetch_add(1, Ordering::Relaxed);
        assert!(raw < u32::MAX, "state store overflow");
        let id = StateId(raw);
        let (chunk, offset) = locate(id);
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..1usize << (chunk as u32 + FIRST_CHUNK_BITS))
                .map(|_| OnceLock::new())
                .collect()
        });
        let fresh = SignalState {
            wave: wave.clone(),
            skew: state.skew,
            eval: state.eval.clone(),
        };
        assert!(
            slots[offset].set(fresh).is_ok(),
            "state ids are issued once"
        );
        table.insert(key, id);
        id
    }

    /// The state `id` names.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this store.
    pub(crate) fn get(&self, id: StateId) -> &SignalState {
        let (chunk, offset) = locate(id);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[offset].get())
            .expect("state id issued by the store")
    }

    /// Distinct states interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.issued.load(Ordering::Relaxed) as usize
    }

    /// `true` if nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the effort counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            interns: self.interns.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            unique: self.len(),
        }
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
        let state = self.get(id);
        let out = self.intern(&SignalState {
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

/// The chunk and offset of `id`'s slot.
fn locate(id: StateId) -> (usize, usize) {
    let at = u64::from(id.0) + (1 << FIRST_CHUNK_BITS);
    let chunk = 63 - at.leading_zeros() - FIRST_CHUNK_BITS;
    (
        chunk as usize,
        (at - (1 << (chunk + FIRST_CHUNK_BITS))) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_wave::Time;

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
    /// base handle itself (same store, same id) instead of re-running the
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
        assert_eq!(resolved.store_tag(), st.wave.store_tag());
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
    fn slots_are_located_chunk_by_chunk() {
        let first = 1usize << FIRST_CHUNK_BITS;
        assert_eq!(locate(StateId(0)), (0, 0));
        assert_eq!(locate(StateId(first as u32 - 1)), (0, first - 1));
        assert_eq!(locate(StateId(first as u32)), (1, 0));
        assert_eq!(locate(StateId(3 * first as u32 - 1)), (1, 2 * first - 1));
        assert_eq!(locate(StateId(3 * first as u32)), (2, 0));
        let (chunk, offset) = locate(StateId(u32::MAX));
        assert_eq!(chunk, CHUNKS - 1);
        assert!(offset < first << chunk);
    }

    /// Eight threads intern the same states, each in its own order:
    /// every state gets one id, the same on every thread.
    #[test]
    fn states_interned_from_eight_threads_get_one_id_each() {
        let states: Vec<SignalState> = (0..64)
            .map(|k| SignalState {
                wave: pulse(1_000 + k).into(),
                skew: Skew::new(Time::ZERO, Time::from_ps(7 * k)),
                eval: (k % 3 == 0).then(|| EvalStr::new("HZW")),
            })
            .collect();
        let per_thread: Vec<Vec<StateId>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|t| {
                    let states = &states;
                    s.spawn(move || {
                        let mut ids = vec![StateId::default(); states.len()];
                        for i in 0..states.len() {
                            let k = (i * 5 + t * 11) % states.len();
                            ids[k] = StateId::of(&states[k]);
                        }
                        ids
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for ids in &per_thread[1..] {
            assert_eq!(*ids, per_thread[0]);
        }
        let mut distinct = per_thread[0].clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), states.len());
        for (state, id) in states.iter().zip(&per_thread[0]) {
            assert_eq!(id.get(), state);
        }
    }

    #[test]
    fn equal_waves_from_two_wave_stores_share_an_id() {
        let (one, other) = (WaveStore::new(), WaveStore::new());
        let state = |wave: WaveRef| SignalState {
            wave,
            skew: Skew::ZERO,
            eval: None,
        };
        let a = state(one.intern(pulse(2_000)));
        let b = state(other.intern(pulse(2_000)));
        assert_ne!(a.wave.store_tag(), b.wave.store_tag());
        let id = StateId::of(&a);
        assert_eq!(StateId::of(&b), id);
        assert_eq!(StateId::of(&SignalState::new(pulse(2_000))), id);
        assert_eq!(id.get().wave.store_tag(), WaveStore::global().tag());
        assert_ne!(StateId::of(&state(other.intern(pulse(2_001)))), id);
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
        assert_eq!(StateId::of(&state(h)), StateId::of(&state(a)));
        assert_ne!(
            StateId::of(&state(EvalStr::new("HZW"))),
            StateId::of(&state(EvalStr::new("AZW")))
        );
    }

    #[test]
    fn a_state_interned_on_one_thread_reads_back_on_another() {
        let there = SignalState::new(pulse(4_000));
        let sent = there.clone();
        let id = std::thread::spawn(move || StateId::of(&sent))
            .join()
            .unwrap();
        assert_eq!(*id.get(), there);

        let here = SignalState::new(pulse(4_001));
        let id = StateId::of(&here);
        let back = std::thread::spawn(move || id.get().clone()).join().unwrap();
        assert_eq!(back, here);
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
        let id = StateId::of(&st);
        let one = store.overridden(id, Value::One);
        assert_eq!(store.overridden(id, Value::One), one);
        let got = one.get();
        assert_eq!(got.wave.value_at(Time::from_ns(20.0)), Value::One);
        assert_eq!(got.wave.value_at(Time::from_ns(6.0)), Value::Change);
        assert_eq!((got.skew, &got.eval), (st.skew, &st.eval));
        assert_ne!(store.overridden(id, Value::Zero), one);
    }
}
