//! Read and write access to signal states, abstracted so the evaluators,
//! checkers and the wave-based settle loop work both on the engine's flat
//! state arrays and on a per-case *cone overlay* (§2.7): the settled base
//! state plus only the signals a case's overrides actually dirtied. The
//! overlay is what lets case workers run concurrently without cloning the
//! whole design state — each worker copies just the slice of
//! [`SignalState`]s in its case's fan-out cone.
//!
//! The engine's own backing is [`SoaState`], a struct-of-arrays layout:
//! wave handles, skews and eval strings live in three parallel arrays
//! instead of one `Vec<SignalState>` of padded records. Storage
//! accounting reads the wave-handle column alone and keeps it in cache
//! at 10^5–10^6 signals; eval-cache keying and the commit compares read
//! all three columns of every signal they touch (handle, skew, and
//! whether a string rides on the value). Reads hand out a borrowed
//! [`StateRef`]; an owned [`SignalState`] is materialized only where a
//! value actually travels (into an evaluator's pin prep or an overlay).
//!
//! The wave engine reuses the same machinery in the other direction:
//! during a wave's evaluation phase many worker threads read one frozen
//! state through a shared [`StateView`]; the single commit phase then
//! writes through [`StateStore`]. Both the [`SoaState`] backing of the
//! base settle and the [`ConeState`] overlay of a case settle implement
//! both traits, so one settle loop serves every path.

use std::collections::HashMap;

use scald_wave::{Skew, WaveRef};

use crate::state::{EvalStr, SignalState};

/// A borrowed view of one signal's state: the three columns of
/// [`SoaState`] re-associated, without materializing a [`SignalState`].
/// Mirrors the read-only surface of [`SignalState`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateRef<'a> {
    /// The signal's interned waveform handle.
    pub wave: &'a WaveRef,
    /// Separated transition-time uncertainty (§2.8).
    pub skew: Skew,
    /// Evaluation string travelling with the value (§2.6).
    pub eval: &'a Option<EvalStr>,
}

impl StateRef<'_> {
    /// Materializes an owned [`SignalState`] (wave clone is a
    /// reference-count bump).
    pub(crate) fn to_state(self) -> SignalState {
        SignalState {
            wave: self.wave.clone(),
            skew: self.skew,
            eval: self.eval.clone(),
        }
    }

    /// The worst-case waveform with the separated skew folded back in —
    /// see [`SignalState::resolved`].
    pub(crate) fn resolved(self) -> WaveRef {
        if self.skew.is_zero() {
            self.wave.clone()
        } else {
            self.wave.with_skew_applied(self.skew).into()
        }
    }

    /// Value-record count as Table 3-3 counts them — see
    /// [`SignalState::value_records`].
    pub(crate) fn value_records(self) -> usize {
        self.wave.value_record_count()
    }
}

impl<'a> From<&'a SignalState> for StateRef<'a> {
    fn from(s: &'a SignalState) -> StateRef<'a> {
        StateRef {
            wave: &s.wave,
            skew: s.skew,
            eval: &s.eval,
        }
    }
}

/// Field-wise equality with an owned state — the commit phase's
/// convergence check. Matches `SignalState`'s derived `PartialEq`
/// (interned handles make the wave compare an id compare).
impl PartialEq<SignalState> for StateRef<'_> {
    fn eq(&self, other: &SignalState) -> bool {
        *self.wave == other.wave && self.skew == other.skew && *self.eval == other.eval
    }
}

/// Struct-of-arrays signal state: the engine's backing store. One entry
/// per signal, indexed by `SignalId::index()`; the columns are kept in
/// lock-step by construction (only [`push`](Self::push) and
/// [`set`](Self::set) write them).
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaState {
    waves: Vec<WaveRef>,
    skews: Vec<Skew>,
    evals: Vec<Option<EvalStr>>,
}

impl SoaState {
    pub(crate) fn with_capacity(n: usize) -> SoaState {
        SoaState {
            waves: Vec::with_capacity(n),
            skews: Vec::with_capacity(n),
            evals: Vec::with_capacity(n),
        }
    }

    /// Appends one signal's state.
    pub(crate) fn push(&mut self, state: SignalState) {
        self.waves.push(state.wave);
        self.skews.push(state.skew);
        self.evals.push(state.eval);
    }

    /// Borrowed view of signal `idx`.
    pub(crate) fn get(&self, idx: usize) -> StateRef<'_> {
        StateRef {
            wave: &self.waves[idx],
            skew: self.skews[idx],
            eval: &self.evals[idx],
        }
    }

    /// Owned clone of signal `idx`'s state.
    pub(crate) fn state(&self, idx: usize) -> SignalState {
        self.get(idx).to_state()
    }

    /// Replaces signal `idx`'s state across all three columns.
    pub(crate) fn set(&mut self, idx: usize, state: SignalState) {
        self.waves[idx] = state.wave;
        self.skews[idx] = state.skew;
        self.evals[idx] = state.eval;
    }
}

impl FromIterator<SignalState> for SoaState {
    fn from_iter<I: IntoIterator<Item = SignalState>>(iter: I) -> SoaState {
        let iter = iter.into_iter();
        let mut soa = SoaState::with_capacity(iter.size_hint().0);
        for st in iter {
            soa.push(st);
        }
        soa
    }
}

/// Read-only view of all signal states, indexed by `SignalId::index()`.
pub(crate) trait StateView: Sync {
    /// The state of signal `idx`.
    fn state_at(&self, idx: usize) -> StateRef<'_>;
}

impl StateView for SoaState {
    fn state_at(&self, idx: usize) -> StateRef<'_> {
        self.get(idx)
    }
}

impl StateView for [SignalState] {
    fn state_at(&self, idx: usize) -> StateRef<'_> {
        let s = &self[idx];
        StateRef {
            wave: &s.wave,
            skew: s.skew,
            eval: &s.eval,
        }
    }
}

/// A writable [`StateView`]: what the wave engine's commit phase needs.
/// Writes never happen concurrently with reads — the engine evaluates a
/// whole wave against a frozen view, then commits on one thread.
pub(crate) trait StateStore: StateView {
    /// Replaces the state of signal `idx`.
    fn set_state(&mut self, idx: usize, state: SignalState);
}

impl StateStore for SoaState {
    fn set_state(&mut self, idx: usize, state: SignalState) {
        self.set(idx, state);
    }
}

impl StateStore for [SignalState] {
    fn set_state(&mut self, idx: usize, state: SignalState) {
        self[idx] = state;
    }
}

/// A copy-on-write overlay over a settled base state: reads fall through
/// to the base unless the signal was re-evaluated under this case's
/// overrides. Writes touch only the overlay, so concurrent case workers
/// share one immutable base.
#[derive(Debug)]
pub(crate) struct ConeState<'a> {
    base: &'a SoaState,
    local: HashMap<usize, SignalState>,
}

impl<'a> ConeState<'a> {
    pub(crate) fn new(base: &'a SoaState) -> ConeState<'a> {
        ConeState {
            base,
            local: HashMap::new(),
        }
    }

    /// Replaces the state of signal `idx` in the overlay.
    pub(crate) fn set(&mut self, idx: usize, state: SignalState) {
        self.local.insert(idx, state);
    }

    /// Forks the overlay: the child shares the same immutable base and
    /// starts from a copy of this overlay's dirtied signals. Used by the
    /// case tree (§2.7 at scale) — each internal node settles its shared
    /// prefix once, then every descendant leaf forks the node's overlay
    /// instead of re-settling the prefix cone.
    pub(crate) fn fork(&self) -> ConeState<'a> {
        ConeState {
            base: self.base,
            local: self.local.clone(),
        }
    }

    /// Signal indices whose state differs from `parent`, ascending — the
    /// dirty cone of this overlay relative to the state it forked from.
    /// Complete because a fork's `local` map only ever grows: any signal
    /// absent from `local` falls through to the same base entry on both
    /// sides. Entries the settle re-computed to the parent's value drop
    /// out via the interned-handle compare.
    pub(crate) fn dirty_vs<S: StateView + ?Sized>(&self, parent: &S) -> Vec<usize> {
        let mut dirty: Vec<usize> = self
            .local
            .iter()
            .filter(|&(&idx, st)| parent.state_at(idx) != *st)
            .map(|(&idx, _)| idx)
            .collect();
        dirty.sort_unstable();
        dirty
    }

    /// Total value-record count (Table 3-3) computed as a delta against a
    /// parent state whose total is already known: `parent_total` plus,
    /// per locally-dirtied signal, this overlay's records minus the
    /// parent's. Exact, because signals outside `local` are shared with
    /// the parent and equal entries contribute zero. Returns
    /// `(total, examined)` where `examined` counts the signals actually
    /// measured (the overlay size) — versus a full pass over every
    /// signal.
    pub(crate) fn value_records_vs<S: StateView + ?Sized>(
        &self,
        parent: &S,
        parent_total: usize,
    ) -> (usize, u64) {
        let mut total = parent_total as i64;
        for (&idx, st) in &self.local {
            total += st.value_records() as i64 - parent.state_at(idx).value_records() as i64;
        }
        (total as usize, self.local.len() as u64)
    }

    /// The dirtied slice: every (index, state) this case re-computed,
    /// sorted by index so overlay order never inherits `HashMap`
    /// iteration order (the byte-identical-reports guarantee).
    pub(crate) fn into_overlay(self) -> Vec<(usize, SignalState)> {
        let mut overlay: Vec<(usize, SignalState)> = self.local.into_iter().collect();
        overlay.sort_unstable_by_key(|&(idx, _)| idx);
        overlay
    }
}

impl StateView for ConeState<'_> {
    fn state_at(&self, idx: usize) -> StateRef<'_> {
        match self.local.get(&idx) {
            Some(s) => StateRef {
                wave: &s.wave,
                skew: s.skew,
                eval: &s.eval,
            },
            None => self.base.get(idx),
        }
    }
}

impl StateStore for ConeState<'_> {
    fn set_state(&mut self, idx: usize, state: SignalState) {
        self.set(idx, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value;
    use scald_wave::{Time, Waveform};

    fn st(v: Value) -> SignalState {
        SignalState::new(Waveform::constant(Time::from_ps(50_000), v))
    }

    #[test]
    fn soa_round_trips_states() {
        let states = [st(Value::Zero), st(Value::One)];
        let soa: SoaState = states.iter().cloned().collect();
        assert_eq!(soa.state(0), states[0]);
        assert_eq!(soa.state(1), states[1]);
        assert!(soa.state_at(0) == states[0]);
    }

    #[test]
    fn overlay_shadows_base() {
        let base: SoaState = [st(Value::Zero), st(Value::One)].into_iter().collect();
        let mut cone = ConeState::new(&base);
        assert!(cone.state_at(0) == base.state(0));
        cone.set(0, st(Value::Stable));
        assert!(cone.state_at(0) == st(Value::Stable));
        assert!(cone.state_at(1) == base.state(1));
        let overlay = cone.into_overlay();
        assert_eq!(overlay.len(), 1);
        assert_eq!(overlay[0], (0, st(Value::Stable)));
    }

    #[test]
    fn store_writes_through_both_backends() {
        let mut flat: SoaState = [st(Value::Zero)].into_iter().collect();
        flat.set_state(0, st(Value::One));
        assert_eq!(flat.state(0), st(Value::One));

        let base: SoaState = [st(Value::Zero)].into_iter().collect();
        let mut cone = ConeState::new(&base);
        cone.set_state(0, st(Value::One));
        assert!(cone.state_at(0) == st(Value::One));
        assert_eq!(base.state(0), st(Value::Zero), "base untouched");
    }
}
