//! Read and write access to signal states, abstracted so the evaluators,
//! checkers and the wave-based settle loop work both on the engine's flat
//! state columns and on a per-case *cone overlay* (§2.7): the settled base
//! state plus only the signals a case's overrides actually dirtied. The
//! overlay is what lets a case run without cloning the whole design
//! state — it copies just the slice of states in its case's fan-out
//! cone.
//!
//! A state is a [`StateId`]: one `u32` naming an interned (wave, skew,
//! remaining evaluation letters) in [`StateStore`](crate::StateStore).
//! The engine's backing is one `Vec<StateId>` per state kind (raw and
//! effective), indexed by `SignalId::index()`, so an eval-cache pin is
//! one read, the commit's convergence check one compare, and a commit or
//! an overlay copy one word per signal. Readers that need the wave itself
//! resolve the id with [`StateId::get`], a lock-free read.
//!
//! The wave engine reads a wave's frozen state through [`StateView`]
//! during the evaluation phase; the commit phase then writes through
//! [`StateWrite`]. Both the flat columns of the base settle and the
//! [`ConeState`] overlay of a case settle implement both traits, so one
//! settle loop serves every path.

use std::collections::HashMap;

use crate::state::StateId;

/// Read-only view of all signal states, indexed by `SignalId::index()`.
pub(crate) trait StateView {
    /// The state of signal `idx`.
    fn state_at(&self, idx: usize) -> StateId;
}

impl StateView for [StateId] {
    fn state_at(&self, idx: usize) -> StateId {
        self[idx]
    }
}

/// A writable [`StateView`]: what the wave engine's commit phase needs.
/// Writes never interleave with a wave's reads — the engine evaluates a
/// whole wave against the frozen view, then commits it.
pub(crate) trait StateWrite: StateView {
    /// Replaces the state of signal `idx`.
    fn set_state(&mut self, idx: usize, state: StateId);
}

impl StateWrite for [StateId] {
    fn set_state(&mut self, idx: usize, state: StateId) {
        self[idx] = state;
    }
}

/// A copy-on-write overlay over a settled base state: reads fall through
/// to the base unless the signal was re-evaluated under this case's
/// overrides. Writes touch only the overlay, so every case of a run
/// shares one immutable base.
#[derive(Debug)]
pub(crate) struct ConeState<'a> {
    base: &'a [StateId],
    local: HashMap<usize, StateId>,
}

impl<'a> ConeState<'a> {
    pub(crate) fn new(base: &'a [StateId]) -> ConeState<'a> {
        ConeState {
            base,
            local: HashMap::new(),
        }
    }

    /// Replaces the state of signal `idx` in the overlay.
    pub(crate) fn set(&mut self, idx: usize, state: StateId) {
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
    /// out via the id compare.
    pub(crate) fn dirty_vs<S: StateView + ?Sized>(&self, parent: &S) -> Vec<usize> {
        let mut dirty: Vec<usize> = self
            .local
            .iter()
            .filter(|&(&idx, &st)| parent.state_at(idx) != st)
            .map(|(&idx, _)| idx)
            .collect();
        dirty.sort_unstable();
        dirty
    }

    /// Total value-record count (Table 3-3) computed as a delta against a
    /// parent state whose total is already known: `parent_total` plus,
    /// per locally-dirtied signal, this overlay's records minus the
    /// parent's. Exact, because signals outside `local` are shared with
    /// the parent and equal ids contribute zero. Returns
    /// `(total, examined)` where `examined` counts the signals actually
    /// measured (the overlay size) — versus a full pass over every
    /// signal.
    pub(crate) fn value_records_vs<S: StateView + ?Sized>(
        &self,
        parent: &S,
        parent_total: usize,
    ) -> (usize, u64) {
        let mut total = parent_total as i64;
        for (&idx, &st) in &self.local {
            let before = parent.state_at(idx);
            if before != st {
                total += st.get().value_records() as i64 - before.get().value_records() as i64;
            }
        }
        (total as usize, self.local.len() as u64)
    }

    /// The dirtied slice: every (index, state) this case re-computed,
    /// sorted by index so overlay order never inherits `HashMap`
    /// iteration order (the byte-identical-reports guarantee).
    pub(crate) fn into_overlay(self) -> Vec<(usize, StateId)> {
        let mut overlay: Vec<(usize, StateId)> = self.local.into_iter().collect();
        overlay.sort_unstable_by_key(|&(idx, _)| idx);
        overlay
    }
}

impl StateView for ConeState<'_> {
    fn state_at(&self, idx: usize) -> StateId {
        match self.local.get(&idx) {
            Some(&s) => s,
            None => self.base[idx],
        }
    }
}

impl StateWrite for ConeState<'_> {
    fn set_state(&mut self, idx: usize, state: StateId) {
        self.set(idx, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SignalState;
    use scald_logic::Value;
    use scald_wave::{Time, Waveform};

    fn st(v: Value) -> StateId {
        StateId::of(SignalState::new(Waveform::constant(
            Time::from_ps(50_000),
            v,
        )))
    }

    #[test]
    fn overlay_shadows_base() {
        let base = [st(Value::Zero), st(Value::One)];
        let mut cone = ConeState::new(&base);
        assert_eq!(cone.state_at(0), base[0]);
        cone.set(0, st(Value::Stable));
        assert_eq!(cone.state_at(0), st(Value::Stable));
        assert_eq!(cone.state_at(1), base[1]);
        assert_eq!(cone.dirty_vs(&base[..]), [0]);
        let overlay = cone.into_overlay();
        assert_eq!(overlay, [(0, st(Value::Stable))]);
    }

    #[test]
    fn store_writes_through_both_backends() {
        let mut flat = [st(Value::Zero)];
        flat.set_state(0, st(Value::One));
        assert_eq!(flat.state_at(0), st(Value::One));

        let base = [st(Value::Zero)];
        let mut cone = ConeState::new(&base);
        cone.set_state(0, st(Value::One));
        assert_eq!(cone.state_at(0), st(Value::One));
        assert_eq!(base[0], st(Value::Zero), "base untouched");
    }

    #[test]
    fn a_recomputed_parent_value_is_not_dirty() {
        let base = [st(Value::Zero), st(Value::One)];
        let mut cone = ConeState::new(&base);
        cone.set(1, st(Value::One));
        cone.set(0, st(Value::Stable));
        assert_eq!(cone.dirty_vs(&base[..]), [0]);
        let records = |ids: &[StateId]| ids.iter().map(|id| id.get().value_records()).sum();
        let (total, examined) = cone.value_records_vs(&base[..], records(&base));
        assert_eq!(
            (total, examined),
            (records(&[st(Value::Stable), base[1]]), 2)
        );
    }
}
