//! Hash-consed waveform interning: one canonical copy per distinct
//! transition list, compact handles, O(1) equality.
//!
//! The thesis' engine keeps every signal's value list in a shared value
//! area (§3.2, Table 3-3); structurally identical lists are common —
//! constants, clock phases, and the repeated sub-waveforms of regular
//! datapaths. The process-global [`WaveStore`] deduplicates them on an
//! [`Interner`]: [`intern`] returns a [`WaveRef`] handle that is a dense
//! id plus a reference to the one canonical [`Waveform`], so copying a
//! handle copies two words and comparing two is an id compare.
//!
//! [`intern`]: WaveStore::intern

use crate::intern::{Interner, StoreStats};
use crate::Waveform;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::OnceLock;

/// The dense id of an interned waveform, issued from 0 in first-intern
/// order by [`WaveStore::global`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WaveId(u32);

/// A canonical waveform and its id in [`WaveStore::global`].
///
/// Dereferences to [`Waveform`], so read-only call sites are unchanged;
/// the store keeps the waveform for the life of the process, so a handle
/// is `Copy`. Equality and hashing are the id's: the hash-consing
/// invariant makes that exact. `Debug`/`Display` delegate to the
/// waveform — handles are transparent in all rendered output.
#[derive(Clone, Copy)]
pub struct WaveRef {
    id: WaveId,
    wave: &'static Waveform,
}

impl WaveRef {
    /// The interned waveform.
    #[must_use]
    pub fn as_wave(&self) -> &'static Waveform {
        self.wave
    }

    /// An owned copy of the waveform (for APIs that hand out owned
    /// [`Waveform`]s).
    #[must_use]
    pub fn to_waveform(&self) -> Waveform {
        self.wave.clone()
    }

    /// The waveform's id.
    #[must_use]
    pub fn id(&self) -> WaveId {
        self.id
    }
}

impl Deref for WaveRef {
    type Target = Waveform;
    fn deref(&self) -> &Waveform {
        self.wave
    }
}

impl PartialEq for WaveRef {
    fn eq(&self, other: &WaveRef) -> bool {
        self.id == other.id
    }
}

impl Eq for WaveRef {}

impl Hash for WaveRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for WaveRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.wave.fmt(f)
    }
}

impl fmt::Display for WaveRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.wave.fmt(f)
    }
}

impl From<Waveform> for WaveRef {
    /// Interns into the process-global store.
    fn from(wave: Waveform) -> WaveRef {
        WaveStore::global().intern(wave)
    }
}

/// The process-global hash-consed arena of waveforms.
///
/// ```
/// use scald_logic::Value;
/// use scald_wave::{Time, WaveStore, Waveform};
///
/// let store = WaveStore::global();
/// let p = Time::from_ns(50.0);
/// let a = store.intern(Waveform::constant(p, Value::Zero));
/// let before = store.len();
/// let b = store.intern(Waveform::constant(p, Value::Zero));
/// assert_eq!(a.id(), b.id()); // one canonical copy
/// assert_eq!(store.len(), before);
/// ```
pub struct WaveStore(Interner<Waveform>);

impl WaveStore {
    /// The store the engine interns through.
    #[must_use]
    pub fn global() -> &'static WaveStore {
        static GLOBAL: OnceLock<WaveStore> = OnceLock::new();
        GLOBAL.get_or_init(|| WaveStore(Interner::default()))
    }

    /// Interns `wave`, returning the canonical handle. Repeated interns
    /// of equal waveforms return equal handles and never store a second
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if the store would hold more than `u32::MAX` waveforms.
    pub fn intern(&'static self, wave: Waveform) -> WaveRef {
        let (id, wave) = self.0.intern(wave);
        WaveRef {
            id: WaveId(id),
            wave,
        }
    }

    /// Distinct waveforms currently interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Snapshot of the effort counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.0.stats()
    }
}

impl fmt::Debug for WaveStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("WaveStore").field(&self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Time;
    use scald_logic::Value;

    const P: Time = Time::from_ps(50_000);

    fn clock() -> Waveform {
        Waveform::from_intervals(
            P,
            Value::Zero,
            [(Time::from_ns(10.0), Time::from_ns(20.0), Value::One)],
        )
    }

    #[test]
    fn handles_are_ids_over_one_canonical_copy() {
        let store = WaveStore::global();
        let a = store.intern(clock());
        let b = store.intern(clock());
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_wave(), b.as_wave()));
        assert_ne!(a, store.intern(Waveform::constant(P, Value::Stable)));
        assert_eq!(*a, clock());
    }

    #[test]
    fn debug_and_display_are_transparent() {
        let r = WaveRef::from(clock());
        assert_eq!(format!("{r:?}"), format!("{:?}", clock()));
        assert_eq!(r.to_string(), clock().to_string());
    }

    #[test]
    fn deref_exposes_waveform_api() {
        let r = WaveRef::from(clock());
        assert_eq!(r.value_at(Time::from_ns(15.0)), Value::One);
        assert_eq!(r.period(), P);
        assert_eq!(r.to_waveform(), clock());
    }
}
