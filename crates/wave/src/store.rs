//! Hash-consed waveform interning: one canonical copy per distinct
//! transition list, compact handles, O(1) equality.
//!
//! The thesis' engine keeps every signal's value list in a shared value
//! area (§3.2, Table 3-3); structurally identical lists are common —
//! constants, clock phases, and the repeated sub-waveforms of regular
//! datapaths. A [`WaveStore`] deduplicates them: [`intern`] returns a
//! [`WaveRef`] handle whose equality test is an id compare whenever both
//! sides come from the same store, and the canonical [`Waveform`] is
//! shared behind an [`Arc`] instead of deep-cloned.
//!
//! The store is sharded: reads (hits) take a shard read-lock only, so
//! concurrent daemon requests deduplicate against it without
//! serializing on a single mutex. Misses take the shard write-lock and
//! double-check before inserting.
//!
//! [`intern`]: WaveStore::intern

use crate::Waveform;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// log2 of the shard count: 16 shards comfortably cover the engine's
/// worker-pool widths while keeping the store footprint small.
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// Compact handle to an interned waveform: the shard in the low bits,
/// the slot within the shard above them. Only meaningful together with
/// the store that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WaveId(u32);

impl WaveId {
    fn new(shard: usize, slot: usize) -> WaveId {
        let slot = u32::try_from(slot).expect("wave store slot fits in 28 bits");
        assert!(slot < (1 << (32 - SHARD_BITS)), "wave store shard overflow");
        WaveId((slot << SHARD_BITS) | shard as u32)
    }

    fn shard(self) -> usize {
        (self.0 & (SHARDS as u32 - 1)) as usize
    }

    fn slot(self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }

    /// The raw packed index (stable for the lifetime of the store).
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A shared, canonical waveform plus the identity the issuing store gave
/// it.
///
/// Dereferences to [`Waveform`], so read-only call sites are unchanged;
/// cloning is a reference-count bump. Equality compares ids when both
/// handles come from the same store (the hash-consing invariant makes
/// that exact) and falls back to structural comparison otherwise, so
/// mixing stores is safe, just slower. `Debug`/`Display` delegate to the
/// waveform — handles are transparent in all rendered output.
#[derive(Clone)]
pub struct WaveRef {
    store: u32,
    id: WaveId,
    wave: Arc<Waveform>,
}

impl WaveRef {
    /// The interned waveform.
    #[must_use]
    pub fn as_wave(&self) -> &Waveform {
        &self.wave
    }

    /// An owned copy of the waveform (for APIs that hand out owned
    /// [`Waveform`]s).
    #[must_use]
    pub fn to_waveform(&self) -> Waveform {
        (*self.wave).clone()
    }

    /// The handle within the issuing store.
    #[must_use]
    pub fn id(&self) -> WaveId {
        self.id
    }

    /// The issuing store's tag (process-unique).
    #[must_use]
    pub fn store_tag(&self) -> u32 {
        self.store
    }
}

impl Deref for WaveRef {
    type Target = Waveform;
    fn deref(&self) -> &Waveform {
        &self.wave
    }
}

impl PartialEq for WaveRef {
    fn eq(&self, other: &WaveRef) -> bool {
        if self.store == other.store {
            // Hash-consing invariant: one id per distinct waveform.
            self.id == other.id
        } else {
            *self.wave == *other.wave
        }
    }
}

impl Eq for WaveRef {}

// No `Hash` impl on purpose: equal refs from *different* stores would
// need equal hashes, which ids cannot guarantee. Hash the waveform, or
// key on `(store_tag, id)` where a single store is guaranteed.

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

#[derive(Default)]
struct Shard {
    map: HashMap<Arc<Waveform>, u32>,
    slots: Vec<Arc<Waveform>>,
}

/// A hash-consed arena of waveforms.
///
/// ```
/// use scald_logic::Value;
/// use scald_wave::{Time, WaveStore, Waveform};
///
/// let store = WaveStore::new();
/// let p = Time::from_ns(50.0);
/// let a = store.intern(Waveform::constant(p, Value::Zero));
/// let b = store.intern(Waveform::constant(p, Value::Zero));
/// assert_eq!(a.id(), b.id()); // one canonical copy
/// assert_eq!(store.len(), 1);
/// ```
pub struct WaveStore {
    tag: u32,
    hasher: RandomState,
    shards: [RwLock<Shard>; SHARDS],
    interns: AtomicU64,
    hits: AtomicU64,
}

/// Effort counters of an interning store: a [`WaveStore`], or the
/// verifier's store of signal states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Total intern calls.
    pub interns: u64,
    /// Calls that found an existing canonical copy.
    pub hits: u64,
    /// Distinct values currently interned.
    pub unique: usize,
}

impl WaveStore {
    /// An empty store with a fresh process-unique tag.
    #[must_use]
    pub fn new() -> WaveStore {
        static NEXT_TAG: AtomicU32 = AtomicU32::new(0);
        WaveStore {
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            hasher: RandomState::new(),
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
            interns: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The process-global store the engine interns through.
    #[must_use]
    pub fn global() -> &'static WaveStore {
        static GLOBAL: OnceLock<WaveStore> = OnceLock::new();
        GLOBAL.get_or_init(WaveStore::new)
    }

    /// This store's process-unique tag.
    #[must_use]
    pub fn tag(&self) -> u32 {
        self.tag
    }

    fn shard_of(&self, wave: &Waveform) -> usize {
        (self.hasher.hash_one(wave) as usize) & (SHARDS - 1)
    }

    /// Interns `wave`, returning the canonical shared handle. Repeated
    /// interns of equal waveforms return handles with equal [`WaveId`]s
    /// and never store a second copy.
    ///
    /// # Panics
    ///
    /// Panics if a single shard exceeds 2^28 distinct waveforms.
    pub fn intern(&self, wave: Waveform) -> WaveRef {
        self.interns.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_of(&wave);
        {
            let inner = self.shards[shard].read().expect("wave store poisoned");
            if let Some(&slot) = inner.map.get(&wave) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return WaveRef {
                    store: self.tag,
                    id: WaveId::new(shard, slot as usize),
                    wave: Arc::clone(&inner.slots[slot as usize]),
                };
            }
        }
        let mut inner = self.shards[shard].write().expect("wave store poisoned");
        // Double-check: another worker may have interned it between the
        // read unlock and the write lock.
        if let Some(&slot) = inner.map.get(&wave) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return WaveRef {
                store: self.tag,
                id: WaveId::new(shard, slot as usize),
                wave: Arc::clone(&inner.slots[slot as usize]),
            };
        }
        let slot = inner.slots.len();
        let arc = Arc::new(wave);
        inner.slots.push(Arc::clone(&arc));
        let id = WaveId::new(shard, slot);
        inner.map.insert(Arc::clone(&arc), slot as u32);
        WaveRef {
            store: self.tag,
            id,
            wave: arc,
        }
    }

    /// The handle for a previously issued id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this store.
    #[must_use]
    pub fn get(&self, id: WaveId) -> WaveRef {
        let inner = self.shards[id.shard()].read().expect("wave store poisoned");
        WaveRef {
            store: self.tag,
            id,
            wave: Arc::clone(&inner.slots[id.slot()]),
        }
    }

    /// Distinct waveforms currently interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("wave store poisoned").slots.len())
            .sum()
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
}

impl Default for WaveStore {
    fn default() -> WaveStore {
        WaveStore::new()
    }
}

impl fmt::Debug for WaveStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("WaveStore")
            .field("tag", &self.tag)
            .field("unique", &stats.unique)
            .field("interns", &stats.interns)
            .field("hits", &stats.hits)
            .finish()
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
    fn equal_waveforms_share_one_slot() {
        let store = WaveStore::new();
        let a = store.intern(clock());
        let b = store.intern(clock());
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!((stats.interns, stats.hits, stats.unique), (2, 1, 1));
    }

    #[test]
    fn distinct_waveforms_get_distinct_ids() {
        let store = WaveStore::new();
        let a = store.intern(clock());
        let b = store.intern(Waveform::constant(P, Value::Stable));
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn get_round_trips_ids() {
        let store = WaveStore::new();
        let a = store.intern(clock());
        let again = store.get(a.id());
        assert_eq!(a, again);
        assert_eq!(*again, clock());
    }

    #[test]
    fn cross_store_equality_is_structural() {
        let s1 = WaveStore::new();
        let s2 = WaveStore::new();
        assert_ne!(s1.tag(), s2.tag());
        let a = s1.intern(clock());
        let b = s2.intern(clock());
        assert_eq!(a, b, "same waveform, different stores");
        assert_ne!(a, s2.intern(Waveform::constant(P, Value::Zero)));
    }

    #[test]
    fn debug_and_display_are_transparent() {
        let r = WaveStore::new().intern(clock());
        assert_eq!(format!("{r:?}"), format!("{:?}", clock()));
        assert_eq!(r.to_string(), clock().to_string());
    }

    #[test]
    fn deref_exposes_waveform_api() {
        let r = WaveStore::new().intern(clock());
        assert_eq!(r.value_at(Time::from_ns(15.0)), Value::One);
        assert_eq!(r.period(), P);
        assert_eq!(r.to_waveform(), clock());
    }
}
