//! The append-only interner behind the wave and state stores, and the
//! sharded carried-hash table it is built on.
//!
//! The thesis keeps every signal's value list in one shared value area
//! (§3.2, Table 3-3): a large design has few distinct timing values. An
//! [`Interner`] is that area for one kind of value. It hashes a value
//! once with a keyed hasher; the hash picks one of 16 shards and, carried
//! in the shard's table key, the bucket within it. A value new to the
//! interner gets the next dense `u32` id and a slot in a chunked array
//! that never moves or frees an entry, so a reader turns an id back into
//! its value with two atomic loads and no lock, from any thread.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// log2 of the shard count: 16 shards keep concurrent daemon requests
/// from serializing on one lock.
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;
/// Where a key's shard index sits in its hash: above the low bits the
/// shard's table takes for its bucket index and below the top seven it
/// keeps as its control tag, so the shard choice correlates with
/// neither.
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
pub struct Padded<T>(pub T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The hasher of tables whose keys carry the hash they were built with:
/// it hands that hash back.
#[derive(Default)]
pub struct CarriedHash(u64);

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

/// A table keyed by carried-hash keys: a key's `Hash` writes only the
/// hash it carries, through `write_u64`.
pub type CarriedMap<K, V> = HashMap<K, V, BuildHasherDefault<CarriedHash>>;

/// Sixteen carried-hash tables, each behind its own read-write lock on
/// its own cache lines. A key's carried hash picks its shard, so one
/// keyed hash serves both the shard and the bucket.
pub struct Shards<K, V>([Padded<RwLock<CarriedMap<K, V>>>; SHARDS]);

impl<K, V> Shards<K, V> {
    /// The table that holds keys carrying `hash`.
    #[must_use]
    pub fn of(&self, hash: u64) -> &RwLock<CarriedMap<K, V>> {
        &self.0[(hash >> SHARD_SHIFT) as usize & (SHARDS - 1)]
    }

    /// Entries across every table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0
            .iter()
            .map(|s| s.read().expect("shard poisoned").len())
            .sum()
    }

    /// `true` if every table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, V> Default for Shards<K, V> {
    /// Sixteen empty tables.
    fn default() -> Shards<K, V> {
        Shards(std::array::from_fn(|_| Padded(RwLock::default())))
    }
}

/// Effort counters of an interning store: the wave store, or the
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

/// An interned value in a shard's table, with the hash it was interned
/// under. Its equality is the value's.
struct Carried<'a, T> {
    hash: u64,
    value: &'a T,
}

impl<T: PartialEq> PartialEq for Carried<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: Eq> Eq for Carried<'_, T> {}

impl<T> Hash for Carried<'_, T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A process-lifetime, append-only set of distinct values, each named
/// by a dense `u32` id issued from 0 in first-intern order.
///
/// Interning hashes the value once and probes one shard under its read
/// lock, taking the write lock only for a value new to the interner. A
/// value is kept in a chunked slot array that never moves or frees an
/// entry, which is what lets a `'static` interner hand out `'static`
/// references and lets [`get`](Self::get) read without a lock:
///
/// ```
/// use scald_wave::Interner;
///
/// let names: &'static Interner<String> = Box::leak(Box::default());
/// let (a, _) = names.intern("CK .P2-3".to_string());
/// let (b, first) = names.intern("CK .P2-3".to_string());
/// assert_eq!((a, b), (0, 0)); // one id, issued from 0
/// assert_eq!(first, names.get(0));
/// assert_eq!(names.intern("D".to_string()).0, 1);
/// ```
pub struct Interner<T: 'static> {
    /// Keyed, so values derived from client designs (the daemon shares
    /// one process) cannot be chosen to collide.
    hasher: RandomState,
    shards: Shards<Carried<'static, T>, u32>,
    /// Slot `id` lives in chunk `c`, allocated on first use.
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    /// Ids handed out so far. Relaxed: the counter only makes ids
    /// distinct; a slot's `OnceLock` publishes its value (`set` is a
    /// release, `get` an acquire), and an id reaches another thread only
    /// through the shard lock or whatever hands the id over.
    issued: Padded<AtomicU32>,
    interns: Padded<AtomicU64>,
    hits: Padded<AtomicU64>,
}

impl<T: Hash + Eq> Interner<T> {
    /// The id of `value` and its canonical copy, issuing the next id if
    /// the interner has not seen it.
    ///
    /// # Panics
    ///
    /// Panics if the interner would hold more than `u32::MAX` values.
    pub fn intern(&'static self, value: T) -> (u32, &'static T) {
        self.interns.fetch_add(1, Ordering::Relaxed);
        let hash = self.hasher.hash_one(&value);
        let probe = Carried {
            hash,
            value: &value,
        };
        let shard = self.shards.of(hash);
        if let Some(&id) = shard.read().expect("interner poisoned").get(&probe) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (id, self.get(id));
        }
        let mut table = shard.write().expect("interner poisoned");
        // Another thread may have interned it between the two locks.
        if let Some(&id) = table.get(&probe) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (id, self.get(id));
        }
        let id = self.issued.fetch_add(1, Ordering::Relaxed);
        assert!(id < u32::MAX, "interner overflow");
        let (chunk, offset) = locate(id);
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..1usize << (chunk as u32 + FIRST_CHUNK_BITS))
                .map(|_| OnceLock::new())
                .collect()
        });
        assert!(slots[offset].set(value).is_ok(), "ids are issued once");
        let canonical = slots[offset].get().expect("slot just set");
        table.insert(
            Carried {
                hash,
                value: canonical,
            },
            id,
        );
        (id, canonical)
    }
}

impl<T> Interner<T> {
    /// The value `id` names.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner.
    #[must_use]
    pub fn get(&self, id: u32) -> &T {
        let (chunk, offset) = locate(id);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[offset].get())
            .expect("id issued by the interner")
    }

    /// Distinct values interned so far.
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
}

impl<T: Hash + Eq> Default for Interner<T> {
    /// An empty interner.
    fn default() -> Interner<T> {
        Interner {
            hasher: RandomState::new(),
            shards: Shards::default(),
            chunks: std::array::from_fn(|_| OnceLock::new()),
            issued: Padded::default(),
            interns: Padded::default(),
            hits: Padded::default(),
        }
    }
}

/// The chunk and offset of `id`'s slot.
fn locate(id: u32) -> (usize, usize) {
    let at = u64::from(id) + (1 << FIRST_CHUNK_BITS);
    let chunk = 63 - at.leading_zeros() - FIRST_CHUNK_BITS;
    (
        chunk as usize,
        (at - (1 << (chunk + FIRST_CHUNK_BITS))) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local<T: Hash + Eq>() -> &'static Interner<T> {
        Box::leak(Box::default())
    }

    #[test]
    fn slots_are_located_chunk_by_chunk() {
        let first = 1usize << FIRST_CHUNK_BITS;
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(first as u32 - 1), (0, first - 1));
        assert_eq!(locate(first as u32), (1, 0));
        assert_eq!(locate(3 * first as u32 - 1), (1, 2 * first - 1));
        assert_eq!(locate(3 * first as u32), (2, 0));
        let (chunk, offset) = locate(u32::MAX);
        assert_eq!(chunk, CHUNKS - 1);
        assert!(offset < first << chunk);
    }

    /// On one thread, ids are dense from 0 in first-intern order, across
    /// the first chunk boundary, and a repeat is a hit on the first id.
    #[test]
    fn ids_are_dense_in_first_intern_order() {
        let store = local::<u64>();
        let n = 3 << FIRST_CHUNK_BITS;
        for k in 0..n {
            let (id, value) = store.intern(k * 7);
            assert_eq!((id, *value), (k as u32, k * 7));
        }
        for k in (0..n).rev() {
            assert_eq!(store.intern(k * 7).0, k as u32);
            assert_eq!(*store.get(k as u32), k * 7);
        }
        let stats = store.stats();
        assert_eq!(stats.unique, n as usize);
        assert_eq!((stats.interns, stats.hits), (2 * n, n));
    }

    /// Eight threads intern the same values, each in its own order:
    /// every value gets one id, the same on every thread, and every
    /// intern after a value's first is a hit.
    #[test]
    fn values_interned_from_eight_threads_get_one_id_each() {
        let store = local::<String>();
        let values: Vec<String> = (0..64).map(|k| format!("S{k}")).collect();
        let per_thread: Vec<Vec<u32>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|t| {
                    let values = &values;
                    s.spawn(move || {
                        let mut ids = vec![0; values.len()];
                        for i in 0..values.len() {
                            let k = (i * 5 + t * 11) % values.len();
                            ids[k] = store.intern(values[k].clone()).0;
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
        assert_eq!(distinct, (0..values.len() as u32).collect::<Vec<_>>());
        for (value, &id) in values.iter().zip(&per_thread[0]) {
            assert_eq!(store.get(id), value);
        }
        let stats = store.stats();
        assert_eq!(stats.unique, values.len());
        assert_eq!(stats.interns, 8 * values.len() as u64);
        assert_eq!(stats.hits + stats.unique as u64, stats.interns);
    }

    #[test]
    fn a_value_interned_on_one_thread_reads_back_on_another() {
        let store = local::<String>();
        let id = std::thread::spawn(|| store.intern("there".to_string()).0)
            .join()
            .unwrap();
        assert_eq!(store.get(id), "there");

        let (id, _) = store.intern("here".to_string());
        let back = std::thread::spawn(move || store.get(id).clone())
            .join()
            .unwrap();
        assert_eq!(back, "here");
    }
}
