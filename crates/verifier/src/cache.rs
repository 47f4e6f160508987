//! Cross-wave, cross-case, cross-session memoization of primitive
//! evaluations.
//!
//! [`evaluate`](crate::eval) is a pure function of a primitive's static
//! description (kind, delays, per-connection inversion/directive/wire
//! delay, and the clock period) and the dynamic states of its input
//! signals. Every distinct input state is interned once into the global
//! [`StateStore`](crate::StateStore), so a pin of the key is its input's
//! [`StateId`] — one `u32` read from the state column — and a small key
//! identifies an evaluation exactly; the outcome is served from a table
//! instead of re-running the kernels.
//!
//! Invalidation is by construction: everything `evaluate` reads is in the
//! key. The static half is packed once per primitive into a word slice
//! and interned to a `u32` signature, so netlist edits between
//! `scald-incr` re-verifications produce new signatures for changed
//! primitives and identical ones for untouched primitives — stale
//! entries are unreachable, not purged.
//!
//! A lookup costs one keyed hash and no allocation: a key holds up to
//! four pins inline and carries the hash it was built with, which picks
//! both the shard and the slot within it. The table is the same sharded
//! carried-hash table ([`Shards`]) the wave and state stores intern
//! through: a lookup takes a shard read-lock, a miss inserts under the
//! shard write-lock. An outcome is `Copy`, so a hit takes no
//! reference count; each settle counts its hits and misses in its own
//! [`Tally`], added to the shared counters once per wave.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use scald_netlist::{Netlist, PrimKind, PrimRef};
use scald_wave::{DelayCorner, Padded, Shards, Time};

use crate::eval::EvalOutcome;
use crate::state::StateId;
use crate::view::StateView;

/// Pins a key stores inline; a wider fan-in spills to a boxed slice.
const INLINE_PINS: usize = 4;

#[derive(Debug, Clone)]
enum Pins {
    /// The first `len` entries are in use, the rest are `StateId(0)`.
    Inline([StateId; INLINE_PINS]),
    Spilled(Box<[StateId]>),
}

/// Full cache key: the primitive's interned descriptor signature, the
/// delay corner in force, and the state of each input in connection
/// order — plus the hash of all of them, computed once by the cache that
/// built the key.
#[derive(Debug, Clone)]
pub(crate) struct EvalKey {
    hash: u64,
    sig: u32,
    /// Corner sweeps collapse every
    /// [`DelayRange`](scald_wave::DelayRange) the kernels read, so
    /// outcomes from different corners must never alias.
    corner: DelayCorner,
    len: u32,
    pins: Pins,
}

impl EvalKey {
    fn pins(&self) -> &[StateId] {
        match &self.pins {
            Pins::Inline(pins) => &pins[..self.len as usize],
            Pins::Spilled(pins) => pins,
        }
    }
}

impl PartialEq for EvalKey {
    fn eq(&self, other: &EvalKey) -> bool {
        self.sig == other.sig
            && self.corner == other.corner
            && self.len == other.len
            && self.pins() == other.pins()
    }
}

impl Eq for EvalKey {}

/// Writes only the carried hash: the shard tables pass it through.
impl Hash for EvalKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hit/miss/size counters for an [`EvalCache`], surfaced through the
/// report's engine-stats listing and the `cache_stats` trace event.
///
/// The counts are those of one thread evaluating every key in turn.
/// Threads that evaluate one key at the same time (daemon requests on
/// one design's shared cache) all miss their lookups, but only the
/// evaluation that stores the outcome first stays a miss; the others
/// find it stored and count as the hits a serial run would have seen.
/// So within one run that owns its cache — a single case or a case
/// sweep — every key new to the table is one miss, and every other
/// lookup a hit. A cache shared by runs in flight at once (the
/// daemon's) splits its counts between them by timing, so per-request
/// attribution there is approximate. Stripped
/// reports (`Report::strip_effort`) leave these counters out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Lookups served from the table (including evaluations a
    /// concurrent worker stored first).
    pub hits: u64,
    /// Evaluations that stored a new outcome in the table.
    pub misses: u64,
    /// Distinct evaluation outcomes currently stored.
    pub entries: usize,
}

impl EvalCacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters accumulated since `earlier` (a prior snapshot of the
    /// same cache): per-request attribution on a shared, long-lived
    /// table, where the cumulative numbers span every client.
    /// `entries` stays absolute — the table only grows.
    #[must_use]
    pub fn since(&self, earlier: &EvalCacheStats) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
}

/// One worker's hits and misses on an [`EvalCache`], not yet added to
/// the cache's counters ([`EvalCache::add`]).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    hits: u64,
    misses: u64,
}

/// A sharded memo table of primitive-evaluation outcomes.
///
/// One cache is created per [`Verifier`](crate::Verifier) unless a shared
/// one is injected ([`VerifierBuilder::shared_eval_cache`]); `scald-incr`
/// sessions inject one cache across every re-verification so unchanged
/// regions of an edited design replay from the table.
///
/// [`VerifierBuilder::shared_eval_cache`]: crate::VerifierBuilder::shared_eval_cache
pub struct EvalCache {
    /// Packed descriptor → signature interner, numbering descriptors in
    /// order of first occurrence. Identical primitive descriptions
    /// (across netlists, sessions, rebuilds) map to the same signature,
    /// which is what makes warm-session reuse work.
    sigs: Mutex<HashMap<Box<[u64]>, u32>>,
    /// Keyed, so keys derived from client designs (the daemon shares
    /// one cache) cannot be chosen to collide.
    hasher: RandomState,
    shards: Shards<EvalKey, EvalOutcome>,
    hits: Padded<AtomicU64>,
    misses: Padded<AtomicU64>,
    /// Every key built, paired with the key as it was built before keys
    /// were packed: the exactness oracle of the unit-test build.
    #[cfg(test)]
    oracle: Mutex<key_oracle::SideMaps>,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> EvalCache {
        EvalCache {
            sigs: Mutex::new(HashMap::new()),
            hasher: RandomState::new(),
            shards: Shards::default(),
            hits: Padded::default(),
            misses: Padded::default(),
            #[cfg(test)]
            oracle: Mutex::default(),
        }
    }

    /// Interns the static descriptor of every primitive of `netlist`
    /// under one lock, returning each one's signature by `PrimId` index —
    /// `None` for checker kinds, which compute nothing during the fixed
    /// point and are not worth a table slot. Only a descriptor new to
    /// the cache allocates.
    pub(crate) fn sigs_for(&self, netlist: &Netlist) -> Vec<Option<u32>> {
        let period = netlist.config().timing.period;
        let mut words = Vec::new();
        let mut sigs = self.sigs.lock().expect("eval cache poisoned");
        netlist
            .iter_prims()
            .map(|(_, prim)| {
                if prim.kind().is_checker() {
                    return None;
                }
                words.clear();
                pack_descriptor(netlist, period, prim, &mut words);
                if let Some(&sig) = sigs.get(words.as_slice()) {
                    return Some(sig);
                }
                let next = sigs.len() as u32;
                sigs.insert(words.as_slice().into(), next);
                Some(next)
            })
            .collect()
    }

    /// Builds the full key for evaluating `prim` (signature `sig`)
    /// against the input states visible in `states`, hashed once.
    pub(crate) fn key_for<S: StateView + ?Sized>(
        &self,
        sig: u32,
        prim: PrimRef<'_>,
        states: &S,
        corner: DelayCorner,
    ) -> EvalKey {
        let inputs = prim.input_signals();
        let pin = |s: &scald_netlist::SignalId| states.state_at(s.index());
        let pins = if inputs.len() <= INLINE_PINS {
            let mut inline = [StateId::default(); INLINE_PINS];
            for (slot, s) in inline.iter_mut().zip(inputs) {
                *slot = pin(s);
            }
            Pins::Inline(inline)
        } else {
            Pins::Spilled(inputs.iter().map(pin).collect())
        };
        let mut key = EvalKey {
            hash: 0,
            sig,
            corner,
            len: inputs.len() as u32,
            pins,
        };
        key.hash = self.hash_key(&key);
        #[cfg(test)]
        key_oracle::cross_check(self, &key, sig, prim, states, corner);
        key
    }

    /// The keyed hash of everything `key` compares, as one byte stream:
    /// a header word (signature, corner, pin count), then each pin's id.
    /// Up to [`INLINE_PINS`] pins this is a single `write`.
    fn hash_key(&self, key: &EvalKey) -> u64 {
        let mut h = self.hasher.build_hasher();
        let mut buf = [0u8; 8 + 4 * INLINE_PINS];
        let header = u64::from(key.sig) | ((key.corner as u64) << 32) | (u64::from(key.len) << 40);
        buf[..8].copy_from_slice(&header.to_ne_bytes());
        let mut at = 8;
        for pin in key.pins() {
            if at == buf.len() {
                h.write(&buf);
                at = 0;
            }
            buf[at..at + 4].copy_from_slice(&(pin.index() as u32).to_ne_bytes());
            at += 4;
        }
        h.write(&buf[..at]);
        h.finish()
    }

    /// Looks `key` up, counting a hit or a miss in `tally` (a miss
    /// becomes a hit if its [`insert`](Self::insert) finds another
    /// worker's outcome).
    pub(crate) fn lookup(&self, key: &EvalKey, tally: &mut Tally) -> Option<EvalOutcome> {
        let found = self
            .shards
            .of(key.hash)
            .read()
            .expect("eval cache poisoned")
            .get(key)
            .copied();
        match found {
            Some(_) => tally.hits += 1,
            None => tally.misses += 1,
        }
        found
    }

    /// Stores the outcome for `key` after a [`lookup`](Self::lookup)
    /// counted in `tally` missed. Racing inserts of the same key
    /// keep the first value; outcomes for equal keys are equal, so which
    /// copy wins is unobservable. An insert that finds the key already
    /// stored turns its lookup's miss into a hit: another worker
    /// evaluated the key first, and a serial run would have found it in
    /// the table.
    pub(crate) fn insert(&self, key: EvalKey, outcome: EvalOutcome, tally: &mut Tally) {
        let mut table = self
            .shards
            .of(key.hash)
            .write()
            .expect("eval cache poisoned");
        match table.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(outcome);
            }
            Entry::Occupied(_) => {
                tally.misses -= 1;
                tally.hits += 1;
            }
        }
    }

    /// Adds the hits and misses counted in `tally` to this cache's
    /// counters. Call it once every missed lookup it counts has had its
    /// [`insert`](Self::insert), which may turn that miss into a hit.
    pub(crate) fn add(&self, tally: Tally) {
        for (count, total) in [(tally.hits, &self.hits), (tally.misses, &self.misses)] {
            if count > 0 {
                total.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Distinct outcomes currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` if no outcome has been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/size counters.
    #[must_use]
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new()
    }
}

impl fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("EvalCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// Appends to `words` everything `evaluate` reads from the netlist for
/// one primitive: the period, the kind with its parameters, the delay,
/// the edge delays behind a presence word, and per connection a word of
/// inversion and directive length, the *resolved* wire delay, and the
/// directive's bytes eight to a word. Two primitives with equal words
/// evaluate identically on equal inputs — the
/// invalidation-by-construction invariant — and every length is in the
/// words, so equal words mean equal descriptors.
fn pack_descriptor(netlist: &Netlist, period: Time, prim: PrimRef<'_>, words: &mut Vec<u64>) {
    let ps = |t: Time| t.as_ps() as u64;
    words.extend([
        ps(period),
        kind_code(prim.kind()),
        ps(prim.delay().min),
        ps(prim.delay().max),
    ]);
    match prim.edge_delays() {
        None => words.push(0),
        Some(ed) => words.extend([
            1,
            ps(ed.rise.min),
            ps(ed.rise.max),
            ps(ed.fall.min),
            ps(ed.fall.max),
        ]),
    }
    for conn in prim.inputs() {
        let wire = netlist.wire_delay(conn);
        // 0 for no directive, else its length plus one.
        let directive = conn.directive().map_or(0, |d| d.len() as u64 + 1);
        words.extend([
            u64::from(conn.invert()) | directive << 1,
            ps(wire.min),
            ps(wire.max),
        ]);
        for chunk in conn.directive().iter().flat_map(|d| d.as_bytes().chunks(8)) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            words.push(u64::from_le_bytes(word));
        }
    }
}

/// A cached kind and its parameters as one word: the kind in the low
/// byte, its parameter above it.
fn kind_code(kind: PrimKind) -> u64 {
    match kind {
        PrimKind::And => 0,
        PrimKind::Or => 1,
        PrimKind::Nand => 2,
        PrimKind::Nor => 3,
        PrimKind::Xor => 4,
        PrimKind::Xnor => 5,
        PrimKind::Not => 6,
        PrimKind::Buf => 7,
        PrimKind::Chg => 8,
        PrimKind::Delay => 9,
        PrimKind::Mux { data } => 10 | u64::from(data) << 8,
        PrimKind::Reg { set_reset } => 11 | u64::from(set_reset) << 8,
        PrimKind::Latch { set_reset } => 12 | u64::from(set_reset) << 8,
        PrimKind::Const(v) => 13 | (v as u64) << 8,
        PrimKind::SetupHold { .. }
        | PrimKind::SetupRiseHoldFall { .. }
        | PrimKind::MinPulseWidth { .. } => unreachable!("checkers are not cached"),
    }
}

#[cfg(test)]
mod key_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value;
    use scald_netlist::{Config, NetlistBuilder, PrimKind};
    use scald_wave::{DelayRange, Time, Waveform};

    use crate::state::SignalState;

    /// The ids of constant states of `values`.
    fn constants(period: Time, values: &[Value]) -> Vec<StateId> {
        values
            .iter()
            .map(|&v| StateId::of(SignalState::new(Waveform::constant(period, v))))
            .collect()
    }

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let a = b.signal("A").unwrap();
        let q = b.signal("Q").unwrap();
        let r = b.signal("R").unwrap();
        b.prim(
            "BUF",
            PrimKind::Buf,
            DelayRange::from_ns(1.0, 2.0),
            vec![a.into()],
            Some(q),
        );
        b.prim(
            "INV",
            PrimKind::Not,
            DelayRange::from_ns(1.0, 2.0),
            vec![a.into()],
            Some(r),
        );
        b.finish().unwrap()
    }

    #[test]
    fn signatures_distinguish_prims_and_dedupe_equal_descriptors() {
        let n = tiny();
        let cache = EvalCache::new();
        let sigs = cache.sigs_for(&n);
        assert_eq!(
            sigs,
            [Some(0), Some(1)],
            "different kinds, different signatures"
        );
        // Re-interning (as a rebuilt session would) is stable.
        assert_eq!(cache.sigs_for(&n), sigs);
    }

    #[test]
    fn lookup_hits_only_on_matching_key_and_counts() {
        let n = tiny();
        let cache = EvalCache::new();
        let (_, prim) = n.iter_prims().next().unwrap();
        let sig = cache.sigs_for(&n)[0].unwrap();
        let period = n.config().timing.period;
        let states = constants(period, &[Value::Zero, Value::Unknown, Value::Unknown]);
        let mut tally = Tally::default();
        let key = cache.key_for(sig, prim, states.as_slice(), DelayCorner::Worst);
        assert!(cache.lookup(&key, &mut tally).is_none());
        let outcome = crate::eval::evaluate(&n, prim, states.as_slice(), DelayCorner::Worst);
        cache.insert(key.clone(), outcome, &mut tally);
        // Another worker reads the stored outcome from the shared table.
        let mut other_tally = Tally::default();
        let back = cache
            .lookup(&key, &mut other_tally)
            .expect("second lookup hits");
        assert_eq!(format!("{back:?}"), format!("{outcome:?}"));

        // A different input wave is a different key.
        let other = constants(period, &[Value::One, Value::Unknown]);
        let miss = cache.key_for(sig, prim, other.as_slice(), DelayCorner::Worst);
        assert_ne!(key, miss);
        assert!(cache.lookup(&miss, &mut tally).is_none());

        assert_eq!(
            cache.stats().hits + cache.stats().misses,
            0,
            "not yet added"
        );
        cache.add(tally);
        cache.add(other_tally);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Every order in which racing workers' lookups and inserts can land:
    /// each worker looks its key up, then stores its outcome if the
    /// lookup missed. For keys all shared, partly shared and distinct,
    /// with and without a key already in the table, every interleaving
    /// counts what one worker evaluating the keys in turn counts.
    #[test]
    fn counts_match_one_worker_in_every_interleaving() {
        let n = tiny();
        let (_, prim) = n.iter_prims().next().unwrap();
        let period = n.config().timing.period;
        // Keys are hashed by the cache that builds them.
        let key = |c: &EvalCache, v: Value| {
            c.key_for(
                0,
                prim,
                constants(period, &[v]).as_slice(),
                DelayCorner::Worst,
            )
        };
        let states = constants(period, &[Value::Zero]);
        let outcome = crate::eval::evaluate(&n, prim, states.as_slice(), DelayCorner::Worst);
        let counts = |c: &EvalCache| {
            let s = c.stats();
            (s.hits, s.misses, s.entries)
        };
        let cache_with = |stored: &[Value]| {
            let cache = EvalCache::new();
            let mut filler = Tally::default();
            for &v in stored {
                assert!(cache.lookup(&key(&cache, v), &mut filler).is_none());
                cache.insert(key(&cache, v), outcome, &mut filler);
            }
            cache.add(filler);
            cache
        };
        // Every sequence of worker indices naming each of three workers
        // twice: its first step is its lookup, its second its insert.
        let mut orders: Vec<Vec<usize>> = vec![Vec::new()];
        for _ in 0..6 {
            let mut longer = Vec::new();
            for o in &orders {
                for w in 0..3 {
                    if o.iter().filter(|&&x| x == w).count() < 2 {
                        let mut next = o.clone();
                        next.push(w);
                        longer.push(next);
                    }
                }
            }
            orders = longer;
        }
        assert_eq!(orders.len(), 90);

        use Value::{One, Stable, Zero};
        for stored in [&[][..], &[Zero][..]] {
            for keys in [[Zero, Zero, Zero], [Zero, One, Zero], [One, Zero, Stable]] {
                let serial = cache_with(stored);
                let mut one = Tally::default();
                for &v in &keys {
                    if serial.lookup(&key(&serial, v), &mut one).is_none() {
                        serial.insert(key(&serial, v), outcome, &mut one);
                    }
                }
                serial.add(one);
                let expected = counts(&serial);
                for order in &orders {
                    let cache = cache_with(stored);
                    let mut workers: [Tally; 3] = Default::default();
                    let mut missed = [false; 3];
                    let mut looked = [false; 3];
                    for &w in order {
                        let tally = &mut workers[w];
                        if looked[w] {
                            if missed[w] {
                                cache.insert(key(&cache, keys[w]), outcome, tally);
                            }
                        } else {
                            looked[w] = true;
                            missed[w] = cache.lookup(&key(&cache, keys[w]), tally).is_none();
                        }
                    }
                    for tally in workers {
                        cache.add(tally);
                    }
                    assert_eq!(
                        counts(&cache),
                        expected,
                        "stored {stored:?}, keys {keys:?}, order {order:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn checker_prims_are_not_cached() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let d = b.signal("D").unwrap();
        let c = b.signal("C .P0-2").unwrap();
        b.prim(
            "CHK",
            PrimKind::SetupHold {
                setup: Time::from_ns(5.0),
                hold: Time::from_ns(1.0),
            },
            DelayRange::ZERO,
            vec![d.into(), c.into()],
            None,
        );
        let n = b.finish().unwrap();
        let cache = EvalCache::new();
        assert_eq!(cache.sigs_for(&n), [None]);
        assert!(cache.is_empty());
    }

    /// The earlier descriptor: everything `evaluate` reads, rendered with
    /// `Debug` into one string.
    fn oracle_descriptor(netlist: &Netlist, prim: PrimRef<'_>) -> String {
        use std::fmt::Write as _;
        let mut d = String::with_capacity(96);
        let _ = write!(
            d,
            "{:?}|{:?}|{:?}|{:?}",
            netlist.config().timing.period,
            prim.kind(),
            prim.delay(),
            prim.edge_delays(),
        );
        for conn in prim.inputs() {
            let _ = write!(
                d,
                "|{}:{:?}:{:?}",
                conn.invert(),
                conn.directive(),
                netlist.wire_delay(conn),
            );
        }
        d
    }

    /// Signatures the Debug-string interner gives `designs` interned in
    /// turn into one table: checkers `None`, the rest numbered in order
    /// of first occurrence.
    fn oracle_sigs(designs: &[&Netlist]) -> Vec<Vec<Option<u32>>> {
        let mut oracle: HashMap<String, u32> = HashMap::new();
        designs
            .iter()
            .map(|n| {
                n.iter_prims()
                    .map(|(_, prim)| {
                        (!prim.kind().is_checker()).then(|| {
                            let next = oracle.len() as u32;
                            *oracle.entry(oracle_descriptor(n, prim)).or_insert(next)
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// A design that sets every descriptor field the generators leave at
    /// their defaults, and the values the packing must keep apart:
    /// asymmetric edge delays on `Not` and `Buf` (two differing only in
    /// the fall delay), directive strings (longer than a packed word,
    /// sharing a prefix, empty, absent), wire overrides, inversion,
    /// `Const` of every value, the parameters of `Mux`, `Reg` and
    /// `Latch`, `Delay`, and a second period.
    fn every_descriptor_field(period_ns: f64) -> Netlist {
        use scald_netlist::Conn;
        let mut config = Config::s1_example();
        config.timing.period = Time::from_ns(period_ns);
        let mut b = NetlistBuilder::new(config);
        let a = b.signal("A").unwrap();
        let c = b.signal("C .C2-3").unwrap();
        let outs: Vec<_> = (0..40)
            .map(|i| b.signal(&format!("O{i}")).unwrap())
            .collect();
        let mut outs = outs.into_iter();
        let d = |ns: f64| DelayRange::from_ns(ns, ns + 1.0);
        b.not_asym("N", d(1.0), d(2.0), a, outs.next().unwrap());
        b.not_asym("N2", d(2.0), d(1.0), a, outs.next().unwrap());
        b.buf_asym("B", d(2.0), d(1.0), a, outs.next().unwrap());
        b.buf_asym("B2", d(1.0), d(2.0), a, outs.next().unwrap());
        // Equal rise delays and envelopes, different fall delays.
        let wide = DelayRange::from_ns(1.0, 4.0);
        b.not_asym("N4", wide, d(2.0), a, outs.next().unwrap());
        b.not_asym("N5", wide, d(1.0), a, outs.next().unwrap());
        b.buf_asym("B4", wide, d(2.0), a, outs.next().unwrap());
        b.buf_asym("B5", wide, d(1.0), a, outs.next().unwrap());
        b.not("N3", d(1.0), a, outs.next().unwrap());
        b.buf("B3", d(1.0), a, outs.next().unwrap());
        b.buf(
            "W",
            d(1.0),
            Conn::new(a).with_wire_delay(d(0.5)),
            outs.next().unwrap(),
        );
        for (i, directive) in ["HZ", "HZZ", "A", "HZZWEAZWE", "HZZWEAZWA", "HZZWEAZW", ""]
            .into_iter()
            .enumerate()
        {
            b.and2(
                format!("G{i}"),
                d(1.0),
                a,
                Conn::new(c).with_directive(directive),
                outs.next().unwrap(),
            );
        }
        b.and2(
            "I",
            d(1.0),
            Conn::new(a).inverted(),
            c,
            outs.next().unwrap(),
        );
        // No directive at all, beside the empty one above.
        b.and2("P", d(1.0), a, c, outs.next().unwrap());
        for (i, v) in scald_logic::ALL_VALUES.into_iter().enumerate() {
            b.constant(format!("K{i}"), v, outs.next().unwrap());
        }
        b.mux2("M2", d(1.0), c, a, a, outs.next().unwrap());
        b.prim(
            "M3",
            PrimKind::Mux { data: 3 },
            d(1.0),
            vec![c.into(), a.into(), a.into(), a.into()],
            Some(outs.next().unwrap()),
        );
        b.reg("R", d(1.0), c, a, outs.next().unwrap());
        b.reg_sr("RS", d(1.0), c, a, a, a, outs.next().unwrap());
        b.latch("L", d(1.0), c, a, outs.next().unwrap());
        b.latch_sr("LS", d(1.0), c, a, a, a, outs.next().unwrap());
        b.delay("D", d(1.0), a, outs.next().unwrap());
        b.chg("X", d(1.0), [a, c], outs.next().unwrap());
        b.set_wire_delay(c, DelayRange::ZERO);
        b.finish().unwrap()
    }

    #[test]
    fn descriptor_signatures_match_the_debug_string_interner() {
        use scald_gen::{figures, s1, scale, sweep};
        let mut designs = Vec::new();
        for seed in 0..6 {
            designs.push(s1::s1_like_netlist(s1::S1Options { chips: 120, seed }).0);
        }
        designs.push(figures::hazard_circuit(false));
        designs.push(figures::hazard_circuit(true));
        designs.push(figures::register_file_circuit().0);
        designs.push(figures::case_analysis_circuit().0);
        designs.push(figures::alu_stage().0);
        designs.push(figures::correlation_circuit(false));
        designs.push(figures::correlation_circuit(true));
        designs.push(figures::sr_latch());
        for seed in 0..3 {
            let opts = scale::ScaleOptions {
                seed,
                ..scale::ScaleOptions::prims(3_000)
            };
            designs.push(scale::scale_netlist(&opts).0);
            let opts = sweep::SweepOptions {
                mode_bits: 4,
                master_slices: 40,
                block_slices: 3,
                seed,
            };
            designs.push(sweep::sweep_netlist(&opts).0);
        }
        designs.push(every_descriptor_field(50.0));
        designs.push(every_descriptor_field(40.0));
        // Interning the same designs again must reuse every signature.
        let twice: Vec<&Netlist> = designs.iter().chain(designs.iter()).collect();

        let cache = EvalCache::new();
        let got: Vec<Vec<Option<u32>>> = twice.iter().map(|n| cache.sigs_for(n)).collect();
        let want = oracle_sigs(&twice);
        assert_eq!(got, want);
        let distinct = want.iter().flatten().flatten().max().map_or(0, |&s| s + 1);
        assert!(distinct > 50, "only {distinct} distinct descriptors");
        // Every prim of the field design has its own descriptor.
        let fields = cache.sigs_for(&designs[designs.len() - 1]);
        let mut unique: Vec<u32> = fields.iter().flatten().copied().collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), fields.len(), "{fields:?}");
    }

    /// Two netlists sharing some descriptors, interned into one cache in
    /// either order: the second keeps the first's numbers for what they
    /// share and numbers its new descriptors next, in its own order of
    /// occurrence.
    #[test]
    fn two_netlists_number_in_first_occurrence_order() {
        use scald_gen::s1::{s1_like_netlist, S1Options};
        let small = s1_like_netlist(S1Options { chips: 40, seed: 3 }).0;
        let fields = every_descriptor_field(50.0);
        for pair in [[&small, &fields], [&fields, &small]] {
            let cache = EvalCache::new();
            let got = [cache.sigs_for(pair[0]), cache.sigs_for(pair[1])];
            assert_eq!(got.to_vec(), oracle_sigs(&pair));
            let known = got[0].iter().flatten().max().map_or(0, |&s| s + 1);
            let mut new = Vec::new();
            for &sig in got[1].iter().flatten() {
                if sig >= known && !new.contains(&sig) {
                    new.push(sig);
                }
            }
            assert!(
                got[1].iter().flatten().any(|&s| s < known),
                "the netlists share descriptors"
            );
            assert!(!new.is_empty(), "the second netlist brings new descriptors");
            assert_eq!(new, (known..known + new.len() as u32).collect::<Vec<_>>());
        }
    }
}
