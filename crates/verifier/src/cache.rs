//! Cross-wave, cross-case, cross-session memoization of primitive
//! evaluations.
//!
//! [`evaluate`](crate::eval) is a pure function of a primitive's static
//! description (kind, delays, per-connection inversion/directive/wire
//! delay, and the clock period) and the dynamic states of its input
//! signals. With waveforms hash-consed ([`scald_wave::WaveStore`]), a
//! dynamic input state is fully captured by the compact triple *(interned
//! wave handle, skew, remaining eval string)* — so a small key identifies
//! an evaluation exactly and the outcome can be served from a table
//! instead of re-running the kernels.
//!
//! Invalidation is by construction: everything `evaluate` reads is in the
//! key. The static half is gathered once per primitive into a
//! [`PrimDescriptor`] and interned to a `u32` signature, so netlist
//! edits between `scald-incr` re-verifications produce new signatures for
//! changed primitives and identical ones for untouched primitives —
//! stale entries are unreachable, not purged.
//!
//! The table is sharded like the wave store: hits take a shard read-lock,
//! misses insert under the shard write-lock, so the wave engine's
//! evaluation workers share one cache without serializing.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use scald_netlist::{EdgeDelays, Netlist, PrimKind, Primitive};
use scald_wave::{DelayCorner, DelayRange, Skew, Time, WaveId};

use crate::eval::EvalOutcome;
use crate::view::StateView;

const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// The dynamic half of the key: one input signal's state, compressed to
/// the interned wave handle plus the fields `evaluate` actually reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct InputKey {
    /// Tag of the store that issued the handle (ids are only comparable
    /// within one store).
    store: u32,
    wave: WaveId,
    skew: Skew,
    /// Remaining letters of the propagating evaluation string, if any.
    eval: Option<Box<str>>,
}

/// Full cache key: the primitive's interned descriptor signature plus
/// the dynamic state of each input, in connection order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct EvalKey {
    sig: u32,
    /// The delay corner in force — corner sweeps collapse every
    /// [`DelayRange`](scald_wave::DelayRange) the kernels read, so
    /// outcomes from different corners must never alias.
    corner: DelayCorner,
    inputs: Vec<InputKey>,
}

/// Hit/miss/size counters for an [`EvalCache`], surfaced through the
/// report's engine-stats listing and the `cache_stats` trace event.
///
/// The counts are those of a serial run at every worker count. Workers
/// that evaluate one key at the same time all miss their lookups, but
/// only the evaluation that stores the outcome first stays a miss; the
/// others find it stored and count as the hits a serial run would have
/// seen. So within one run that owns its cache — a single case, a case
/// sweep on either scheduler, any `--jobs` — every key new to the table
/// is one miss, and every other lookup a hit. A cache shared by runs in
/// flight at once (the daemon's) splits its counts between them by
/// timing, so per-request attribution there is approximate. Stripped
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

/// A sharded memo table of primitive-evaluation outcomes.
///
/// One cache is created per [`Verifier`](crate::Verifier) unless a shared
/// one is injected ([`VerifierBuilder::shared_eval_cache`]); `scald-incr`
/// sessions inject one cache across every re-verification so unchanged
/// regions of an edited design replay from the table.
///
/// [`VerifierBuilder::shared_eval_cache`]: crate::VerifierBuilder::shared_eval_cache
pub struct EvalCache {
    /// Descriptor → signature interner, numbering descriptors in order of
    /// first occurrence. Identical primitive descriptions (across
    /// netlists, sessions, rebuilds) map to the same signature, which is
    /// what makes warm-session reuse work.
    sigs: Mutex<HashMap<PrimDescriptor, u32>>,
    hasher: RandomState,
    shards: [RwLock<HashMap<EvalKey, EvalOutcome>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> EvalCache {
        EvalCache {
            sigs: Mutex::new(HashMap::new()),
            hasher: RandomState::new(),
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Interns the static descriptor of `prim`, returning its signature —
    /// or `None` for checker kinds, which compute nothing during the
    /// fixed point and are not worth a table slot.
    pub(crate) fn sig_for_prim(&self, netlist: &Netlist, prim: &Primitive) -> Option<u32> {
        if prim.kind.is_checker() {
            return None;
        }
        let desc = PrimDescriptor::of(netlist, prim);
        let mut sigs = self.sigs.lock().expect("eval cache poisoned");
        let next = sigs.len() as u32;
        Some(*sigs.entry(desc).or_insert(next))
    }

    /// Builds the full key for evaluating `prim` (signature `sig`)
    /// against the input states visible in `states`.
    pub(crate) fn key_for<S: StateView + ?Sized>(
        sig: u32,
        prim: &Primitive,
        states: &S,
        corner: DelayCorner,
    ) -> EvalKey {
        let inputs = prim
            .inputs
            .iter()
            .map(|conn| {
                let src = states.state_at(conn.signal.index());
                InputKey {
                    store: src.wave.store_tag(),
                    wave: src.wave.id(),
                    skew: src.skew,
                    eval: src.eval.as_ref().map(|e| e.remaining().into()),
                }
            })
            .collect();
        EvalKey {
            sig,
            corner,
            inputs,
        }
    }

    /// Looks `key` up, counting a hit or a miss (a miss becomes a hit if
    /// its [`insert`](Self::insert) finds another worker's outcome).
    pub(crate) fn lookup(&self, key: &EvalKey) -> Option<EvalOutcome> {
        let shard = self.shard_of(key);
        let found = self.shards[shard]
            .read()
            .expect("eval cache poisoned")
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores the outcome for `key` after a [`lookup`](Self::lookup)
    /// missed. Racing inserts of the same key keep the first value;
    /// outcomes for equal keys are equal, so which copy wins is
    /// unobservable. An insert that finds the key already stored turns
    /// its lookup's miss into a hit: another worker evaluated the key
    /// first, and a serial run would have found it in the table.
    pub(crate) fn insert(&self, key: EvalKey, outcome: &EvalOutcome) {
        let shard = self.shard_of(&key);
        let mut table = self.shards[shard].write().expect("eval cache poisoned");
        match table.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(outcome.clone());
            }
            Entry::Occupied(_) => {
                drop(table);
                self.misses.fetch_sub(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn shard_of(&self, key: &EvalKey) -> usize {
        (self.hasher.hash_one(key) as usize) & (SHARDS - 1)
    }

    /// Distinct outcomes currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("eval cache poisoned").len())
            .sum()
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

/// Everything `evaluate` reads from the netlist for one primitive:
/// period, kind (with parameters), delays, and each connection's
/// inversion, directive and *resolved* wire delay. Two primitives with
/// equal descriptors evaluate identically on equal inputs — the
/// invalidation-by-construction invariant.
#[derive(Debug, PartialEq, Eq, Hash)]
struct PrimDescriptor {
    period: Time,
    kind: PrimKind,
    delay: DelayRange,
    edge_delays: Option<EdgeDelays>,
    inputs: Vec<ConnDescriptor>,
}

/// One input connection's share of a [`PrimDescriptor`].
#[derive(Debug, PartialEq, Eq, Hash)]
struct ConnDescriptor {
    invert: bool,
    directive: Option<String>,
    wire_delay: DelayRange,
}

impl PrimDescriptor {
    fn of(netlist: &Netlist, prim: &Primitive) -> PrimDescriptor {
        PrimDescriptor {
            period: netlist.config().timing.period,
            kind: prim.kind,
            delay: prim.delay,
            edge_delays: prim.edge_delays,
            inputs: prim
                .inputs
                .iter()
                .map(|conn| ConnDescriptor {
                    invert: conn.invert,
                    directive: conn.directive.clone(),
                    wire_delay: netlist.wire_delay(conn),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value;
    use scald_netlist::{Config, NetlistBuilder, PrimKind};
    use scald_wave::{DelayRange, Time, Waveform};

    use crate::state::SignalState;

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
        let buf = cache.sig_for_prim(&n, &n.prims()[0]).unwrap();
        let inv = cache.sig_for_prim(&n, &n.prims()[1]).unwrap();
        assert_ne!(buf, inv, "different kinds, different signatures");
        // Re-interning (as a rebuilt session would) is stable.
        assert_eq!(cache.sig_for_prim(&n, &n.prims()[0]), Some(buf));
        assert_eq!(cache.sig_for_prim(&n, &n.prims()[1]), Some(inv));
    }

    #[test]
    fn lookup_hits_only_on_matching_key_and_counts() {
        let n = tiny();
        let cache = EvalCache::new();
        let prim = &n.prims()[0];
        let sig = cache.sig_for_prim(&n, prim).unwrap();
        let period = n.config().timing.period;
        let states = vec![
            SignalState::new(Waveform::constant(period, Value::Zero)),
            SignalState::new(Waveform::constant(period, Value::Unknown)),
            SignalState::new(Waveform::constant(period, Value::Unknown)),
        ];
        let key = EvalCache::key_for(sig, prim, states.as_slice(), DelayCorner::Worst);
        assert!(cache.lookup(&key).is_none());
        let outcome = crate::eval::evaluate(&n, prim, states.as_slice(), DelayCorner::Worst);
        cache.insert(key.clone(), &outcome);
        let back = cache.lookup(&key).expect("second lookup hits");
        assert_eq!(format!("{back:?}"), format!("{outcome:?}"));

        // A different input wave is a different key.
        let other = vec![
            SignalState::new(Waveform::constant(period, Value::One)),
            states[1].clone(),
        ];
        let miss = EvalCache::key_for(sig, prim, other.as_slice(), DelayCorner::Worst);
        assert_ne!(key, miss);
        assert!(cache.lookup(&miss).is_none());

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
        let prim = &n.prims()[0];
        let period = n.config().timing.period;
        let key = |v: Value| {
            let states = [SignalState::new(Waveform::constant(period, v))];
            EvalCache::key_for(0, prim, states.as_slice(), DelayCorner::Worst)
        };
        let states = [SignalState::new(Waveform::constant(period, Value::Zero))];
        let outcome = crate::eval::evaluate(&n, prim, states.as_slice(), DelayCorner::Worst);
        let counts = |c: &EvalCache| {
            let s = c.stats();
            (s.hits, s.misses, s.entries)
        };
        let cache_with = |stored: &[Value]| {
            let cache = EvalCache::new();
            for &v in stored {
                cache.insert(key(v), &outcome);
            }
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
                for &v in &keys {
                    if serial.lookup(&key(v)).is_none() {
                        serial.insert(key(v), &outcome);
                    }
                }
                let expected = counts(&serial);
                for order in &orders {
                    let cache = cache_with(stored);
                    let mut missed = [false; 3];
                    let mut looked = [false; 3];
                    for &w in order {
                        if looked[w] {
                            if missed[w] {
                                cache.insert(key(keys[w]), &outcome);
                            }
                        } else {
                            looked[w] = true;
                            missed[w] = cache.lookup(&key(keys[w])).is_none();
                        }
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
        assert_eq!(cache.sig_for_prim(&n, &n.prims()[0]), None);
        assert!(cache.is_empty());
    }

    /// The earlier descriptor: everything `evaluate` reads, rendered with
    /// `Debug` into one string.
    fn oracle_descriptor(netlist: &Netlist, prim: &Primitive) -> String {
        use std::fmt::Write as _;
        let mut d = String::with_capacity(96);
        let _ = write!(
            d,
            "{:?}|{:?}|{:?}|{:?}",
            netlist.config().timing.period,
            prim.kind,
            prim.delay,
            prim.edge_delays,
        );
        for conn in &prim.inputs {
            let _ = write!(
                d,
                "|{}:{:?}:{:?}",
                conn.invert,
                conn.directive,
                netlist.wire_delay(conn),
            );
        }
        d
    }

    /// A design that sets every descriptor field the generators leave at
    /// their defaults: asymmetric edge delays, directive strings, wire
    /// overrides, inversion and a second period.
    fn every_descriptor_field(period_ns: f64) -> Netlist {
        let mut config = Config::s1_example();
        config.timing.period = Time::from_ns(period_ns);
        let mut b = NetlistBuilder::new(config);
        let a = b.signal("A").unwrap();
        let c = b.signal("C .C2-3").unwrap();
        let outs: Vec<_> = (0..6)
            .map(|i| b.signal(&format!("O{i}")).unwrap())
            .collect();
        let d = |ns: f64| DelayRange::from_ns(ns, ns + 1.0);
        b.not_asym("N", d(1.0), d(2.0), a, outs[0]);
        b.buf_asym("B", d(2.0), d(1.0), a, outs[1]);
        b.buf(
            "W",
            d(1.0),
            scald_netlist::Conn::new(a).with_wire_delay(d(0.5)),
            outs[2],
        );
        b.and2(
            "G",
            d(1.0),
            a,
            scald_netlist::Conn::new(c).with_directive("HZ"),
            outs[3],
        );
        b.and2(
            "H",
            d(1.0),
            a,
            scald_netlist::Conn::new(c).with_directive("A"),
            outs[4],
        );
        b.and2(
            "I",
            d(1.0),
            scald_netlist::Conn::new(a).inverted(),
            c,
            outs[5],
        );
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
        let mut oracle: HashMap<String, u32> = HashMap::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for n in &twice {
            for prim in n.prims() {
                got.push(cache.sig_for_prim(n, prim));
                want.push((!prim.kind.is_checker()).then(|| {
                    let next = oracle.len() as u32;
                    *oracle.entry(oracle_descriptor(n, prim)).or_insert(next)
                }));
            }
        }
        assert_eq!(got, want);
        assert!(
            oracle.len() > 50,
            "only {} distinct descriptors",
            oracle.len()
        );
    }
}
