//! The session pool: settled `scald-incr` sessions and shared
//! evaluation caches, keyed by [`design_hash`].
//!
//! Two levels of sharing, both keyed on the same content hash:
//!
//! 1. **Cache sharing** — every session of one design hash verifies
//!    through one `Arc`'d [`EvalCache`], so the second client opening a
//!    popular design replays the first client's evaluations (the
//!    measured ~2x warm path of `BENCH_cache.json`) even though it gets
//!    its own private session.
//! 2. **Session reuse** — a closed session parks here still settled; a
//!    later `open` of the same design (and label) checks it out and
//!    serves its retained report with *zero* verification work.
//!
//! A checked-out session belongs exclusively to its connection —
//! `apply-delta` may drift its design arbitrarily — and is re-keyed by
//! its *current* hash when it comes back.

use crate::proto::DesignStats;
use crate::tap::TapSink;
use scald_incr::{design_hash, DesignInput, Session, SessionBuilder, SessionError};
use scald_netlist::Netlist;
use scald_verifier::{Case, EvalCache, EvalCacheStats};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A pooled session plus its permanently attached trace tap.
pub struct PooledSession {
    /// The settled session; exclusively owned until checked back in.
    pub session: Session,
    /// The tap `subscribe-trace` retargets.
    pub tap: Arc<TapSink>,
}

/// What [`SessionPool::checkout`] found.
pub struct CheckoutInfo {
    /// The pool key of the opened design.
    pub design_hash: u64,
    /// `true` when a parked settled session was handed back as-is.
    pub reused_session: bool,
    /// `true` when the design's shared cache predates this open.
    pub shared_cache: bool,
}

#[derive(Default)]
struct DesignEntry {
    cache: Arc<EvalCache>,
    idle: Vec<PooledSession>,
    opens: u64,
    reuses: u64,
}

/// The design-hash-keyed pool. All methods are `&self`; the internal
/// lock covers only map bookkeeping — never a verification.
pub struct SessionPool {
    designs: Mutex<BTreeMap<u64, DesignEntry>>,
    /// Parked sessions kept per design; beyond this, closed sessions are
    /// dropped (their cache contribution survives in the shared table).
    idle_cap: usize,
    /// `false` disables evaluation caching entirely (`--no-eval-cache`).
    eval_cache: bool,
}

impl SessionPool {
    /// An empty pool.
    #[must_use]
    pub fn new(idle_cap: usize, eval_cache: bool) -> SessionPool {
        SessionPool {
            designs: Mutex::new(BTreeMap::new()),
            idle_cap,
            eval_cache,
        }
    }

    /// Opens a session on `netlist`/`cases`: hands back a parked settled
    /// session when one with a matching label exists, otherwise builds
    /// (and cold- or cache-warm-verifies) a fresh one against the
    /// design's shared cache. The verification runs outside the pool
    /// lock.
    ///
    /// # Errors
    ///
    /// Any [`SessionError`] from the opening verification.
    pub fn checkout(
        &self,
        netlist: Netlist,
        cases: Vec<Case>,
        label: &str,
    ) -> Result<(PooledSession, CheckoutInfo), SessionError> {
        let hash = design_hash(&netlist, &cases);
        let (cache, reused, shared) = {
            let mut designs = self.designs.lock().expect("pool poisoned");
            let existed = designs.contains_key(&hash);
            let entry = designs.entry(hash).or_default();
            entry.opens += 1;
            let reused = entry
                .idle
                .iter()
                .position(|p| p.session.label() == label)
                .map(|i| entry.idle.swap_remove(i));
            if reused.is_some() {
                entry.reuses += 1;
            }
            (Arc::clone(&entry.cache), reused, existed)
        };
        if let Some(pooled) = reused {
            pooled.tap.reset();
            return Ok((
                pooled,
                CheckoutInfo {
                    design_hash: hash,
                    reused_session: true,
                    shared_cache: shared,
                },
            ));
        }
        let tap = Arc::new(TapSink::new());
        let mut builder = SessionBuilder::new().trace(Arc::clone(&tap) as _);
        if self.eval_cache {
            builder = builder.shared_eval_cache(cache);
        } else {
            builder = builder.eval_cache(false);
        }
        let session = builder.open(DesignInput::Netlist { netlist, cases }, label)?;
        Ok((
            PooledSession { session, tap },
            CheckoutInfo {
                design_hash: hash,
                reused_session: false,
                shared_cache: shared,
            },
        ))
    }

    /// Returns a session to the pool, re-keyed by its current design
    /// hash (deltas may have drifted it since checkout). Returns `true`
    /// when the session was parked, `false` when the design's idle slots
    /// were full and it was dropped.
    pub fn checkin(&self, pooled: PooledSession) -> bool {
        pooled.tap.reset();
        let hash = pooled.session.design_hash();
        let mut designs = self.designs.lock().expect("pool poisoned");
        let entry = designs.entry(hash).or_default();
        // A drifted session re-seeds its new key's shared cache so later
        // opens of the drifted design warm-replay from it.
        if entry.opens == 0 {
            if let Some(cache) = pooled.session.eval_cache() {
                entry.cache = Arc::clone(cache);
            }
        }
        if entry.idle.len() < self.idle_cap {
            entry.idle.push(pooled);
            true
        } else {
            false
        }
    }

    /// The shared cache's cumulative counters for one design hash.
    #[must_use]
    pub fn cache_stats(&self, hash: u64) -> Option<EvalCacheStats> {
        let designs = self.designs.lock().expect("pool poisoned");
        designs.get(&hash).map(|e| e.cache.stats())
    }

    /// Per-design statistics, in hash order.
    #[must_use]
    pub fn stats(&self) -> Vec<DesignStats> {
        let designs = self.designs.lock().expect("pool poisoned");
        designs
            .iter()
            .map(|(hash, e)| {
                let cache = e.cache.stats();
                DesignStats {
                    design_hash: format!("{hash:016x}"),
                    opens: e.opens,
                    reuses: e.reuses,
                    idle_sessions: e.idle.len() as u64,
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                    cache_entries: cache.entries as u64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_netlist::{Config, NetlistBuilder};
    use scald_wave::{DelayRange, Time};

    fn tiny_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let clk = b.signal("CLK .P0-2").expect("clk");
        let d = b.signal("D").expect("d");
        let q = b.signal("Q").expect("q");
        b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
        b.setup_hold("R CHK", Time::from_ns(2.5), Time::from_ns(1.5), d, clk);
        b.finish().expect("well-formed")
    }

    #[test]
    fn checkout_builds_then_reuses_and_shares_cache() {
        let pool = SessionPool::new(4, true);
        let netlist = tiny_netlist();
        let (a, info_a) = pool
            .checkout(netlist.clone(), vec![Case::new()], "demo")
            .expect("opens");
        assert!(!info_a.reused_session);
        assert!(!info_a.shared_cache);

        // A second concurrent open of the same design: fresh session,
        // shared cache.
        let (b, info_b) = pool
            .checkout(netlist.clone(), vec![Case::new()], "demo")
            .expect("opens");
        assert!(!info_b.reused_session);
        assert!(info_b.shared_cache);
        assert_eq!(info_a.design_hash, info_b.design_hash);

        // Check one in; the next open reuses it outright.
        assert!(pool.checkin(a));
        let (_c, info_c) = pool
            .checkout(netlist.clone(), vec![Case::new()], "demo")
            .expect("opens");
        assert!(info_c.reused_session);

        // A different label never reuses (reports carry the label).
        assert!(pool.checkin(b));
        let (_d, info_d) = pool
            .checkout(netlist, vec![Case::new()], "other")
            .expect("opens");
        assert!(!info_d.reused_session);
        assert!(info_d.shared_cache);

        let stats = pool.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].opens, 4);
        assert_eq!(stats[0].reuses, 1);
    }

    #[test]
    fn idle_cap_bounds_parked_sessions() {
        let pool = SessionPool::new(1, true);
        let netlist = tiny_netlist();
        let (a, _) = pool
            .checkout(netlist.clone(), vec![Case::new()], "demo")
            .expect("opens");
        let (b, _) = pool
            .checkout(netlist, vec![Case::new()], "demo")
            .expect("opens");
        assert!(pool.checkin(a));
        assert!(!pool.checkin(b), "second checkin exceeds idle_cap=1");
        assert_eq!(pool.stats()[0].idle_sessions, 1);
    }

    #[test]
    fn distinct_cases_key_distinct_designs() {
        let pool = SessionPool::new(4, true);
        let netlist = tiny_netlist();
        pool.checkout(netlist.clone(), vec![Case::new()], "demo")
            .expect("opens");
        pool.checkout(netlist, vec![Case::new().assign("D", true)], "demo")
            .expect("opens");
        assert_eq!(pool.stats().len(), 2);
    }
}
