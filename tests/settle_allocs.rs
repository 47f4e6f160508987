//! Allocation budget of an eval-cache hit, as a deterministic counter:
//! a counting global allocator tallies the heap allocations made on the
//! calling thread while a verifier settles the base of a 400-chip S-1
//! design against an `EvalCache` that an identical verifier already
//! filled. Every evaluation of that settle is a hit, so the count per
//! hit is what serving an outcome from the table costs — the key, the
//! lookup and the shared outcome — plus the settle loop's own amortized
//! bookkeeping. The design's `&H` pins make some outcomes carry hazard
//! inputs, which a hit hands out too.
//!
//! Unlike wall clock, the counts do not depend on the host. This binary
//! holds a single test so no other test's allocations can interleave
//! with the measured calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scald::gen::s1::{s1_like_netlist, S1Options};
use scald::verifier::{EvalCache, VerifierBuilder};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) `f` makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed))
}

/// Largest number of allocations a warm settle may make per eval-cache
/// hit.
const HIT_BUDGET: f64 = 0.05;

#[test]
fn a_warm_settle_stays_within_its_allocation_budget_per_cache_hit() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        seed: 7,
    });
    let hazard_pins = netlist
        .prims()
        .iter()
        .flat_map(|p| &p.inputs)
        .filter(|c| c.directive.as_deref() == Some("H"))
        .count();
    assert!(hazard_pins > 0, "the design has `&H` pins");
    let cache = Arc::new(EvalCache::new());
    let build = || {
        VerifierBuilder::new(netlist.clone())
            .shared_eval_cache(Arc::clone(&cache))
            .jobs(1)
            .build()
    };
    build().settle_base().expect("the design settles");

    let mut warm = build();
    let before = cache.stats();
    let (settled, allocs) = counted(|| warm.settle_base());
    let (_, evaluations) = settled.expect("the design settles");
    let stats = cache.stats().since(&before);
    assert_eq!(
        stats.misses, 0,
        "every evaluation was stored by the first settle"
    );
    assert!(
        stats.hits > 1_000 && stats.hits <= evaluations,
        "{stats:?} in {evaluations} evaluations"
    );
    let per_hit = allocs as f64 / stats.hits as f64;
    println!(
        "{allocs} allocations for {} hits in {evaluations} evaluations: {per_hit:.4} per hit",
        stats.hits
    );
    assert!(
        per_hit <= HIT_BUDGET,
        "a warm settle made {per_hit:.4} allocations per cache hit (budget {HIT_BUDGET})"
    );
}
