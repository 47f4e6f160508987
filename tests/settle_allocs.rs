//! Allocation budgets of the settle, as deterministic counters: a
//! counting global allocator tallies the heap allocations, and the bytes
//! they ask for, made on the calling thread.
//!
//! - Per eval-cache hit: a verifier settles the base of a 400-chip S-1
//!   design against an `EvalCache` that an identical verifier already
//!   filled. Every evaluation of that settle is a hit, so the count per
//!   hit is what serving an outcome from the table costs — the key, the
//!   lookup and the outcome — plus the settle loop's own amortized
//!   bookkeeping. The design's `&H` pins make some outcomes carry hazard
//!   inputs, which a hit hands out too.
//! - Per case-tree unit: an exhaustive mode sweep, after the base is
//!   settled, must ask for no more bytes per unit (node or leaf) when
//!   the design's master cone grows sixteenfold: a unit's settle reuses
//!   the run's buffers instead of allocating any the size of the
//!   design.
//!
//! Unlike wall clock, the counts do not depend on the host. The measured
//! calls run one at a time (see [`counted`]), so no other test's
//! allocations can interleave with them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use scald::gen::s1::{s1_like_netlist, S1Options};
use scald::gen::sweep::{sweep_netlist, SweepOptions};
use scald::verifier::{CaseSet, EvalCache, RunOptions, VerifierBuilder};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn tally(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated on this thread: allocations (reallocations
/// included) and the bytes they asked for.
struct Tally {
    allocations: u64,
    bytes: u64,
}

/// Runs `f` with this thread's allocations counted. Measured calls of
/// concurrently running tests take turns, since the counters are shared.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    ALLOCATIONS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let tally = Tally {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (out, tally)
}

/// Largest number of allocations a warm settle may make per eval-cache
/// hit.
const HIT_BUDGET: f64 = 0.02;

#[test]
fn a_warm_settle_stays_within_its_allocation_budget_per_cache_hit() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        seed: 7,
    });
    let hazard_pins = netlist
        .iter_prims()
        .flat_map(|(_, p)| p.inputs())
        .filter(|c| c.directive() == Some("H"))
        .count();
    assert!(hazard_pins > 0, "the design has `&H` pins");
    let cache = Arc::new(EvalCache::new());
    let build = || {
        VerifierBuilder::new(netlist.clone())
            .shared_eval_cache(Arc::clone(&cache))
            .build()
    };
    build().settle_base().expect("the design settles");

    // One warm settle, counted: its allocations and bytes, its
    // evaluations and the cache counters it moved.
    let mut warm = build();
    let before = cache.stats();
    let (settled, tally) = counted(|| warm.settle_base());
    let (_, evaluations) = settled.expect("the design settles");
    let stats = cache.stats().since(&before);
    let allocs = tally.allocations;
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
        "{allocs} allocations ({} bytes) for {} hits in {evaluations} evaluations: \
         {per_hit:.4} per hit",
        tally.bytes, stats.hits
    );
    assert!(
        per_hit <= HIT_BUDGET,
        "a warm settle made {per_hit:.4} allocations per cache hit (budget {HIT_BUDGET})"
    );
}

/// Bytes an exhaustive 4,096-case sweep asks for per case-tree unit (node
/// or leaf), once the base is settled, with
/// `master_slices` slices in the master mode bit's cone.
///
/// The same sweep first runs uncounted on another verifier, so every
/// state and waveform the counted run reaches is already in the
/// process-global stores: their chunk allocations, which depend on what
/// the process interned before, stay out of the count.
fn sweep_bytes_per_unit(master_slices: usize) -> f64 {
    let (netlist, stats) = sweep_netlist(&SweepOptions {
        mode_bits: 12,
        master_slices,
        block_slices: 2,
        seed: 5,
    });
    let cases = RunOptions::new().cases(CaseSet::exhaustive(&stats.mode_bits));
    let build = || VerifierBuilder::new(netlist.clone()).build();
    build().run(&cases).expect("the sweep settles");
    let mut verifier = build();
    verifier.settle_base().expect("the sweep design settles");
    let (outcome, tally) = counted(|| verifier.run(&cases));
    let outcome = outcome.expect("the sweep settles");
    let units = outcome.prefix.nodes + outcome.cases.len();
    let per_unit = tally.bytes as f64 / units as f64;
    println!(
        "master {master_slices}: {} bytes in {} allocations for {units} units: \
         {per_unit:.0} bytes per unit",
        tally.bytes, tally.allocations
    );
    per_unit
}

#[test]
fn a_case_unit_allocates_nothing_the_size_of_the_design() {
    let small = sweep_bytes_per_unit(100);
    let large = sweep_bytes_per_unit(1_600);
    assert!(
        large <= small * 1.1,
        "a unit asked for {large:.0} bytes with 1,600 master slices against \
         {small:.0} with 100"
    );
}
