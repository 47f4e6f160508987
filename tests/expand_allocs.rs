//! Allocation budget of the HDL macro expander, as a deterministic
//! counter: a counting global allocator tallies the heap allocations
//! `scald_hdl::expand` makes on the calling thread, and the count per
//! emitted primitive must stay within budget. Unlike wall clock, the
//! count does not depend on the host.
//!
//! This binary holds a single test so no other test's allocations can
//! interleave with the measured call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use scald::gen::s1::{s1_like_hdl, S1Options};

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

/// Largest number of allocations (reallocations included) one emitted
/// primitive may cost.
const BUDGET_PER_PRIM: f64 = 16.0;

#[test]
fn s1_expansion_stays_within_its_allocation_budget() {
    let src = s1_like_hdl(S1Options {
        chips: 400,
        seed: 7,
    });
    let design = scald::hdl::parse(&src).expect("generated design parses");

    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let expansion = scald::hdl::expand(&design);
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    let expansion = expansion.expect("generated design expands");
    let prims = expansion.stats.prims_emitted;
    assert!(prims > 0);
    let per_prim = allocations as f64 / prims as f64;
    println!("{allocations} allocations for {prims} primitives: {per_prim:.1} per primitive");
    assert!(
        per_prim <= BUDGET_PER_PRIM,
        "expansion made {allocations} allocations for {prims} primitives \
         ({per_prim:.1} per primitive, budget {BUDGET_PER_PRIM})"
    );
}
