//! Memory budget of a netlist, as deterministic counters: a counting
//! global allocator tallies, on the calling thread, the allocations a
//! call makes and the heap bytes it leaves live.
//!
//! A 20,000-primitive scale design is generated under the counter. What
//! stays live afterwards is the netlist itself (its columns, name arena,
//! side tables and indexes), so the live bytes per primitive bound the
//! netlist's layout, and the allocations per primitive bound what
//! generating and building it costs.
//!
//! Unlike wall clock, the counts do not depend on the host. The measured
//! call runs one at a time (see [`counted`]), so no other test's
//! allocations can interleave with it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use scald::gen::scale::{scale_netlist, ScaleOptions};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn tally(allocated: usize, freed: usize) {
    if COUNTING.with(Cell::get) {
        if allocated > 0 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE.fetch_add(allocated as i64 - freed as i64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` did to the heap on this thread: the allocations it made
/// (reallocations included) and the bytes it left live.
struct Tally {
    allocations: u64,
    live: i64,
}

/// Runs `f` with this thread's allocations counted. Measured calls of
/// concurrently running tests take turns, since the counters are shared.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let tally = Tally {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    };
    (out, tally)
}

/// Largest number of heap bytes a generated netlist may keep live per
/// primitive: 125.6 measured, plus 20% headroom.
const LIVE_BYTES_BUDGET: f64 = 150.0;

/// Largest number of allocations generating a netlist may make per
/// primitive: 0.143 measured, plus 40% headroom.
const ALLOCATION_BUDGET: f64 = 0.2;

#[test]
fn a_generated_netlist_stays_within_its_memory_budget_per_primitive() {
    let ((netlist, stats), tally) = counted(|| scale_netlist(&ScaleOptions::prims(20_000)));
    let prims = stats.prims as f64;
    let live = tally.live as f64 / prims;
    let allocations = tally.allocations as f64 / prims;
    println!(
        "{} live bytes in {} allocations for {} primitives: {live:.1} bytes and \
         {allocations:.3} allocations per primitive",
        tally.live, tally.allocations, stats.prims
    );
    assert!(
        live <= LIVE_BYTES_BUDGET,
        "the netlist keeps {live:.1} bytes live per primitive (budget {LIVE_BYTES_BUDGET})"
    );
    assert!(
        allocations <= ALLOCATION_BUDGET,
        "generating the netlist made {allocations:.3} allocations per primitive \
         (budget {ALLOCATION_BUDGET})"
    );
    drop(netlist);
}
