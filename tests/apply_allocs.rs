//! Allocation budgets of the warm edit path, as deterministic counters:
//! a counting global allocator tallies the heap allocations made on the
//! calling thread while
//!
//! 1. a session applies a one-line source edit (`Session::apply` with
//!    `Delta::Source`), less the allocations of compiling the same text
//!    (`compile_source`) — the work of keys, diff, warm start, run and
//!    report that a warm edit adds to compiling it — per primitive; and
//! 2. the daemon's answer to a `report` request becomes a frame line
//!    and the line is decoded as `Client` decodes it — the report's trip
//!    across the wire — per signal.
//!
//! Unlike wall clock, the counts do not depend on the host. This binary
//! holds a single test so no other test's allocations can interleave
//! with the measured calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use scald::gen::s1::{s1_like_hdl, S1Options};
use scald::incr::{compile_source, Delta, DesignInput, SessionBuilder};
use scald::serve::{Frame, Response};

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

/// Largest number of allocations a warm one-line edit may add to
/// compiling its source, per primitive of the design.
const APPLY_BUDGET_PER_PRIM: f64 = 1.6;
/// Largest number of allocations the `report` answer's encode plus
/// decode may cost, per signal of the design.
const FRAME_BUDGET_PER_SIGNAL: f64 = 16.0;

#[test]
fn warm_edit_and_report_frame_stay_within_their_allocation_budgets() {
    let src = s1_like_hdl(S1Options {
        chips: 400,
        seed: 7,
    });
    let mut session = SessionBuilder::new()
        .open(DesignInput::source(src.as_str()), "s1_like_hdl")
        .expect("generated design opens");
    // One one-line edit: slice 0's `IN` becomes stable from unit 2.
    let edited = src.replacen("'S0 IN .S3-8'", "'S0 IN .S2-8'", 1);
    assert_ne!(edited, src, "the edit applies to the generated design");

    let (compiled, compile_allocs) = counted(|| compile_source(&edited));
    let prims = compiled.expect("edited design compiles").0.prims().len();
    let (stats, apply_allocs) = counted(|| session.apply(Delta::Source(edited.clone())));
    let stats = stats.expect("edit applies");
    assert!(
        stats.warm && stats.dirty_prims > 0,
        "a warm, non-empty edit"
    );
    assert_eq!(prims, 665, "the measured design changed");
    let per_prim = apply_allocs.saturating_sub(compile_allocs) as f64 / prims as f64;
    println!(
        "apply {apply_allocs} - compile {compile_allocs} allocations for {prims} prims: \
         {per_prim:.1} per primitive"
    );

    // The daemon's `report` answer (effort stripped), encoded to its
    // frame line, then decoded the way `Client` reads it.
    let ((line, decoded), frame_allocs) = counted(|| {
        let answer = Response::Report {
            id: 1,
            report: session.report().stripped_json_value(),
            effort: false,
        };
        let line = Frame::Response(answer).into_json().to_string();
        let json = scald::trace::json::parse(line.trim()).expect("frame line is JSON");
        let decoded = Frame::parse(json).expect("frame decodes");
        (line, decoded)
    });
    let signals = session.report().engine.signals;
    assert!(line.len() > 50_000);
    let Frame::Response(Response::Report { report, .. }) = decoded else {
        panic!("decoded a report answer");
    };
    assert_eq!(report, session.report().stripped_json_value());
    let per_signal = frame_allocs as f64 / signals as f64;
    println!("{frame_allocs} allocations for {signals} signals: {per_signal:.1} per signal");

    assert!(
        per_prim <= APPLY_BUDGET_PER_PRIM,
        "a warm edit added {per_prim:.1} allocations per primitive to its compile \
         (budget {APPLY_BUDGET_PER_PRIM})"
    );
    assert!(
        per_signal <= FRAME_BUDGET_PER_SIGNAL,
        "the report frame cost {per_signal:.1} allocations per signal \
         (budget {FRAME_BUDGET_PER_SIGNAL})"
    );
}
