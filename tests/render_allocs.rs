//! Allocation budgets of building and rendering a report, as
//! deterministic counters: a counting global allocator tallies the heap
//! allocations made on the calling thread while a settled verifier
//! builds its report (`Verifier::report`), and while the finished
//! report becomes text — the JSON document (`Report::json_value` +
//! `Json::to_string_pretty`) and the Fig 3-10 summary listing
//! (`Report::summary_text`), the calls a `scald-tv --format json
//! --summary` run makes. Each count per signal must stay within its
//! budget. Unlike wall clock, the counts do not depend on the host.
//!
//! This binary holds a single test so no other test's allocations can
//! interleave with the measured calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use scald::gen::s1::{s1_like_hdl, S1Options};
use scald::verifier::{RunOptions, VerifierBuilder};

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

/// Largest number of allocations (reallocations included) building the
/// report may cost per signal of the design.
const REPORT_BUDGET_PER_SIGNAL: f64 = 2.0;
/// Largest number of allocations (reallocations included) rendering may
/// cost per signal of the design.
const BUDGET_PER_SIGNAL: f64 = 8.0;

#[test]
fn s1_report_renders_within_its_allocation_budget() {
    let src = s1_like_hdl(S1Options {
        chips: 400,
        seed: 7,
    });
    let design = scald::hdl::parse(&src).expect("generated design parses");
    let netlist = scald::hdl::expand(&design)
        .expect("generated design expands")
        .netlist;
    let mut v = VerifierBuilder::new(netlist).jobs(1).build();
    let outcome = v
        .run(&RunOptions::new())
        .expect("generated design verifies");
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let report = v.report("s1_like_hdl", &outcome.cases);
    COUNTING.with(|c| c.set(false));
    let report_allocations = ALLOCATIONS.load(Ordering::Relaxed);

    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let mut text = report.json_value().to_string_pretty();
    text.push_str(&report.summary_text());
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    let signals = report.engine.signals;
    assert_eq!(signals, 791, "the measured design changed");
    assert!(text.len() > 100_000);
    let report_per_signal = report_allocations as f64 / signals as f64;
    println!(
        "report: {report_allocations} allocations for {signals} signals: \
         {report_per_signal:.2} per signal"
    );
    let per_signal = allocations as f64 / signals as f64;
    println!("{allocations} allocations for {signals} signals: {per_signal:.1} per signal");
    assert!(
        report_per_signal <= REPORT_BUDGET_PER_SIGNAL,
        "building the report made {report_allocations} allocations for {signals} signals \
         ({report_per_signal:.2} per signal, budget {REPORT_BUDGET_PER_SIGNAL})"
    );
    assert!(
        per_signal <= BUDGET_PER_SIGNAL,
        "rendering made {allocations} allocations for {signals} signals \
         ({per_signal:.1} per signal, budget {BUDGET_PER_SIGNAL})"
    );
}
