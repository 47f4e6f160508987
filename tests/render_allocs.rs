//! Allocation budgets of building and rendering a report, as
//! deterministic counters: a counting global allocator tallies the heap
//! allocations, and the bytes they ask for, made on the calling thread.
//!
//! - Per signal: while a settled verifier builds its report
//!   (`Verifier::report`), and while the finished report becomes text —
//!   the JSON document streamed by `Report::json_value()`'s
//!   `to_string_pretty` and the Fig 3-10 summary listing
//!   (`Report::summary_text`), the calls a `scald-tv --format json
//!   --summary` run makes. Each count per signal must stay within its
//!   budget.
//! - Against the state store: signal states are interned in one
//!   process-wide store whose ids only grow, so rendering a small
//!   design's listings must ask for as many bytes after the process has
//!   interned thousands of unrelated states as before.
//!
//! Unlike wall clock, the counts do not depend on the host. The measured
//! calls run one at a time (see [`counted`]), so no other test's
//! allocations can interleave with them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use scald::gen::s1::{s1_like_hdl, S1Options};
use scald::netlist::Netlist;
use scald::verifier::{Report, RunOptions, Verifier};

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

/// Largest number of allocations (reallocations included) building the
/// report may cost per signal of the design (0.07 measured; 0.41 when
/// every slack row copied its checker's and signal's names).
const REPORT_BUDGET_PER_SIGNAL: f64 = 0.15;
/// Largest number of allocations (reallocations included) rendering may
/// cost per signal of the design: 0.17 measured with the document
/// streamed, so one allocation per summary row fails it; 6.6
/// when the document was built as a `Json` tree first (budget 8).
const BUDGET_PER_SIGNAL: f64 = 0.3;

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
    let mut v = Verifier::new(netlist);
    let outcome = v
        .run(&RunOptions::new())
        .expect("generated design verifies");
    let (report, tally) = counted(|| v.report("s1_like_hdl", &outcome.cases));
    let report_allocations = tally.allocations;
    let (text, tally) = counted(|| {
        let mut text = report.json_value().to_string_pretty();
        text.push_str(&report.summary_text());
        text
    });
    let allocations = tally.allocations;

    let signals = report.engine.signals;
    assert_eq!(signals, 791, "the measured design changed");
    assert!(text.len() > 100_000);
    let report_per_signal = report_allocations as f64 / signals as f64;
    println!(
        "report: {report_allocations} allocations for {signals} signals: \
         {report_per_signal:.2} per signal"
    );
    let per_signal = allocations as f64 / signals as f64;
    println!("{allocations} allocations for {signals} signals: {per_signal:.2} per signal");
    assert!(
        report_per_signal <= REPORT_BUDGET_PER_SIGNAL,
        "building the report made {report_allocations} allocations for {signals} signals \
         ({report_per_signal:.2} per signal, budget {REPORT_BUDGET_PER_SIGNAL})"
    );
    assert!(
        per_signal <= BUDGET_PER_SIGNAL,
        "rendering made {allocations} allocations for {signals} signals \
         ({per_signal:.2} per signal, budget {BUDGET_PER_SIGNAL})"
    );
}

/// A netlist whose signals are `'IN .S0-4'` and one delay of it per
/// entry of `delays_ps`, named `OUT 1`, `OUT 2`, …: each distinct delay
/// gives its output a state of its own.
fn delays(delays_ps: impl IntoIterator<Item = u32>) -> Netlist {
    let mut src =
        String::from("design DELAYS;\nperiod 50.0;\nclock_unit 6.25;\nwire_delay 0.0 0.0;\ntop;\n");
    for (i, ps) in delays_ps.into_iter().enumerate() {
        let ns = format!("{}.{:03}", ps / 1000, ps % 1000);
        src.push_str(&format!(
            "  delay delay={ns}:{ns} ('IN .S0-4') -> ('OUT {}');\n",
            i + 1
        ));
    }
    src.push_str("end;\n");
    let design = scald::hdl::parse(&src).expect("generated design parses");
    scald::hdl::expand(&design)
        .expect("generated design expands")
        .netlist
}

fn report_of(netlist: Netlist) -> Report {
    let mut v = Verifier::new(netlist);
    let outcome = v.run(&RunOptions::new()).expect("the design verifies");
    v.report("delays", &outcome.cases)
}

/// Bytes asked for while `report`'s summary, JSON document and diagram
/// become text.
fn listing_bytes(report: &Report) -> u64 {
    let (_, tally) = counted(|| {
        let mut text = report.summary_text();
        text.push_str(&report.json_value().to_string_pretty());
        text.push_str(&report.diagram_text(50));
        text
    });
    tally.bytes
}

#[test]
fn a_small_report_does_not_grow_with_the_state_store() {
    // Delays of 30.001 and 30.002 ns: states no other design here has.
    let before = listing_bytes(&report_of(delays([30_001, 31_001])));
    // 20,000 states the small designs never read: outputs delayed by
    // 1 ps to 20 ns.
    let many = report_of(delays(1..=20_000));
    assert_eq!(many.summary_text().lines().count(), 20_001);
    let after = listing_bytes(&report_of(delays([30_002, 31_002])));
    println!("listings of two delays: {before} bytes before, {after} after 20,000 other states");
    assert!(
        after <= before + before / 10,
        "rendering a two-delay design asked for {after} bytes after 20,000 other states \
         were interned, against {before} before"
    );
}
