//! The scale sweep: how verification cost grows from 10^3 to 10^6
//! primitives, with the Table 3-3 storage breakdown at every step.
//!
//! The thesis reports one data point — 8 282 primitives verified in
//! 210 s of KL10 CPU time (Table 3-1) inside a 1.1 MB image (Table 3-3).
//! This harness sweeps the [`scald_gen::scale`] generator across decades
//! of that size and records, per step: generation and settle wall clocks
//! (median over `--reps`, min kept honest alongside), the
//! event/evaluation trajectory, the same storage categories Table 3-3
//! itemizes, and the live heap a verdict holds, into `BENCH_scale.json`.
//!
//! The heap figures come from a counting global allocator. After each of
//! generation, `build`, `run`, `report` and `render` (the report's JSON
//! document as `report.json_value().to_string_pretty()` writes it), a
//! step records the bytes live above the step's starting point and the
//! allocations made since it (reallocations included); `render` also
//! records the most bytes live above that point while the call ran. The
//! first rep moves the generated netlist into its verifier, so the
//! netlist is counted once. The sweep runs on
//! one thread, so the counts repeat exactly for a given `--steps` list;
//! the process-wide wave and state stores carry interned values from one
//! step into the next, which is why the list matters.
//!
//! Usage: `cargo run -p scald-bench --bin scale_sweep --release`
//! (`--steps 1000,10000,100000` to choose sizes, `--reps N` per-step
//! repetitions — sizes of 100k+ default to a single rep — and
//! `--out FILE` to redirect the record, as the CI smoke run does to
//! avoid clobbering the committed sweep).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use scald_bench::harness::{flags, median, nanos, obj, timed, write_record};
use scald_gen::scale::{scale_netlist, ScaleOptions};
use scald_trace::json::Json;
use scald_verifier::{RunOptions, Verifier};

/// Forwards to the system allocator, counting allocations and the bytes
/// live on the heap.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most bytes live since it was last reset to `LIVE`.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Counts an allocation of `size` bytes.
fn grow(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocator's counters at one point of a step.
#[derive(Clone, Copy)]
struct Heap {
    live: u64,
    allocations: u64,
}

impl Heap {
    fn now() -> Heap {
        Heap {
            live: LIVE.load(Ordering::Relaxed),
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
        }
    }

    /// The bytes live above `start` and the allocations made since it.
    fn since(start: Heap) -> Json {
        let now = Heap::now();
        obj([
            (
                "live_bytes",
                Json::from(now.live.saturating_sub(start.live)),
            ),
            (
                "allocations",
                Json::from(now.allocations - start.allocations),
            ),
        ])
    }

    /// [`since`](Self::since) after `f` runs, with the most bytes live
    /// above `start` while it ran; `f`'s result stays live until the
    /// counts are read.
    fn across<T>(start: Heap, f: impl FnOnce() -> T) -> Json {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        let kept = f();
        let Json::Obj(mut counts) = Heap::since(start) else {
            unreachable!("since returns an object")
        };
        let peak = PEAK.load(Ordering::Relaxed).saturating_sub(start.live);
        counts.push(("peak_live_bytes".to_owned(), Json::from(peak)));
        drop(kept);
        Json::Obj(counts)
    }
}

fn main() {
    let (steps, reps, out) = flags(|f| {
        (
            f.list("--steps", vec![1_000usize, 10_000, 100_000]),
            f.get("--reps", 3usize).max(1),
            f.get("--out", "BENCH_scale.json".to_owned()),
        )
    });

    let mut records = Vec::new();
    for &target in &steps {
        let opts = ScaleOptions::prims(target);
        let start = Heap::now();
        let ((netlist, stats), gen_time) = timed(|| scale_netlist(&opts));
        let gen_ns = nanos(gen_time);
        let mut heap = vec![("gen", Heap::since(start))];
        println!(
            "target {target:>8}: {} prims, {} signals, {} chains (max depth {}), {} hubs, generated in {:.2}s",
            stats.prims,
            stats.signals,
            stats.chains,
            stats.max_depth,
            stats.hubs,
            gen_ns as f64 / 1e9
        );

        // Large designs get a single rep: at 100k+ primitives the settle
        // runs long enough that scheduler noise is amortized away.
        let step_reps = if target >= 100_000 { 1 } else { reps };
        let mut samples = Vec::with_capacity(step_reps);
        let mut events = 0u64;
        let mut evaluations = 0u64;
        let mut violations = 0u64;
        let mut storage: Option<scald_verifier::StorageReport> = None;
        // The counted rep owns the generated netlist; the others verify
        // copies of it.
        let mut counted = Some(netlist);
        let mut kept = None;
        for _ in 0..step_reps {
            let first = counted.is_some();
            let netlist = match counted.take() {
                Some(netlist) => netlist,
                None => kept
                    .as_ref()
                    .map(Verifier::netlist)
                    .cloned()
                    .expect("rep 1 kept"),
            };
            let mut v = Verifier::new(netlist);
            if first {
                heap.push(("build", Heap::since(start)));
            }
            let (outcome, wall) = timed(|| v.run(&RunOptions::new()).expect("settles"));
            samples.push(nanos(wall));
            let sole = outcome.into_sole();
            events = sole.events;
            evaluations = sole.evaluations;
            violations = sole.violations.len() as u64;
            if first {
                heap.push(("run", Heap::since(start)));
                let report = v.report("scale", std::slice::from_ref(&sole));
                heap.push(("report", Heap::since(start)));
                let render = Heap::across(start, || report.json_value().to_string_pretty());
                heap.push(("render", render));
                storage = Some(report.storage);
                kept = Some(v);
            }
        }
        drop(kept);
        let min_ns = *samples.iter().min().expect("reps >= 1");
        let wall_ns = median(&mut samples);
        let storage = storage.expect("at least one rep ran");
        println!(
            "  settle: {:.3}s median ({:.3}s min, {step_reps} reps), {events} events, {evaluations} evaluations, {violations} violations",
            wall_ns as f64 / 1e9,
            min_ns as f64 / 1e9,
        );
        println!(
            "  storage: {} bytes total, {:.2} value records/signal",
            storage.total(),
            storage.value_records_per_signal()
        );
        for (phase, counts) in &heap {
            println!("  heap after {phase}: {counts}");
        }

        // The Table 3-3 categories, bytes per storage area.
        let table_3_3 = obj(storage
            .rows()
            .into_iter()
            .map(|(name, bytes, _)| (name, Json::from(bytes as u64)))
            .chain([
                ("TOTAL", Json::from(storage.total() as u64)),
                (
                    "value_records_per_signal",
                    Json::from(storage.value_records_per_signal()),
                ),
            ]));
        records.push(obj([
            ("target_prims", Json::from(target as u64)),
            ("prims", Json::from(stats.prims as u64)),
            ("signals", Json::from(stats.signals as u64)),
            ("chains", Json::from(stats.chains as u64)),
            ("max_depth", Json::from(stats.max_depth as u64)),
            ("hubs", Json::from(stats.hubs as u64)),
            ("gen_ns", Json::from(gen_ns)),
            ("reps", Json::from(step_reps as u64)),
            ("wall_ns", Json::from(wall_ns)),
            ("min_ns", Json::from(min_ns)),
            ("events", Json::from(events)),
            ("evaluations", Json::from(evaluations)),
            ("violations", Json::from(violations)),
            ("table_3_3", table_3_3),
            ("heap", obj(heap)),
        ]));
    }

    // v2: the `jobs` field is gone — a settle runs on one thread.
    // v3: each step records its live heap and allocations (`heap`).
    // v4: `heap` gains the `render` phase, with its peak live bytes.
    write_record(
        &out,
        "scald-bench-scale",
        4,
        [("steps", Json::Arr(records))],
    );
}
