//! Shared helpers for the table-regeneration binaries and the std-only
//! benches. The binaries (one per thesis table or figure) live in
//! `src/bin/`; see DESIGN.md §3 for the experiment index.

#![warn(missing_docs)]

pub mod harness;

/// The machine's available parallelism — the `Verifier::run` default worker
/// count, used by benches comparing serial vs. parallel case analysis.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
