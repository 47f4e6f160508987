//! Shared helpers for the table-regeneration binaries and the std-only
//! benches. The binaries (one per thesis table or figure) live in
//! `src/bin/`; see DESIGN.md §3 for the experiment index.

#![warn(missing_docs)]

pub mod harness;
