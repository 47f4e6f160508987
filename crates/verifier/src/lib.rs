//! The SCALD Timing Verifier: exhaustive, value-independent verification of
//! timing constraints on synchronous sequential digital systems.
//!
//! This crate is a from-scratch implementation of the system described in
//! T. M. McWilliams, *Verification of Timing Constraints on Large Digital
//! Systems* (Stanford / LLNL, 1980). The approach simulates **one clock
//! period** of the circuit symbolically, tracking only *when* signals can
//! change — not whether they are true or false — via a seven-value algebra
//! (`0 1 S C R F U`). That single symbolic pass covers all of the state
//! transitions a conventional logic simulator would need exponentially many
//! input patterns to exercise (§2.1).
//!
//! What it checks:
//!
//! * set-up and hold times (`SETUP HOLD CHK`, `SETUP RISE HOLD FALL CHK`),
//! * minimum pulse widths,
//! * hazards on gated clocks via the `&A`/`&H` evaluation directives, and
//! * the designer's stable assertions on generated signals.
//!
//! Supporting machinery from the thesis: separated skew (§2.8), evaluation
//! directives that propagate through levels of gating (§2.6), case analysis
//! with incremental re-evaluation (§2.7), the assumed-stable cross-reference
//! listing (§2.5), and storage/event statistics matching Tables 3-1 and 3-3.
//!
//! # Settling and case analysis
//!
//! [`Verifier::run`] is the single entry point: it settles the base
//! (no-override) state once, then runs the per-case incremental
//! re-evaluations of §2.7 one after another, as the thesis does. Cases
//! sharing an assignment prefix form a trie whose nodes settle each
//! prefix once; the run walks it in pre-order, and each unit
//! re-evaluates only the cone its assignments dirty, on a copy-on-write
//! overlay over its parent's settled state. A run starts no thread:
//! every settle and every case runs on the thread that calls `run`.
//!
//! Every settle loop is *level-synchronized*, like the thesis' event
//! list (§2.9): it drains the worklist into deduplicated waves,
//! evaluates each wave against the frozen pre-wave state, and commits
//! the results in primitive-id order.
//!
//! **Determinism guarantee:** every evaluation in a wave reads only
//! state committed by previous waves, every case is computed by the same
//! pure procedure from its parent's settled state, and results are
//! merged in input order — so waveforms, violation lists, report JSON
//! and per-case trace streams depend only on the netlist and the cases
//! (`tests/case_tree.rs` checks every case of seeded sweeps against that
//! case run alone). On the error path the *cumulative* effort counters
//! ([`Verifier::total_events`], [`Verifier::total_evaluations`]) count
//! whatever work completed before the error.
//!
//! # Quickstart
//!
//! ```
//! use scald_netlist::{Config, NetlistBuilder};
//! use scald_verifier::{RunOptions, Verifier, ViolationKind};
//! use scald_wave::{DelayRange, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new(Config::s1_example());
//! let clk = b.signal("CLK .P0-2")?;           // clock high units 0-2
//! let d = b.signal_vec("DATA .S7-8", 32)?;    // stable only 7-8: too late!
//! let q = b.signal_vec("Q", 32)?;
//! b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
//! b.setup_hold("R CHK", Time::from_ns(2.5), Time::from_ns(1.5), d, clk);
//!
//! let mut verifier = Verifier::new(b.finish()?);
//! let outcome = verifier.run(&RunOptions::new())?;
//! assert_eq!(outcome.sole().of_kind(ViolationKind::Setup).len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
pub use cache::{EvalCache, EvalCacheStats};
mod caseset;
pub use caseset::CaseSet;
mod checkers;
pub use checkers::CheckMargin;
mod diagram;
mod engine;
mod eval;
mod report;
mod state;
mod storage;
mod view;

pub use diagram::render_diagram;
pub use engine::{
    check_interfaces, BaseResult, Case, CheckpointPolicy, MemoStats, MultiCaseError, PrefixStats,
    RunOptions, RunOutcome, Verifier, VerifierBuilder, VerifyError,
};
pub use report::{
    CaseResult, EngineStats, ProbEndpoint, ProbSection, Provenance, ProvenanceHop, Report,
    Violation, ViolationKind, REPORT_SCHEMA, REPORT_VERSION,
};
pub use state::{Directive, EvalStr, SignalState, StateStore};
pub use storage::StorageReport;

// Re-exported so `CaseSet::corners`/`Case::corner` callers need not
// depend on `scald-wave` directly.
pub use scald_wave::DelayCorner;
