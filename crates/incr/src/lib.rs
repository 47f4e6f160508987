//! Incremental re-verification sessions for the SCALD Timing Verifier.
//!
//! A cold verification settles the whole design to its fixed point
//! (§2.9) and then analyses every case (§2.7). In an edit–verify loop
//! that is almost all wasted work: a one-primitive ECO touches a tiny
//! cone of the design, and every signal outside that cone settles to
//! exactly the value it had before. [`Session`] exploits this the same
//! way the engine's own case analysis does — seed the worklist with only
//! what changed — but across *design edits* rather than case overrides:
//!
//! 1. The session owns a [`Verifier`] snapshotted at its settled base
//!    fixed point, plus a content key per signal and per primitive,
//!    hashed from its structure (no text is formatted).
//! 2. [`Session::apply`] takes a [`Delta`] (HDL source swap, structural
//!    [`NetlistDelta`], or a new case set), rebuilds the netlist, and
//!    diffs the keys, matching elements by name, to find the
//!    *structurally dirty* signals and primitives.
//! 3. The rebuilt netlist moves into a fresh verifier, which is
//!    [warm-started](Verifier::warm_start) from the prior fixed point:
//!    every clean signal's settled state is copied over, and only the
//!    dirty frontier (edited primitives, fan-out and drivers of dirtied
//!    signals) is enqueued. Settling then touches only the affected
//!    cone.
//! 4. The session keeps the new report — the one copy of it — and
//!    `apply` returns the pass's [`IncrStats`].
//!
//! The result is **byte-identical** to a cold run of the edited design
//! once effort counters are stripped ([`Report::strip_effort`]) —
//! property-tested against cold runs over seeded edit scripts on
//! generated S-1-like designs. Two caveats, both documented on
//! [`Verifier::warm_start`]: hazard sets must be trajectory-independent
//! (true for connection-attribute directives such as `&H`; designs
//! relying on *propagated* evaluation-directive strings through the
//! edited region should re-verify cold), and the evaluation graph must
//! reach a unique fixed point from the seeded frontier (true for the
//! acyclic pipelines the thesis targets; combinational loops need a
//! cold run).
//!
//! `scald-tv` exposes sessions as `--watch FILE` (re-verify on every
//! file change, printing per-edit effort) and `--baseline OLD NEW`
//! (report only the violations an edit introduced or fixed, via
//! [`report_diff`]).

#![warn(missing_docs)]

mod diff;
mod session;

pub use diff::{report_diff, ReportDiff};
pub use session::{
    compile_source, compile_verilog, design_hash, Delta, DesignInput, IncrStats, Session,
    SessionBuilder, SessionError, SessionOutcome,
};

// Re-exported so callers can build deltas and read reports without
// spelling every crate dependency.
pub use scald_netlist::{DeltaConn, DeltaOp, NetlistDelta, PrimSpec};
pub use scald_verifier::{Case, Report, Verifier};
