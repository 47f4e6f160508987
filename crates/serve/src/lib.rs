//! # scald-serve — the long-lived verification daemon
//!
//! Everything before this crate runs one verification per process:
//! `scald-tv` compiles, settles, reports, exits. A design team's
//! workflow is the opposite shape — many engineers poking at one large
//! design all day — and the paper's setting (S-1 scale, §4) makes cold
//! starts the dominant cost. `scald-serve` keeps the expensive state
//! resident: a daemon owns a pool of `scald-incr` sessions keyed by
//! design content hash, and any number of clients open, edit, re-verify
//! and stream traces over one versioned JSONL protocol.
//!
//! ## The protocol
//!
//! One request per line, one response per line, plus interleaved trace
//! frames for subscribed sessions — all in the serde-free
//! `scald-trace` JSON. The handshake pins the version:
//!
//! ```text
//! S: {"frame":"hello","scald-serve-proto":1,"server":"scald-serve/0.1.0","jobs":1}
//! C: {"id":1,"cmd":"open","source":"...","label":"alu"}
//! S: {"frame":"response","id":1,"ok":true,"cmd":"open","result":{"session":"s1",...}}
//! ```
//!
//! Commands: `open`, `apply-delta`, `run`, `report`, `subscribe-trace`,
//! `close`, `stats`, `shutdown` — see [`proto`] for the full schema.
//! Malformed frames get a structured `parse` error and the connection
//! stays alive; only EOF (or a line torn mid-write) ends it.
//!
//! ## What sharing buys
//!
//! Sessions of one design hash share one [`EvalCache`]
//! (`scald_verifier`), so the second client opening a popular design
//! replays the first client's evaluations; a closed session parks
//! settled in the pool and a later identical `open` reuses it with zero
//! work. Each request verifies on one thread, and the parallelism across
//! requests comes from the requests themselves: concurrent clients
//! verify side by side.
//!
//! [`EvalCache`]: scald_verifier::EvalCache

pub mod client;
pub mod daemon;
pub mod pool;
pub mod proto;
mod tap;

pub use client::Client;
pub use daemon::{serve, ServeOptions, DEFAULT_MAX_SWEEP_CASES};
pub use pool::{CheckoutInfo, PooledSession, SessionPool};
pub use proto::{
    CacheDelta, DaemonStats, DeltaSpec, DesignStats, ErrorKind, Frame, Frontend, Hello, ProtoError,
    Request, Response, RunSummary, SweepEffort, SweepSpec, TraceMode, MAX_FRAME_BYTES, PROTO_KEY,
    PROTO_VERSION, SWEEP_MAX_CASES,
};
pub use tap::TapSink;
