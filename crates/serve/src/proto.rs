//! Protocol v1 of `scald-serve`, as real types.
//!
//! The wire format is line-oriented JSONL over stdio or a Unix socket:
//! every frame is one JSON object on one line, built and parsed with the
//! workspace's serde-free [`Json`] toolkit. The server opens each
//! connection with a [`Hello`] frame carrying the version handshake
//! (`"scald-serve-proto": 1`); after that the client sends [`Request`]
//! frames and the server answers each with exactly one [`Response`]
//! frame, interleaved with zero or more [`Frame::Trace`] frames for
//! sessions with an active trace subscription.
//!
//! # Frame shapes
//!
//! ```text
//! server -> client on connect:
//!   {"frame":"hello","scald-serve-proto":1,"server":"scald-serve/0.1.0","jobs":4}
//!
//! client -> server (one per line; "id" is the client's correlation tag):
//!   {"id":1,"cmd":"open","source":"design D; ...","label":"demo"}
//!   {"id":2,"cmd":"run","session":"s1"}               // + optional "cases":{sweep spec}
//!   {"id":3,"cmd":"report","session":"s1"}            // + optional "effort":true
//!   {"id":4,"cmd":"apply-delta","session":"s1","delta":{"kind":"source","source":"..."}}
//!   {"id":5,"cmd":"apply-delta","session":"s1","delta":{"kind":"cases","cases":[{"CTL 0":true}]}}
//!   {"id":5,"cmd":"apply-delta","session":"s1",
//!    "delta":{"kind":"sweep","sweep":{"kind":"exhaustive","signals":["MODE0","MODE1"]}}}
//!   {"id":6,"cmd":"subscribe-trace","session":"s1","mode":"coarse"}
//!   {"id":7,"cmd":"close","session":"s1"}
//!   {"id":8,"cmd":"stats"}
//!   {"id":9,"cmd":"shutdown"}
//!
//! server -> client, one per request:
//!   {"frame":"response","id":1,"ok":true,"cmd":"open","result":{...}}
//!   {"frame":"response","id":1,"ok":false,"error":{"kind":"parse","message":"..."}}
//!
//! server -> client, streamed while a subscribed session verifies:
//!   {"frame":"trace","session":"s1","event":{"type":"run_start",...}}
//! ```
//!
//! Parsing is **strict**: unknown commands, unknown fields, missing
//! fields and wrong types are all [`ProtoError`]s. The daemon turns any
//! such error into an `ok:false` response (echoing the `id` when one
//! could be recovered) and keeps the connection alive — a malformed
//! frame never tears down the session state behind it.

use scald_trace::json::Json;
use scald_verifier::{CaseSet, DelayCorner};
use std::fmt;

/// Protocol version spoken by this build. Bumped only on breaking
/// changes; additive result fields do not bump it.
pub const PROTO_VERSION: u64 = 1;
/// The handshake key carrying [`PROTO_VERSION`] in the hello frame.
pub const PROTO_KEY: &str = "scald-serve-proto";

/// A protocol-level parse failure: what was wrong with the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

/// The server's first frame on every connection: the version handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version ([`PROTO_VERSION`] for this build).
    pub proto: u64,
    /// Server name/version string, informational.
    pub server: String,
    /// The daemon-wide worker budget requests are multiplexed over.
    pub jobs: u64,
}

impl Hello {
    /// The hello frame as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("frame".into(), Json::str("hello")),
            (PROTO_KEY.into(), Json::from(self.proto)),
            ("server".into(), Json::str(&self.server)),
            ("jobs".into(), Json::from(self.jobs)),
        ])
    }

    /// Parses a hello frame, checking the version key is present.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] if the frame is not a hello or lacks the handshake.
    pub fn parse(json: &Json) -> Result<Hello, ProtoError> {
        let fields = Fields::of(json, &["frame", PROTO_KEY, "server", "jobs"])?;
        if fields.req_str("frame")? != "hello" {
            return err("expected a hello frame");
        }
        Ok(Hello {
            proto: fields.req_u64(PROTO_KEY)?,
            server: fields.req_str("server")?.to_owned(),
            jobs: fields.req_u64("jobs")?,
        })
    }
}

/// How much of the engine's trace stream a subscription forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No trace frames (the default for every session).
    #[default]
    Off,
    /// Run/case/wave/warm-start/cache milestones only — bounded by the
    /// number of settle levels, not the number of evaluations.
    Coarse,
    /// Every engine event, including per-evaluation and per-signal ones.
    Full,
}

impl TraceMode {
    /// The wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Coarse => "coarse",
            TraceMode::Full => "full",
        }
    }

    fn parse(s: &str) -> Result<TraceMode, ProtoError> {
        match s {
            "off" => Ok(TraceMode::Off),
            "coarse" => Ok(TraceMode::Coarse),
            "full" => Ok(TraceMode::Full),
            other => err(format!("unknown trace mode {other:?}")),
        }
    }
}

/// Which compiler an `open` request's `source` goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// SCALD-style HDL (the default when the field is absent, so v1
    /// frames from older clients parse unchanged).
    #[default]
    Scald,
    /// Synthesisable Verilog, via the `scald-rtl` frontend.
    Verilog,
}

impl Frontend {
    /// The wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Frontend::Scald => "scald",
            Frontend::Verilog => "verilog",
        }
    }

    fn parse(s: &str) -> Result<Frontend, ProtoError> {
        match s {
            "scald" => Ok(Frontend::Scald),
            "verilog" => Ok(Frontend::Verilog),
            other => err(format!(
                "unknown frontend {other:?}; expected \"scald\" or \"verilog\""
            )),
        }
    }
}

/// A design edit carried by `apply-delta`. Protocol v1 ships whole-text
/// and case-set deltas; the session diffs hashes server-side either way,
/// so a source swap that touches one macro still re-verifies warm. The
/// additive `sweep` kind (same protocol version — absent from older
/// clients' frames, never emitted unless used) carries a generated
/// [`SweepSpec`] instead of a hand-enumerated list.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaSpec {
    /// Replace the whole design from source (case blocks included),
    /// compiled in the frontend the session was opened in: SCALD HDL, or
    /// Verilog for an `open` with `"frontend":"verilog"`.
    Source(String),
    /// Replace the case set; the netlist carries over.
    Cases(Vec<Vec<(String, bool)>>),
    /// Replace the case set with a generated sweep; the netlist carries
    /// over. The server expands the spec with the `CaseSet` builders,
    /// so the wire carries the generator (exhaustive/product/corners),
    /// not the enumeration.
    Sweep(SweepSpec),
}

impl DeltaSpec {
    fn to_json(&self) -> Json {
        match self {
            DeltaSpec::Source(src) => Json::Obj(vec![
                ("kind".into(), Json::str("source")),
                ("source".into(), Json::str(src)),
            ]),
            DeltaSpec::Cases(cases) => Json::Obj(vec![
                ("kind".into(), Json::str("cases")),
                ("cases".into(), cases_to_json(cases)),
            ]),
            DeltaSpec::Sweep(spec) => Json::Obj(vec![
                ("kind".into(), Json::str("sweep")),
                ("sweep".into(), spec.to_json()),
            ]),
        }
    }

    fn parse(json: &Json) -> Result<DeltaSpec, ProtoError> {
        let kind_fields = Fields::of(json, &["kind", "source", "cases", "sweep"])?;
        match kind_fields.req_str("kind")? {
            "source" => {
                let fields = Fields::of(json, &["kind", "source"])?;
                Ok(DeltaSpec::Source(fields.req_str("source")?.to_owned()))
            }
            "cases" => {
                let fields = Fields::of(json, &["kind", "cases"])?;
                Ok(DeltaSpec::Cases(parse_cases(fields.req("cases")?)?))
            }
            "sweep" => {
                let fields = Fields::of(json, &["kind", "sweep"])?;
                Ok(DeltaSpec::Sweep(SweepSpec::parse(fields.req("sweep")?, 0)?))
            }
            other => err(format!("unknown delta kind {other:?}")),
        }
    }
}

/// A generated case sweep on the wire: the protocol counterpart of the
/// `CaseSet` builders. Strictly parsed — unknown kinds, malformed
/// corner tokens, absurd widths, over-deep nesting and over-large
/// *expanded totals* (a product multiplies its axes, so the per-axis
/// width guard alone is not enough) are all [`ProtoError`]s, so a
/// malformed frame can never panic the daemon or make it enumerate an
/// astronomically large case list.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// Every 0/1 combination of the named signals (`CaseSet::exhaustive`).
    /// `{"kind":"exhaustive","signals":["MODE0","MODE1"]}`
    Exhaustive(Vec<String>),
    /// Cross product of independent axes (`CaseSet::product`).
    /// `{"kind":"product","axes":[<spec>, ...]}`
    Product(Vec<SweepSpec>),
    /// One assignment-free case per delay corner (`CaseSet::corners`),
    /// as `worst`/`min`/`typ`/`max` tokens.
    /// `{"kind":"corners","corners":["min","max"]}`
    Corners(Vec<DelayCorner>),
    /// An explicit list, same shape as the `cases` delta
    /// (`CaseSet::list`). `{"kind":"list","cases":[{"SIG":true}, ...]}`
    List(Vec<Vec<(String, bool)>>),
}

/// `product` axes may nest sweeps, but a frame is one line of JSON from
/// an untrusted client — cap the recursion well above any real sweep.
const SWEEP_MAX_DEPTH: usize = 8;

/// Hard ceiling on the number of cases a parsed sweep may expand to.
/// Matches the `CaseSet::exhaustive` width guard (20 signals = 2^20
/// cases), but applied to the *multiplicative total*: three 20-signal
/// exhaustive axes in one product would otherwise pass the per-axis
/// guard while naming 2^60 cases. Daemons may enforce a lower,
/// configurable limit on top (`ServeOptions::max_sweep_cases`).
pub const SWEEP_MAX_CASES: u64 = 1 << 20;

/// Protocol-level cap on one frame's length in bytes, not counting its
/// `\n`: far above any real request (an `open` of the 6,357-chip S-1
/// design is about 230 KB), and low enough that a client that never
/// ends its line cannot grow the daemon's buffer without bound. A
/// longer frame is answered with a `parse` error and skipped.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

impl SweepSpec {
    /// The spec as a JSON object (the wire shape).
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            SweepSpec::Exhaustive(signals) => Json::Obj(vec![
                ("kind".into(), Json::str("exhaustive")),
                (
                    "signals".into(),
                    Json::Arr(signals.iter().map(Json::str).collect()),
                ),
            ]),
            SweepSpec::Product(axes) => Json::Obj(vec![
                ("kind".into(), Json::str("product")),
                (
                    "axes".into(),
                    Json::Arr(axes.iter().map(SweepSpec::to_json).collect()),
                ),
            ]),
            SweepSpec::Corners(corners) => Json::Obj(vec![
                ("kind".into(), Json::str("corners")),
                (
                    "corners".into(),
                    Json::Arr(corners.iter().map(|c| Json::str(c.token())).collect()),
                ),
            ]),
            SweepSpec::List(cases) => Json::Obj(vec![
                ("kind".into(), Json::str("list")),
                ("cases".into(), cases_to_json(cases)),
            ]),
        }
    }

    /// The number of cases the spec expands to, computed bottom-up with
    /// saturating arithmetic — safe to call on arbitrarily large specs
    /// without materializing anything.
    #[must_use]
    pub fn case_count(&self) -> u64 {
        match self {
            SweepSpec::Exhaustive(signals) => match u32::try_from(signals.len()) {
                Ok(n) if n < 64 => 1u64 << n,
                _ => u64::MAX,
            },
            SweepSpec::Product(axes) => axes
                .iter()
                .fold(1u64, |total, axis| total.saturating_mul(axis.case_count())),
            SweepSpec::Corners(corners) => corners.len() as u64,
            SweepSpec::List(cases) => cases.len() as u64,
        }
    }

    fn parse(json: &Json, depth: usize) -> Result<SweepSpec, ProtoError> {
        let spec = SweepSpec::parse_inner(json, depth)?;
        // Guard the *expanded total* at the root, not just each axis:
        // products multiply, so several individually-legal exhaustive
        // axes can still name more cases than any daemon could ever
        // materialize. Saturating bottom-up arithmetic keeps the check
        // itself cheap regardless of how absurd the spec is.
        if depth == 0 {
            let total = spec.case_count();
            if total > SWEEP_MAX_CASES {
                return err(format!(
                    "sweep expands to {total} cases, over the protocol limit of \
                     {SWEEP_MAX_CASES}"
                ));
            }
        }
        Ok(spec)
    }

    fn parse_inner(json: &Json, depth: usize) -> Result<SweepSpec, ProtoError> {
        if depth > SWEEP_MAX_DEPTH {
            return err(format!("sweep nested deeper than {SWEEP_MAX_DEPTH} levels"));
        }
        let kind_fields = Fields::of(json, &["kind", "signals", "axes", "corners", "cases"])?;
        match kind_fields.req_str("kind")? {
            "exhaustive" => {
                let fields = Fields::of(json, &["kind", "signals"])?;
                let Some(items) = fields.req("signals")?.as_array() else {
                    return err("\"signals\" must be an array of signal names");
                };
                let signals: Vec<String> = items
                    .iter()
                    .map(|s| match s.as_str() {
                        Some(name) => Ok(name.to_owned()),
                        None => err("\"signals\" must be an array of signal names"),
                    })
                    .collect::<Result<_, _>>()?;
                // Mirrors the CaseSet::exhaustive width and uniqueness
                // guards as parse errors: a client cannot make the
                // daemon enumerate 2^n cases (or panic) with one short
                // frame.
                if signals.len() > 20 {
                    return err(format!(
                        "exhaustive sweep over {} signals would enumerate 2^{} cases",
                        signals.len(),
                        signals.len()
                    ));
                }
                if let Some(dup) = first_duplicate(&signals) {
                    return err(format!("exhaustive sweep names signal {dup:?} twice"));
                }
                Ok(SweepSpec::Exhaustive(signals))
            }
            "product" => {
                let fields = Fields::of(json, &["kind", "axes"])?;
                let Some(items) = fields.req("axes")?.as_array() else {
                    return err("\"axes\" must be an array of sweep specs");
                };
                Ok(SweepSpec::Product(
                    items
                        .iter()
                        .map(|axis| SweepSpec::parse(axis, depth + 1))
                        .collect::<Result<_, _>>()?,
                ))
            }
            "corners" => {
                let fields = Fields::of(json, &["kind", "corners"])?;
                let Some(items) = fields.req("corners")?.as_array() else {
                    return err("\"corners\" must be an array of corner tokens");
                };
                Ok(SweepSpec::Corners(
                    items
                        .iter()
                        .map(|c| {
                            c.as_str().and_then(DelayCorner::from_token).ok_or_else(|| {
                                ProtoError(format!(
                                    "unknown delay corner {c}; expected \
                                         \"worst\"/\"min\"/\"typ\"/\"max\""
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?,
                ))
            }
            "list" => {
                let fields = Fields::of(json, &["kind", "cases"])?;
                Ok(SweepSpec::List(parse_cases(fields.req("cases")?)?))
            }
            other => err(format!("unknown sweep kind {other:?}")),
        }
    }

    /// Expands the spec into the `CaseSet` it names.
    #[must_use]
    pub fn to_case_set(&self) -> CaseSet {
        match self {
            SweepSpec::Exhaustive(signals) => CaseSet::exhaustive(signals.iter().cloned()),
            SweepSpec::Product(axes) => CaseSet::product(axes.iter().map(SweepSpec::to_case_set)),
            SweepSpec::Corners(corners) => CaseSet::corners(corners.iter().copied()),
            SweepSpec::List(cases) => CaseSet::list(
                cases
                    .iter()
                    .map(|assigns| assigns.iter().cloned().collect()),
            ),
        }
    }
}

/// The first signal name appearing more than once, if any.
fn first_duplicate(signals: &[String]) -> Option<&String> {
    signals
        .iter()
        .enumerate()
        .find(|(i, name)| signals[..*i].contains(name))
        .map(|(_, name)| name)
}

fn cases_to_json(cases: &[Vec<(String, bool)>]) -> Json {
    Json::Arr(
        cases
            .iter()
            .map(|assigns| {
                Json::Obj(
                    assigns
                        .iter()
                        .map(|(signal, value)| (signal.clone(), Json::from(*value)))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn parse_cases(json: &Json) -> Result<Vec<Vec<(String, bool)>>, ProtoError> {
    let Some(items) = json.as_array() else {
        return err("\"cases\" must be an array of objects");
    };
    items
        .iter()
        .map(|case| {
            let Some(assigns) = case.as_object() else {
                return err("each case must be an object of signal: bool assignments");
            };
            assigns
                .iter()
                .map(|(signal, value)| match value.as_bool() {
                    Some(v) => Ok((signal.clone(), v)),
                    None => err(format!("case assignment {signal:?} must be a boolean")),
                })
                .collect()
        })
        .collect()
}

/// One client request. Every variant carries the client-chosen `id`
/// echoed on the matching [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open (or reuse from the pool) a session on design source text.
    Open {
        /// Correlation tag.
        id: u64,
        /// The design source, in the `frontend`'s language.
        source: String,
        /// Report label; defaults to `"<unnamed>"`.
        label: Option<String>,
        /// Which compiler the source goes through (absent = SCALD HDL).
        frontend: Frontend,
    },
    /// Apply an edit to a session and re-verify (warm when possible).
    ApplyDelta {
        /// Correlation tag.
        id: u64,
        /// Session name from a prior `open` response.
        session: String,
        /// The edit.
        delta: DeltaSpec,
    },
    /// Re-verify a session's current design as-is.
    Run {
        /// Correlation tag.
        id: u64,
        /// Session name.
        session: String,
        /// Optional case sweep to install before re-verifying — the
        /// same spec shape as [`DeltaSpec::Sweep`]. Omitted on the wire
        /// when `None` (the v1 default: re-run the session's current
        /// cases), so pre-sweep clients emit byte-identical frames.
        cases: Option<SweepSpec>,
    },
    /// Fetch the session's current `scald-tv-report` v2 document.
    Report {
        /// Correlation tag.
        id: u64,
        /// Session name.
        session: String,
        /// `false` (default): the effort-stripped, byte-deterministic
        /// document. `true`: include effort counters (events, wall
        /// clock, cache stats), which vary run to run.
        effort: bool,
    },
    /// Set the session's trace-forwarding mode for this connection.
    SubscribeTrace {
        /// Correlation tag.
        id: u64,
        /// Session name.
        session: String,
        /// Forwarding level.
        mode: TraceMode,
    },
    /// Close a session, returning it to the shared pool.
    Close {
        /// Correlation tag.
        id: u64,
        /// Session name.
        session: String,
    },
    /// Daemon-wide statistics: pool contents, cache counters, budgets.
    Stats {
        /// Correlation tag.
        id: u64,
    },
    /// Begin graceful shutdown: drain in-flight work, reject new opens.
    Shutdown {
        /// Correlation tag.
        id: u64,
    },
}

impl Request {
    /// The request's correlation id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            Request::Open { id, .. }
            | Request::ApplyDelta { id, .. }
            | Request::Run { id, .. }
            | Request::Report { id, .. }
            | Request::SubscribeTrace { id, .. }
            | Request::Close { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// The wire command token.
    #[must_use]
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::ApplyDelta { .. } => "apply-delta",
            Request::Run { .. } => "run",
            Request::Report { .. } => "report",
            Request::SubscribeTrace { .. } => "subscribe-trace",
            Request::Close { .. } => "close",
            Request::Stats { .. } => "stats",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// The request as a JSON frame.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("id".to_owned(), Json::from(self.id())),
            ("cmd".to_owned(), Json::str(self.cmd())),
        ];
        match self {
            Request::Open {
                source,
                label,
                frontend,
                ..
            } => {
                obj.push(("source".into(), Json::str(source)));
                if let Some(label) = label {
                    obj.push(("label".into(), Json::str(label)));
                }
                // Emitted only when non-default, so golden v1 frames
                // from scald-HDL clients are byte-stable.
                if *frontend != Frontend::Scald {
                    obj.push(("frontend".into(), Json::str(frontend.token())));
                }
            }
            Request::ApplyDelta { session, delta, .. } => {
                obj.push(("session".into(), Json::str(session)));
                obj.push(("delta".into(), delta.to_json()));
            }
            Request::Run { session, cases, .. } => {
                obj.push(("session".into(), Json::str(session)));
                if let Some(spec) = cases {
                    obj.push(("cases".into(), spec.to_json()));
                }
            }
            Request::Close { session, .. } => {
                obj.push(("session".into(), Json::str(session)));
            }
            Request::Report {
                session, effort, ..
            } => {
                obj.push(("session".into(), Json::str(session)));
                if *effort {
                    obj.push(("effort".into(), Json::from(true)));
                }
            }
            Request::SubscribeTrace { session, mode, .. } => {
                obj.push(("session".into(), Json::str(session)));
                obj.push(("mode".into(), Json::str(mode.token())));
            }
            Request::Stats { .. } | Request::Shutdown { .. } => {}
        }
        Json::Obj(obj)
    }

    /// Strictly parses a request frame: the `cmd` must be known, every
    /// required field present and well-typed, and no unknown fields.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the first problem.
    pub fn parse(json: &Json) -> Result<Request, ProtoError> {
        // First pass with every field any command accepts, to name the
        // command; the per-command pass then rejects fields that do not
        // belong to *that* command.
        let all = Fields::of(
            json,
            &[
                "id", "cmd", "source", "label", "frontend", "session", "delta", "mode", "effort",
                "cases",
            ],
        )?;
        let id = all.req_u64("id")?;
        let cmd = all.req_str("cmd")?;
        match cmd {
            "open" => {
                let f = Fields::of(json, &["id", "cmd", "source", "label", "frontend"])?;
                Ok(Request::Open {
                    id,
                    source: f.req_str("source")?.to_owned(),
                    label: f.opt_str("label")?.map(str::to_owned),
                    frontend: match f.opt_str("frontend")? {
                        Some(token) => Frontend::parse(token)?,
                        None => Frontend::Scald,
                    },
                })
            }
            "apply-delta" => {
                let f = Fields::of(json, &["id", "cmd", "session", "delta"])?;
                Ok(Request::ApplyDelta {
                    id,
                    session: f.req_str("session")?.to_owned(),
                    delta: DeltaSpec::parse(f.req("delta")?)?,
                })
            }
            "run" => {
                let f = Fields::of(json, &["id", "cmd", "session", "cases"])?;
                Ok(Request::Run {
                    id,
                    session: f.req_str("session")?.to_owned(),
                    cases: f
                        .opt("cases")
                        .map(|spec| SweepSpec::parse(spec, 0))
                        .transpose()?,
                })
            }
            "report" => {
                let f = Fields::of(json, &["id", "cmd", "session", "effort"])?;
                Ok(Request::Report {
                    id,
                    session: f.req_str("session")?.to_owned(),
                    effort: f.opt_bool("effort")?.unwrap_or(false),
                })
            }
            "subscribe-trace" => {
                let f = Fields::of(json, &["id", "cmd", "session", "mode"])?;
                Ok(Request::SubscribeTrace {
                    id,
                    session: f.req_str("session")?.to_owned(),
                    mode: match f.opt_str("mode")? {
                        Some(tok) => TraceMode::parse(tok)?,
                        None => TraceMode::Coarse,
                    },
                })
            }
            "close" => {
                let f = Fields::of(json, &["id", "cmd", "session"])?;
                Ok(Request::Close {
                    id,
                    session: f.req_str("session")?.to_owned(),
                })
            }
            "stats" => {
                Fields::of(json, &["id", "cmd"])?;
                Ok(Request::Stats { id })
            }
            "shutdown" => {
                Fields::of(json, &["id", "cmd"])?;
                Ok(Request::Shutdown { id })
            }
            other => err(format!("unknown cmd {other:?}")),
        }
    }
}

/// Machine-readable error category on an `ok:false` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame failed to parse (malformed JSON, unknown cmd/field,
    /// missing field, wrong type). The connection stays alive.
    Parse,
    /// The named session does not exist on this connection (never
    /// opened, already closed, or evicted by a timeout).
    UnknownSession,
    /// HDL source failed to compile.
    Compile,
    /// A delta failed to apply.
    Delta,
    /// Verification failed (oscillation budget, unknown case signal).
    Verify,
    /// The request exceeded the per-request timeout. The session handle
    /// is evicted; the underlying run completes in the background and
    /// its session returns to the shared pool.
    Timeout,
    /// The daemon is draining: new `open` requests are rejected.
    ShuttingDown,
    /// Anything else (I/O, internal invariants).
    Internal,
}

impl ErrorKind {
    /// The wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::UnknownSession => "unknown-session",
            ErrorKind::Compile => "compile",
            ErrorKind::Delta => "delta",
            ErrorKind::Verify => "verify",
            ErrorKind::Timeout => "timeout",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Result<ErrorKind, ProtoError> {
        Ok(match s {
            "parse" => ErrorKind::Parse,
            "unknown-session" => ErrorKind::UnknownSession,
            "compile" => ErrorKind::Compile,
            "delta" => ErrorKind::Delta,
            "verify" => ErrorKind::Verify,
            "timeout" => ErrorKind::Timeout,
            "shutting-down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            other => return err(format!("unknown error kind {other:?}")),
        })
    }
}

/// Per-request verification effort, attached to `open` / `apply-delta` /
/// `run` results. Everything here is *effort*, not outcome: two requests
/// reaching the same fixed point may differ in all of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// `true` when no case reported a violation.
    pub clean: bool,
    /// Total violations across all cases.
    pub violations: u64,
    /// `true` when the pass warm-started from a prior fixed point (or
    /// was served straight from a pooled settled session).
    pub warm: bool,
    /// Primitives seeded into the worklist.
    pub seeded_prims: u64,
    /// Total primitives in the design.
    pub total_prims: u64,
    /// Signal-change events processed.
    pub events: u64,
    /// Primitive evaluations processed.
    pub evaluations: u64,
    /// Wall-clock nanoseconds of the verification (0 for a pooled reuse).
    pub wall_ns: u64,
    /// Evaluation-cache traffic attributed to this request: the shared
    /// table's counter movement while it ran (approximate under
    /// concurrency — other clients' traffic on the same design lands in
    /// whichever request observes it). `None` when caching is disabled.
    pub cache: Option<CacheDelta>,
    /// Sweep-amortization effort: shared-prefix settles and per-leaf
    /// checker/storage memoization. `None` when the pass ran no
    /// verification (a pooled reuse) or computed no shared checker pass:
    /// a single case at the worst-case corner checks its own state in
    /// full. Additive protocol-v1 extension.
    pub sweep: Option<SweepEffort>,
}

/// Sweep-amortization counters over one request: how much of the
/// per-case fixed cost the case-tree scheduler shared or inherited
/// instead of recomputing. Mirrors the engine's `PrefixStats` +
/// `MemoStats` so clients can compute the same hit rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepEffort {
    /// Internal prefix nodes the scheduler settled (each shared by ≥ 2
    /// cases).
    pub prefix_nodes: u64,
    /// Primitive evaluations spent settling those shared prefixes.
    pub prefix_evaluations: u64,
    /// Checker units leaves actually re-evaluated.
    pub leaf_check_evals: u64,
    /// Checker units leaves inherited from their prefix node's cached
    /// pass.
    pub leaf_check_hits: u64,
    /// Signals leaves actually re-measured for storage accounting.
    pub leaf_storage_evals: u64,
    /// Signals whose storage accounting leaves inherited.
    pub leaf_storage_hits: u64,
}

impl SweepEffort {
    /// Fraction of per-leaf checker work served from the parent's cached
    /// pass, in `[0, 1]` (`0.0` when no leaf checker work ran).
    #[must_use]
    pub fn leaf_hit_rate(&self) -> f64 {
        let total = self.leaf_check_evals + self.leaf_check_hits;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.leaf_check_hits as f64 / total as f64
            }
        }
    }
}

/// Evaluation-cache counter movement over one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheDelta {
    /// Evaluations served from the shared table.
    pub hits: u64,
    /// Evaluations that ran the kernels.
    pub misses: u64,
    /// Total entries in the table afterwards (absolute, not a delta).
    pub entries: u64,
}

impl RunSummary {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("clean".into(), Json::from(self.clean)),
            ("violations".into(), Json::from(self.violations)),
            ("warm".into(), Json::from(self.warm)),
            ("seeded_prims".into(), Json::from(self.seeded_prims)),
            ("total_prims".into(), Json::from(self.total_prims)),
            ("events".into(), Json::from(self.events)),
            ("evaluations".into(), Json::from(self.evaluations)),
            ("wall_ns".into(), Json::from(self.wall_ns)),
            (
                "cache".into(),
                self.cache.map_or(Json::Null, |c| {
                    Json::Obj(vec![
                        ("hits".into(), Json::from(c.hits)),
                        ("misses".into(), Json::from(c.misses)),
                        ("entries".into(), Json::from(c.entries)),
                    ])
                }),
            ),
            (
                "sweep".into(),
                self.sweep.map_or(Json::Null, |s| {
                    Json::Obj(vec![
                        ("prefix_nodes".into(), Json::from(s.prefix_nodes)),
                        (
                            "prefix_evaluations".into(),
                            Json::from(s.prefix_evaluations),
                        ),
                        ("leaf_check_evals".into(), Json::from(s.leaf_check_evals)),
                        ("leaf_check_hits".into(), Json::from(s.leaf_check_hits)),
                        (
                            "leaf_storage_evals".into(),
                            Json::from(s.leaf_storage_evals),
                        ),
                        ("leaf_storage_hits".into(), Json::from(s.leaf_storage_hits)),
                    ])
                }),
            ),
        ])
    }

    fn parse(json: &Json) -> Result<RunSummary, ProtoError> {
        let f = Fields::of(
            json,
            &[
                "clean",
                "violations",
                "warm",
                "seeded_prims",
                "total_prims",
                "events",
                "evaluations",
                "wall_ns",
                "cache",
                "sweep",
            ],
        )?;
        // Absent (pre-extension peer) and null both mean "no sweep
        // amortization to report".
        let sweep = match f.opt("sweep") {
            None | Some(Json::Null) => None,
            Some(sweep) => {
                let s = Fields::of(
                    sweep,
                    &[
                        "prefix_nodes",
                        "prefix_evaluations",
                        "leaf_check_evals",
                        "leaf_check_hits",
                        "leaf_storage_evals",
                        "leaf_storage_hits",
                    ],
                )?;
                Some(SweepEffort {
                    prefix_nodes: s.req_u64("prefix_nodes")?,
                    prefix_evaluations: s.req_u64("prefix_evaluations")?,
                    leaf_check_evals: s.req_u64("leaf_check_evals")?,
                    leaf_check_hits: s.req_u64("leaf_check_hits")?,
                    leaf_storage_evals: s.req_u64("leaf_storage_evals")?,
                    leaf_storage_hits: s.req_u64("leaf_storage_hits")?,
                })
            }
        };
        let cache = match f.req("cache")? {
            Json::Null => None,
            cache => {
                let c = Fields::of(cache, &["hits", "misses", "entries"])?;
                Some(CacheDelta {
                    hits: c.req_u64("hits")?,
                    misses: c.req_u64("misses")?,
                    entries: c.req_u64("entries")?,
                })
            }
        };
        Ok(RunSummary {
            clean: f.req_bool("clean")?,
            violations: f.req_u64("violations")?,
            warm: f.req_bool("warm")?,
            seeded_prims: f.req_u64("seeded_prims")?,
            total_prims: f.req_u64("total_prims")?,
            events: f.req_u64("events")?,
            evaluations: f.req_u64("evaluations")?,
            wall_ns: f.req_u64("wall_ns")?,
            cache,
            sweep,
        })
    }
}

/// Pool statistics for one design hash, inside [`DaemonStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignStats {
    /// The pool key, as 16 hex digits.
    pub design_hash: String,
    /// Sessions opened on this design (cold builds + pooled reuses).
    pub opens: u64,
    /// Opens served by handing back a pooled settled session.
    pub reuses: u64,
    /// Settled sessions currently idle in the pool.
    pub idle_sessions: u64,
    /// Shared-cache hits across every client of this design.
    pub cache_hits: u64,
    /// Shared-cache misses across every client of this design.
    pub cache_misses: u64,
    /// Entries in the shared table.
    pub cache_entries: u64,
}

/// Daemon-wide statistics returned by the `stats` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStats {
    /// Live client connections.
    pub connections: u64,
    /// Requests currently verifying on worker threads.
    pub active_runs: u64,
    /// The daemon-wide `--jobs` budget.
    pub jobs_total: u64,
    /// `true` once graceful shutdown has begun.
    pub shutting_down: bool,
    /// Per-design pool/cache statistics, in hash order.
    pub designs: Vec<DesignStats>,
}

impl DaemonStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("connections".into(), Json::from(self.connections)),
            ("active_runs".into(), Json::from(self.active_runs)),
            ("jobs_total".into(), Json::from(self.jobs_total)),
            ("shutting_down".into(), Json::from(self.shutting_down)),
            (
                "designs".into(),
                Json::Arr(
                    self.designs
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("design_hash".into(), Json::str(&d.design_hash)),
                                ("opens".into(), Json::from(d.opens)),
                                ("reuses".into(), Json::from(d.reuses)),
                                ("idle_sessions".into(), Json::from(d.idle_sessions)),
                                ("cache_hits".into(), Json::from(d.cache_hits)),
                                ("cache_misses".into(), Json::from(d.cache_misses)),
                                ("cache_entries".into(), Json::from(d.cache_entries)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn parse(json: &Json) -> Result<DaemonStats, ProtoError> {
        let f = Fields::of(
            json,
            &[
                "connections",
                "active_runs",
                "jobs_total",
                "shutting_down",
                "designs",
            ],
        )?;
        let Some(designs) = f.req("designs")?.as_array() else {
            return err("\"designs\" must be an array");
        };
        let designs = designs
            .iter()
            .map(|d| {
                let f = Fields::of(
                    d,
                    &[
                        "design_hash",
                        "opens",
                        "reuses",
                        "idle_sessions",
                        "cache_hits",
                        "cache_misses",
                        "cache_entries",
                    ],
                )?;
                Ok(DesignStats {
                    design_hash: f.req_str("design_hash")?.to_owned(),
                    opens: f.req_u64("opens")?,
                    reuses: f.req_u64("reuses")?,
                    idle_sessions: f.req_u64("idle_sessions")?,
                    cache_hits: f.req_u64("cache_hits")?,
                    cache_misses: f.req_u64("cache_misses")?,
                    cache_entries: f.req_u64("cache_entries")?,
                })
            })
            .collect::<Result<Vec<_>, ProtoError>>()?;
        Ok(DaemonStats {
            connections: f.req_u64("connections")?,
            active_runs: f.req_u64("active_runs")?,
            jobs_total: f.req_u64("jobs_total")?,
            shutting_down: f.req_bool("shutting_down")?,
            designs,
        })
    }
}

/// One server response. Every success variant echoes the request `id`;
/// [`Response::Error`] echoes it when the frame parsed far enough to
/// recover one.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `open` succeeded.
    Opened {
        /// Echoed request id.
        id: u64,
        /// The session name to use in subsequent requests (`"s1"`, ...),
        /// scoped to this connection.
        session: String,
        /// The design's pool key, as 16 hex digits.
        design_hash: String,
        /// `true` when a pooled settled session was reused (no
        /// verification ran at all).
        reused_session: bool,
        /// `true` when an earlier client had already opened this design,
        /// so the session verified through the shared, pre-warmed cache.
        shared_cache: bool,
        /// Effort and outcome of the opening verification.
        summary: RunSummary,
    },
    /// `apply-delta` succeeded.
    Applied {
        /// Echoed request id.
        id: u64,
        /// Effort and outcome of the re-verification.
        summary: RunSummary,
    },
    /// `run` succeeded.
    Ran {
        /// Echoed request id.
        id: u64,
        /// Effort and outcome of the re-verification.
        summary: RunSummary,
    },
    /// `report` succeeded.
    Report {
        /// Echoed request id.
        id: u64,
        /// The `scald-tv-report` v2 document. With `effort:false`
        /// (default) it is effort-stripped and therefore byte-identical
        /// to `Report::strip_effort().to_json()` of a direct
        /// `Verifier::run` of the same design.
        report: Json,
        /// Whether effort counters were included.
        effort: bool,
    },
    /// `subscribe-trace` succeeded.
    Subscribed {
        /// Echoed request id.
        id: u64,
        /// The mode now in force.
        mode: TraceMode,
    },
    /// `close` succeeded.
    Closed {
        /// Echoed request id.
        id: u64,
        /// `true` when the settled session went back to the shared pool
        /// (rather than being dropped because the pool slot was full).
        pooled: bool,
    },
    /// `stats` succeeded.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The daemon-wide statistics.
        stats: DaemonStats,
    },
    /// `shutdown` acknowledged; the daemon is now draining.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
    /// The request failed. The connection stays usable.
    Error {
        /// Echoed request id, when the frame parsed far enough to
        /// recover one.
        id: Option<u64>,
        /// Error category.
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// The command token a success response answers (`None` for errors).
    #[must_use]
    pub fn cmd(&self) -> Option<&'static str> {
        Some(match self {
            Response::Opened { .. } => "open",
            Response::Applied { .. } => "apply-delta",
            Response::Ran { .. } => "run",
            Response::Report { .. } => "report",
            Response::Subscribed { .. } => "subscribe-trace",
            Response::Closed { .. } => "close",
            Response::Stats { .. } => "stats",
            Response::ShuttingDown { .. } => "shutdown",
            Response::Error { .. } => return None,
        })
    }

    /// The response as a JSON frame — a copy of [`into_json`]'s
    /// document, for callers that keep the response.
    ///
    /// [`into_json`]: Response::into_json
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.clone().into_json()
    }

    /// The response as a JSON frame. Consumes the response, so a
    /// `report` document moves into the frame instead of being copied.
    #[must_use]
    pub fn into_json(self) -> Json {
        let cmd = self.cmd();
        let (id, result) = match self {
            Response::Error { id, kind, message } => {
                return Json::Obj(vec![
                    ("frame".into(), Json::str("response")),
                    ("id".into(), id.map_or(Json::Null, Json::from)),
                    ("ok".into(), Json::from(false)),
                    (
                        "error".into(),
                        Json::Obj(vec![
                            ("kind".into(), Json::str(kind.token())),
                            ("message".into(), Json::Str(message)),
                        ]),
                    ),
                ]);
            }
            Response::Opened {
                id,
                session,
                design_hash,
                reused_session,
                shared_cache,
                summary,
            } => (
                id,
                Json::Obj(vec![
                    ("session".into(), Json::Str(session)),
                    ("design_hash".into(), Json::Str(design_hash)),
                    ("reused_session".into(), Json::from(reused_session)),
                    ("shared_cache".into(), Json::from(shared_cache)),
                    ("summary".into(), summary.to_json()),
                ]),
            ),
            Response::Applied { id, summary } | Response::Ran { id, summary } => {
                (id, Json::Obj(vec![("summary".into(), summary.to_json())]))
            }
            Response::Report { id, report, effort } => (
                id,
                Json::Obj(vec![
                    ("effort".into(), Json::from(effort)),
                    ("report".into(), report),
                ]),
            ),
            Response::Subscribed { id, mode } => (
                id,
                Json::Obj(vec![("mode".into(), Json::str(mode.token()))]),
            ),
            Response::Closed { id, pooled } => {
                (id, Json::Obj(vec![("pooled".into(), Json::from(pooled))]))
            }
            Response::Stats { id, stats } => (id, stats.to_json()),
            Response::ShuttingDown { id } => (id, Json::Obj(vec![])),
        };
        Json::Obj(vec![
            ("frame".into(), Json::str("response")),
            ("id".into(), Json::from(id)),
            ("ok".into(), Json::from(true)),
            (
                "cmd".into(),
                Json::str(cmd.expect("success responses name their cmd")),
            ),
            ("result".into(), result),
        ])
    }

    /// Parses a response frame (the client side of the protocol).
    /// Consumes the frame, so a `report` document moves out of it
    /// instead of being copied.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the first problem.
    pub fn parse(mut json: Json) -> Result<Response, ProtoError> {
        let outer = Fields::of(&json, &["frame", "id", "ok", "cmd", "result", "error"])?;
        if outer.req_str("frame")? != "response" {
            return err("expected a response frame");
        }
        if !outer.req_bool("ok")? {
            let id = match outer.req("id")? {
                Json::Null => None,
                other => match other.as_u64() {
                    Some(id) => Some(id),
                    None => return err("\"id\" must be an integer or null"),
                },
            };
            let e = Fields::of(outer.req("error")?, &["kind", "message"])?;
            return Ok(Response::Error {
                id,
                kind: ErrorKind::parse(e.req_str("kind")?)?,
                message: e.req_str("message")?.to_owned(),
            });
        }
        let id = outer.req_u64("id")?;
        let result = outer.req("result")?;
        match outer.req_str("cmd")? {
            "open" => {
                let f = Fields::of(
                    result,
                    &[
                        "session",
                        "design_hash",
                        "reused_session",
                        "shared_cache",
                        "summary",
                    ],
                )?;
                Ok(Response::Opened {
                    id,
                    session: f.req_str("session")?.to_owned(),
                    design_hash: f.req_str("design_hash")?.to_owned(),
                    reused_session: f.req_bool("reused_session")?,
                    shared_cache: f.req_bool("shared_cache")?,
                    summary: RunSummary::parse(f.req("summary")?)?,
                })
            }
            "apply-delta" => {
                let f = Fields::of(result, &["summary"])?;
                Ok(Response::Applied {
                    id,
                    summary: RunSummary::parse(f.req("summary")?)?,
                })
            }
            "run" => {
                let f = Fields::of(result, &["summary"])?;
                Ok(Response::Ran {
                    id,
                    summary: RunSummary::parse(f.req("summary")?)?,
                })
            }
            "report" => {
                let f = Fields::of(result, &["effort", "report"])?;
                f.req("report")?;
                let effort = f.req_bool("effort")?;
                Ok(Response::Report {
                    id,
                    report: take_field(&mut take_field(&mut json, "result"), "report"),
                    effort,
                })
            }
            "subscribe-trace" => {
                let f = Fields::of(result, &["mode"])?;
                Ok(Response::Subscribed {
                    id,
                    mode: TraceMode::parse(f.req_str("mode")?)?,
                })
            }
            "close" => {
                let f = Fields::of(result, &["pooled"])?;
                Ok(Response::Closed {
                    id,
                    pooled: f.req_bool("pooled")?,
                })
            }
            "stats" => Ok(Response::Stats {
                id,
                stats: DaemonStats::parse(result)?,
            }),
            "shutdown" => Ok(Response::ShuttingDown { id }),
            other => err(format!("unknown response cmd {other:?}")),
        }
    }
}

/// Any server-to-client frame: the connection hello, a response, or a
/// streamed trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// The connection handshake.
    Hello(Hello),
    /// The answer to one request.
    Response(Response),
    /// One engine trace event from a subscribed session.
    Trace {
        /// The session the event belongs to.
        session: String,
        /// The event, in the `scald-trace` JSONL schema.
        event: Json,
    },
}

impl Frame {
    /// The frame as a JSON object. Consumes the frame, so a report
    /// document or trace event moves into it instead of being copied.
    #[must_use]
    pub fn into_json(self) -> Json {
        match self {
            Frame::Hello(h) => h.to_json(),
            Frame::Response(r) => r.into_json(),
            Frame::Trace { session, event } => Json::Obj(vec![
                ("frame".into(), Json::str("trace")),
                ("session".into(), Json::Str(session)),
                ("event".into(), event),
            ]),
        }
    }

    /// Parses any server-to-client frame by its `frame` tag. Consumes
    /// the frame, so a report document or trace event moves out of it.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the first problem.
    pub fn parse(mut json: Json) -> Result<Frame, ProtoError> {
        let Some(tag) = json.get("frame").and_then(Json::as_str) else {
            return err("frame object lacks a \"frame\" tag");
        };
        match tag {
            "hello" => Ok(Frame::Hello(Hello::parse(&json)?)),
            "response" => Ok(Frame::Response(Response::parse(json)?)),
            "trace" => {
                let f = Fields::of(&json, &["frame", "session", "event"])?;
                let session = f.req_str("session")?.to_owned();
                f.req("event")?;
                Ok(Frame::Trace {
                    session,
                    event: take_field(&mut json, "event"),
                })
            }
            other => err(format!("unknown frame tag {other:?}")),
        }
    }
}

/// Moves the value at `key` out of an object (leaving `null` behind),
/// or returns `null` when `json` is not an object holding `key`. Decoders
/// call it only after [`Fields`] validated the object.
fn take_field(json: &mut Json, key: &str) -> Json {
    match json {
        Json::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map_or(Json::Null, |(_, v)| std::mem::replace(v, Json::Null)),
        _ => Json::Null,
    }
}

/// Strict field access over a JSON object: construction fails on a
/// non-object, a duplicate key, or any key outside `allowed`.
struct Fields<'a> {
    obj: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn of(json: &'a Json, allowed: &[&str]) -> Result<Fields<'a>, ProtoError> {
        let Some(obj) = json.as_object() else {
            return err("expected a JSON object");
        };
        for (i, (key, _)) in obj.iter().enumerate() {
            if !allowed.contains(&key.as_str()) {
                return err(format!("unknown field {key:?}"));
            }
            if obj[..i].iter().any(|(k, _)| k == key) {
                return err(format!("duplicate field {key:?}"));
            }
        }
        Ok(Fields { obj })
    }

    fn req(&self, key: &str) -> Result<&'a Json, ProtoError> {
        match self.obj.iter().find(|(k, _)| k == key) {
            Some((_, v)) => Ok(v),
            None => err(format!("missing field {key:?}")),
        }
    }

    fn opt(&self, key: &str) -> Option<&'a Json> {
        self.obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn req_str(&self, key: &str) -> Result<&'a str, ProtoError> {
        match self.req(key)?.as_str() {
            Some(s) => Ok(s),
            None => err(format!("field {key:?} must be a string")),
        }
    }

    fn opt_str(&self, key: &str) -> Result<Option<&'a str>, ProtoError> {
        match self.opt(key) {
            None => Ok(None),
            Some(v) => match v.as_str() {
                Some(s) => Ok(Some(s)),
                None => err(format!("field {key:?} must be a string")),
            },
        }
    }

    fn req_u64(&self, key: &str) -> Result<u64, ProtoError> {
        match self.req(key)?.as_u64() {
            Some(n) => Ok(n),
            None => err(format!("field {key:?} must be a non-negative integer")),
        }
    }

    fn req_bool(&self, key: &str) -> Result<bool, ProtoError> {
        match self.req(key)?.as_bool() {
            Some(b) => Ok(b),
            None => err(format!("field {key:?} must be a boolean")),
        }
    }

    fn opt_bool(&self, key: &str) -> Result<Option<bool>, ProtoError> {
        match self.opt(key) {
            None => Ok(None),
            Some(v) => match v.as_bool() {
                Some(b) => Ok(Some(b)),
                None => err(format!("field {key:?} must be a boolean")),
            },
        }
    }
}

/// Best-effort recovery of a request id from a frame that failed strict
/// parsing, so the error response can still be correlated.
#[must_use]
pub fn recover_id(json: &Json) -> Option<u64> {
    json.get("id").and_then(Json::as_u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_trace::json::parse;

    fn round_trip_request(req: &Request) {
        let text = req.to_json().to_string();
        let back = Request::parse(&parse(&text).expect("valid json")).expect("parses");
        assert_eq!(&back, req, "wire text: {text}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Open {
            id: 1,
            source: "design D;\nperiod 50.0;\n".into(),
            label: Some("demo".into()),
            frontend: Frontend::Scald,
        });
        round_trip_request(&Request::Open {
            id: 1,
            source: "module m(input wire clk);\nendmodule\n".into(),
            label: None,
            frontend: Frontend::Verilog,
        });
        round_trip_request(&Request::ApplyDelta {
            id: 2,
            session: "s1".into(),
            delta: DeltaSpec::Cases(vec![vec![("CTL 0".into(), true)], vec![]]),
        });
        round_trip_request(&Request::Run {
            id: 3,
            session: "s1".into(),
            cases: None,
        });
        round_trip_request(&Request::Run {
            id: 3,
            session: "s1".into(),
            cases: Some(SweepSpec::Exhaustive(vec!["A".into()])),
        });
        round_trip_request(&Request::Report {
            id: 4,
            session: "s1".into(),
            effort: true,
        });
        round_trip_request(&Request::SubscribeTrace {
            id: 5,
            session: "s1".into(),
            mode: TraceMode::Full,
        });
        round_trip_request(&Request::Close {
            id: 6,
            session: "s1".into(),
        });
        round_trip_request(&Request::Stats { id: 7 });
        round_trip_request(&Request::Shutdown { id: 8 });
    }

    #[test]
    fn sweep_specs_round_trip_and_expand() {
        let spec = SweepSpec::Product(vec![
            SweepSpec::Exhaustive(vec!["MODE0".into(), "MODE1".into()]),
            SweepSpec::Corners(vec![DelayCorner::Min, DelayCorner::Max]),
            SweepSpec::List(vec![vec![("EN".into(), true)], vec![]]),
        ]);
        // 4 exhaustive combinations x 2 corners x 2 listed cases.
        assert_eq!(spec.to_case_set().len(), 16);
        round_trip_request(&Request::ApplyDelta {
            id: 9,
            session: "s1".into(),
            delta: DeltaSpec::Sweep(spec),
        });
        round_trip_request(&Request::ApplyDelta {
            id: 10,
            session: "s1".into(),
            delta: DeltaSpec::Sweep(SweepSpec::Exhaustive(Vec::new())),
        });
    }

    #[test]
    fn sweep_case_count_is_multiplicative_and_saturates() {
        let wide = SweepSpec::Exhaustive((0..20).map(|i| format!("S{i}")).collect());
        assert_eq!(wide.case_count(), 1 << 20);
        assert_eq!(SweepSpec::Exhaustive(Vec::new()).case_count(), 1);
        assert_eq!(SweepSpec::Product(Vec::new()).case_count(), 1);
        assert_eq!(
            SweepSpec::Corners(vec![DelayCorner::Min, DelayCorner::Max]).case_count(),
            2
        );
        assert_eq!(SweepSpec::List(vec![vec![]]).case_count(), 1);
        // An empty-list axis annihilates the product, like CaseSet.
        assert_eq!(
            SweepSpec::Product(vec![wide.clone(), SweepSpec::List(Vec::new())]).case_count(),
            0
        );
        // 2^20 x 2^20 x 2^20 = 2^60 still fits; one more axis overflows
        // u64 and must saturate rather than wrap back under the cap.
        let three = SweepSpec::Product(vec![wide.clone(), wide.clone(), wide.clone()]);
        assert_eq!(three.case_count(), 1 << 60);
        let four = SweepSpec::Product(vec![three, wide]);
        assert_eq!(four.case_count(), u64::MAX);
    }

    #[test]
    fn sweep_parse_is_strict() {
        let parse_delta = |delta: &str| {
            let line = format!(r#"{{"id":1,"cmd":"apply-delta","session":"s1","delta":{delta}}}"#);
            Request::parse(&parse(&line).expect("valid json"))
        };
        // The documented wire shapes parse.
        for good in [
            r#"{"kind":"sweep","sweep":{"kind":"exhaustive","signals":["A","B"]}}"#,
            r#"{"kind":"sweep","sweep":{"kind":"corners","corners":["worst","min","typ","max"]}}"#,
            r#"{"kind":"sweep","sweep":{"kind":"list","cases":[{"SIG":true}]}}"#,
            r#"{"kind":"sweep","sweep":{"kind":"product","axes":[
                {"kind":"exhaustive","signals":["A"]},
                {"kind":"corners","corners":["min"]}]}}"#,
        ] {
            parse_delta(good).unwrap_or_else(|e| panic!("{good} must parse: {e}"));
        }
        // Unknown kinds, bad tokens, stray fields, wrong types: errors.
        for bad in [
            r#"{"kind":"sweep","sweep":{"kind":"spiral"}}"#,
            r#"{"kind":"sweep","sweep":{"kind":"corners","corners":["typical"]}}"#,
            r#"{"kind":"sweep","sweep":{"kind":"exhaustive","signals":["A"],"extra":1}}"#,
            r#"{"kind":"sweep","sweep":{"kind":"exhaustive","signals":[1]}}"#,
            r#"{"kind":"sweep","sweep":{"kind":"list","cases":[{"SIG":"yes"}]}}"#,
            r#"{"kind":"sweep"}"#,
        ] {
            assert!(parse_delta(bad).is_err(), "{bad} must be rejected");
        }
        // Width guard: an exhaustive sweep over 21 signals is a parse
        // error, not a 2-million-case enumeration (or a panic).
        let wide: Vec<String> = (0..21).map(|i| format!("\"S{i}\"")).collect();
        let wide = format!(
            r#"{{"kind":"sweep","sweep":{{"kind":"exhaustive","signals":[{}]}}}}"#,
            wide.join(",")
        );
        assert!(parse_delta(&wide).is_err(), "21-signal sweep rejected");
        // Total guard: each axis passes the per-axis width guard, but
        // the product multiplies — three 20-signal exhaustive axes name
        // 2^60 cases and must be a parse error, not an OOM in
        // to_case_set.
        let axis = |base: usize| {
            let names: Vec<String> = (0..20).map(|i| format!("\"S{}_{i}\"", base)).collect();
            format!(r#"{{"kind":"exhaustive","signals":[{}]}}"#, names.join(","))
        };
        let huge = format!(
            r#"{{"kind":"sweep","sweep":{{"kind":"product","axes":[{},{},{}]}}}}"#,
            axis(0),
            axis(1),
            axis(2)
        );
        assert!(
            parse_delta(&huge).is_err(),
            "2^60-case product sweep rejected"
        );
        // ...while a product that lands exactly on the limit (2^10 x
        // 2^10 = SWEEP_MAX_CASES) still parses.
        let half = |base: usize| {
            let names: Vec<String> = (0..10).map(|i| format!("\"S{}_{i}\"", base)).collect();
            format!(r#"{{"kind":"exhaustive","signals":[{}]}}"#, names.join(","))
        };
        let at_limit = format!(
            r#"{{"kind":"sweep","sweep":{{"kind":"product","axes":[{},{}]}}}}"#,
            half(0),
            half(1)
        );
        parse_delta(&at_limit).expect("a sweep at exactly SWEEP_MAX_CASES parses");
        // Duplicate signal names in an exhaustive sweep are a parse
        // error (they would enumerate colliding cases), mirroring the
        // CaseSet::exhaustive uniqueness guard.
        assert!(
            parse_delta(r#"{"kind":"sweep","sweep":{"kind":"exhaustive","signals":["A","A"]}}"#)
                .is_err(),
            "duplicate exhaustive signals rejected"
        );
        // Depth guard: product nesting beyond SWEEP_MAX_DEPTH is a
        // parse error, not unbounded recursion.
        let mut deep = r#"{"kind":"corners","corners":["min"]}"#.to_owned();
        for _ in 0..10 {
            deep = format!(r#"{{"kind":"product","axes":[{deep}]}}"#);
        }
        assert!(
            parse_delta(&format!(r#"{{"kind":"sweep","sweep":{deep}}}"#)).is_err(),
            "over-deep product nesting rejected"
        );
    }

    #[test]
    fn responses_round_trip() {
        let summary = RunSummary {
            clean: false,
            violations: 3,
            warm: true,
            seeded_prims: 4,
            total_prims: 400,
            events: 120,
            evaluations: 200,
            wall_ns: 12345,
            cache: Some(CacheDelta {
                hits: 10,
                misses: 2,
                entries: 12,
            }),
            sweep: Some(SweepEffort {
                prefix_nodes: 7,
                prefix_evaluations: 91,
                leaf_check_evals: 30,
                leaf_check_hits: 270,
                leaf_storage_evals: 12,
                leaf_storage_hits: 388,
            }),
        };
        for resp in [
            Response::Opened {
                id: 1,
                session: "s1".into(),
                design_hash: "00ff00ff00ff00ff".into(),
                reused_session: true,
                shared_cache: true,
                summary,
            },
            Response::Applied { id: 2, summary },
            Response::Ran { id: 3, summary },
            Response::Report {
                id: 4,
                report: Json::Obj(vec![("schema".into(), Json::str("scald-tv-report"))]),
                effort: false,
            },
            Response::Subscribed {
                id: 5,
                mode: TraceMode::Coarse,
            },
            Response::Closed {
                id: 6,
                pooled: true,
            },
            Response::Stats {
                id: 7,
                stats: DaemonStats {
                    connections: 4,
                    active_runs: 1,
                    jobs_total: 8,
                    shutting_down: false,
                    designs: vec![DesignStats {
                        design_hash: "0123456789abcdef".into(),
                        opens: 4,
                        reuses: 2,
                        idle_sessions: 1,
                        cache_hits: 100,
                        cache_misses: 10,
                        cache_entries: 10,
                    }],
                },
            },
            Response::ShuttingDown { id: 8 },
            Response::Error {
                id: None,
                kind: ErrorKind::Parse,
                message: "unknown cmd \"frobnicate\"".into(),
            },
            Response::Error {
                id: Some(9),
                kind: ErrorKind::Timeout,
                message: "request exceeded 30000 ms".into(),
            },
        ] {
            let text = resp.to_json().to_string();
            let back = Response::parse(parse(&text).expect("valid json")).expect("parses");
            assert_eq!(back, resp, "wire text: {text}");
            // And through the generic frame parser.
            let frame = Frame::parse(parse(&text).expect("valid json")).expect("parses");
            assert_eq!(frame, Frame::Response(resp));
        }
    }

    /// The borrowing encoder the by-value [`Response::into_json`] and
    /// [`Frame::into_json`] replaced, kept as the byte-identity oracle.
    fn oracle_frame(frame: &Frame) -> Json {
        let response = match frame {
            Frame::Hello(h) => return h.to_json(),
            Frame::Trace { session, event } => {
                return Json::Obj(vec![
                    ("frame".into(), Json::str("trace")),
                    ("session".into(), Json::str(session)),
                    ("event".into(), event.clone()),
                ])
            }
            Frame::Response(r) => r,
        };
        if let Response::Error { id, kind, message } = response {
            return Json::Obj(vec![
                ("frame".into(), Json::str("response")),
                ("id".into(), id.map_or(Json::Null, Json::from)),
                ("ok".into(), Json::from(false)),
                (
                    "error".into(),
                    Json::Obj(vec![
                        ("kind".into(), Json::str(kind.token())),
                        ("message".into(), Json::str(message)),
                    ]),
                ),
            ]);
        }
        let (id, result) = match response {
            Response::Opened {
                id,
                session,
                design_hash,
                reused_session,
                shared_cache,
                summary,
            } => (
                *id,
                Json::Obj(vec![
                    ("session".into(), Json::str(session)),
                    ("design_hash".into(), Json::str(design_hash)),
                    ("reused_session".into(), Json::from(*reused_session)),
                    ("shared_cache".into(), Json::from(*shared_cache)),
                    ("summary".into(), summary.to_json()),
                ]),
            ),
            Response::Applied { id, summary } | Response::Ran { id, summary } => {
                (*id, Json::Obj(vec![("summary".into(), summary.to_json())]))
            }
            Response::Report { id, report, effort } => (
                *id,
                Json::Obj(vec![
                    ("effort".into(), Json::from(*effort)),
                    ("report".into(), report.clone()),
                ]),
            ),
            Response::Subscribed { id, mode } => (
                *id,
                Json::Obj(vec![("mode".into(), Json::str(mode.token()))]),
            ),
            Response::Closed { id, pooled } => {
                (*id, Json::Obj(vec![("pooled".into(), Json::from(*pooled))]))
            }
            Response::Stats { id, stats } => (*id, stats.to_json()),
            Response::ShuttingDown { id } => (*id, Json::Obj(vec![])),
            Response::Error { .. } => unreachable!("handled above"),
        };
        Json::Obj(vec![
            ("frame".into(), Json::str("response")),
            ("id".into(), Json::from(id)),
            ("ok".into(), Json::from(true)),
            (
                "cmd".into(),
                Json::str(response.cmd().expect("success responses name their cmd")),
            ),
            ("result".into(), result),
        ])
    }

    #[test]
    fn frames_match_the_borrowing_encoder_oracle() {
        let summary = RunSummary {
            clean: true,
            violations: 0,
            warm: false,
            seeded_prims: 1665,
            total_prims: 1665,
            events: 9000,
            evaluations: 12000,
            wall_ns: 1,
            cache: None,
            sweep: None,
        };
        // A report-shaped document: nested objects, arrays, escapes,
        // non-ASCII, nulls and numbers of every writer path.
        let report = parse(
            r#"{"schema":"scald-tv-report","version":2,"design":"d \"q\"\né",
                "clean":false,"engine":{"wall_ns":null,"period_ns":50,"x":-0.5,"big":1e300},
                "cases":[{"name":"case 1","violations":[{"at":{"start_ns":49,"width_ns":2.25},
                "observed":["CK = 0 0.0 R 36.5","\t"]}]}],"assumed_stable":[],"summary":[]}"#,
        )
        .expect("valid json");
        let frames = [
            Frame::Hello(Hello {
                proto: PROTO_VERSION,
                server: "scald-serve/0.1.0".into(),
                jobs: 2,
            }),
            Frame::Trace {
                session: "s1".into(),
                event: parse(r#"{"event":"warm_start","copied_signals":3}"#).expect("valid"),
            },
            Frame::Response(Response::Opened {
                id: 1,
                session: "s1".into(),
                design_hash: "00ff00ff00ff00ff".into(),
                reused_session: false,
                shared_cache: true,
                summary,
            }),
            Frame::Response(Response::Applied { id: 2, summary }),
            Frame::Response(Response::Ran { id: 3, summary }),
            Frame::Response(Response::Report {
                id: 4,
                report: report.clone(),
                effort: false,
            }),
            Frame::Response(Response::Report {
                id: u64::MAX,
                report,
                effort: true,
            }),
            Frame::Response(Response::Subscribed {
                id: 5,
                mode: TraceMode::Full,
            }),
            Frame::Response(Response::Closed {
                id: 6,
                pooled: false,
            }),
            Frame::Response(Response::Stats {
                id: 7,
                stats: DaemonStats {
                    connections: 1,
                    active_runs: 0,
                    jobs_total: 2,
                    shutting_down: true,
                    designs: vec![],
                },
            }),
            Frame::Response(Response::ShuttingDown { id: 8 }),
            Frame::Response(Response::Error {
                id: Some(9),
                kind: ErrorKind::Compile,
                message: "line 3: \"x\" is not a signal".into(),
            }),
            Frame::Response(Response::Error {
                id: None,
                kind: ErrorKind::Parse,
                message: "malformed JSON".into(),
            }),
        ];
        for frame in frames {
            let text = frame.clone().into_json().to_string();
            assert_eq!(text, oracle_frame(&frame).to_string(), "frame bytes");
            if let Frame::Response(r) = &frame {
                assert_eq!(r.to_json().to_string(), text, "borrowing encoder");
            }
            let back = Frame::parse(parse(&text).expect("valid json")).expect("parses");
            assert_eq!(back, frame, "by-value decode round-trips: {text}");
        }
    }

    #[test]
    fn hello_round_trips_and_checks_version() {
        let hello = Hello {
            proto: PROTO_VERSION,
            server: "scald-serve/0.1.0".into(),
            jobs: 4,
        };
        let text = hello.to_json().to_string();
        assert!(text.contains("\"scald-serve-proto\":1"), "{text}");
        assert_eq!(Hello::parse(&parse(&text).expect("valid")), Ok(hello));
    }

    #[test]
    fn strict_parse_rejects_bad_frames() {
        for (bad, why) in [
            (r#"{"cmd":"open","source":"x"}"#, "missing id"),
            (r#"{"id":1,"cmd":"frobnicate"}"#, "unknown cmd"),
            (r#"{"id":1,"cmd":"open"}"#, "missing source"),
            (
                r#"{"id":1,"cmd":"open","source":"x","extra":1}"#,
                "unknown field",
            ),
            (r#"{"id":1,"cmd":"run"}"#, "missing session"),
            (r#"{"id":1,"cmd":"run","session":7}"#, "non-string session"),
            (r#"{"id":-1,"cmd":"stats"}"#, "negative id"),
            (
                r#"{"id":1,"cmd":"stats","session":"s1"}"#,
                "field from another cmd",
            ),
            (
                r#"{"id":1,"cmd":"subscribe-trace","session":"s1","mode":"loud"}"#,
                "bad mode",
            ),
            (
                r#"{"id":1,"cmd":"apply-delta","session":"s1","delta":{"kind":"cases","cases":[{"A":1}]}}"#,
                "non-bool assignment",
            ),
            (r#"[1,2,3]"#, "not an object"),
            (r#"{"id":1,"id":2,"cmd":"stats"}"#, "duplicate field"),
            (
                r#"{"id":1,"cmd":"open","source":"x","frontend":"vhdl"}"#,
                "unknown frontend",
            ),
            (
                r#"{"id":1,"cmd":"run","session":"s1","frontend":"scald"}"#,
                "frontend on wrong cmd",
            ),
        ] {
            let json = parse(bad).expect("tests use well-formed JSON text");
            assert!(Request::parse(&json).is_err(), "accepted ({why}): {bad}");
        }
    }

    #[test]
    fn frontend_field_defaults_to_scald_and_stays_off_the_wire() {
        // A v1 client that has never heard of frontends still parses.
        let json = parse(r#"{"id":1,"cmd":"open","source":"design D;"}"#).expect("valid");
        let req = Request::parse(&json).expect("parses");
        assert_eq!(
            req,
            Request::Open {
                id: 1,
                source: "design D;".into(),
                label: None,
                frontend: Frontend::Scald,
            }
        );
        // And the default frontend is never emitted, so golden frames
        // recorded against the v1 daemon keep matching byte for byte.
        assert!(!req.to_json().to_string().contains("frontend"));
        let verilog = Request::Open {
            id: 2,
            source: "module m();\nendmodule\n".into(),
            label: None,
            frontend: Frontend::Verilog,
        };
        assert!(verilog
            .to_json()
            .to_string()
            .contains(r#""frontend":"verilog""#));
    }

    #[test]
    fn recover_id_salvages_correlation_tags() {
        let json = parse(r#"{"id":41,"cmd":"nope"}"#).expect("valid");
        assert_eq!(recover_id(&json), Some(41));
        let json = parse(r#"{"cmd":"nope"}"#).expect("valid");
        assert_eq!(recover_id(&json), None);
    }
}
