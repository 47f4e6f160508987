//! The daemon: accept loop, per-connection protocol handling,
//! per-request timeouts, and graceful shutdown.
//!
//! One [`serve`] call owns everything: a [`SessionPool`] shared by all
//! connections and the listener(s). Each connection is one thread; each
//! potentially-slow request (`open`, `apply-delta`, `run`) runs on a
//! worker thread the connection waits on with a deadline, so a
//! pathological design can time out one request without wedging the
//! connection — the orphaned verification finishes in the background
//! and its session rejoins the pool.

use crate::pool::{CheckoutInfo, PooledSession, SessionPool};
use crate::proto::{
    CacheDelta, DaemonStats, DeltaSpec, ErrorKind, Frame, Frontend, Hello, Request, Response,
    RunSummary, SweepEffort, SweepSpec, MAX_FRAME_BYTES, PROTO_VERSION,
};
use crate::tap::SharedWriter;
use scald_incr::{compile_source, compile_verilog, Delta, IncrStats, SessionError, SessionOutcome};
use scald_verifier::{Case, EvalCacheStats};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How the daemon listens and how it spends effort.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind a Unix socket here (the path must not already exist; it is
    /// unlinked on clean shutdown).
    pub socket: Option<PathBuf>,
    /// Speak the protocol on stdin/stdout as one implicit connection;
    /// its EOF begins graceful shutdown.
    pub stdio: bool,
    /// Has no effect: each request verifies on one thread. It stays
    /// only until the `e2ebench` benchmark stops setting its `JOBS`
    /// constant here.
    pub jobs: usize,
    /// Deadline for `open` / `apply-delta` / `run`. A request that
    /// exceeds it gets an [`ErrorKind::Timeout`] response; its session
    /// is evicted from the connection and returns to the pool when the
    /// background verification finishes.
    pub request_timeout: Duration,
    /// `false` disables the shared evaluation cache (`--no-eval-cache`).
    pub eval_cache: bool,
    /// Settled sessions kept idle per design hash.
    pub idle_cap: usize,
    /// Largest case count a `sweep` spec may expand to server-side.
    /// The protocol already refuses anything over
    /// [`SWEEP_MAX_CASES`](crate::proto::SWEEP_MAX_CASES) at parse
    /// time; this is the daemon's own (lower, operator-tunable) budget,
    /// since even a legal 2^20-case expansion is a lot of memory to
    /// hand one client of a shared daemon. Specs over budget get an
    /// [`ErrorKind::Delta`] response and the session stays usable.
    pub max_sweep_cases: u64,
}

/// Default for [`ServeOptions::max_sweep_cases`]: 2^16 cases, well past
/// the 1000-case sweeps the case-tree engine targets while keeping one
/// client's expansion far below the protocol's 2^20 hard cap.
pub const DEFAULT_MAX_SWEEP_CASES: u64 = 1 << 16;

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            socket: None,
            stdio: false,
            jobs: 0,
            request_timeout: Duration::from_secs(30),
            eval_cache: true,
            idle_cap: 4,
            max_sweep_cases: DEFAULT_MAX_SWEEP_CASES,
        }
    }
}

/// State shared by every connection of one [`serve`] call.
struct Shared {
    pool: SessionPool,
    timeout: Duration,
    max_sweep_cases: u64,
    shutting_down: AtomicBool,
    connections: AtomicUsize,
    active_runs: AtomicUsize,
}

impl Shared {
    fn new(opts: &ServeOptions) -> Arc<Shared> {
        Arc::new(Shared {
            pool: SessionPool::new(opts.idle_cap, opts.eval_cache),
            timeout: opts.request_timeout,
            max_sweep_cases: opts.max_sweep_cases,
            shutting_down: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            active_runs: AtomicUsize::new(0),
        })
    }

    fn hello(&self) -> Hello {
        Hello {
            proto: PROTO_VERSION,
            server: concat!("scald-serve/", env!("CARGO_PKG_VERSION")).to_owned(),
            jobs: 1,
        }
    }

    fn drained(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
            && self.connections.load(Ordering::Acquire) == 0
            && self.active_runs.load(Ordering::Acquire) == 0
    }
}

/// Runs the daemon until graceful shutdown completes: a `shutdown`
/// request (or EOF on a `stdio` connection) stops new opens, in-flight
/// work drains, and `serve` returns once no connection or background run
/// remains. At least one of `socket` / `stdio` must be requested.
///
/// # Errors
///
/// Binding or accepting on the socket, or (in `stdio` mode) writing the
/// handshake.
pub fn serve(opts: &ServeOptions) -> io::Result<()> {
    if opts.socket.is_none() && !opts.stdio {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "serve needs a socket path, stdio mode, or both",
        ));
    }
    let shared = Shared::new(opts);

    let mut socket_thread = None;
    if let Some(path) = &opts.socket {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::clone(&shared);
        socket_thread = Some(thread::spawn(move || accept_loop(&listener, &shared)));
    }

    if opts.stdio {
        let guard = ConnectionGuard::new(&shared);
        handle_connection(io::stdin().lock(), Box::new(io::stdout()), &shared)?;
        drop(guard);
        // The controlling client hung up: begin the drain so `serve`
        // (and the daemon process) can exit.
        shared.shutting_down.store(true, Ordering::Release);
    }

    while !shared.drained() {
        thread::sleep(Duration::from_millis(25));
    }
    if let Some(handle) = socket_thread {
        handle.join().expect("accept loop panicked");
    }
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Accepts until shutdown, handing each connection its own thread.
fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Counted before the thread starts, so a drain never sees
                // an accepted connection as gone.
                let guard = ConnectionGuard::new(shared);
                thread::spawn(move || {
                    let _ = connection_on_stream(stream, &guard.0);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(50));
            }
            Err(_) => thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn connection_on_stream(stream: UnixStream, shared: &Arc<Shared>) -> io::Result<()> {
    let reader = stream.try_clone()?;
    handle_connection(BufReader::new(reader), Box::new(stream), shared)
}

/// One session checked out to a connection, under the name the client
/// knows it by.
struct ConnState {
    sessions: BTreeMap<String, Checkout>,
    next_session: u64,
}

/// A checked-out session and the frontend it was opened in, which its
/// `source` deltas compile in. The frontend lives here, not on the
/// pooled session: HDL and Verilog twins share a design hash, so one
/// pooled session can serve opens in either frontend.
struct Checkout {
    pooled: PooledSession,
    frontend: Frontend,
}

/// The protocol loop for one client: handshake, then one strict JSONL
/// request per line. Malformed frames — invalid JSON, an invalid
/// request, bytes that are not UTF-8, a line longer than
/// [`MAX_FRAME_BYTES`] — get a structured parse error and the connection
/// lives on; only EOF (or an unterminated final line, i.e. a client that
/// died mid-write) ends it. Any session still checked out at the end
/// returns to the pool.
fn handle_connection(
    mut reader: impl BufRead,
    writer: Box<dyn Write + Send>,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let writer: SharedWriter = Arc::new(Mutex::new(writer));
    write_frame(&writer, Frame::Hello(shared.hello()))?;

    let mut conn = ConnState {
        sessions: BTreeMap::new(),
        next_session: 1,
    };
    let mut line = Vec::new();
    loop {
        let text = match read_frame(&mut reader, &mut line)? {
            // Clean EOF, or a client that vanished mid-frame: the
            // fragment was never a complete request, so it must not be
            // processed.
            FrameRead::End => break,
            FrameRead::TooLong => Err(format!(
                "frame exceeds the protocol limit of {MAX_FRAME_BYTES} bytes"
            )),
            FrameRead::Line => {
                std::str::from_utf8(&line).map_err(|e| format!("frame is not UTF-8: {e}"))
            }
        };
        let text = match text {
            Ok(text) => text.trim(),
            Err(message) => {
                let resp = Response::Error {
                    id: None,
                    kind: ErrorKind::Parse,
                    message,
                };
                write_frame(&writer, Frame::Response(resp))?;
                continue;
            }
        };
        if text.is_empty() {
            continue;
        }
        let request = match scald_trace::json::parse(text) {
            Err(e) => {
                let resp = Response::Error {
                    id: None,
                    kind: ErrorKind::Parse,
                    message: format!("malformed JSON: {e}"),
                };
                write_frame(&writer, Frame::Response(resp))?;
                continue;
            }
            Ok(json) => match Request::parse(&json) {
                Err(e) => {
                    let resp = Response::Error {
                        id: crate::proto::recover_id(&json),
                        kind: ErrorKind::Parse,
                        message: e.to_string(),
                    };
                    write_frame(&writer, Frame::Response(resp))?;
                    continue;
                }
                Ok(request) => request,
            },
        };
        let response = dispatch(request, &mut conn, &writer, shared);
        write_frame(&writer, Frame::Response(response))?;
    }

    // Disconnect (clean or torn): park every remaining session.
    for (_, checkout) in std::mem::take(&mut conn.sessions) {
        shared.pool.checkin(checkout.pooled);
    }
    Ok(())
}

/// What [`read_frame`] found.
enum FrameRead {
    /// A complete line, `\n` included, is in the buffer.
    Line,
    /// A complete line longer than [`MAX_FRAME_BYTES`], read past and
    /// dropped.
    TooLong,
    /// EOF, clean or after an unterminated final line.
    End,
}

/// Reads one frame into `line` as bytes, buffering at most
/// [`MAX_FRAME_BYTES`] plus one. The rest of a longer line is read and
/// discarded a buffer at a time, without keeping it.
fn read_frame(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<FrameRead> {
    line.clear();
    let limit = MAX_FRAME_BYTES + 1;
    let n = Read::take(&mut *reader, limit as u64).read_until(b'\n', line)?;
    if line.last() == Some(&b'\n') {
        return Ok(FrameRead::Line);
    }
    if n < limit {
        return Ok(FrameRead::End);
    }
    // Over the cap: free the buffer and skip to the end of the line.
    *line = Vec::new();
    loop {
        let (found, used) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                return Ok(FrameRead::End);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(at) => (true, at + 1),
                None => (false, available.len()),
            }
        };
        reader.consume(used);
        if found {
            return Ok(FrameRead::TooLong);
        }
    }
}

fn write_frame(writer: &SharedWriter, frame: Frame) -> io::Result<()> {
    let line = frame.into_json().to_string();
    let mut w = writer.lock().expect("connection writer poisoned");
    writeln!(w, "{line}")?;
    w.flush()
}

fn dispatch(
    request: Request,
    conn: &mut ConnState,
    writer: &SharedWriter,
    shared: &Arc<Shared>,
) -> Response {
    match request {
        Request::Open {
            id,
            source,
            label,
            frontend,
        } => {
            if shared.shutting_down.load(Ordering::Acquire) {
                return Response::Error {
                    id: Some(id),
                    kind: ErrorKind::ShuttingDown,
                    message: "daemon is draining; new opens are rejected".into(),
                };
            }
            let label = label.unwrap_or_else(|| "<unnamed>".to_owned());
            do_open(id, source, frontend, label, conn, shared)
        }
        Request::ApplyDelta { id, session, delta } => {
            if let DeltaSpec::Sweep(spec) = &delta {
                if let Some(resp) = sweep_over_budget(id, spec, shared) {
                    return resp;
                }
            }
            let Some(checkout) = conn.sessions.remove(&session) else {
                return unknown_session(id, &session);
            };
            do_verify_op(
                id,
                session,
                checkout,
                VerifyOp::Apply(delta),
                OpKind::Applied,
                conn,
                shared,
            )
        }
        Request::Run { id, session, cases } => {
            if let Some(spec) = &cases {
                if let Some(resp) = sweep_over_budget(id, spec, shared) {
                    return resp;
                }
            }
            let Some(checkout) = conn.sessions.remove(&session) else {
                return unknown_session(id, &session);
            };
            // A `run` with a sweep spec is sugar for applying the
            // expanded case list, so both spellings share one path.
            let op = match cases {
                Some(spec) => VerifyOp::Apply(DeltaSpec::Sweep(spec)),
                None => VerifyOp::Reverify,
            };
            do_verify_op(id, session, checkout, op, OpKind::Ran, conn, shared)
        }
        Request::Report {
            id,
            session,
            effort,
        } => {
            let Some(checkout) = conn.sessions.get(&session) else {
                return unknown_session(id, &session);
            };
            let report = checkout.pooled.session.report();
            let doc = if effort {
                report.json_value()
            } else {
                report.stripped_json_value()
            };
            Response::Report {
                id,
                report: doc,
                effort,
            }
        }
        Request::SubscribeTrace { id, session, mode } => {
            let Some(checkout) = conn.sessions.get(&session) else {
                return unknown_session(id, &session);
            };
            checkout
                .pooled
                .tap
                .subscribe(mode, session, Arc::clone(writer));
            Response::Subscribed { id, mode }
        }
        Request::Close { id, session } => {
            let Some(checkout) = conn.sessions.remove(&session) else {
                return unknown_session(id, &session);
            };
            let pooled = shared.pool.checkin(checkout.pooled);
            Response::Closed { id, pooled }
        }
        Request::Stats { id } => Response::Stats {
            id,
            stats: DaemonStats {
                connections: shared.connections.load(Ordering::Acquire) as u64,
                active_runs: shared.active_runs.load(Ordering::Acquire) as u64,
                jobs_total: 1,
                shutting_down: shared.shutting_down.load(Ordering::Acquire),
                designs: shared.pool.stats(),
            },
        },
        Request::Shutdown { id } => {
            shared.shutting_down.store(true, Ordering::Release);
            Response::ShuttingDown { id }
        }
    }
}

/// The daemon-budget sweep guard: the protocol's hard cap has already
/// run at parse time, but a shared daemon enforces its own (lower,
/// `--max-sweep-cases`) budget before a single case is materialized.
/// The session is untouched, so the client can retry a smaller sweep.
fn sweep_over_budget(id: u64, spec: &SweepSpec, shared: &Shared) -> Option<Response> {
    let total = spec.case_count();
    (total > shared.max_sweep_cases).then(|| Response::Error {
        id: Some(id),
        kind: ErrorKind::Delta,
        message: format!(
            "sweep expands to {total} cases, over this daemon's budget of {} \
             (raise with --max-sweep-cases)",
            shared.max_sweep_cases
        ),
    })
}

fn unknown_session(id: u64, session: &str) -> Response {
    Response::Error {
        id: Some(id),
        kind: ErrorKind::UnknownSession,
        message: format!("no session {session:?} on this connection"),
    }
}

/// Counts one live connection until dropped, whatever path (a panic
/// included) the connection's thread exits by; a drain waits for every
/// guard.
struct ConnectionGuard(Arc<Shared>);

impl ConnectionGuard {
    fn new(shared: &Arc<Shared>) -> ConnectionGuard {
        shared.connections.fetch_add(1, Ordering::AcqRel);
        ConnectionGuard(Arc::clone(shared))
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Decrements a counter when dropped, whatever path the worker exits by.
struct RunGuard(Arc<Shared>);

impl Drop for RunGuard {
    fn drop(&mut self) {
        self.0.active_runs.fetch_sub(1, Ordering::AcqRel);
    }
}

/// `open`: compile, then check out / verify, on a worker thread under
/// the request deadline. A compile error comes back through the same
/// channel as a checkout error.
fn do_open(
    id: u64,
    source: String,
    frontend: Frontend,
    label: String,
    conn: &mut ConnState,
    shared: &Arc<Shared>,
) -> Response {
    let worker_shared = Arc::clone(shared);
    shared.active_runs.fetch_add(1, Ordering::AcqRel);
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _guard = RunGuard(Arc::clone(&worker_shared));
        let compiled = match frontend {
            Frontend::Scald => compile_source(&source),
            Frontend::Verilog => compile_verilog(&source),
        };
        let result = compiled
            .and_then(|(netlist, cases)| worker_shared.pool.checkout(netlist, cases, &label));
        let _ = tx.send(result);
    });

    match rx.recv_timeout(shared.timeout) {
        Ok(Ok((pooled, info))) => {
            let name = format!("s{}", conn.next_session);
            conn.next_session += 1;
            let summary = open_summary(&pooled, &info);
            let response = Response::Opened {
                id,
                session: name.clone(),
                design_hash: format!("{:016x}", info.design_hash),
                reused_session: info.reused_session,
                shared_cache: info.shared_cache,
                summary,
            };
            conn.sessions.insert(name, Checkout { pooled, frontend });
            response
        }
        Ok(Err(e)) => session_error(id, &e),
        Err(_) => {
            reap_checkout(rx, Arc::clone(shared));
            timeout_error(id, shared.timeout)
        }
    }
}

/// The deadline-guarded mutating ops: the session moves to the worker;
/// on success (or a failed-but-harmless delta) it comes back to the
/// connection, on timeout the reaper parks it in the pool instead.
enum VerifyOp {
    Apply(DeltaSpec),
    Reverify,
}

#[allow(clippy::too_many_arguments)]
fn do_verify_op(
    id: u64,
    name: String,
    Checkout {
        mut pooled,
        frontend,
    }: Checkout,
    op: VerifyOp,
    kind: OpKind,
    conn: &mut ConnState,
    shared: &Arc<Shared>,
) -> Response {
    let worker_shared = Arc::clone(shared);
    shared.active_runs.fetch_add(1, Ordering::AcqRel);
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _guard = RunGuard(Arc::clone(&worker_shared));
        let before = pooled.session.cache_stats();
        let result = match op {
            VerifyOp::Apply(DeltaSpec::Source(src)) => pooled.session.apply(match frontend {
                Frontend::Scald => Delta::Source(src),
                Frontend::Verilog => Delta::Verilog(src),
            }),
            VerifyOp::Apply(DeltaSpec::Cases(cases)) => pooled.session.apply(Delta::Cases(
                cases.into_iter().map(Case::from_iter).collect(),
            )),
            // The sweep expands server-side through the same CaseSet
            // builders the in-process API uses, so a swept run is
            // byte-identical to handing the expanded list to `cases`.
            VerifyOp::Apply(DeltaSpec::Sweep(spec)) => pooled
                .session
                .apply(Delta::Cases(spec.to_case_set().into_cases())),
            VerifyOp::Reverify => pooled.session.reverify(),
        };
        let delta = cache_delta(before, pooled.session.cache_stats());
        let _ = tx.send((pooled, result, delta));
    });

    match rx.recv_timeout(shared.timeout) {
        Ok((pooled, result, delta)) => {
            // Even a failed apply leaves the session valid at its prior
            // state, so it always returns to the connection here.
            let response = match &result {
                Ok(_) => {
                    let summary = outcome_summary(pooled.session.outcome(), delta);
                    match kind {
                        OpKind::Applied => Response::Applied { id, summary },
                        OpKind::Ran => Response::Ran { id, summary },
                    }
                }
                Err(e) => session_error(id, e),
            };
            conn.sessions.insert(name, Checkout { pooled, frontend });
            response
        }
        Err(_) => {
            reap_verify(rx, Arc::clone(shared));
            timeout_error(id, shared.timeout)
        }
    }
}

/// Which success variant a verify op maps to, captured before the op
/// moves to its worker thread.
enum OpKind {
    Applied,
    Ran,
}

/// Collects a timed-out `open` in the background: when the checkout
/// finally finishes, its session goes straight to the pool so the work
/// is not wasted. A compile or checkout error is dropped.
fn reap_checkout(
    rx: mpsc::Receiver<Result<(PooledSession, CheckoutInfo), SessionError>>,
    shared: Arc<Shared>,
) {
    thread::spawn(move || {
        if let Ok(Ok((pooled, _))) = rx.recv() {
            shared.pool.checkin(pooled);
        }
    });
}

/// Collects a timed-out `apply-delta` / `run` in the background.
fn reap_verify(
    rx: mpsc::Receiver<(
        PooledSession,
        Result<IncrStats, SessionError>,
        Option<CacheDelta>,
    )>,
    shared: Arc<Shared>,
) {
    thread::spawn(move || {
        if let Ok((pooled, _, _)) = rx.recv() {
            shared.pool.checkin(pooled);
        }
    });
}

fn cache_delta(
    before: Option<EvalCacheStats>,
    after: Option<EvalCacheStats>,
) -> Option<CacheDelta> {
    let (before, after) = (before?, after?);
    let moved = after.since(&before);
    Some(CacheDelta {
        hits: moved.hits,
        misses: moved.misses,
        entries: moved.entries as u64,
    })
}

/// The summary of a fresh or reused open. A pooled reuse ran nothing, so
/// every effort counter is zero and `warm` is `true`; outcome fields
/// come from the retained report.
fn open_summary(pooled: &PooledSession, info: &CheckoutInfo) -> RunSummary {
    if info.reused_session {
        let report = pooled.session.report();
        RunSummary {
            clean: report.is_clean(),
            violations: report.total_violations() as u64,
            warm: true,
            seeded_prims: 0,
            total_prims: pooled.session.netlist().prim_count() as u64,
            events: 0,
            evaluations: 0,
            wall_ns: 0,
            cache: pooled.session.cache_stats().map(|s| CacheDelta {
                hits: 0,
                misses: 0,
                entries: s.entries as u64,
            }),
            // A reuse ran no verification, so there is no sweep effort
            // to attribute to this request.
            sweep: None,
        }
    } else {
        let outcome = pooled.session.outcome();
        let cache = pooled.session.cache_stats().map(|s| CacheDelta {
            // An open is this session's first traffic on the shared
            // table, so the absolute counters over-attribute only under
            // concurrent opens of the same design.
            hits: s.hits,
            misses: s.misses,
            entries: s.entries as u64,
        });
        outcome_summary(outcome, cache)
    }
}

fn outcome_summary(outcome: &SessionOutcome, cache: Option<CacheDelta>) -> RunSummary {
    // The sweep block is reported when the run computed a shared pass
    // for its cases to inherit from: a prefix node, a corner root or the
    // base pass. A lone leaf (one case at the worst-case corner, as
    // after every plain edit) checks its own state in full and computes
    // none, so single-case clients never see the block.
    let (prefix, memo) = (outcome.stats.prefix, outcome.stats.memo);
    let sweep = (memo.node_passes > 0).then_some(SweepEffort {
        prefix_nodes: prefix.nodes as u64,
        prefix_evaluations: prefix.evaluations,
        leaf_check_evals: memo.leaf_check_evals,
        leaf_check_hits: memo.leaf_check_hits,
        leaf_storage_evals: memo.leaf_storage_evals,
        leaf_storage_hits: memo.leaf_storage_hits,
    });
    RunSummary {
        clean: outcome.report.is_clean(),
        violations: outcome.report.total_violations() as u64,
        warm: outcome.stats.warm,
        seeded_prims: outcome.stats.seeded_prims as u64,
        total_prims: outcome.stats.total_prims as u64,
        events: outcome.stats.events,
        evaluations: outcome.stats.evaluations,
        wall_ns: outcome.stats.wall.as_nanos() as u64,
        cache,
        sweep,
    }
}

fn session_error(id: u64, e: &SessionError) -> Response {
    let kind = match e {
        SessionError::Compile(_) | SessionError::Rtl(_) => ErrorKind::Compile,
        SessionError::Delta(_) => ErrorKind::Delta,
        SessionError::Verify(_) => ErrorKind::Verify,
    };
    Response::Error {
        id: Some(id),
        kind,
        message: e.to_string(),
    }
}

fn timeout_error(id: u64, timeout: Duration) -> Response {
    Response::Error {
        id: Some(id),
        kind: ErrorKind::Timeout,
        message: format!(
            "request exceeded the {}ms deadline; the session was evicted and will \
             rejoin the pool when its verification completes",
            timeout.as_millis()
        ),
    }
}
