//! End-to-end daemon tests over a real Unix socket: concurrency,
//! sharing, malformed frames, disconnects, timeouts, shutdown.

use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_serve::{
    serve, Client, DeltaSpec, ErrorKind, Frame, Request, Response, ServeOptions, TraceMode,
    MAX_FRAME_BYTES,
};
use scald_trace::json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// A fresh socket path per test (tests run in parallel in one process).
fn socket_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("scald-serve-{}-{tag}-{n}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Starts an in-process daemon and waits until its socket accepts and
/// a fresh client's `stats` counts that client alone, so no probe
/// connection is still live when a test asserts the connection count.
fn start_daemon(opts: ServeOptions) -> (PathBuf, thread::JoinHandle<()>) {
    let path = opts.socket.clone().expect("test daemons listen on sockets");
    let handle = thread::spawn(move || serve(&opts).expect("daemon runs"));
    for _ in 0..400 {
        if let Ok(probe) = UnixStream::connect(&path) {
            if live_connections(probe) == 1 {
                return (path, handle);
            }
        }
        thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon socket {} never came up alone", path.display());
}

/// The daemon's live-connection count as `probe` sees it. The probe
/// then half-closes and reads to EOF, so the daemon has dropped its side
/// of the connection before this returns.
fn live_connections(probe: UnixStream) -> u64 {
    let stream = |s: &UnixStream| s.try_clone().expect("probe clones");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("probe takes a timeout");
    let mut client = Client::from_streams(
        Box::new(std::io::BufReader::new(stream(&probe))),
        Box::new(stream(&probe)),
    )
    .expect("probe handshakes");
    let Response::Stats { stats, .. } = client.stats().expect("probe stats") else {
        panic!("expected stats");
    };
    probe
        .shutdown(std::net::Shutdown::Write)
        .expect("probe half-closes");
    let _ = std::io::Read::read_to_end(&mut stream(&probe), &mut Vec::new());
    stats.connections
}

fn small_design(seed: u64) -> String {
    s1_like_hdl(S1Options { chips: 9, seed })
}

/// The CTL control signals a generated design references, sorted: a
/// seed-dependent subset of the generator's 24.
fn ctl_signals(src: &str) -> Vec<&str> {
    let mut ctls: Vec<&str> = src
        .match_indices("'CTL ")
        .filter_map(|(i, _)| src[i + 1..].split(" .").next())
        .collect();
    ctls.sort_unstable();
    ctls.dedup();
    ctls
}

fn opened(response: Response) -> (String, bool, bool) {
    match response {
        Response::Opened {
            session,
            reused_session,
            shared_cache,
            ..
        } => (session, reused_session, shared_cache),
        other => panic!("expected an open response, got {other:?}"),
    }
}

fn report_text(response: Response) -> String {
    match response {
        Response::Report { report, .. } => report.to_string_pretty(),
        other => panic!("expected a report response, got {other:?}"),
    }
}

#[test]
fn four_concurrent_clients_get_identical_reports_and_share_the_cache() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("fourway")),
        ..ServeOptions::default()
    });
    let src = small_design(0xF00);

    // A first client pays the cold open, then leaves.
    let mut warmup = Client::connect_unix(&path).expect("connects");
    let (s, reused, shared) = opened(warmup.open_source(&src, "shared").expect("opens"));
    assert!(!reused && !shared, "first open must be cold");
    let reference = report_text(warmup.report(&s, false).expect("reports"));
    warmup.close(&s).expect("closes");

    // Four clients now open the same design concurrently: none closes
    // (and so parks its session for the next) before all have opened.
    let opened_all = Arc::new(Barrier::new(4));
    let reports: Vec<(String, bool)> = {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                let src = src.clone();
                let opened_all = Arc::clone(&opened_all);
                thread::spawn(move || {
                    let mut client = Client::connect_unix(&path).expect("connects");
                    let (s, _, shared) = opened(client.open_source(&src, "shared").expect("opens"));
                    opened_all.wait();
                    let text = report_text(client.report(&s, false).expect("reports"));
                    client.close(&s).expect("closes");
                    (text, shared)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    };
    for (text, shared) in &reports {
        assert_eq!(*text, reference, "every client sees the same bytes");
        assert!(*shared, "later opens verify through the shared cache");
    }

    // The shared table served more than half of all evaluations.
    let mut probe = Client::connect_unix(&path).expect("connects");
    let Response::Stats { stats, .. } = probe.stats().expect("stats") else {
        panic!("expected stats");
    };
    let design = &stats.designs[0];
    assert_eq!(stats.designs.len(), 1);
    assert!(design.opens >= 5);
    assert!(
        design.cache_hits as f64 > 0.5 * (design.cache_hits + design.cache_misses) as f64,
        "cross-client hit rate should exceed 50%, got {}/{}",
        design.cache_hits,
        design.cache_hits + design.cache_misses,
    );
    probe.shutdown().expect("shutdown");
    drop(probe);
    drop(warmup);
    daemon.join().expect("daemon drains");
}

#[test]
fn malformed_frames_answer_with_parse_errors_and_the_connection_lives() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("malformed")),
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");

    // Raw invalid JSON: error with no recoverable id.
    let resp = client
        .request_raw("this is not json")
        .expect("connection survives");
    match resp {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, None);
            assert_eq!(kind, ErrorKind::Parse);
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    // Valid JSON, invalid request: the id is still echoed back.
    let resp = client
        .request_raw(r#"{"id":42,"cmd":"open","source":"x","bogus":true}"#)
        .expect("connection survives");
    match resp {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, Some(42));
            assert_eq!(kind, ErrorKind::Parse);
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    // Unknown session: a structured error, not a hangup.
    let resp = client.run("s99").expect("connection survives");
    match resp {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::UnknownSession),
        other => panic!("expected unknown-session, got {other:?}"),
    }

    // And the connection still does real work afterwards.
    let (s, _, _) = opened(
        client
            .open_source(small_design(0xBAD), "after-errors")
            .expect("opens"),
    );
    assert!(matches!(
        client.run(&s).expect("runs"),
        Response::Ran { .. }
    ));
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

/// One line of 100,000 `[`s used to overflow the frame parser's stack and
/// abort the whole daemon, dropping every client. Nesting past the
/// parser's cap is a parse error like any other malformed frame: the
/// same connection keeps serving and new clients still connect.
#[test]
fn a_deeply_nested_frame_is_a_parse_error_and_the_daemon_lives() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("nested")),
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");
    let resp = client
        .request_raw(&"[".repeat(100_000))
        .expect("connection survives");
    match resp {
        Response::Error { id, kind, message } => {
            assert_eq!(id, None);
            assert_eq!(kind, ErrorKind::Parse);
            assert!(
                message.contains("nesting deeper than 128 levels"),
                "{message}"
            );
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(matches!(
        client.stats().expect("the same connection answers"),
        Response::Stats { .. }
    ));
    let mut second = Client::connect_unix(&path).expect("a second client connects");
    let Response::Stats { stats, .. } = second.stats().expect("stats") else {
        panic!("expected stats");
    };
    // At least both clients; `start_daemon`'s probe connection may not
    // have been reaped yet.
    assert!(stats.connections >= 2, "{} connections", stats.connections);
    client.shutdown().expect("shutdown");
    drop(client);
    drop(second);
    daemon.join().expect("daemon drains");
}

/// A raw connection past its hello frame: a line reader and the write
/// half, for frames a `Client` cannot send.
fn raw_connection(path: &Path) -> (BufReader<UnixStream>, UnixStream) {
    let stream = UnixStream::connect(path).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("takes a timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut hello = String::new();
    reader.read_line(&mut hello).expect("hello frame");
    assert!(hello.contains("hello"), "{hello}");
    (reader, stream)
}

/// The next response frame on a raw connection; `None` at EOF.
fn raw_response(reader: &mut BufReader<UnixStream>) -> Option<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line).expect("reads a frame") == 0 {
        return None;
    }
    let frame = json::parse(line.trim()).expect("server frames are JSON");
    match Frame::parse(frame).expect("server frames parse") {
        Frame::Response(response) => Some(response),
        other => panic!("expected a response, got {other:?}"),
    }
}

/// Writes `frame` followed by spaces up to `len` bytes, a megabyte at a
/// time. Trimmed, the frame is `frame` itself.
fn write_padded(w: &mut UnixStream, frame: &str, len: usize) {
    w.write_all(frame.as_bytes()).expect("writes");
    let spaces = vec![b' '; 1 << 20];
    let mut left = len - frame.len();
    while left > 0 {
        let n = left.min(spaces.len());
        w.write_all(&spaces[..n]).expect("writes");
        left -= n;
    }
}

fn assert_stats(response: Option<Response>) {
    assert!(
        matches!(response, Some(Response::Stats { .. })),
        "expected stats, got {response:?}"
    );
}

fn assert_parse_error(response: Option<Response>, needle: &str) {
    match response {
        Some(Response::Error { id, kind, message }) => {
            assert_eq!(id, None);
            assert_eq!(kind, ErrorKind::Parse);
            assert!(message.contains(needle), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// A frame over `MAX_FRAME_BYTES` and a frame that is not UTF-8 each get
/// a parse error, and the same connection answers the next request; a
/// frame of exactly the cap is served.
#[test]
fn oversized_and_non_utf8_frames_are_parse_errors_and_the_connection_lives() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("frames")),
        ..ServeOptions::default()
    });
    let (mut reader, mut writer) = raw_connection(&path);

    // Trimmed, this is a valid `stats` request: only the cap rejects it.
    write_padded(
        &mut writer,
        r#"{"id":1,"cmd":"stats"}"#,
        MAX_FRAME_BYTES + 1,
    );
    writer.write_all(b"\n").expect("writes");
    assert_parse_error(raw_response(&mut reader), &MAX_FRAME_BYTES.to_string());
    writer
        .write_all(b"{\"id\":2,\"cmd\":\"stats\"}\n")
        .expect("writes");
    assert_stats(raw_response(&mut reader));

    writer.write_all(b"\xff\xfe\n").expect("writes");
    assert_parse_error(raw_response(&mut reader), "UTF-8");
    writer
        .write_all(b"{\"id\":3,\"cmd\":\"stats\"}\n")
        .expect("writes");
    assert_stats(raw_response(&mut reader));

    write_padded(&mut writer, r#"{"id":4,"cmd":"stats"}"#, MAX_FRAME_BYTES);
    writer.write_all(b"\n").expect("writes");
    assert_stats(raw_response(&mut reader));

    writer
        .write_all(b"{\"id\":5,\"cmd\":\"shutdown\"}\n")
        .expect("writes");
    assert!(matches!(
        raw_response(&mut reader),
        Some(Response::ShuttingDown { .. })
    ));
    drop(writer);
    drop(reader);
    daemon.join().expect("daemon drains");
}

/// An oversized final frame with no `\n` is a torn frame: the daemon
/// drops it unanswered, ends the connection, and serves other clients.
#[test]
fn a_torn_oversized_final_frame_ends_the_connection() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("torn-oversized")),
        ..ServeOptions::default()
    });
    let (mut reader, mut writer) = raw_connection(&path);
    write_padded(
        &mut writer,
        r#"{"id":1,"cmd":"shutdown"}"#,
        MAX_FRAME_BYTES + 4096,
    );
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-closes");
    assert!(raw_response(&mut reader).is_none(), "no answer, then EOF");

    let mut client = Client::connect_unix(&path).expect("daemon still alive");
    assert!(matches!(
        client.stats().expect("stats"),
        Response::Stats { .. }
    ));
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

#[test]
fn disconnect_parks_sessions_for_reuse() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("disconnect")),
        ..ServeOptions::default()
    });
    let src = small_design(0xD15C);

    // Open a session, then vanish without closing it — including a torn
    // final frame, which must be discarded, not processed.
    {
        let mut client = Client::connect_unix(&path).expect("connects");
        let _ = opened(client.open_source(&src, "parked").expect("opens"));
        let mut raw = UnixStream::connect(&path).expect("second raw connection");
        raw.write_all(b"{\"id\":7,\"cmd\":\"shutdown\"")
            .expect("half a frame");
        // Both connections drop here.
    }

    // The torn shutdown must NOT have taken effect, and the parked
    // session must be reusable by a fresh client.
    let mut client = Client::connect_unix(&path).expect("daemon still alive");
    let reused = (0..100).any(|_| {
        let (s, reused, _) = opened(client.open_source(&src, "parked").expect("opens"));
        client.close(&s).expect("closes");
        if reused {
            true
        } else {
            thread::sleep(Duration::from_millis(10));
            false
        }
    });
    assert!(
        reused,
        "the dropped connection's session should be reusable"
    );
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

#[test]
fn timeouts_evict_the_request_but_the_work_rejoins_the_pool() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("timeout")),
        request_timeout: Duration::from_millis(1),
        ..ServeOptions::default()
    });
    // Big enough that compile+settle cannot finish in a millisecond.
    let src = s1_like_hdl(S1Options {
        chips: 600,
        seed: 0x7143,
    });

    let mut client = Client::connect_unix(&path).expect("connects");
    let resp = client.open_source(&src, "slow").expect("answered");
    match resp {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
        other => panic!("expected a timeout, got {other:?}"),
    }

    // The orphaned verification finishes in the background and its
    // session is parked for the next client.
    let parked = (0..600).any(|_| {
        let Response::Stats { stats, .. } = client.stats().expect("stats") else {
            panic!("expected stats");
        };
        if stats.designs.iter().any(|d| d.idle_sessions > 0) {
            true
        } else {
            thread::sleep(Duration::from_millis(25));
            false
        }
    });
    assert!(parked, "the timed-out open should park its session");
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

#[test]
fn shutdown_rejects_new_opens_but_existing_sessions_finish() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("shutdown")),
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");
    let (s, _, _) = opened(
        client
            .open_source(small_design(0x5D), "draining")
            .expect("opens"),
    );
    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::ShuttingDown { .. }
    ));
    // New opens are refused...
    match client
        .open_source(small_design(0x5E), "late")
        .expect("answered")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
        other => panic!("expected shutting-down, got {other:?}"),
    }
    // ...but in-flight sessions still serve requests until they close.
    assert!(matches!(
        client.run(&s).expect("runs"),
        Response::Ran { .. }
    ));
    assert!(matches!(
        client.close(&s).expect("closes"),
        Response::Closed { .. }
    ));
    drop(client);
    daemon
        .join()
        .expect("daemon drains after the last connection");
}

#[test]
fn trace_subscription_streams_and_unsubscribes() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("trace")),
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");
    let (s, _, _) = opened(
        client
            .open_source(small_design(0x7A), "traced")
            .expect("opens"),
    );

    client
        .subscribe_trace(&s, TraceMode::Coarse)
        .expect("subscribes");
    client.run(&s).expect("runs");
    let frames = client.take_trace();
    assert!(
        !frames.is_empty(),
        "a subscribed run should stream trace frames"
    );
    assert!(frames.iter().all(|(session, _)| session == &s));
    assert!(frames
        .iter()
        .any(|(_, e)| e.get("type").and_then(|t| t.as_str()) == Some("run_end")));

    client
        .subscribe_trace(&s, TraceMode::Off)
        .expect("unsubscribes");
    client.run(&s).expect("runs");
    assert!(
        client.take_trace().is_empty(),
        "an unsubscribed run must stream nothing"
    );
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

#[test]
fn apply_delta_reverifies_and_bad_deltas_leave_the_session_usable() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("delta")),
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");
    let src = small_design(0xDE17A);
    let (s, _, _) = opened(client.open_source(&src, "edited").expect("opens"));

    // A whole-source delta with identical text warm-replays.
    match client
        .apply(&s, DeltaSpec::Source(src.clone()))
        .expect("applies")
    {
        Response::Applied { summary, .. } => assert!(summary.warm),
        other => panic!("expected applied, got {other:?}"),
    }

    // Broken source: a structured compile error, session intact.
    match client
        .apply(&s, DeltaSpec::Source("design BROKEN".to_owned()))
        .expect("answered")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Compile),
        other => panic!("expected a compile error, got {other:?}"),
    }
    assert!(matches!(
        client.run(&s).expect("still runs"),
        Response::Ran { .. }
    ));

    // A case-set delta replaces the cases and re-verifies.
    match client
        .apply(&s, DeltaSpec::Cases(vec![vec![]]))
        .expect("applies")
    {
        Response::Applied { .. } => {}
        other => panic!("expected applied, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

/// A four-bit Verilog counter with an asynchronous reset.
const COUNTER_V: &str = "\
// scald: period 50.0
module counter(input wire clk, input wire rst, output reg [3:0] q);
  // scald: input clk .P0-4(0,0)
  // scald: input rst .S0-8
  always_ff @(posedge clk or posedge rst) begin
    if (rst) q <= 4'd0;
    else q <= q + 4'd1;
  end
endmodule
";

#[test]
fn verilog_frontend_is_served_and_bad_rtl_is_a_compile_error() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("verilog")),
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");

    let (s, _, _) = opened(client.open_verilog(COUNTER_V, "rtl").expect("opens"));
    assert!(matches!(
        client.run(&s).expect("runs"),
        Response::Ran { .. }
    ));
    let report = report_text(client.report(&s, false).expect("reports"));
    assert!(
        report.contains("TOP/reg_sr#1"),
        "report names the lowered RTL primitives: {report}"
    );

    // A torn module is a structured compile error carrying the span,
    // and the connection keeps working.
    match client
        .open_verilog("module torn(input wire clk);\n", "broken")
        .expect("answered")
    {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::Compile);
            assert!(message.contains("endmodule"), "spanned message: {message}");
        }
        other => panic!("expected a compile error, got {other:?}"),
    }
    client.close(&s).expect("closes");
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

#[test]
fn a_verilog_session_compiles_source_deltas_as_verilog() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("verilog-delta")),
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");
    let (s, _, _) = opened(client.open_verilog(COUNTER_V, "rtl").expect("opens"));
    let before = report_text(client.report(&s, false).expect("reports"));

    // A wider counter whose reset settles later.
    let edited = COUNTER_V
        .replace("[3:0]", "[7:0]")
        .replace(".S0-8", ".S0-12")
        .replace("4'd", "8'd");
    match client
        .apply(&s, DeltaSpec::Source(edited.clone()))
        .expect("answered")
    {
        Response::Applied { .. } => {}
        other => panic!("expected applied, got {other:?}"),
    }
    let applied = report_text(client.report(&s, false).expect("reports"));
    assert_ne!(applied, before, "the edit changes the report");

    let (fresh, _, _) = opened(client.open_verilog(&edited, "rtl").expect("opens"));
    let expected = report_text(client.report(&fresh, false).expect("reports"));
    assert_eq!(applied, expected);
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

/// `Request`/`Response` stay in sync with the daemon over the wire for
/// the `stats` command's full shape.
#[test]
fn stats_reflect_live_connections() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("stats")),
        jobs: 3,
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");
    assert_eq!(client.hello().jobs, 3);
    let Response::Stats { stats, .. } = client.stats().expect("stats") else {
        panic!("expected stats");
    };
    assert_eq!(stats.jobs_total, 3);
    assert_eq!(stats.connections, 1);
    assert!(!stats.shutting_down);
    assert!(stats.designs.is_empty());

    // Ids are echoed verbatim, even large ones.
    match client
        .request(&Request::Stats { id: u64::MAX })
        .expect("stats")
    {
        Response::Stats { id, .. } => assert_eq!(id, u64::MAX),
        other => panic!("expected stats, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

/// The sweep satellite's acceptance test: a `sweep` delta applied over
/// the wire must produce a stripped report byte-identical to expanding
/// the same spec client-side and handing the case list to an
/// in-process session — proving the daemon's server-side expansion
/// goes through the same `CaseSet` builders and the same engine.
#[test]
fn sweep_delta_is_byte_identical_to_the_expanded_case_list() {
    use scald_incr::{Delta, DesignInput, Session};
    use scald_serve::SweepSpec;
    use scald_verifier::DelayCorner;

    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("sweep")),
        ..ServeOptions::default()
    });
    let src = small_design(0x51EEB);
    // Sweep over the first two control signals that actually exist.
    let ctls = ctl_signals(&src);
    assert!(ctls.len() >= 2, "design must have control signals to sweep");
    let spec = SweepSpec::Product(vec![
        SweepSpec::Exhaustive(ctls.iter().take(2).map(|s| (*s).to_owned()).collect()),
        SweepSpec::Corners(vec![DelayCorner::Worst, DelayCorner::Min]),
    ]);

    let mut client = Client::connect_unix(&path).expect("connects");
    let (s, _, _) = opened(client.open_source(&src, "swept").expect("opens"));
    // The sweep rides the `run` request (protocol v1 additive field);
    // the equivalent `apply-delta` spelling shares the same path.
    match client.run_sweep(&s, spec.clone()).expect("runs") {
        Response::Ran { summary, .. } => {
            assert!(summary.warm, "sweep re-verifies the settled session");
        }
        other => panic!("expected a ran response, got {other:?}"),
    }
    let swept = report_text(client.report(&s, false).expect("reports"));
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");

    // Same source, same label, sweep expanded caller-side instead.
    let mut session = Session::open(DesignInput::source(&src), "swept").expect("opens");
    session
        .apply(Delta::Cases(spec.to_case_set().into_cases()))
        .expect("applies");
    let local = session
        .report()
        .strip_effort()
        .json_value()
        .to_string_pretty();
    assert_eq!(swept, local, "daemon sweep and in-process cases diverge");
}

/// The run reply's additive `sweep` effort block must report exactly
/// the amortization counters the in-process engine produced for the
/// same sweep: prefix-settle effort from `PrefixStats` and per-leaf
/// checker/storage memoization from `MemoStats`, so wire clients can
/// observe the hit rate without access to `RunOutcome`.
#[test]
fn run_reply_sweep_block_matches_the_in_process_outcome() {
    use scald_incr::{Delta, DesignInput, Session};
    use scald_serve::SweepSpec;

    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("sweepfx")),
        ..ServeOptions::default()
    });
    let src = small_design(0x5EFF);
    let ctls = ctl_signals(&src);
    assert!(ctls.len() >= 3, "design must have control signals to sweep");
    let spec = SweepSpec::Exhaustive(ctls.iter().take(3).map(|s| (*s).to_owned()).collect());

    let mut client = Client::connect_unix(&path).expect("connects");
    let (s, _, _) = opened(client.open_source(&src, "sweepfx").expect("opens"));
    let wire = match client.run_sweep(&s, spec.clone()).expect("runs") {
        Response::Ran { summary, .. } => summary
            .sweep
            .expect("an 8-case exhaustive sweep shares prefixes, so the block is present"),
        other => panic!("expected a ran response, got {other:?}"),
    };
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");

    // Same design, same sweep, run in-process: the wire block must be
    // a verbatim copy of the outcome's counters.
    let mut session = Session::open(DesignInput::source(&src), "sweepfx").expect("opens");
    let stats = session
        .apply(Delta::Cases(spec.to_case_set().into_cases()))
        .expect("applies");
    assert_eq!(wire.prefix_nodes, stats.prefix.nodes as u64);
    assert_eq!(wire.prefix_evaluations, stats.prefix.evaluations);
    assert_eq!(wire.leaf_check_evals, stats.memo.leaf_check_evals);
    assert_eq!(wire.leaf_check_hits, stats.memo.leaf_check_hits);
    assert_eq!(wire.leaf_storage_evals, stats.memo.leaf_storage_evals);
    assert_eq!(wire.leaf_storage_hits, stats.memo.leaf_storage_hits);
    assert!(
        wire.leaf_check_hits > wire.leaf_check_evals,
        "most per-leaf checker work should be inherited, got {} hits / {} evals",
        wire.leaf_check_hits,
        wire.leaf_check_evals
    );
}

/// The reply's `sweep` block appears exactly when the run computed a
/// shared checker pass. A single-case `apply-delta` is a lone leaf that
/// checks in full, so its reply has none; a `list` sweep of cases that
/// share no prefix roots every case on the settled base's pass, so its
/// reply has one, with no prefix nodes.
#[test]
fn sweep_block_appears_only_when_cases_share_a_pass() {
    use scald_serve::SweepSpec;

    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("sweepblk")),
        ..ServeOptions::default()
    });
    let src = small_design(0xB10C);
    let ctls = ctl_signals(&src);
    assert!(ctls.len() >= 2, "design must have control signals to sweep");

    let mut client = Client::connect_unix(&path).expect("connects");
    let (s, _, _) = opened(client.open_source(&src, "sweepblk").expect("opens"));
    let summary = |response: Response| match response {
        Response::Applied { summary, .. } => summary,
        other => panic!("expected applied, got {other:?}"),
    };
    let single = summary(
        client
            .apply(&s, DeltaSpec::Cases(vec![vec![(ctls[0].to_owned(), true)]]))
            .expect("applies"),
    );
    assert_eq!(single.sweep, None, "a single case computes no shared pass");

    let list = SweepSpec::List(vec![
        vec![(ctls[0].to_owned(), true)],
        vec![(ctls[1].to_owned(), false)],
    ]);
    let swept = summary(client.apply(&s, DeltaSpec::Sweep(list)).expect("applies"));
    let block = swept
        .sweep
        .expect("cases sharing no prefix inherit from the base pass");
    assert_eq!(block.prefix_nodes, 0, "the cases share no prefix");
    assert!(
        block.leaf_check_hits > 0,
        "leaves inherit the base pass's verdicts outside their cones"
    );
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

/// A short untrusted frame must not be able to make the shared daemon
/// materialize an astronomically large case list: a product of three
/// individually-legal 20-signal exhaustive axes (2^60 cases) dies at
/// parse time, an over-budget-but-legal sweep dies at the daemon's
/// `max_sweep_cases` check, and the session survives both rejections.
#[test]
fn oversized_sweeps_are_rejected_without_expansion() {
    use scald_serve::SweepSpec;

    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("sweepcap")),
        // A deliberately tiny daemon budget so the test sweep is cheap.
        max_sweep_cases: 4,
        ..ServeOptions::default()
    });
    let src = small_design(0xCA9);

    let mut client = Client::connect_unix(&path).expect("connects");
    let (s, _, _) = opened(client.open_source(&src, "capped").expect("opens"));

    // 2^60-case product sweep: every axis passes the per-axis width
    // guard, so only the multiplicative total guard stands between this
    // ~700-byte line and an OOM.
    let axis = |base: usize| {
        let names: Vec<String> = (0..20).map(|i| format!("\"S{base}_{i}\"")).collect();
        format!(r#"{{"kind":"exhaustive","signals":[{}]}}"#, names.join(","))
    };
    let line = format!(
        r#"{{"id":90,"cmd":"run","session":"{s}","cases":{{"kind":"product","axes":[{},{},{}]}}}}"#,
        axis(0),
        axis(1),
        axis(2)
    );
    match client.request_raw(&line).expect("answers") {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::Parse, "{message}");
            assert!(message.contains("over the protocol limit"), "{message}");
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // 8 cases is fine by the protocol but over this daemon's budget of
    // 4: rejected before expansion, session untouched.
    let spec = SweepSpec::Exhaustive(vec!["A".into(), "B".into(), "C".into()]);
    match client.run_sweep(&s, spec).expect("answers") {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::Delta, "{message}");
            assert!(message.contains("daemon's budget of 4"), "{message}");
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // Both rejections left the session usable.
    match client.run(&s).expect("runs") {
        Response::Ran { .. } => {}
        other => panic!("expected a ran response, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}

/// A bit range wider than `u32::MAX` bits is a compile error, not a
/// panic: `open` and a whole-source `apply-delta` both answer
/// `kind:"compile"`, the connection keeps serving, and `shutdown`
/// drains.
#[test]
fn overwide_bit_range_is_a_compile_error_and_shutdown_drains() {
    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("widerange")),
        ..ServeOptions::default()
    });
    let bad = "design WIDE; period 50.0; clock_unit 6.25;\n\
               top;\n  signal BUS<0:4294967295>;\n  buf (BUS) -> (Q);\nend;\n";
    let expect_compile_error = |response: Response| match response {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::Compile);
            assert!(message.contains("line 3"), "spanned message: {message}");
            assert!(message.contains("4294967296 bits"), "{message}");
        }
        other => panic!("expected a compile error, got {other:?}"),
    };

    let mut client = Client::connect_unix(&path).expect("connects");
    expect_compile_error(client.open_source(bad, "wide").expect("answered"));

    // The same connection still serves: open a good design, then try to
    // replace it with the bad source.
    let (s, _, _) = opened(
        client
            .open_source(small_design(0x31DE), "narrow")
            .expect("opens"),
    );
    expect_compile_error(
        client
            .apply(&s, DeltaSpec::Source(bad.to_owned()))
            .expect("answered"),
    );
    assert!(matches!(
        client.run(&s).expect("still runs"),
        Response::Ran { .. }
    ));

    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::ShuttingDown { .. }
    ));
    client.close(&s).expect("closes");
    drop(client);
    daemon
        .join()
        .expect("daemon drains after the last connection");
}

/// `open` compiles under the request deadline: a source whose compile
/// takes ten times the deadline and then fails answers
/// `kind:"timeout"` once the deadline passes, not the compile error
/// once the compile ends. The orphaned compile finishes in the
/// background and gives back its run; a small design then opens, and
/// shutdown drains.
#[test]
fn open_compiles_under_the_request_deadline() {
    // A large design with a syntax error on its last line, and a
    // deadline a tenth of its compile (the faster of two) on this host.
    let mut late_error = s1_like_hdl(S1Options {
        chips: 20_000,
        seed: 0x1a7e,
    });
    late_error.push_str("buf (A) -> ;\n");
    let compile = (0..2)
        .map(|_| {
            let started = Instant::now();
            let compiled = scald_incr::compile_source(&late_error);
            assert!(compiled.is_err(), "the source must fail to compile");
            started.elapsed()
        })
        .min()
        .expect("two compiles");
    let deadline = (compile / 10).max(Duration::from_millis(1));

    let (path, daemon) = start_daemon(ServeOptions {
        socket: Some(socket_path("compile-deadline")),
        request_timeout: deadline,
        ..ServeOptions::default()
    });
    let mut client = Client::connect_unix(&path).expect("connects");
    match client
        .open_source(&late_error, "late error")
        .expect("answered")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
        other => panic!("expected a timeout, got {other:?}"),
    }

    let wait_idle = |client: &mut Client| {
        let idle = (0..1_000).any(|_| {
            let Response::Stats { stats, .. } = client.stats().expect("stats") else {
                panic!("expected stats");
            };
            if stats.active_runs == 0 {
                true
            } else {
                thread::sleep(Duration::from_millis(10));
                false
            }
        });
        assert!(idle, "every orphaned run should give back its lease");
    };
    wait_idle(&mut client);
    // A small design opens. Its first open may itself outlast a short
    // deadline; the session it settles is then parked, and a retry
    // checks it out again.
    let mut small = None;
    for _ in 0..20 {
        match client
            .open_source(small_design(0x0DEA), "small")
            .expect("answered")
        {
            Response::Error {
                kind: ErrorKind::Timeout,
                ..
            } => wait_idle(&mut client),
            other => {
                small = Some(opened(other).0);
                break;
            }
        }
    }
    let s = small.expect("the small design opens");
    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::ShuttingDown { .. }
    ));
    client.close(&s).expect("closes");
    drop(client);
    daemon
        .join()
        .expect("daemon drains after the last connection");
}
