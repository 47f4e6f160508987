//! End-to-end tests of the `scald-tv` binary: the documented exit codes
//! (0 = clean, 1 = violations, 2 = usage/compile error) and the golden
//! shape of the `--format json` document, validated with the workspace's
//! own parser and cross-checked against a library run of the same design.

use scald::trace::json::{parse, Json};
use scald::verifier::{RunOptions, Verifier, REPORT_SCHEMA, REPORT_VERSION};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_scald-tv");

fn design(name: &str) -> String {
    format!("{}/designs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("scald-tv binary runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("process not killed by signal")
}

#[test]
fn clean_design_exits_zero() {
    let out = run(&[&design("mini_cpu.scald")]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(text(&out.stdout).contains("no timing errors."));
}

#[test]
fn violating_design_exits_one() {
    let out = run(&[&design("register_file.scald")]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("SETUP TIME VIOLATED"), "{stdout}");
    assert!(stdout.contains("FAN-IN PROVENANCE"), "{stdout}");
    assert!(stdout.contains("timing violation(s)."), "{stdout}");
}

#[test]
fn missing_file_and_bad_usage_exit_two() {
    assert_eq!(exit_code(&run(&["/nonexistent/x.scald"])), 2);
    assert_eq!(
        exit_code(&run(&["--frobnicate", &design("mini_cpu.scald")])),
        2
    );
    assert_eq!(exit_code(&run(&[])), 2);
    assert_eq!(
        exit_code(&run(&["--format", "yaml", &design("mini_cpu.scald")])),
        2
    );
}

#[test]
fn incremental_mode_usage_errors_exit_two() {
    let path = design("eco_edit_before.scald");
    // The incremental modes are text-only and mutually exclusive.
    assert_eq!(exit_code(&run(&["--watch", "--format", "json", &path])), 2);
    assert_eq!(
        exit_code(&run(&["--baseline", &path, "--format", "json", &path])),
        2
    );
    assert_eq!(exit_code(&run(&["--watch", "--baseline", &path, &path])), 2);
    assert_eq!(exit_code(&run(&["--watch-poll-ms", "0", &path])), 2);
    assert_eq!(exit_code(&run(&["--watch-max-edits", "x", &path])), 2);
    assert_eq!(exit_code(&run(&["--baseline", &path])), 2);
}

#[test]
fn help_usage_names_every_flag() {
    let out = run(&["--help"]);
    assert_eq!(exit_code(&out), 2);
    let usage = text(&out.stderr);
    for flag in [
        "--summary",
        "--diagram",
        "--slack",
        "--paths",
        "--netlist",
        "--xref",
        "--stats",
        "--storage",
        "--format",
        "--trace",
        "--no-cases",
        "--watch",
        "--watch-poll-ms",
        "--watch-max-edits",
        "--baseline",
        "--frontend",
    ] {
        assert!(usage.contains(flag), "usage omits {flag}: {usage}");
    }
}

/// The shipped gated-clock design: the verifier must flag the cascade
/// race behind the derived clock, exit 1, and walk the provenance back
/// to `gclk` — the `.v` extension alone selects the Verilog frontend.
#[test]
fn cascade_race_verilog_design_is_flagged_via_the_gated_clock() {
    let path = design("cascade_race.v");
    let out = run(&[&path]);
    assert_eq!(exit_code(&out), 1, "the race must fail the run");
    let stdout = text(&out.stdout);
    assert!(stdout.contains("HOLD TIME VIOLATED"), "{stdout}");
    assert!(
        stdout.contains("gclk"),
        "the violation must name the derived clock: {stdout}"
    );
    assert!(
        stdout.contains("FAN-IN PROVENANCE"),
        "provenance walk expected: {stdout}"
    );

    // The explicit flag overrides detection the other way: forcing the
    // SCALD frontend on Verilog text is a compile error, not a panic.
    let forced = run(&["--frontend", "scald", &path]);
    assert_eq!(exit_code(&forced), 2);

    // And an unknown frontend is a usage error.
    assert_eq!(exit_code(&run(&["--frontend", "vhdl", &path])), 2);
}

/// The golden test for `--format json`: the emitted document must parse
/// with the workspace's strict parser, carry the documented schema and
/// version, and agree with a library run of the same design on the
/// violation counts. Violations must carry non-empty provenance chains
/// anchored at the checked signal.
#[test]
fn json_report_is_valid_and_matches_library_run() {
    let path = design("register_file.scald");
    let out = run(&["--format", "json", &path]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
    let doc = parse(&text(&out.stdout)).expect("scald-tv emits valid JSON");

    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(REPORT_SCHEMA)
    );
    assert_eq!(
        doc.get("version").and_then(Json::as_u64),
        Some(REPORT_VERSION)
    );
    assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(false));

    // Engine statistics must reflect real work.
    let engine = doc.get("engine").expect("engine section");
    for key in ["signals", "prims", "events", "evaluations", "wall_ns"] {
        let n = engine.get(key).and_then(Json::as_u64).unwrap_or(0);
        assert!(n > 0, "engine.{key} should be positive: {engine}");
    }

    // Round-trip the violation counts against the library.
    let src = std::fs::read_to_string(&path).expect("shipped design");
    let expansion = scald::hdl::compile(&src).expect("compiles");
    let mut verifier = Verifier::new(expansion.netlist);
    let expected = verifier
        .run(&RunOptions::new())
        .expect("settles")
        .into_sole()
        .violations
        .len() as u64;
    assert!(expected > 0);
    assert_eq!(
        doc.get("total_violations").and_then(Json::as_u64),
        Some(expected)
    );

    let cases = doc.get("cases").and_then(Json::as_array).expect("cases");
    let counted: u64 = cases
        .iter()
        .map(|c| {
            c.get("violations")
                .and_then(Json::as_array)
                .map_or(0, |v| v.len() as u64)
        })
        .sum();
    assert_eq!(counted, expected, "per-case counts disagree with total");

    // Every violation carries a provenance chain whose first hop is the
    // checked input at depth 0.
    for case in cases {
        for v in case.get("violations").and_then(Json::as_array).unwrap() {
            assert!(v.get("kind").and_then(Json::as_str).is_some(), "{v}");
            let prov = v.get("provenance").expect("provenance field");
            let hops = prov.get("hops").and_then(Json::as_array).expect("hops");
            assert!(!hops.is_empty(), "empty provenance: {v}");
            assert_eq!(hops[0].get("depth").and_then(Json::as_u64), Some(0));
            assert!(hops[0].get("signal").and_then(Json::as_str).is_some());
        }
    }
}

#[test]
fn json_report_on_clean_design_is_clean() {
    let out = run(&["--format", "json", &design("mini_cpu.scald")]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", text(&out.stderr));
    let doc = parse(&text(&out.stdout)).expect("valid JSON");
    assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("total_violations").and_then(Json::as_u64), Some(0));
    // Both shipped cases appear, in order.
    let cases = doc.get("cases").and_then(Json::as_array).expect("cases");
    assert_eq!(cases.len(), 2);
}

#[test]
fn json_extra_sections_ride_along() {
    let out = run(&[
        "--format",
        "json",
        "--netlist",
        "--paths",
        "--stats",
        &design("case_analysis.scald"),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", text(&out.stderr));
    let doc = parse(&text(&out.stdout)).expect("valid JSON");
    assert!(doc
        .get("netlist")
        .and_then(Json::as_array)
        .is_some_and(|a| !a.is_empty()));
    assert!(doc.get("paths").and_then(Json::as_array).is_some());
    let expansion = doc.get("expansion").expect("expansion stats");
    assert!(
        expansion
            .get("prims_emitted")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );
}

#[test]
fn trace_file_contains_run_events() {
    let dir = std::env::temp_dir().join(format!("scald-tv-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    let out = run(&[
        "--trace",
        trace.to_str().expect("utf-8 temp path"),
        &design("case_analysis.scald"),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", text(&out.stderr));
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() > 2, "trace too short: {body}");
    for line in &lines {
        parse(line).expect("every trace line is valid JSON");
    }
    assert_eq!(
        parse(lines[0]).unwrap().get("type").and_then(Json::as_str),
        Some("run_start")
    );
    assert_eq!(
        parse(lines[lines.len() - 1])
            .unwrap()
            .get("type")
            .and_then(Json::as_str),
        Some("run_end")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--baseline` reports only the delta between two runs: the retimed
/// "after" design introduces one set-up violation (exit 1); undoing the
/// edit fixes it (exit 0 — pre-existing violations do not fail the run).
#[test]
fn baseline_reports_introduced_and_fixed() {
    let before = design("eco_edit_before.scald");
    let after = design("eco_edit_after.scald");

    let out = run(&["--baseline", &before, &after]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("introduced (1):"), "{stdout}");
    assert!(stdout.contains("SETUP TIME VIOLATED"), "{stdout}");
    assert!(stdout.contains("fixed (0):"), "{stdout}");
    assert!(stdout.contains("warm"), "re-run should be warm: {stdout}");

    let out = run(&["--baseline", &after, &before]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("introduced (0):"), "{stdout}");
    assert!(stdout.contains("fixed (1):"), "{stdout}");

    let out = run(&["--baseline", &before, &before]);
    assert_eq!(exit_code(&out), 0);
    assert!(text(&out.stdout).contains("no violations introduced or fixed"));
}

/// `--watch` re-verifies when the file changes: start on the clean
/// design, rewrite it to the violating one, and expect a warm per-edit
/// report plus exit code 1 from the last pass.
#[test]
fn watch_reverifies_on_file_change() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("scald-tv-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let watched = dir.join("watched.scald");
    std::fs::copy(design("eco_edit_before.scald"), &watched).expect("seed watched file");

    let mut child = std::process::Command::new(BIN)
        .args([
            "--watch",
            "--watch-poll-ms",
            "25",
            "--watch-max-edits",
            "1",
            watched.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("watch mode starts");

    // Give the initial verification a moment, then make the edit.
    std::thread::sleep(Duration::from_millis(300));
    std::fs::copy(design("eco_edit_after.scald"), &watched).expect("rewrite watched file");

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("poll watch process") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("watch mode did not exit after the edit");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    let out = child.wait_with_output().expect("collect watch output");
    assert_eq!(status.code(), Some(1), "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("[watch]"), "{stdout}");
    assert!(stdout.contains("edit 1: 1 violation(s)"), "{stdout}");
    assert!(
        stdout.contains("warm"),
        "edit pass should be warm: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--watch` must not treat a torn read (an editor mid-write) as an
/// edit: the violating design is written in two chunks with several poll
/// intervals between them. The partial file fails to compile, but the
/// watcher must neither count it against `--watch-max-edits` nor report
/// a failed re-verification — only the completed save is edit 1.
#[test]
fn watch_tolerates_torn_writes() {
    use std::io::Write;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("scald-tv-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let watched = dir.join("watched.scald");
    std::fs::copy(design("eco_edit_before.scald"), &watched).expect("seed watched file");

    // Split the edited design mid-token, inside the retimed delay: the
    // first chunk cannot parse, so a poll between the chunks sees
    // exactly what a torn editor write produces.
    let after = std::fs::read_to_string(design("eco_edit_after.scald")).expect("after design");
    let cut = after.find("20.0:36.0").expect("retimed delay present") + "20.0:3".len();
    let (chunk1, chunk2) = after.split_at(cut);

    let mut child = std::process::Command::new(BIN)
        .args([
            "--watch",
            "--watch-poll-ms",
            "25",
            "--watch-max-edits",
            "1",
            watched.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("watch mode starts");

    // Initial verification, then the torn write: truncate + first chunk,
    // hold the torn state across several polls, then append the rest.
    std::thread::sleep(Duration::from_millis(300));
    std::fs::write(&watched, chunk1).expect("write first chunk");
    std::thread::sleep(Duration::from_millis(200));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&watched)
        .expect("reopen watched file");
    f.write_all(chunk2.as_bytes()).expect("append second chunk");
    drop(f);

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("poll watch process") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("watch mode did not exit after the completed edit");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    let out = child.wait_with_output().expect("collect watch output");
    let stdout = text(&out.stdout);
    let stderr = text(&out.stderr);
    // The completed save is the one and only edit, and it is verified.
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(stdout.contains("edit 1: 1 violation(s)"), "{stdout}");
    // The torn intermediate state was never counted or reported as an
    // edit (pre-fix, it consumed the single edit budget and the real
    // edit was never verified).
    assert!(!stderr.contains("edit"), "spurious edit report: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The documented byte-identical-reports guarantee, across *processes*:
/// `HashMap` iteration order changes with each process' `RandomState`,
/// so any leaked iteration order shows up as two different documents
/// here. Only the wall clock may differ between the two runs.
#[test]
fn json_report_is_byte_identical_across_processes() {
    let path = design("register_file.scald");
    let run_once = || {
        let out = run(&["--format", "json", &path]);
        assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
        let mut doc = parse(&text(&out.stdout)).expect("valid JSON");
        // Null the only legitimately nondeterministic field.
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "engine" {
                    if let Json::Obj(engine) = value {
                        for (k, v) in engine.iter_mut() {
                            if k == "wall_ns" {
                                *v = Json::Null;
                            }
                        }
                    }
                }
            }
        }
        doc.to_string()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "report differs across processes");
}

/// Spawns `scald-tv serve --stdio` and wraps its pipes in the protocol
/// client.
fn spawn_stdio_daemon(extra: &[&str]) -> (std::process::Child, scald::serve::Client) {
    use std::io::BufReader;
    let mut child = Command::new(BIN)
        .arg("serve")
        .arg("--stdio")
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("scald-tv serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let stdin = child.stdin.take().expect("piped stdin");
    let client =
        scald::serve::Client::from_streams(Box::new(BufReader::new(stdout)), Box::new(stdin))
            .expect("handshake succeeds");
    (child, client)
}

#[test]
fn serve_stdio_answers_the_protocol_and_drains_on_eof() {
    use scald::serve::Response;
    let (mut child, mut client) = spawn_stdio_daemon(&[]);
    assert_eq!(client.hello().proto, scald::serve::PROTO_VERSION);
    assert_eq!(client.hello().jobs, 1);

    let src = std::fs::read_to_string(design("register_file.scald")).expect("design reads");
    let label = "stdio-design";
    let session = match client.open_source(&src, label).expect("opens") {
        Response::Opened { session, .. } => session,
        other => panic!("expected opened, got {other:?}"),
    };
    let served = match client.report(&session, false).expect("reports") {
        Response::Report { report, .. } => report.to_string_pretty(),
        other => panic!("expected report, got {other:?}"),
    };

    // Byte-identical to a direct single-shot verification of the same
    // source under the same label.
    let expansion = scald::hdl::compile(&src).expect("compiles");
    let mut verifier = Verifier::new(expansion.netlist);
    let results = verifier
        .run(&RunOptions::new().cases(scald::verifier::CaseSet::list([
            scald::verifier::Case::new(),
        ])))
        .expect("verifies")
        .cases;
    let direct = verifier.report(label, &results).strip_effort().to_json();
    assert_eq!(
        served, direct,
        "served report diverged from scald-tv's own run"
    );

    client.close(&session).expect("closes");
    // Dropping the client closes the daemon's stdin: EOF begins the
    // graceful drain and the process exits cleanly.
    drop(client);
    let status = child.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn serve_survives_malformed_lines_on_stdio() {
    use scald::serve::{ErrorKind, Response};
    let (mut child, mut client) = spawn_stdio_daemon(&[]);
    match client.request_raw("{malformed").expect("answered") {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, None);
            assert_eq!(kind, ErrorKind::Parse);
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    // The connection still works afterwards.
    let src = std::fs::read_to_string(design("mini_cpu.scald")).expect("design reads");
    assert!(matches!(
        client.open_source(&src, "after-garbage").expect("opens"),
        Response::Opened { .. }
    ));
    drop(client);
    assert_eq!(child.wait().expect("daemon exits").code(), Some(0));
}

#[test]
fn serve_usage_errors_exit_two() {
    // Neither --socket nor --stdio.
    let out = run(&["serve"]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        text(&out.stderr).contains("--socket"),
        "{}",
        text(&out.stderr)
    );
    // Unknown option.
    assert_eq!(exit_code(&run(&["serve", "--frobnicate"])), 2);
    // Bad values.
    assert_eq!(
        exit_code(&run(&["serve", "--stdio", "--timeout-ms", "abc"])),
        2
    );
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}
