//! Property: for any design, the daemon's default `report` document is
//! byte-identical to what a direct, single-shot `Verifier::run` of the
//! same source produces (effort-stripped) — serving is a pure transport,
//! never a semantic layer.

use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_serve::{serve, Client, Response, ServeOptions};
use scald_verifier::{Case, CaseSet, RunOptions, VerifierBuilder};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

fn socket_path() -> PathBuf {
    let path = std::env::temp_dir().join(format!("scald-serve-props-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The single-shot reference: compile and verify exactly as `scald-tv`
/// would, then strip effort counters.
fn direct_report(src: &str, label: &str) -> String {
    let expansion = scald_hdl::compile(src).expect("design compiles");
    let cases: Vec<Case> = if expansion.cases.is_empty() {
        vec![Case::new()]
    } else {
        expansion.cases.into_iter().map(Case::from_iter).collect()
    };
    let mut verifier = VerifierBuilder::new(expansion.netlist).build();
    let results = verifier
        .run(&RunOptions::new().cases(CaseSet::list(cases)))
        .expect("design verifies")
        .cases;
    verifier.report(label, &results).strip_effort().to_json()
}

#[test]
fn daemon_reports_are_byte_identical_to_direct_runs() {
    let path = socket_path();
    let daemon = {
        let opts = ServeOptions {
            socket: Some(path.clone()),
            ..ServeOptions::default()
        };
        thread::spawn(move || serve(&opts).expect("daemon runs"))
    };
    for _ in 0..400 {
        if UnixStream::connect(&path).is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }

    let mut client = Client::connect_unix(&path).expect("connects");
    for i in 0..50u64 {
        let src = s1_like_hdl(S1Options {
            chips: 3 + (i % 7) as usize * 2,
            seed: 0x9e3779b9 ^ i,
        });
        let label = format!("prop-{i}");

        let session = match client.open_source(&src, &label).expect("opens") {
            Response::Opened { session, .. } => session,
            other => panic!("design {i}: expected opened, got {other:?}"),
        };
        // `run` must not change the document either.
        assert!(matches!(
            client.run(&session).expect("runs"),
            Response::Ran { .. }
        ));
        let served = match client.report(&session, false).expect("reports") {
            Response::Report { report, .. } => report.to_string_pretty(),
            other => panic!("design {i}: expected report, got {other:?}"),
        };
        client.close(&session).expect("closes");

        assert_eq!(
            served,
            direct_report(&src, &label),
            "design {i} (seed {:#x}): served report diverged from the direct run",
            0x9e3779b9u64 ^ i,
        );
    }
    client.shutdown().expect("shutdown");
    drop(client);
    daemon.join().expect("daemon drains");
}
