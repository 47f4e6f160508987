//! Self-tests of the benchmark itself, at the tiny input size:
//!
//! - every workload emits every metric `BENCHMARK.json` names, with its
//!   unit, in both the untraced and the traced run;
//! - a deliberately wrong expected answer turns the run into a failure;
//! - the run records the host facts beside its numbers;
//! - bad arguments exit with code 2 and print no result.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::path::Path;
use std::process::{Command, Output};

use scald_trace::json::{self, Json};

const WORKLOADS: [&str; 4] = ["tv_s1", "scale_settle", "sweep_1k", "serve_eco"];

fn bench(args: &[&str]) -> Output {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(args)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("the benchmark runs")
}

/// The last stdout line, parsed, after checking the process succeeded.
fn result(out: &Output) -> Json {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--size",
        "tiny",
    ];
    args.extend(extra);
    bench(&args)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json reads");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = contract(section);
        for workload in WORKLOADS {
            let doc = result(&tiny(workload, trace, &[]));
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace {trace}"
            );
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = doc
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), wanted.len(), "{workload} trace {trace}");
            for (name, unit) in &wanted {
                let m = doc.get("metrics").and_then(|m| m.get(name));
                let m = m.unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has a value"
                );
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn a_wrong_expected_answer_fails_the_run() {
    let out = tiny("tv_s1", "0", &["--expect-register-file", "4,2"]);
    let doc = result(&out);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert!(doc.get("failed").and_then(Json::as_u64) >= Some(1));
    assert!(String::from_utf8_lossy(&out.stdout)
        .contains("register_file known answer: 3 violations in 2 groups, expected 4 in 2"));
}

#[test]
fn host_facts_are_recorded() {
    let out = tiny("sweep_1k", "0", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let host = stdout
        .lines()
        .find(|l| l.starts_with("host:"))
        .expect("a host line");
    for fact in ["nproc", "available_parallelism", "cpu", "jobs"] {
        assert!(host.contains(fact), "{host}");
    }
}

#[test]
fn usage_errors_exit_two_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
