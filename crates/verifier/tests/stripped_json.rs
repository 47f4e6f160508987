//! Oracles for the streamed report document: the effort-free document
//! of [`Report::stripped_json_value`] must be byte-identical to
//! `strip_effort().json_value()`, the copy-then-render path it replaces,
//! and both views, [`Report::json_value`] and `stripped_json_value`, must
//! print, compact and pretty, the bytes of the `Json` tree they replaced
//! ([`ReportJson::tree`](scald_verifier::ReportJson::tree)) — on every
//! kind of report: seeded multi-case sweeps, delay corners, violations
//! with provenance, a `probabilistic` section, cache counters on and off,
//! a measured wall clock, an empty design, and a label and names that
//! need every JSON escape.

use scald_gen::figures::register_file_circuit;
use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::{Config, Netlist, NetlistBuilder};
use scald_rng::Rng;
use scald_verifier::{
    Case, CaseSet, DelayCorner, ProbEndpoint, ProbSection, Report, RunOptions, VerifierBuilder,
};
use scald_wave::{DelayRange, Time};
use std::time::Duration;

fn report(netlist: Netlist, cases: CaseSet, cache: bool) -> Report {
    let mut v = VerifierBuilder::new(netlist).eval_cache(cache).build();
    let results = v
        .run(&RunOptions::new().cases(cases))
        .expect("run settles")
        .cases;
    let mut report = v.report("oracle", &results);
    report.engine.verify_wall = Some(Duration::from_nanos(183_042));
    report
}

fn assert_oracle(label: &str, report: &Report) {
    let oracle = report.strip_effort().json_value().tree();
    let stripped = report.stripped_json_value();
    assert_eq!(stripped.to_string(), oracle.to_string(), "{label}: compact");
    assert_eq!(
        stripped.to_string_pretty(),
        oracle.to_string_pretty(),
        "{label}: pretty"
    );
    // Each view streams the bytes of the tree it replaced.
    for (what, view) in [
        ("effort", report.json_value()),
        ("stripped", report.stripped_json_value()),
    ] {
        let tree = view.tree();
        assert_eq!(
            view.to_string(),
            tree.to_string(),
            "{label}: {what}, compact"
        );
        assert_eq!(
            view.to_string_pretty(),
            tree.to_string_pretty(),
            "{label}: {what}, pretty"
        );
    }
    // With effort kept, the document still differs from the stripped one.
    assert_ne!(
        report.json_value().to_string(),
        stripped.to_string(),
        "{label}: effort is present"
    );
}

fn probabilistic(rng: &mut Rng) -> ProbSection {
    ProbSection {
        rho: rng.range_f64(0.0, 1.0),
        endpoints: (0..rng.range_usize(1, 4))
            .map(|i| ProbEndpoint {
                endpoint: format!("DATA {i}"),
                constraint_source: format!("TOP/REG CHK#{i}"),
                arrival_mean_ns: rng.range_f64(30.0, 45.0),
                arrival_sigma_ns: rng.range_f64(0.0, 2.0),
                slack_mean_ns: rng.range_f64(-1.0, 6.0),
                slack_sigma_ns: rng.range_f64(0.0, 2.0),
                deadline_ns: 47.5,
                worst_case_ns: rng.range_f64(40.0, 48.0),
                violation_probability: rng.range_f64(0.0, 0.01),
            })
            .collect(),
    }
}

#[test]
fn stripped_document_matches_strip_effort_oracle() {
    let mut rng = Rng::seed_from_u64(0x5791_99ed);
    for seed in 0..8_u64 {
        let (netlist, _) = s1_like_netlist(S1Options {
            chips: 12 + 4 * seed as usize,
            seed: 0xd0c_0000 + seed,
        });
        let ctls: Vec<String> = (0..rng.range_u64(1, 4))
            .map(|k| format!("CTL {}", 3 * k + seed % 3))
            .collect();
        let sweep = CaseSet::exhaustive(ctls);
        let cases = if seed % 2 == 0 {
            sweep.cross_corners([DelayCorner::Min, DelayCorner::Max])
        } else {
            sweep
        };
        let mut r = report(netlist, cases, seed % 3 != 0);
        assert_oracle(&format!("s1 seed {seed}"), &r);
        r.probabilistic = Some(probabilistic(&mut rng));
        assert_oracle(&format!("s1 seed {seed} + probabilistic"), &r);
    }

    // Fig 3-11: violations carrying their fan-in provenance.
    let (netlist, _) = register_file_circuit();
    let mut r = report(netlist, CaseSet::list([Case::new()]), true);
    assert!(r.total_violations() > 0, "the register file violates");
    assert!(r
        .cases
        .iter()
        .flat_map(|c| &c.violations)
        .any(|v| v.provenance.is_some()));
    assert_oracle("register file", &r);
    r.probabilistic = Some(probabilistic(&mut rng));
    assert_oracle("register file + probabilistic", &r);

    // An empty design: every array prints `[]` in both forms.
    let empty = NetlistBuilder::new(Config::s1_example()).finish().unwrap();
    let r = report(empty, CaseSet::list([Case::new()]), true);
    assert_oracle("empty design", &r);
    let (compact, pretty) = (
        r.json_value().to_string(),
        r.json_value().to_string_pretty(),
    );
    for key in ["violations", "slack", "assumed_stable", "summary"] {
        assert!(
            compact.contains(&format!("\"{key}\":[]")),
            "{key}: {compact}"
        );
        assert!(
            pretty.contains(&format!("\"{key}\": []")),
            "{key}: {pretty}"
        );
    }

    // A label and names that need every escape: quotes, backslashes,
    // control characters and multi-byte characters.
    let mut r = report(escapes(), CaseSet::list([Case::new()]), true);
    r.design = "d \"q\" \\ \n\t\r\u{1}\u{1f} é→📈".to_owned();
    assert!(r.total_violations() > 0, "the escapes design violates");
    assert!(!r.assumed_stable.is_empty() && !r.slack.is_empty());
    assert_oracle("escapes", &r);
    let compact = r.json_value().to_string();
    for escaped in [
        r#"\""#, r"\\", r"\n", r"\t", r"\r", r"\u0001", r"\u001f", "📈",
    ] {
        assert!(compact.contains(escaped), "{escaped}: {compact}");
    }
    r.probabilistic = Some(probabilistic(&mut rng));
    assert_oracle("escapes + probabilistic", &r);
}

/// A design whose signal and primitive names need JSON escapes: a
/// checked signal driven from a clock, so the check fails and its
/// provenance walks the escaped names, and an undriven input the
/// cross-reference lists.
fn escapes() -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let ck = b.signal("CK \"Q\" .P2-3").unwrap();
    let data = b.signal("DATA \\ \u{1}\té→📈").unwrap();
    let out = b.signal("OUT\n\"Ω\"").unwrap();
    let held = b.signal("HELD \u{1f}\r").unwrap();
    b.buf("BUF \"1\" \\ é", DelayRange::from_ns(1.0, 3.0), ck, out);
    b.buf("KEEP\t📈", DelayRange::from_ns(1.0, 3.0), data, held);
    b.setup_hold(
        "CHK \"\\\u{1f}📈\"",
        Time::from_ns(2.5),
        Time::from_ns(1.5),
        out,
        ck,
    );
    b.finish().unwrap()
}
