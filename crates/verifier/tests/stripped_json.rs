//! Oracle for [`Report::stripped_json_value`]: the effort-free document
//! must be byte-identical to `strip_effort().json_value()`, the
//! copy-then-render path it replaces, on every kind of report — seeded
//! multi-case sweeps, delay corners, violations with provenance, a
//! `probabilistic` section, cache counters on and off, a measured wall
//! clock.

use scald_gen::figures::register_file_circuit;
use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::Netlist;
use scald_rng::Rng;
use scald_verifier::{
    Case, CaseSet, DelayCorner, ProbEndpoint, ProbSection, Report, RunOptions, VerifierBuilder,
};
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
    let oracle = report.strip_effort().json_value();
    let stripped = report.stripped_json_value();
    assert_eq!(stripped.to_string(), oracle.to_string(), "{label}: compact");
    assert_eq!(
        stripped.to_string_pretty(),
        oracle.to_string_pretty(),
        "{label}: pretty"
    );
    // With effort kept, the document still differs from the stripped one.
    assert_ne!(report.json_value(), stripped, "{label}: effort is present");
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
}
