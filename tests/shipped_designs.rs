//! The design files shipped under `designs/` must stay compilable and
//! produce the documented verdicts — they are the CLI's demo inputs.

use scald::hdl::compile;
use scald::verifier::{RunOptions, Verifier, ViolationKind};

#[test]
fn shipped_register_file_design_compiles_and_verifies() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/designs/register_file.scald"
    ))
    .expect("shipped design file exists");
    let expansion = compile(&src).expect("shipped design compiles");
    assert!(expansion.stats.instances_expanded >= 4);
    let mut v = Verifier::new(expansion.netlist);
    let r = v
        .run(&RunOptions::new())
        .expect("design settles")
        .into_sole();
    // The demo file reproduces the Fig 3-11 class of errors: at least the
    // RAM address set-up and the output-register set-up.
    let setups = r.of_kind(ViolationKind::Setup);
    assert!(
        setups.len() >= 2,
        "expected the documented setup errors: {r}"
    );
    assert!(setups.iter().any(|x| x.source.contains("RAM")));
    assert!(setups.iter().any(|x| x.source.contains("REG 10176")));
}

#[test]
fn printer_normalizes_shipped_design() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/designs/register_file.scald"
    ))
    .expect("shipped design file exists");
    let design = scald::hdl::parse(&src).expect("parses");
    let printed = scald::hdl::print(&design);
    let reparsed = scald::hdl::parse(&printed).expect("printed text parses");
    let a = scald::hdl::expand(&design).expect("expands");
    let b = scald::hdl::expand(&reparsed).expect("round-trip expands");
    assert_eq!(a.netlist.prim_count(), b.netlist.prim_count());
    assert_eq!(
        a.netlist.primitive_histogram(),
        b.netlist.primitive_histogram()
    );
}

#[test]
fn shipped_mini_cpu_verifies_clean_in_both_cases() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/designs/mini_cpu.scald"
    ))
    .expect("shipped design file exists");
    let expansion = compile(&src).expect("mini CPU compiles");
    assert_eq!(expansion.cases.len(), 2);
    let cases: Vec<scald::verifier::Case> = expansion
        .cases
        .iter()
        .map(|assigns| {
            assigns
                .iter()
                .fold(scald::verifier::Case::new(), |c, (s, v)| {
                    c.assign(s.clone(), *v)
                })
        })
        .collect();
    let mut v = Verifier::new(expansion.netlist);
    let results = v
        .run(&RunOptions::new().cases(scald::verifier::CaseSet::list(cases.iter().cloned())))
        .expect("design settles")
        .cases;
    for r in &results {
        assert!(r.is_clean(), "{r}");
    }
    // The design exercises the whole feature set: wired-OR bus, &H gating,
    // asymmetric inverter, latch, and case analysis.
    assert!(results[1].evaluations < results[0].evaluations);
}

#[test]
fn shipped_case_analysis_design() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/designs/case_analysis.scald"
    ))
    .expect("shipped design file exists");
    let expansion = compile(&src).expect("compiles");
    let cases: Vec<scald::verifier::Case> = expansion
        .cases
        .iter()
        .map(|assigns| {
            assigns
                .iter()
                .fold(scald::verifier::Case::new(), |c, (s, v)| {
                    c.assign(s.clone(), *v)
                })
        })
        .collect();
    // With cases: clean. Without: the phantom 40 ns path violates.
    let mut v = Verifier::new(expansion.netlist.clone());
    for r in v
        .run(&RunOptions::new().cases(scald::verifier::CaseSet::list(cases.iter().cloned())))
        .expect("settles")
        .cases
    {
        assert!(r.is_clean(), "{r}");
    }
    let mut v = Verifier::new(expansion.netlist);
    let r = v.run(&RunOptions::new()).expect("settles").into_sole();
    assert!(!r.is_clean());
}
