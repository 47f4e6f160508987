//! Seed-engine equality: the data-oriented (CSR + struct-of-arrays)
//! refactor must produce a byte-identical report on the shipped
//! 400-chip S-1-alike. The golden file under `tests/data/` was captured
//! from the pre-refactor engine; any divergence means the refactor
//! changed observable behaviour, not just layout.
//!
//! Regenerate (only when the report schema itself changes, never to
//! paper over an engine diff) with:
//! `SCALD_WRITE_GOLDEN=1 cargo test -p scald-verifier --test soa_golden`

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_verifier::{RunOptions, VerifierBuilder};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_s1_400.json");

#[test]
fn report_matches_seed_engine_golden_on_400_chip_design() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 400,
        seed: 0x5ca1d,
    });
    let mut verifier = VerifierBuilder::new(netlist).build();
    let outcome = verifier
        .run(&RunOptions::new())
        .expect("the 400-chip design settles");
    let mut report = verifier.report("golden_s1_400", &outcome.cases);
    // Wall clock is the only nondeterministic field. The golden was
    // recorded with the worker count zeroed.
    report.engine.jobs = 0;
    report.engine.verify_wall = None;
    let json = report.to_json().to_string();

    if std::env::var_os("SCALD_WRITE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &json).expect("write golden report");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden report present (regenerate with SCALD_WRITE_GOLDEN=1)");
    assert_eq!(
        json, golden,
        "refactored engine diverged from the seed-engine golden report"
    );
}
