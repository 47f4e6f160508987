//! Cross-frontend equivalence: the seeded twin designs of
//! `scald_gen::rtl_pairs` must lower to structurally identical netlists
//! through the Verilog frontend and the SCALD macro expander, and the
//! verifier must then produce **byte-identical** reports from either.

use scald::gen::rtl_pairs::paired_design;
use scald::incr::{design_hash, DesignInput, Session};
use scald::rtl;

const SEEDS: u64 = 50;

/// Both frontends hash to the same design: same signals in the same
/// creation order, same primitives, same connection lists, same cases.
#[test]
fn fifty_seeds_lower_to_identical_netlists() {
    for seed in 0..SEEDS {
        let pair = paired_design(seed);
        let from_rtl = rtl::compile(&pair.verilog)
            .unwrap_or_else(|e| panic!("seed {seed}: verilog fails: {e}\n{}", pair.verilog));
        let from_hdl = scald::hdl::compile(&pair.scald)
            .unwrap_or_else(|e| panic!("seed {seed}: scald twin fails: {e}\n{}", pair.scald));
        assert_eq!(
            from_rtl.stats.prims_emitted, from_hdl.stats.prims_emitted,
            "seed {seed}: primitive counts diverge\n--- verilog\n{}\n--- scald\n{}",
            pair.verilog, pair.scald
        );
        assert_eq!(
            from_rtl.stats.signals, from_hdl.stats.signals,
            "seed {seed}: signal counts diverge\n--- verilog\n{}\n--- scald\n{}",
            pair.verilog, pair.scald
        );
        assert_eq!(
            design_hash(&from_rtl.netlist, &[]),
            design_hash(&from_hdl.netlist, &[]),
            "seed {seed}: netlists hash differently\n--- verilog\n{}\n--- scald\n{}",
            pair.verilog,
            pair.scald
        );
    }
}

/// Full-stack equivalence: open the same circuit through each frontend
/// and require byte-identical stripped report JSON.
#[test]
fn reports_are_byte_identical_across_frontends() {
    for seed in 0..SEEDS {
        let pair = paired_design(seed);
        let open = |input: DesignInput| {
            Session::open(input, format!("pair-{seed}"))
                .unwrap_or_else(|e| panic!("seed {seed}: open fails: {e}"))
        };
        let rtl_session = open(DesignInput::verilog(&pair.verilog));
        let hdl_session = open(DesignInput::source(&pair.scald));
        let rtl_json = rtl_session.report().strip_effort().to_json();
        let hdl_json = hdl_session.report().strip_effort().to_json();
        assert_eq!(
            rtl_json, hdl_json,
            "seed {seed}: reports diverge\n--- verilog\n{}\n--- scald\n{}",
            pair.verilog, pair.scald
        );
    }
}
