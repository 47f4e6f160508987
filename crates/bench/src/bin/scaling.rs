//! The headline claim (§2.1, §4.1): symbolic verification costs one
//! symbolic cycle, while exhaustive timing coverage by logic simulation
//! costs exponentially many concrete cycles.
//!
//! For a parameterized circuit with `n` independent control inputs, this
//! harness measures:
//!
//! * one Timing Verifier pass (which covers all value combinations), vs
//! * min/max logic simulation of all `2^n` input patterns (what §1.4.1
//!   calls exercising "all possible cases which have distinct timing
//!   paths"), vs
//! * one worst-case path search (cheap, but value-blind).
//!
//! The wall-clock ratio grows as 2^n: the thesis' "savings ... clearly of
//! factorial (i.e., exponential) order".
//!
//! Usage: `cargo run -p scald-bench --bin scaling --release`

use scald_bench::harness::{flags, muxed_paths_circuit, timed, verify};
use scald_paths::PathAnalysis;
use scald_sim::{primary_inputs, simulate, Stimulus};
use std::time::Instant;

fn main() {
    flags(|_| ());
    println!(
        "{:>3} {:>10} {:>14} {:>14} {:>14} {:>10}",
        "n", "patterns", "verifier", "simulation", "path search", "ratio"
    );
    for n in [1usize, 2, 4, 6, 8, 10, 12] {
        let netlist = muxed_paths_circuit(n);

        let (result, verifier_time) = timed(|| verify(netlist.clone()));
        let found = result.violations.len();

        let inputs = primary_inputs(&netlist);
        // The mux selects carry the value-dependence; the data inputs are
        // driven with a fixed toggling stimulus so the slow path actually
        // transitions. Two cycles: cycle 1 initializes, cycle 2 is
        // observed — the cost of simulation per pattern is 2 concrete
        // cycles vs the verifier's single symbolic one.
        let sweep = inputs
            .iter()
            .filter(|s| netlist.signal(**s).assertion().is_none())
            .copied()
            .collect::<Vec<_>>();
        let data_inputs: Vec<_> = inputs
            .iter()
            .filter(|s| netlist.signal(**s).assertion().is_some())
            .copied()
            .collect();
        let patterns = 1u64 << sweep.len();
        let t = Instant::now();
        let mut sim_violations = 0usize;
        for p in 0..patterns {
            let mut stim = Stimulus {
                cycles: 2,
                inputs: Default::default(),
            };
            for (i, sel) in sweep.iter().enumerate() {
                let v = (p >> i) & 1 == 1;
                stim.inputs.insert(*sel, vec![v, v]);
            }
            for (i, d) in data_inputs.iter().enumerate() {
                // Alternate values so every data input toggles at cycle 2.
                stim.inputs.insert(*d, vec![i % 2 == 0, i % 2 != 0]);
            }
            let r = simulate(&netlist, &stim);
            sim_violations += r.violations.len();
        }
        let sim_time = t.elapsed();

        let (analysis, path_time) = timed(|| PathAnalysis::analyze(&netlist));
        let _ = analysis.violations();

        let ratio = sim_time.as_secs_f64() / verifier_time.as_secs_f64().max(1e-9);
        println!(
            "{n:>3} {patterns:>10} {verifier_time:>14.3?} {sim_time:>14.3?} {path_time:>14.3?} {ratio:>9.1}x   (verifier found {found}, sim saw {sim_violations} across patterns)"
        );
    }
    println!(
        "\nOne symbolic pass replaces 2^n concrete passes: the exponential \
         saving of §2.1."
    );
}
