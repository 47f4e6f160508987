//! Regenerates **Table 3-3**: storage required by the Timing Verifier,
//! by data-structure category.
//!
//! The thesis reports, for the 6357-chip design (S-1 Mark I PASCAL, no
//! record packing): circuit description 37.8%, signal names 11.6%, string
//! space 10.6%, call list array 6.9%, miscellaneous 0.7% (signal values
//! making up the bulk of the rest), with an average of 2.97 value records
//! per signal and ≈260 bytes per primitive of circuit description.
//!
//! Usage: `cargo run -p scald-bench --bin table_3_3 --release [--chips N]`

use scald_verifier::{RunOptions, Verifier};

use scald_bench::harness::{flags, s1_netlist};

fn main() {
    let chips = flags(|f| f.get("--chips", 6357));
    let (netlist, stats) = s1_netlist(chips);
    let n_prims = netlist.prim_count();

    let mut verifier = Verifier::new(netlist);
    verifier.run(&RunOptions::new()).expect("design settles");
    let report = verifier.storage_report();

    println!(
        "TABLE 3-3 — storage required by the Timing Verifier ({} chips)\n",
        stats.chips
    );
    println!(
        "{:<22} {:>12} {:>9}   PAPER",
        "STORAGE AREA", "BYTES", "MEASURED"
    );
    let paper = [
        ("CIRCUIT DESCRIPTION", Some(37.8)),
        ("SIGNAL VALUES", None), // the thesis calls it "next largest"
        ("SIGNAL NAMES", Some(11.6)),
        ("STRING SPACE", Some(10.6)),
        ("CALL LIST ARRAY", Some(6.9)),
        ("MISCELLANEOUS", Some(0.7)),
    ];
    for ((name, bytes, pct), (_, paper_pct)) in report.rows().iter().zip(paper) {
        match paper_pct {
            Some(p) => println!("{name:<22} {bytes:>12} {pct:>8.1}%   {p:.1}%"),
            None => println!("{name:<22} {bytes:>12} {pct:>8.1}%   (largest remainder)"),
        }
    }
    println!("{:-<50}", "");
    println!("{:<22} {:>12}", "TOTAL", report.total());

    println!("\n{:<40} measured      paper", "STATISTIC");
    println!(
        "{:<40} {:>8.2}      2.97",
        "value records per signal",
        report.value_records_per_signal()
    );
    println!(
        "{:<40} {:>8.1}      260",
        "circuit-description bytes per primitive",
        report.circuit_description as f64 / n_prims.max(1) as f64
    );
}
