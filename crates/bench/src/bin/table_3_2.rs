//! Regenerates **Table 3-2**: the primitive-type histogram of the
//! S-1-like design.
//!
//! The thesis reports 22 primitive types, 8 282 primitives total for 6357
//! chips (≈1.3 primitives per chip), an average vector width of 6.5 bits,
//! and notes that 53 833 primitives would have been needed without the
//! vector-width symmetry.
//!
//! Usage: `cargo run -p scald-bench --bin table_3_2 --release [--chips N]`

use scald_bench::harness::{flags, s1_netlist};

fn main() {
    let chips = flags(|f| f.get("--chips", 6357));
    let (netlist, stats) = s1_netlist(chips);

    println!(
        "TABLE 3-2 — primitive definitions generated ({} chips)\n",
        stats.chips
    );
    println!("{:<28} {:>8}", "PRIMITIVE TYPE", "COUNT");
    let hist = netlist.primitive_histogram();
    for (name, count) in &hist {
        println!("{name:<28} {count:>8}");
    }
    let total: usize = hist.iter().map(|(_, c)| c).sum();
    println!("{:-<37}", "");
    println!("{:<28} {total:>8}", format!("TOTAL ({} types)", hist.len()));

    // Derived statistics the thesis quotes (§3.3.2).
    let per_chip = total as f64 / stats.chips as f64;
    let avg_width = netlist.average_primitive_width();
    let bit_blasted: u64 = netlist
        .iter_prims()
        .map(|(_, p)| {
            p.output()
                .map_or(1, |out| u64::from(netlist.signal(out).width().max(1)))
        })
        .sum();
    println!("\n{:<38} measured      paper", "STATISTIC");
    println!("{:<38} {per_chip:>8.2}      1.30", "primitives per chip");
    println!(
        "{:<38} {avg_width:>8.2}      6.5",
        "average primitive width (bits)"
    );
    println!(
        "{:<38} {bit_blasted:>8}      53 833",
        "bit-blasted primitive equivalent"
    );
    let bit_lists: u64 = netlist
        .iter_signals()
        .map(|(_, s)| u64::from(s.width()))
        .sum();
    println!(
        "{:<38} {:>8}      33 152",
        "signal value lists (per-bit)", bit_lists
    );
    println!(
        "{:<38} {:>8}      (vector nets)",
        "signal vectors",
        netlist.signal_count()
    );
}
