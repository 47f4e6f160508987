//! A typical S-1 Mark IIA arithmetic pipeline stage (Fig 3-12): 36-bit
//! ALU with output latch, function decoder and a gated status register.
//!
//! All interface signals carry assertions, so this stage verifies in
//! isolation — the modular, section-by-section verification that §2.5.2
//! calls "crucial to the real-world utility" of the approach.
//!
//! Run with: `cargo run --example pipeline_stage`

use scald::gen::figures::alu_stage;
use scald::verifier::{RunOptions, Verifier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (netlist, latched) = alu_stage();
    println!(
        "ALU stage: {} primitives / {} signals, avg vector width {:.1} bits",
        netlist.prim_count(),
        netlist.signal_count(),
        netlist.average_primitive_width()
    );

    let mut v = Verifier::new(netlist);
    let result = v.run(&RunOptions::new())?.into_sole();

    println!("\n--- Signal values over the 50 ns cycle ---");
    print!("{}", v.summary_listing());

    println!("\n--- Timing checks ---");
    if result.is_clean() {
        println!("stage is free of timing errors");
    } else {
        for violation in &result.violations {
            println!("{violation}");
        }
    }

    println!("\nlatched ALU result: {}", v.resolved(latched));
    println!(
        "events {} / evaluations {}",
        result.events, result.evaluations
    );
    Ok(())
}
