//! Quickstart: build the thesis' Fig 2-5 register-file circuit, verify it,
//! and print the Fig 3-10 signal-value summary and the Fig 3-11 error
//! report.
//!
//! Run with: `cargo run --example quickstart`

use scald::gen::figures::register_file_circuit;
use scald::verifier::{RunOptions, Verifier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (netlist, _signals) = register_file_circuit();
    println!(
        "Fig 2-5 register-file circuit: {} primitives, {} signals\n",
        netlist.prim_count(),
        netlist.signal_count()
    );

    let mut verifier = Verifier::new(netlist);
    let result = verifier.run(&RunOptions::new())?.into_sole();

    println!("--- Signal values over the 50 ns cycle (Fig 3-10) ---");
    print!("{}", verifier.summary_listing());

    println!("\n--- Setup, hold and minimum pulse width errors (Fig 3-11) ---");
    for v in &result.violations {
        println!("{v}");
    }
    println!(
        "{} violation(s), {} events processed, {} primitive evaluations",
        result.violations.len(),
        result.events,
        result.evaluations
    );
    Ok(())
}
