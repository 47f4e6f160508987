//! Ablation of the vector-width symmetry (§3.3.2).
//!
//! The thesis: "If this symmetry had not been exploited, then 53,833
//! rather than 8,282 primitives would have been used to represent the
//! circuit" — a 6.5× representation saving that carries through to events
//! and runtime. This harness measures it: verify the S-1-like design as
//! vector primitives, then bit-blast it and verify again.
//!
//! Usage: `cargo run -p scald-bench --bin ablation --release [--chips N]`

use scald_bench::harness::{flags, s1_netlist, timed, verify};
use scald_gen::ablation::bit_blast;

fn main() {
    // Default smaller than the tables: the blasted design is ~7x bigger.
    let chips = flags(|f| f.get("--chips", 1500));
    let (vector, stats) = s1_netlist(chips);
    println!("ABLATION — vector-width symmetry ({} chips)\n", stats.chips);

    let (blasted, blast_time) = timed(|| bit_blast(&vector));

    let run = |netlist| {
        let (r, wall) = timed(|| verify(netlist));
        (wall, r.events, r.evaluations, r.violations.len())
    };

    let vec_prims = vector.prim_count();
    let vec_signals = vector.signal_count();
    let (vec_time, vec_events, vec_evals, vec_viols) = run(vector);
    let blast_prims = blasted.prim_count();
    let blast_signals = blasted.signal_count();
    let (blast_time_v, blast_events, blast_evals, blast_viols) = run(blasted);

    println!(
        "{:<26} {:>12} {:>12} {:>8}",
        "", "VECTOR", "BIT-BLASTED", "RATIO"
    );
    let row = |name: &str, a: f64, b: f64| {
        println!("{name:<26} {a:>12.0} {b:>12.0} {:>7.1}x", b / a.max(1.0));
    };
    row("primitives", vec_prims as f64, blast_prims as f64);
    row("signals", vec_signals as f64, blast_signals as f64);
    row("events", vec_events as f64, blast_events as f64);
    row("evaluations", vec_evals as f64, blast_evals as f64);
    println!(
        "{:<26} {:>12.2?} {:>12.2?} {:>7.1}x",
        "verify wall time",
        vec_time,
        blast_time_v,
        blast_time_v.as_secs_f64() / vec_time.as_secs_f64().max(1e-9)
    );
    println!("{:<26} {vec_viols:>12} {blast_viols:>12}", "violations");
    println!("\n(bit-blast transform itself took {blast_time:.2?})");
    println!(
        "paper: 8 282 vector primitives vs 53 833 bit-blasted — a 6.5x \
         representation saving (§3.3.2)."
    );
}
