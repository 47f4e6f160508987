//! Regenerates **Table 3-1**: macro-expansion and timing-verification
//! execution statistics for the S-1-like design.
//!
//! The thesis measured, for 6357 chips on the S-1 Mark I (≈ IBM 370/168):
//!
//! ```text
//! MACRO EXPANSION                          minutes
//!   reading input files + data structures    1.92
//!   pass 1                                   8.42
//!   pass 2                                   6.18
//! TIMING VERIFIER
//!   reading input + building structures      4.45
//!   cross reference listings                 0.72
//!   verifying circuit                        6.75   (20 052 events,
//!   timing summary listing                   0.22    ≈49 ms/primitive,
//!                                                    ≈20 ms/event)
//! ```
//!
//! Usage: `cargo run -p scald-bench --bin table_3_1 --release [--chips N]`

use scald_bench::harness::{flags, timed};
use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_verifier::{RunOptions, Verifier};

fn main() {
    let chips = flags(|f| f.get("--chips", 6357));
    let opts = S1Options {
        chips,
        ..S1Options::default()
    };

    println!("TABLE 3-1 — execution statistics ({chips} chips)\n");

    // --- Macro expansion phases ---
    let (src, gen_time) = timed(|| s1_like_hdl(opts));
    let (design, read_time) = timed(|| scald_hdl::parse(&src).expect("generated HDL parses"));

    let expansion = scald_hdl::expand(&design).expect("generated HDL expands");
    let stats = expansion.stats;

    println!("MACRO EXPANSION EXECUTION STATISTICS        measured      paper (min, 1980 hw)");
    println!(
        "  generating source text                    {:>9.3?}     (n/a — synthetic)",
        gen_time
    );
    println!(
        "  reading input files, building structures  {:>9.3?}     1.92",
        read_time
    );
    println!(
        "  pass 1 of macro expansion                  {:>9.3?}     8.42",
        stats.pass1
    );
    println!(
        "  pass 2 of macro expansion                  {:>9.3?}     6.18",
        stats.pass2
    );
    println!(
        "  -> {} macro instances expanded into {} primitives / {} signals\n",
        stats.instances_expanded, stats.prims_emitted, stats.signals
    );

    // --- Timing Verifier phases ---
    let netlist = expansion.netlist;
    let n_prims = netlist.prim_count();

    let (mut verifier, build_time) = timed(|| Verifier::new(netlist));
    let (xref, xref_time) = timed(|| verifier.xref_listing());
    let (result, verify_time) = timed(|| {
        verifier
            .run(&RunOptions::new())
            .expect("design settles")
            .into_sole()
    });
    let (summary, summary_time) = timed(|| verifier.summary_listing());

    println!("TIMING VERIFIER EXECUTION STATISTICS        measured      paper");
    println!(
        "  reading input, building data structures   {:>9.3?}     4.45",
        build_time
    );
    println!(
        "  generating cross reference listings       {:>9.3?}     0.72",
        xref_time
    );
    println!(
        "  verifying circuit                          {:>9.3?}     6.75",
        verify_time
    );
    println!(
        "  generating timing summary listing         {:>9.3?}     0.22\n",
        summary_time
    );

    let events = result.events;
    let us_per_prim = verify_time.as_micros() as f64 / n_prims.max(1) as f64;
    let us_per_event = verify_time.as_micros() as f64 / events.max(1) as f64;
    println!("  events processed          {events:>10}      (paper: 20 052)");
    println!("  evaluations               {:>10}", result.evaluations);
    println!("  time per primitive        {us_per_prim:>10.1} us  (paper: 49 ms)");
    println!("  time per event            {us_per_event:>10.1} us  (paper: 20 ms)");
    println!(
        "  violations found          {:>10}",
        result.violations.len()
    );
    println!(
        "  xref / summary sizes      {:>10} / {} bytes",
        xref.len(),
        summary.len()
    );
}
