//! Incremental case-analysis cost (§2.7, §3.3.2).
//!
//! The thesis: "The amount of time required to analyze an additional case
//! is proportional to the number of events which have to be processed for
//! that case. In general, only those signals which are affected by the
//! case analysis need to be recalculated."
//!
//! This harness builds an S-1-like design, adds per-slice control signals,
//! and runs a sequence of cases each touching one control — measuring the
//! per-case evaluation counts against the full first pass.
//!
//! Usage: `cargo run -p scald-bench --bin case_cost --release [--chips N]`

use scald_bench::harness::{ctl_cases, flags, s1_netlist, timed};
use scald_verifier::{Case, CaseSet, RunOptions, Verifier};

fn main() {
    let chips = flags(|f| f.get("--chips", 2000));
    let (netlist, stats) = s1_netlist(chips);
    println!(
        "INCREMENTAL CASE COST — {} chips, {} primitives\n",
        stats.chips, stats.prims
    );

    // Case 0: no overrides (the full pass). Cases 1..: flip one global
    // control signal each, alternating polarity.
    let mut cases = vec![Case::new()];
    cases.extend(ctl_cases());

    let mut v = Verifier::new(netlist);
    let (outcome, total) = timed(|| {
        v.run(&RunOptions::new().cases(CaseSet::list(cases.iter().cloned())))
            .expect("design settles")
    });
    let results = outcome.cases;

    println!(
        "{:<34} {:>12} {:>10} {:>12}",
        "CASE", "EVALUATIONS", "EVENTS", "% OF FULL"
    );
    let full = results[0].evaluations.max(1);
    for r in &results {
        println!(
            "{:<34} {:>12} {:>10} {:>11.1}%",
            r.name,
            r.evaluations,
            r.events,
            100.0 * r.evaluations as f64 / full as f64
        );
    }
    let incremental: u64 = results[1..].iter().map(|r| r.evaluations).sum();
    println!(
        "\n8 additional cases cost {incremental} evaluations total \
         ({:.1}% of one full pass each, on average)",
        100.0 * incremental as f64 / 8.0 / full as f64
    );
    println!(
        "total wall time for all {} cases: {total:.2?}",
        results.len()
    );

    // Serial vs. parallel wall-clock for the same case sweep, on fresh
    // engines so both paths pay the same base settle.
    println!("\nSERIAL VS PARALLEL WALL-CLOCK (same cases, fresh engine each)");
    println!("{:<10} {:>14} {:>10}", "JOBS", "WALL", "SPEEDUP");
    let time_with = |jobs: usize| {
        let (netlist, _) = s1_netlist(chips);
        let mut v = Verifier::new(netlist);
        let options = RunOptions::new()
            .cases(CaseSet::list(cases.iter().cloned()))
            .jobs(jobs);
        let (_, wall) = timed(|| v.run(&options).expect("design settles"));
        wall
    };
    let serial = time_with(1);
    println!("{:<10} {:>14.2?} {:>9.2}x", "serial", serial, 1.0);
    for jobs in [2, 4, scald_bench::default_jobs()] {
        let par = time_with(jobs);
        println!(
            "{:<10} {:>14.2?} {:>9.2}x",
            jobs,
            par,
            serial.as_secs_f64() / par.as_secs_f64()
        );
    }
    println!(
        "\npaper (§3.3.2): the cost of an additional case is proportional \
         to the events its overrides trigger — not to design size."
    );
}
