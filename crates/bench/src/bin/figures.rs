//! Regenerates the figure-level results in one run: Fig 1-5 (hazard),
//! Fig 2-5/3-10/3-11 (register file), Fig 2-6 (case analysis), Fig 2-8/2-9
//! (skew), Fig 3-12 (ALU stage), Fig 4-1/4-2 (correlation).
//!
//! Usage: `cargo run -p scald-bench --bin figures --release`

use scald_gen::figures::{
    alu_stage, case_analysis_circuit, correlation_circuit, hazard_circuit, register_file_circuit,
};
use scald_logic::Value;
use scald_verifier::{CaseSet, RunOptions, Verifier, ViolationKind};
use scald_wave::{DelayRange, Skew, Time, Waveform};

fn ns(x: f64) -> Time {
    Time::from_ns(x)
}

fn main() {
    scald_bench::harness::flags(|_| ());
    println!("== Fig 1-5: gated-clock hazard ==");
    let mut v = Verifier::new(hazard_circuit(true));
    let r = v.run(&RunOptions::new()).expect("settles").into_sole();
    println!(
        "  with &A directive : {} hazard violation(s)  [paper: the class of error the directive exists for]",
        r.of_kind(ViolationKind::Hazard).len()
    );
    let mut v = Verifier::new(hazard_circuit(false));
    let r = v.run(&RunOptions::new()).expect("settles").into_sole();
    println!(
        "  without directive : {} potential-runt-pulse violation(s) (5 ns spurious pulse)",
        r.of_kind(ViolationKind::MinPulseHigh).len()
    );

    println!("\n== Fig 2-5 / 3-10 / 3-11: register file ==");
    let (netlist, handles) = register_file_circuit();
    let mut v = Verifier::new(netlist);
    let r = v.run(&RunOptions::new()).expect("settles").into_sole();
    let setups = r.of_kind(ViolationKind::Setup);
    println!(
        "  violations: {} (paper: 2 setup-error groups)",
        r.violations.len()
    );
    for s in &setups {
        println!(
            "    {} missed by {}",
            s.source,
            s.missed_by.map_or_else(|| "?".into(), |m| m.to_string())
        );
    }
    println!("  ADR over the cycle: {}", v.resolved(handles.adr));
    println!("  paper (Fig 3-10) : S 0.0 C 0.5 S 5.5 C 25.5 S 30.5");

    println!("\n== Fig 2-6: case analysis ==");
    let (netlist, (_, _, out)) = case_analysis_circuit();
    let mut v = Verifier::new(netlist);
    v.run(&RunOptions::new()).expect("settles");
    let blind = v.resolved(out);
    let (netlist, (_, _, out)) = case_analysis_circuit();
    let mut v = Verifier::new(netlist);
    let results = v
        .run(&RunOptions::new().cases(CaseSet::exhaustive(["CONTROL SIGNAL"])))
        .expect("settles")
        .cases;
    let cased = v.resolved(out);
    println!("  without cases: OUTPUT = {blind}   (40 ns phantom path)");
    println!("  with cases   : OUTPUT = {cased}   (true 30 ns path, both cases)");
    println!(
        "  incremental  : case 2 took {} evaluations vs {} for case 1",
        results[1].evaluations, results[0].evaluations
    );

    println!("\n== Fig 2-8 / 2-9: separated skew ==");
    let period = ns(50.0);
    let input = Waveform::from_intervals(period, Value::Zero, [(ns(5.0), ns(15.0), Value::One)]);
    let gate = DelayRange::from_ns(5.0, 10.0);
    let delayed = input.delayed(gate.min);
    let skew = Skew::ZERO.after_delay(gate);
    println!("  Z delayed by min, skew separate : {delayed}  skew {skew}");
    println!(
        "  Z with skew folded (Fig 2-9)    : {}",
        delayed.with_skew_applied(skew)
    );

    println!("\n== Fig 3-12: ALU pipeline stage ==");
    let (netlist, latched) = alu_stage();
    let mut v = Verifier::new(netlist);
    let r = v.run(&RunOptions::new()).expect("settles").into_sole();
    println!(
        "  {} violations (stage verifies in isolation via interface assertions)",
        r.violations.len()
    );
    println!("  ALU LATCHED: {}", v.resolved(latched));

    println!("\n== Fig 4-1 / 4-2: correlation false error ==");
    let mut v = Verifier::new(correlation_circuit(false));
    let r = v.run(&RunOptions::new()).expect("settles").into_sole();
    println!(
        "  without CORR: {} hold violation(s) — FALSE error from ignored correlation",
        r.of_kind(ViolationKind::Hold).len()
    );
    let mut v = Verifier::new(correlation_circuit(true));
    let r = v.run(&RunOptions::new()).expect("settles").into_sole();
    println!(
        "  with CORR   : {} hold violation(s) — suppressed by the fictitious delay",
        r.of_kind(ViolationKind::Hold).len()
    );
}
