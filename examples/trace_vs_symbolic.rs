//! Visual soundness demo: a concrete min/max simulation trace rendered
//! beside the symbolic verification envelope.
//!
//! The symbolic waveform (one pass) must *contain* every concrete run;
//! this example picks one input pattern, simulates two cycles, and prints
//! cycle 2 of the concrete trace under the symbolic rows so the
//! containment is visible: concrete `_`/`~` always sits inside symbolic
//! `_`/`~`/`=`/`x` regions.
//!
//! Run with: `cargo run --example trace_vs_symbolic`

use scald::logic::Value;
use scald::netlist::{Config, Conn, NetlistBuilder};
use scald::sim::{primary_inputs, simulate, SimValue, Stimulus};
use scald::verifier::{RunOptions, Verifier};
use scald::wave::{DelayRange, Time};

fn sim_glyph(v: SimValue) -> char {
    match v {
        SimValue::Zero => '_',
        SimValue::One => '~',
        SimValue::X => '?',
        SimValue::Up => '/',
        SimValue::Down => '\\',
        SimValue::Spike => '!',
    }
}

fn sym_glyph(v: Value) -> char {
    match v {
        Value::Zero => '_',
        Value::One => '~',
        Value::Stable => '=',
        Value::Change => 'x',
        Value::Rise => '/',
        Value::Fall => '\\',
        Value::Unknown => '?',
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    let a = b.signal("A .S1.5-8")?;
    let c = b.signal("B .S1.5-8")?;
    let x = b.signal("X")?;
    let y = b.signal("Y")?;
    b.and2("G1", DelayRange::from_ns(3.0, 8.0), z(a), z(c), x);
    b.gate(
        "G2",
        scald::netlist::PrimKind::Xor,
        DelayRange::from_ns(2.0, 6.0),
        [z(x), z(c)],
        y,
    );
    let netlist = b.finish()?;

    let mut v = Verifier::new(netlist.clone());
    v.run(&RunOptions::new())?;

    let inputs = primary_inputs(&netlist);
    let pattern = 0b1101; // A: 1 then 0; B: 1 then 1 (bits per input x cycle)
    let sim = simulate(&netlist, &Stimulus::from_pattern(&inputs, 2, pattern));

    let period = Time::from_ns(50.0);
    let columns = 64usize;
    println!(
        "pattern {pattern:04b}: per signal, 'sym' is the one-pass symbolic \
         envelope, 'sim' is cycle 2 of this concrete run\n"
    );
    for (sid, sig) in netlist.iter_signals() {
        let wave = v.resolved(sid);
        let mut sym_row = String::new();
        let mut sim_row = String::new();
        for col in 0..columns {
            let off = Time::from_ps(period.as_ps() * (2 * col as i64 + 1) / (2 * columns as i64));
            sym_row.push(sym_glyph(wave.value_at(off)));
            sim_row.push(sim_glyph(sim.value_at(sid, period + off)));
        }
        println!("{:<4} sym  {sym_row}", sig.name());
        println!("{:<4} sim  {sim_row}\n", "");
    }
    println!("every concrete glyph lies inside the symbolic envelope above it.");
    Ok(())
}
