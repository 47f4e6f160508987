//! Soundness of the symbolic verifier against concrete simulation.
//!
//! The thesis' central safety claim: the single symbolic pass covers every
//! behaviour any concrete execution can exhibit. We check it by property:
//! generate random combinational circuits (seeded, std-only), run the
//! min/max logic simulator over every input pattern, and assert that
//! whenever the concrete simulation shows a signal changing (or settled at
//! a level), the symbolic waveform admits it at that instant.

use scald::logic::Value;
use scald::netlist::{Config, Conn, Netlist, NetlistBuilder, PrimKind, SignalId};
use scald::sim::{primary_inputs, simulate, SimValue, Stimulus};
use scald::verifier::{RunOptions, Verifier};
use scald::wave::{DelayRange, Time};
use scald_rng::Rng;

/// A recipe for one random gate layer.
#[derive(Debug, Clone)]
struct GateSpec {
    kind_sel: u8,
    in_a: u8,
    in_b: u8,
    delay_min_ps: i64,
    delay_spread_ps: i64,
    invert_a: bool,
}

fn gate_spec(rng: &mut Rng) -> GateSpec {
    GateSpec {
        kind_sel: rng.next_u32() as u8,
        in_a: rng.next_u32() as u8,
        in_b: rng.next_u32() as u8,
        delay_min_ps: rng.range_i64(0, 5_000),
        delay_spread_ps: rng.range_i64(0, 4_000),
        invert_a: rng.bool(),
    }
}

fn gate_specs(rng: &mut Rng) -> Vec<GateSpec> {
    (0..rng.range_usize(1, 6)).map(|_| gate_spec(rng)).collect()
}

fn gate_kind(sel: u8) -> PrimKind {
    match sel % 6 {
        0 => PrimKind::And,
        1 => PrimKind::Or,
        2 => PrimKind::Xor,
        3 => PrimKind::Nand,
        4 => PrimKind::Nor,
        _ => PrimKind::Not,
    }
}

/// Builds a DAG of random gates over three primary inputs. `input_suffix`
/// decorates the input names (e.g. with a `.S` assertion).
fn build_with_inputs(specs: &[GateSpec], input_suffix: &str) -> (Netlist, Vec<SignalId>) {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let mut pool: Vec<SignalId> = Vec::new();
    for i in 0..3 {
        pool.push(b.signal(&format!("IN{i}{input_suffix}")).expect("valid"));
    }
    for (i, g) in specs.iter().enumerate() {
        let out = b.signal(&format!("G{i}")).expect("valid");
        let kind = gate_kind(g.kind_sel);
        let a = pool[g.in_a as usize % pool.len()];
        let bsig = pool[g.in_b as usize % pool.len()];
        let delay = DelayRange::new(
            Time::from_ps(g.delay_min_ps),
            Time::from_ps(g.delay_min_ps + g.delay_spread_ps),
        );
        let conn_a = {
            let c = Conn::new(a).with_wire_delay(DelayRange::ZERO);
            if g.invert_a {
                c.inverted()
            } else {
                c
            }
        };
        let conn_b = Conn::new(bsig).with_wire_delay(DelayRange::ZERO);
        if kind == PrimKind::Not {
            b.gate(format!("G{i}"), kind, delay, [conn_a], out);
        } else {
            b.gate(format!("G{i}"), kind, delay, [conn_a, conn_b], out);
        }
        pool.push(out);
    }
    let n = b.finish().expect("random DAG is well-formed");
    (n, pool)
}

fn build(specs: &[GateSpec]) -> (Netlist, Vec<SignalId>) {
    build_with_inputs(specs, "")
}

/// Does the symbolic value admit the concrete simulation value?
///
/// Strict containment: `S` (stable, unknown level) admits steady levels
/// and the unknown-but-steady `X`, but **not** mid-transition values;
/// `R` admits rising ambiguity but not falling; only `C`/`U` admit spikes.
fn admits(sym: Value, conc: SimValue) -> bool {
    match conc {
        SimValue::Zero => sym.could_be_low(),
        SimValue::One => sym.could_be_high(),
        SimValue::X => !sym.is_constant(),
        SimValue::Up => matches!(sym, Value::Rise | Value::Change | Value::Unknown),
        SimValue::Down => matches!(sym, Value::Fall | Value::Change | Value::Unknown),
        SimValue::Spike => matches!(sym, Value::Change | Value::Unknown),
    }
}

/// For every input pattern and every signal, at the end of the cycle
/// the concrete settled value must be admitted by the symbolic one.
///
/// Inputs are undriven and unasserted, so the verifier assumes them
/// always stable — matching a stimulus that holds each input constant
/// for the whole (single-cycle) simulation.
#[test]
fn symbolic_pass_admits_every_concrete_run() {
    let mut rng = Rng::seed_from_u64(0x50d1);
    for _ in 0..48 {
        let specs = gate_specs(&mut rng);
        let (netlist, pool) = build(&specs);

        let mut v = Verifier::new(netlist.clone());
        if v.run(&RunOptions::new()).is_err() {
            continue;
        }

        let inputs = primary_inputs(&netlist);
        let sample_at = Time::from_ns(49.9); // end of cycle, everything settled
        for pattern in 0..(1u64 << inputs.len()) {
            let stim = Stimulus::from_pattern(&inputs, 1, pattern);
            let sim = simulate(&netlist, &stim);
            for &sid in &pool {
                let sym = v.resolved(sid).value_at(sample_at);
                let conc = sim.final_values[sid.index()];
                assert!(
                    admits(sym, conc),
                    "signal {} pattern {:b}: symbolic {} does not admit concrete {}",
                    netlist.signal(sid).name(),
                    pattern,
                    sym,
                    conc
                );
            }
        }
    }
}

/// Determinism: running the verifier twice on the same netlist gives
/// identical waveforms.
#[test]
fn verifier_is_deterministic() {
    let mut rng = Rng::seed_from_u64(0x50d2);
    for _ in 0..48 {
        let specs = gate_specs(&mut rng);
        let (n1, pool) = build(&specs);
        let (n2, _) = build(&specs);
        let mut v1 = Verifier::new(n1);
        let mut v2 = Verifier::new(n2);
        let r1 = v1.run(&RunOptions::new());
        let r2 = v2.run(&RunOptions::new());
        if r1.is_err() || r2.is_err() {
            continue;
        }
        for &sid in &pool {
            assert_eq!(v1.resolved(sid), v2.resolved(sid));
        }
        assert_eq!(
            r1.unwrap().into_sole().events,
            r2.unwrap().into_sole().events
        );
    }
}

/// The stronger per-instant containment property: at every sampled
/// instant of every concrete run, the concrete simulation value is
/// admitted by the symbolic waveform at that instant (modulo the
/// period). This is the full §2.1 safety claim, not just its
/// end-of-cycle shadow.
///
/// Combinational circuits with always-stable inputs settle within the
/// first cycle, so instants in cycle 2 are steady state.
#[test]
fn symbolic_waveform_admits_concrete_trace() {
    let mut rng = Rng::seed_from_u64(0x50d3);
    for _ in 0..32 {
        let specs = gate_specs(&mut rng);
        let sample_offsets: Vec<i64> = (0..8).map(|_| rng.range_i64(0, 50_000)).collect();
        let (netlist, pool) = build(&specs);
        let mut v = Verifier::new(netlist.clone());
        if v.run(&RunOptions::new()).is_err() {
            continue;
        }
        let period = Time::from_ns(50.0);

        let inputs = primary_inputs(&netlist);
        for pattern in 0..(1u64 << inputs.len()) {
            // Unasserted inputs are assumed *always stable* by the
            // verifier (§2.5), so the concrete run must hold them constant
            // across both cycles: one bit per input.
            let mut stim = Stimulus {
                cycles: 2,
                inputs: Default::default(),
            };
            for (i, sid) in inputs.iter().enumerate() {
                let v = (pattern >> i) & 1 == 1;
                stim.inputs.insert(*sid, vec![v, v]);
            }
            let sim = simulate(&netlist, &stim);
            for &sid in &pool {
                for &off in &sample_offsets {
                    // Sample within cycle 2 (steady state).
                    let t_abs = period + Time::from_ps(off);
                    let conc = sim.value_at(sid, t_abs);
                    let sym = v.resolved(sid).value_at(Time::from_ps(off));
                    assert!(
                        admits(sym, conc),
                        "signal {} pattern {:b} t={}: symbolic {} !>= concrete {}",
                        netlist.signal(sid).name(),
                        pattern,
                        Time::from_ps(off),
                        sym,
                        conc
                    );
                }
            }
        }
    }
}

/// The same per-instant containment with inputs that *do* change —
/// declared via `.S` assertions whose changing window covers the cycle
/// boundary where the stimulus toggles them. The symbolic envelope
/// must absorb the resulting concrete transients.
#[test]
fn symbolic_envelope_admits_toggling_inputs() {
    let mut rng = Rng::seed_from_u64(0x50d4);
    for _ in 0..32 {
        let specs = gate_specs(&mut rng);
        let sample_offsets: Vec<i64> = (0..8).map(|_| rng.range_i64(0, 50_000)).collect();
        // Asserted inputs: stable from unit 1.5 on, changing 0..9.375 ns —
        // covering the boundary toggles plus input transients.
        let (netlist, pool) = build_with_inputs(&specs, " .S1.5-8");

        let mut v = Verifier::new(netlist.clone());
        if v.run(&RunOptions::new()).is_err() {
            continue;
        }
        let period = Time::from_ns(50.0);

        let inputs = primary_inputs(&netlist);
        for pattern in 0..(1u64 << inputs.len()) {
            // Each input toggles at the cycle-2 boundary (t = 50 ns),
            // inside its asserted changing window.
            let mut stim = Stimulus {
                cycles: 2,
                inputs: Default::default(),
            };
            for (i, sid) in inputs.iter().enumerate() {
                let first = (pattern >> i) & 1 == 1;
                stim.inputs.insert(*sid, vec![first, !first]);
            }
            let sim = simulate(&netlist, &stim);
            for &sid in &pool {
                for &off in &sample_offsets {
                    let t_abs = period + Time::from_ps(off);
                    let conc = sim.value_at(sid, t_abs);
                    let sym = v.resolved(sid).value_at(Time::from_ps(off));
                    assert!(
                        admits(sym, conc),
                        "signal {} pattern {:b} t={}: symbolic {} !>= concrete {}",
                        netlist.signal(sid).name(),
                        pattern,
                        Time::from_ps(off),
                        sym,
                        conc
                    );
                }
            }
        }
    }
}
