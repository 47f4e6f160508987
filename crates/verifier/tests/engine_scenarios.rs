//! End-to-end engine scenarios drawn from the thesis' figures:
//! register clocking, the gated-clock hazard of Fig 1-5, the case-analysis
//! circuit of Fig 2-6, evaluation directives, latches and assertions.

use scald_logic::Value;
use scald_netlist::{Config, Conn, NetlistBuilder};
use scald_verifier::{
    Case, CaseSet, CheckMargin, RunOptions, Verifier, VerifyError, ViolationKind,
};
use scald_wave::{DelayRange, Time};

fn ns(x: f64) -> Time {
    Time::from_ns(x)
}

fn builder() -> NetlistBuilder {
    NetlistBuilder::new(Config::s1_example())
}

#[test]
fn register_output_timing_follows_clock_edge() {
    let mut b = builder();
    // Clock high units 2-3 (12.5..18.75 ns), zero skew for exactness.
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S0-6", 32).unwrap();
    let q = b.signal_vec("Q", 32).unwrap();
    // Zero wire delay for a precise check.
    b.reg(
        "R",
        DelayRange::from_ns(1.5, 4.5),
        Conn::new(clk).with_wire_delay(DelayRange::ZERO),
        Conn::new(d).with_wire_delay(DelayRange::ZERO),
        q,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    assert!(r.is_clean(), "{r}");
    let qw = v.resolved(v.netlist().signal_by_name("Q").unwrap());
    // Edge at 12.5; output changing over [12.5+1.5, 12.5+4.5) = [14, 17).
    assert_eq!(qw.value_at(ns(13.9)), Value::Stable);
    assert_eq!(qw.value_at(ns(14.0)), Value::Change);
    assert_eq!(qw.value_at(ns(16.9)), Value::Change);
    assert_eq!(qw.value_at(ns(17.0)), Value::Stable);
    assert_eq!(qw.value_at(ns(40.0)), Value::Stable);
}

#[test]
fn register_latches_constant_data_value() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let one = b.signal("ONE").unwrap();
    let q = b.signal("Q").unwrap();
    b.constant("K1", Value::One, one);
    b.reg(
        "R",
        DelayRange::from_ns(1.0, 1.0),
        Conn::new(clk).with_wire_delay(DelayRange::ZERO),
        Conn::new(one).with_wire_delay(DelayRange::ZERO),
        q,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let qw = v.resolved(v.netlist().signal_by_name("Q").unwrap());
    // After the change window the output is the latched 1, not just S.
    assert_eq!(qw.value_at(ns(30.0)), Value::One);
}

#[test]
fn setup_violation_detected_with_margin() {
    let mut b = builder();
    // Clock rises at unit 2 = 12.5 ns (zero skew); data stable 2-6 only:
    // it goes stable exactly when the clock rises.
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S2-6", 16).unwrap();
    let q = b.signal_vec("Q", 16).unwrap();
    b.reg(
        "R",
        DelayRange::from_ns(1.5, 4.5),
        Conn::new(clk).with_wire_delay(DelayRange::ZERO),
        Conn::new(d).with_wire_delay(DelayRange::ZERO),
        q,
    );
    b.setup_hold(
        "R CHK",
        ns(2.5),
        ns(1.5),
        Conn::new(d).with_wire_delay(DelayRange::ZERO),
        Conn::new(clk).with_wire_delay(DelayRange::ZERO),
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    let setups = r.of_kind(ViolationKind::Setup);
    assert_eq!(setups.len(), 1, "{r}");
    // Data stable exactly at the edge: missed by the full 2.5 ns, the
    // shape of the first error in Fig 3-11.
    assert_eq!(setups[0].missed_by, Some(ns(2.5)));
}

#[test]
fn wire_delay_defaults_push_data_late() {
    let mut b = builder();
    // Same circuit but with the default 0.0/2.0 ns wire delays: the data
    // arrives up to 2 ns later at the pin, the clock too; the check sees
    // skewed windows.
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S1-6", 16).unwrap();
    let q = b.signal_vec("Q", 16).unwrap();
    b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
    b.setup_hold("R CHK", ns(2.5), ns(1.5), d, clk);
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    // Data stable at unit 1 = 6.25 ns nominal, but up to +2 wire = 8.25.
    // Clock edge window 12.5..14.5 (its own wire spread). Setup available
    // = 12.5 - 8.25 = 4.25 >= 2.5: clean.
    assert!(r.is_clean(), "{r}");
}

/// Fig 1-5: a too-late enable gates a clock; the `&A` check reports the
/// control hazard, and a MIN PULSE WIDTH checker flags the runt pulse.
#[test]
fn gated_clock_hazard_fig_1_5() {
    let mut b = builder();
    // CLOCK high 20..30 ns (units 3.2-4.8), no skew.
    let clock = b.signal("CLOCK .P3.2-4.8 (0,0)").unwrap();
    // DISABLE high 20..30; ENABLE = NOT(DISABLE) with up to 5 ns delay, so
    // ENABLE is still high for up to 5 ns after the clock rises.
    let disable = b.signal("DISABLE .P3.2-4.8 (0,0)").unwrap();
    let enable = b.signal("ENABLE").unwrap();
    let regck = b.signal("REG CLOCK").unwrap();
    b.not(
        "EN GATE",
        DelayRange::from_ns(0.0, 5.0),
        Conn::new(disable).with_wire_delay(DelayRange::ZERO),
        enable,
    );
    b.and2(
        "CK GATE",
        DelayRange::ZERO,
        Conn::new(clock)
            .with_directive("A")
            .with_wire_delay(DelayRange::ZERO),
        Conn::new(enable).with_wire_delay(DelayRange::ZERO),
        regck,
    );
    b.min_pulse_width(
        "REG CK WIDTH",
        ns(4.0),
        ns(0.0),
        Conn::new(regck).with_wire_delay(DelayRange::ZERO),
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    let hazards = r.of_kind(ViolationKind::Hazard);
    assert_eq!(hazards.len(), 1, "{r}");
    assert!(hazards[0].observed.iter().any(|l| l.contains("ENABLE")));
}

/// The same circuit *without* the `&A` directive: the worst-case AND
/// output carries a potential 5 ns runt pulse, caught by the width check.
#[test]
fn gated_clock_runt_pulse_without_directive() {
    let mut b = builder();
    let clock = b.signal("CLOCK .P3.2-4.8 (0,0)").unwrap();
    let disable = b.signal("DISABLE .P3.2-4.8 (0,0)").unwrap();
    let enable = b.signal("ENABLE").unwrap();
    let regck = b.signal("REG CLOCK").unwrap();
    b.not(
        "EN GATE",
        DelayRange::from_ns(0.0, 5.0),
        Conn::new(disable).with_wire_delay(DelayRange::ZERO),
        enable,
    );
    b.and2(
        "CK GATE",
        DelayRange::ZERO,
        Conn::new(clock).with_wire_delay(DelayRange::ZERO),
        Conn::new(enable).with_wire_delay(DelayRange::ZERO),
        regck,
    );
    b.min_pulse_width(
        "REG CK WIDTH",
        ns(4.0),
        ns(0.0),
        Conn::new(regck).with_wire_delay(DelayRange::ZERO),
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    let widths = r.of_kind(ViolationKind::MinPulseHigh);
    assert_eq!(widths.len(), 1, "{r}");
    assert!(
        widths[0].constraint.contains("POTENTIAL SPURIOUS PULSE"),
        "{}",
        widths[0].constraint
    );
}

/// Builds the Fig 2-6 circuit: two multiplexers whose selects are
/// complementary, with 10/20 ns paths, so the real worst path is 30 ns —
/// but value-independent analysis sees 40 ns.
fn fig_2_6_circuit() -> Verifier {
    let mut b = builder();
    let input = b.signal("INPUT .S0-4").unwrap();
    let ctrl = b.signal("CONTROL SIGNAL .S0-8").unwrap();
    let d10 = b.signal("D10").unwrap();
    let d20 = b.signal("D20").unwrap();
    let m1 = b.signal("M1").unwrap();
    let m1d10 = b.signal("M1 D10").unwrap();
    let m1d20 = b.signal("M1 D20").unwrap();
    let output = b.signal("OUTPUT").unwrap();
    let z = DelayRange::ZERO;
    let w = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.delay("P10", DelayRange::from_ns(10.0, 10.0), w(input), d10);
    b.delay("P20", DelayRange::from_ns(20.0, 20.0), w(input), d20);
    b.mux2("MUX1", z, w(ctrl), w(d10), w(d20), m1);
    b.delay("Q10", DelayRange::from_ns(10.0, 10.0), w(m1), m1d10);
    b.delay("Q20", DelayRange::from_ns(20.0, 20.0), w(m1), m1d20);
    // Complementary select: when CONTROL = 0, MUX1 took the 10 ns path and
    // MUX2 must take the 20 ns one.
    b.mux2("MUX2", z, w(ctrl).inverted(), w(m1d10), w(m1d20), output);
    Verifier::new(b.finish().unwrap())
}

#[test]
fn case_analysis_fig_2_6_recovers_30ns_path() {
    // Without case analysis: CONTROL is S, both muxes join both paths,
    // and the output looks changing for the 40 ns worst case.
    let mut v = fig_2_6_circuit();
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    assert!(r.is_clean());
    let out = v.netlist().signal_by_name("OUTPUT").unwrap();
    // INPUT changes 25..50; via the phantom 40 ns path the output could
    // still be changing at 35 ns (25+10 .. 50+40 wraps to 35..40).
    assert!(
        v.resolved(out).value_at(ns(36.0)).is_transitioning(),
        "no-case analysis should see the pessimistic 40 ns path: {}",
        v.resolved(out)
    );

    // With the two cases of §2.7.1 the path is 30 ns in both, so the
    // output is stable at 36 ns (changing only 35..(25+30)=5).
    let mut v = fig_2_6_circuit();
    let cases = [
        Case::new().assign("CONTROL SIGNAL", false),
        Case::new().assign("CONTROL SIGNAL", true),
    ];
    let results = v
        .run(&RunOptions::new().cases(CaseSet::list(cases.iter().cloned())))
        .unwrap()
        .cases;
    assert_eq!(results.len(), 2);
    for r in &results {
        assert!(r.is_clean(), "{r}");
        let w = v.resolved(out);
        // Verified per case inside the loop isn't possible here, so check
        // after the last case (CONTROL = 1: 20 + 10 ns path).
        let _ = r;
        assert!(
            !w.value_at(ns(36.0)).is_transitioning() || r.name.contains("case 1"),
            "case analysis should recover the 30 ns path: {w}"
        );
    }
    // Later cases are incremental: far fewer evaluations than the first.
    assert!(results[1].evaluations <= results[0].evaluations);
}

#[test]
fn case_analysis_unknown_signal_errors() {
    let mut v = fig_2_6_circuit();
    let err = v
        .run(&RunOptions::new().case(Case::new().assign("NO SUCH", true)))
        .unwrap_err();
    assert!(matches!(err, VerifyError::UnknownCaseSignal { .. }));
}

#[test]
fn z_directive_dereferences_clock_to_gate_output() {
    // A clock ANDed with a constant one through a slow gate: with &Z the
    // asserted clock timing refers to the gate output, so the output
    // equals the asserted waveform exactly.
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let one = b.signal("ONE").unwrap();
    let gated = b.signal("GATED CK").unwrap();
    b.constant("K1", Value::One, one);
    b.and2(
        "CK BUF",
        DelayRange::from_ns(2.0, 4.0),
        Conn::new(clk).with_directive("Z"),
        Conn::new(one).with_wire_delay(DelayRange::ZERO),
        gated,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let g = v.netlist().signal_by_name("GATED CK").unwrap();
    let w = v.resolved(g);
    // Rising edge exactly at 12.5 ns — no wire, no gate delay.
    assert_eq!(w.value_at(ns(12.4)), Value::Zero);
    assert_eq!(w.value_at(ns(12.5)), Value::One);
    assert_eq!(w.value_at(ns(18.74)), Value::One);
    assert_eq!(w.value_at(ns(18.75)), Value::Zero);
}

#[test]
fn without_z_directive_gate_delay_applies() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let one = b.signal("ONE").unwrap();
    let gated = b.signal("GATED CK").unwrap();
    b.constant("K1", Value::One, one);
    b.and2(
        "CK BUF",
        DelayRange::from_ns(2.0, 4.0),
        Conn::new(clk).with_wire_delay(DelayRange::ZERO),
        Conn::new(one).with_wire_delay(DelayRange::ZERO),
        gated,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let g = v.netlist().signal_by_name("GATED CK").unwrap();
    let w = v.resolved(g);
    // Shifted by 2 ns minimum, with a 2 ns rise window from the spread.
    assert_eq!(w.value_at(ns(14.4)), Value::Zero);
    assert_eq!(w.value_at(ns(14.5)), Value::Rise);
    assert_eq!(w.value_at(ns(16.5)), Value::One);
}

#[test]
fn latch_transparent_then_holds() {
    let mut b = builder();
    let en = b.signal("EN .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S0-6", 8).unwrap();
    let q = b.signal_vec("Q", 8).unwrap();
    b.latch(
        "L",
        DelayRange::from_ns(1.0, 1.0),
        Conn::new(en).with_wire_delay(DelayRange::ZERO),
        Conn::new(d).with_wire_delay(DelayRange::ZERO),
        q,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    assert!(r.is_clean(), "{r}");
    let qw = v.resolved(v.netlist().signal_by_name("Q").unwrap());
    // Data is stable while the latch is open (13.5..19.75 after delay) and
    // the held value is stable thereafter.
    assert!(qw.value_at(ns(15.0)).is_quiescent());
    assert!(qw.value_at(ns(30.0)).is_quiescent());
}

#[test]
fn latch_passes_changing_data_while_open() {
    let mut b = builder();
    // Data changes during the transparent phase: units 2-3 are inside the
    // changing region of .S4-8 (changing 0..25 ns... stable 25..50).
    let en = b.signal("EN .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S4-8", 8).unwrap();
    let q = b.signal_vec("Q", 8).unwrap();
    b.latch(
        "L",
        DelayRange::from_ns(1.0, 1.0),
        Conn::new(en).with_wire_delay(DelayRange::ZERO),
        Conn::new(d).with_wire_delay(DelayRange::ZERO),
        q,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let qw = v.resolved(v.netlist().signal_by_name("Q").unwrap());
    // While open (enable high 12.5..18.75 + 1 delay) the changing data
    // shows through.
    assert!(qw.value_at(ns(15.0)).is_transitioning(), "{qw}");
}

#[test]
fn register_set_reset_overrides() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S0-6", 8).unwrap();
    let set = b.signal("SET").unwrap();
    let rst = b.signal("RST").unwrap();
    let q = b.signal_vec("Q", 8).unwrap();
    b.constant("KS", Value::One, set);
    b.constant("KR", Value::Zero, rst);
    b.reg_sr(
        "R",
        DelayRange::from_ns(1.0, 2.0),
        Conn::new(clk).with_wire_delay(DelayRange::ZERO),
        Conn::new(d).with_wire_delay(DelayRange::ZERO),
        Conn::new(set).with_wire_delay(DelayRange::ZERO),
        Conn::new(rst).with_wire_delay(DelayRange::ZERO),
        q,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let qw = v.resolved(v.netlist().signal_by_name("Q").unwrap());
    // SET = 1, RESET = 0: output forced to one for the whole cycle.
    assert!(qw.is_constant());
    assert_eq!(qw.value_at(ns(0.0)), Value::One);
}

#[test]
fn stable_assertion_on_generated_signal_checked() {
    let mut b = builder();
    // An adder (CHG) output asserted stable 0-4, but its input only goes
    // stable at unit 4 — the assertion is violated.
    let input = b.signal("IN .S4-8").unwrap();
    let sum = b.signal("SUM .S0-4").unwrap();
    b.chg(
        "ADDER",
        DelayRange::from_ns(3.0, 6.0),
        [Conn::new(input).with_wire_delay(DelayRange::ZERO)],
        sum,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    let vio = r.of_kind(ViolationKind::AssertionViolated);
    assert_eq!(vio.len(), 1, "{r}");
    assert!(vio[0].source.contains("SUM"));
}

#[test]
fn stable_assertion_satisfied_is_clean() {
    let mut b = builder();
    // Input stable 0-6; adder adds at most 6 ns + 2 wire: output stable
    // well within its asserted 1.5-6 window... choose assertion 2-6.
    let input = b.signal("IN .S0-6").unwrap();
    let sum = b.signal("SUM .S2-6").unwrap();
    b.chg(
        "ADDER",
        DelayRange::from_ns(3.0, 6.0),
        [Conn::new(input).with_wire_delay(DelayRange::ZERO)],
        sum,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    assert!(r.is_clean(), "{r}");
}

#[test]
fn undriven_unasserted_signals_assumed_stable_and_crossreferenced() {
    let mut b = builder();
    let mystery = b.signal("NOT YET DESIGNED").unwrap();
    let out = b.signal("OUT").unwrap();
    b.buf("B", DelayRange::from_ns(1.0, 2.0), mystery, out);
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    assert!(r.is_clean());
    assert_eq!(v.assumed_stable_signals().len(), 1);
    assert!(v.xref_listing().contains("NOT YET DESIGNED"));
    let ow = v.resolved(v.netlist().signal_by_name("OUT").unwrap());
    assert!(ow.is_constant());
    assert_eq!(ow.value_at(ns(0.0)), Value::Stable);
}

#[test]
fn oscillating_loop_is_detected_not_hung() {
    let mut b = builder();
    // out = MUX(clock01, NOT(out delayed 5), 1): while the clock is low
    // the loop keeps inverting itself — a genuine oscillation.
    let clk = b.signal("CK .P0-4 (0,0)").unwrap();
    let fb = b.signal("FB").unwrap();
    let out = b.signal("OUT").unwrap();
    let w = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.not("INV", DelayRange::from_ns(5.0, 5.0), w(out), fb);
    let one = b.signal("ONE").unwrap();
    b.constant("K1", Value::One, one);
    b.mux2("M", DelayRange::ZERO, w(clk), w(fb), w(one), out);
    let mut v = Verifier::new(b.finish().unwrap());
    match v.run(&RunOptions::new()) {
        Err(VerifyError::Oscillation { evaluations, .. }) => {
            assert!(evaluations > 0);
        }
        Ok(r) => {
            // If the worst-case algebra absorbed the loop into C/U values,
            // settling is also acceptable — but it must terminate.
            let _ = r;
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn summary_listing_shows_signal_values() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S0-6", 8).unwrap();
    let q = b.signal_vec("Q", 8).unwrap();
    b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let listing = v.summary_listing();
    assert!(listing.contains("CK .P2-3"));
    assert!(listing.contains("Q"));
    // Each line carries a waveform rendering.
    assert!(listing
        .lines()
        .all(|l| l.trim().is_empty() || l.contains(char::is_numeric)));
}

#[test]
fn storage_report_totals_are_consistent() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3").unwrap();
    let d = b.signal_vec("D .S0-6", 8).unwrap();
    let q = b.signal_vec("Q", 8).unwrap();
    b.reg("R", DelayRange::from_ns(1.5, 4.5), clk, d, q);
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let report = v.storage_report();
    let sum: usize = report.rows().iter().map(|(_, b, _)| b).sum();
    assert_eq!(sum, report.total());
    assert!(report.value_records_per_signal() >= 1.0);
    let shown = report.to_string();
    assert!(shown.contains("CIRCUIT DESCRIPTION"));
    assert!(shown.contains("CALL LIST ARRAY"));
}

#[test]
fn events_are_counted() {
    let mut b = builder();
    let a = b.signal("A .S0-4").unwrap();
    let q1 = b.signal("Q1").unwrap();
    let q2 = b.signal("Q2").unwrap();
    b.buf("B1", DelayRange::from_ns(1.0, 2.0), a, q1);
    b.buf("B2", DelayRange::from_ns(1.0, 2.0), q1, q2);
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    // Both buffers produce new values at least once.
    assert!(r.events >= 2, "{}", r.events);
    assert!(r.evaluations >= r.events);
    assert_eq!(v.total_events(), r.events);
}

#[test]
fn chg_absorbs_values_but_tracks_changing() {
    let mut b = builder();
    let a = b.signal("A .S0-4").unwrap();
    let clkish = b.signal("CKX .P2-3 (0,0)").unwrap();
    let out = b.signal("PARITY").unwrap();
    let w = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.chg("PAR", DelayRange::from_ns(1.5, 3.0), [w(a), w(clkish)], out);
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let ow = v.resolved(v.netlist().signal_by_name("PARITY").unwrap());
    // The clock's edges at 12.5/18.75 appear as changing windows
    // (1.5..3.0 after each edge), the 0/1 levels are absorbed into S.
    assert_eq!(ow.value_at(ns(10.0)), Value::Stable);
    assert!(ow.value_at(ns(15.0)).is_transitioning());
    assert_eq!(ow.value_at(ns(17.0)), Value::Stable);
    assert!(ow.value_at(ns(21.0)).is_transitioning());
}

#[test]
fn inverted_connection_complement() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let q = b.signal("NCK").unwrap();
    b.buf(
        "B",
        DelayRange::ZERO,
        Conn::new(clk).inverted().with_wire_delay(DelayRange::ZERO),
        q,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let w = v.resolved(v.netlist().signal_by_name("NCK").unwrap());
    assert_eq!(w.value_at(ns(15.0)), Value::Zero); // clock is high here
    assert_eq!(w.value_at(ns(30.0)), Value::One);
}

/// Fig 1-3: the cross-coupled-NOR set-reset latch — an *asynchronous*
/// circuit outside the approach's scope (§1.2.4). The engine must
/// terminate on its feedback loop, either settling conservatively or
/// reporting oscillation; it must never hang.
#[test]
fn sr_latch_feedback_terminates() {
    let netlist = scald_gen::figures::sr_latch();
    let mut v = Verifier::new(netlist);
    match v.run(&RunOptions::new()) {
        Ok(r) => {
            // Settled: outputs carry conservative (U/S/C) values.
            let q = v.netlist().signal_by_name("B").unwrap();
            let w = v.resolved(q);
            assert!(
                w.transitions().iter().all(|&(_, val)| !val.is_constant()),
                "an unverifiable async latch must not claim a known level: {w}"
            );
            let _ = r;
        }
        Err(VerifyError::Oscillation { .. }) => {} // also acceptable
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Slack reporting: passing checks show positive margins, failing ones
/// negative, and ordering puts the tightest check first.
#[test]
fn slack_report_margins() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let comfortable = b.signal_vec("EARLY .S0-6", 8).unwrap();
    let tight = b.signal_vec("TIGHT .S1.9-6", 8).unwrap();
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.setup_hold("EARLY CHK", ns(2.5), ns(1.5), z(comfortable), z(clk));
    b.setup_hold("TIGHT CHK", ns(2.5), ns(1.5), z(tight), z(clk));
    b.min_pulse_width("CK WIDTH", ns(4.0), ns(0.0), z(clk));
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let slack = v.slack_report();
    assert_eq!(slack.len(), 3);
    let name = |m: &CheckMargin| v.netlist().prim(m.checker).name();
    // TIGHT goes stable at 11.875 ns; the edge is at 12.5: 0.625 avail vs
    // 2.5 required -> slack -1.875 (and it sorts first).
    assert_eq!(name(&slack[0]), "TIGHT CHK");
    assert_eq!(slack[0].setup_slack, Some(ns(0.625) - ns(2.5)));
    // EARLY: stable from 0 wrapping from 37.5 prev cycle: avail = 12.5 -
    // (-12.5)... measured from the wrap: 25 ns available -> +22.5 slack.
    let early = slack.iter().find(|m| name(m) == "EARLY CHK").unwrap();
    assert!(early.setup_slack.unwrap() > Time::ZERO);
    assert!(early.hold_slack.unwrap() > Time::ZERO);
    // The clock is high 6.25 ns vs 4.0 required: +2.25 pulse slack.
    let width = slack.iter().find(|m| name(m) == "CK WIDTH").unwrap();
    assert_eq!(width.pulse_slack, Some(ns(2.25)));
}

/// Engine reuse: after a plain run, running cases re-evaluates only the
/// overridden cones — the §3.3.2 workflow of checking case after case on
/// the settled design.
#[test]
fn engine_reuse_is_incremental() {
    let mut b = builder();
    let input = b.signal("IN .S0-4").unwrap();
    let ctrl = b.signal("CTRL .S0-8").unwrap();
    let m = b.signal("M").unwrap();
    let far = b.signal("FAR").unwrap();
    let unrelated_in = b.signal("OTHER IN .S0-4").unwrap();
    let unrelated = b.signal("OTHER").unwrap();
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.mux2(
        "M1",
        DelayRange::from_ns(1.0, 2.0),
        z(ctrl),
        z(input),
        z(input),
        m,
    );
    b.buf("B1", DelayRange::from_ns(1.0, 2.0), z(m), far);
    b.buf(
        "B2",
        DelayRange::from_ns(1.0, 2.0),
        z(unrelated_in),
        unrelated,
    );
    let mut v = Verifier::new(b.finish().unwrap());
    let first = v.run(&RunOptions::new()).unwrap().into_sole();
    assert!(first.evaluations >= 3);

    // Switching CTRL to a constant touches only the mux cone (M1, B1) —
    // never B2.
    let results = v
        .run(&RunOptions::new().case(Case::new().assign("CTRL", true)))
        .unwrap()
        .cases;
    assert!(
        results[0].evaluations <= 2,
        "expected only the mux cone to re-evaluate: {}",
        results[0].evaluations
    );
}

/// `check_now` re-examines constraints without re-evaluating.
#[test]
fn check_now_reflects_current_state() {
    let mut b = builder();
    let clk = b.signal("CK .P2-3 (0,0)").unwrap();
    let d = b.signal_vec("D .S2-6", 16).unwrap();
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.setup_hold("CHK", ns(2.5), ns(1.5), z(d), z(clk));
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    let again = v.check_now();
    assert_eq!(r.violations, again);
}

/// An undefined clock (no assertion, driven from an undefined loop)
/// yields one crisp diagnostic instead of an avalanche of set-up noise.
#[test]
fn undefined_clock_diagnostic() {
    let mut b = builder();
    // A clock driven from a feedback of itself through an XOR stays U.
    let fb = b.signal("CK FB").unwrap();
    let ck = b.signal("MYSTERY CLK").unwrap();
    let d = b.signal_vec("D .S0-6", 8).unwrap();
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.gate(
        "XORLOOP",
        scald_netlist::PrimKind::Xor,
        DelayRange::from_ns(1.0, 1.0),
        [z(ck), z(ck)],
        fb,
    );
    b.buf("CKBUF", DelayRange::from_ns(1.0, 1.0), z(fb), ck);
    b.setup_hold("CHK", ns(2.5), ns(1.5), z(d), z(ck));
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    let undef = r.of_kind(ViolationKind::UndefinedClock);
    assert_eq!(undef.len(), 1, "{r}");
    assert!(undef[0].constraint.contains("MYSTERY CLK"));
    // And no noisy set-up/hold reports pile on top.
    assert!(r.of_kind(ViolationKind::Setup).is_empty());
    assert!(r.of_kind(ViolationKind::Hold).is_empty());
}

/// A driven signal with a stable assertion propagates its *computed*
/// timing downstream; the assertion is checked, not substituted (§2.5.2:
/// "the designer's initial timing assertion is checked against the timing
/// of the actual signal").
#[test]
fn driven_stable_assertion_checks_but_does_not_pin() {
    let mut b = builder();
    let input = b.signal("IN .S0-4").unwrap();
    // MID claims stability 0-8 (always) but is actually changing when IN
    // changes.
    let mid = b.signal("MID .S0-8").unwrap();
    let out = b.signal("OUT").unwrap();
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.buf("B1", DelayRange::from_ns(1.0, 2.0), z(input), mid);
    b.buf("B2", DelayRange::from_ns(1.0, 2.0), z(mid), out);
    let mut v = Verifier::new(b.finish().unwrap());
    let r = v.run(&RunOptions::new()).unwrap().into_sole();
    // The false assertion is reported...
    assert_eq!(r.of_kind(ViolationKind::AssertionViolated).len(), 1, "{r}");
    // ...and OUT sees MID's real changing window (26..4 after two 1-2 ns
    // buffers over IN's changing 25..50), not the asserted always-stable.
    let w = v.resolved(out);
    assert!(w.value_at(ns(30.0)).is_transitioning(), "{w}");
    assert!(w.value_at(ns(10.0)).is_quiescent(), "{w}");
}

/// A *clock*-asserted driven signal is pinned to its asserted (de-skewed)
/// timing — the §2.6 clock-tuning semantics — and the xref notes it.
#[test]
fn driven_clock_assertion_pins_value() {
    let mut b = builder();
    let raw = b.signal("RAW CK .P2-3 (0,0)").unwrap();
    // GEN CK is generated through a slow buffer but asserted as an
    // adjusted clock: the asserted timing wins.
    let gen = b.signal("GEN CK .P2-3 (0,0)").unwrap();
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    b.buf("CK TREE", DelayRange::from_ns(3.0, 9.0), z(raw), gen);
    let mut v = Verifier::new(b.finish().unwrap());
    v.run(&RunOptions::new()).unwrap();
    let w = v.resolved(gen);
    // Pinned to the asserted 12.5..18.75 pulse, not shifted by 3..9 ns.
    assert_eq!(w.value_at(ns(12.5)), Value::One, "{w}");
    assert_eq!(w.value_at(ns(18.75)), Value::Zero, "{w}");
    assert!(v.xref_listing().contains("GEN CK"));
}
