//! The thesis' figure circuits, built programmatically.
//!
//! Each constructor returns a validated [`Netlist`] shaped like the
//! corresponding figure, with the timing parameters the thesis quotes
//! (manufacturer data-sheet values for the register-file chip, the §3.2
//! design rules: 50 ns cycle, 6.25 ns clock units, 0.0/2.0 ns default
//! wires, ±1 ns precision-clock skew).

use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, SignalId};
use scald_wave::{DelayRange, Time};

fn ns(x: f64) -> Time {
    Time::from_ns(x)
}

fn z(s: SignalId) -> Conn {
    Conn::new(s).with_wire_delay(DelayRange::ZERO)
}

/// Fig 1-5: a register clock gated by a too-late enable.
///
/// `CLOCK` is high 20–30 ns; `ENABLE` wants to inhibit the gate but does
/// not reach zero until 25 ns, so `REG CLOCK` can carry a spurious pulse
/// up to 5 ns wide. With `with_directive = true` the clock input carries
/// the `&A` check (reporting the control hazard); without it, the
/// min-pulse-width checker flags the runt pulse itself.
///
/// # Panics
///
/// Panics only if the internal builder is inconsistent (a bug).
#[must_use]
pub fn hazard_circuit(with_directive: bool) -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let clock = b.signal("CLOCK .P3.2-4.8 (0,0)").expect("valid name");
    let disable = b.signal("DISABLE .P3.2-4.8 (0,0)").expect("valid name");
    let enable = b.signal("ENABLE").expect("valid name");
    let regck = b.signal("REG CLOCK").expect("valid name");
    let d = b.signal_vec("D IN .S0-2", 8).expect("valid name");
    let q = b.signal_vec("Q", 8).expect("valid name");
    b.not(
        "ENABLE GATE",
        DelayRange::from_ns(0.0, 5.0),
        z(disable),
        enable,
    );
    let clock_conn = if with_directive {
        z(clock).with_directive("A")
    } else {
        z(clock)
    };
    b.and2("CLOCK GATE", DelayRange::ZERO, clock_conn, z(enable), regck);
    b.min_pulse_width("REG CLOCK WIDTH", ns(4.0), ns(0.0), z(regck));
    b.reg("REG", DelayRange::from_ns(1.5, 4.5), z(regck), z(d), q);
    b.finish().expect("hazard circuit is well-formed")
}

/// Handles into the Fig 2-5 register-file circuit.
#[derive(Debug, Clone, Copy)]
pub struct RegisterFileSignals {
    /// The write-enable pulse at the RAM.
    pub we: SignalId,
    /// The multiplexed address lines (`ADR<0:3>`).
    pub adr: SignalId,
    /// The RAM read data.
    pub ram_out: SignalId,
    /// The read bus into the output register.
    pub read_bus: SignalId,
    /// The registered output (`R OUT`).
    pub r_out: SignalId,
}

/// Fig 2-5 (§3.2): the 16-word × 32-bit register-file circuit with an
/// output register, an address multiplexer and a gated write-enable.
///
/// Timing parameters follow the Fairchild F10145A data sheet as the
/// thesis encodes it in Fig 3-5: write-data set-up 4.5 ns / hold −1.0 ns
/// against the falling write-enable, address set-up 3.5 ns / hold 1.0 ns
/// with stability while the enable is true, minimum enable width 4.0 ns,
/// read path 3.0/6.0 ns. The designer-specified 0.0–6.0 ns address wire
/// (§3.2) is applied to `ADR`.
///
/// Verifying this netlist reproduces the two error groups of Fig 3-11:
/// the address set-up missed by the full 3.5 ns, and the output-register
/// set-up missed by ≈1 ns.
///
/// # Panics
///
/// Panics only if the internal builder is inconsistent (a bug).
#[must_use]
pub fn register_file_circuit() -> (Netlist, RegisterFileSignals) {
    let mut b = NetlistBuilder::new(Config::s1_example());

    // Clocks and controls. `CK` is asserted (low) units 2-3; the `&H`
    // directive de-references its timing to the gate output and checks
    // WRITE is stable while it is asserted.
    let ck = b.signal("CK .P2-3 L").expect("valid name");
    let write = b.signal("WRITE .S0-6 L").expect("valid name");
    let we = b.signal("WE").expect("valid name");
    b.and2(
        "WE GATE",
        DelayRange::from_ns(1.0, 2.9),
        Conn::new(ck).inverted().with_directive("H"),
        Conn::new(write).inverted(),
        we,
    );
    b.min_pulse_width("WE WIDTH CHK", ns(4.0), ns(0.0), we);

    // Address multiplexer between read and write addresses. The select
    // is a phase signal derived from the clock (high during the write
    // half of the cycle), so the verifier knows its value and the address
    // bus simply alternates between the two (stable) address sources,
    // with changing windows around the phase edges — the Fig 3-10 trace.
    let sel = b.signal("R/W SEL .P0-4").expect("valid name");
    // Clock-class signals are distributed through the de-skewed clock
    // tree; their skew assertion already covers distribution variation
    // (§2.5.1), so no additional wire delay applies.
    b.set_wire_delay(sel, DelayRange::ZERO);
    b.set_wire_delay(ck, DelayRange::ZERO);
    let radr = b.signal_vec("READ ADR .S4-9", 4).expect("valid name");
    let wadr = b.signal_vec("WRITE ADR .S0-6", 4).expect("valid name");
    let adr = b.signal_vec("ADR", 4).expect("valid name");
    b.mux2(
        "ADR MUX",
        DelayRange::from_ns(1.2, 3.3),
        sel,
        radr,
        wadr,
        adr,
    );
    // The designer-specified address interconnection delay (§3.2).
    b.set_wire_delay(adr, DelayRange::from_ns(0.0, 6.0));

    // The RAM's data-sheet checks (Fig 3-5).
    let wdata = b.signal_vec("W DATA .S0-6", 32).expect("valid name");
    b.setup_hold(
        "RAM I CHK",
        ns(4.5),
        ns(-1.0),
        wdata,
        Conn::new(we).inverted(), // set-up against the falling WE edge
    );
    b.setup_rise_hold_fall("RAM ADR CHK", ns(3.5), ns(1.0), adr, we);

    // Read path: the output changes when the address or the write-enable
    // change (the `3 CHG` of Fig 3-5; chip select is tied active).
    let cs = b.signal("CS").expect("valid name");
    b.constant("CS TIE", scald_logic::Value::Zero, cs);
    let ram_out = b.signal_vec("RAM OUT", 32).expect("valid name");
    b.chg(
        "RAM READ",
        DelayRange::from_ns(3.0, 6.0),
        [Conn::new(adr), Conn::new(we), Conn::new(cs)],
        ram_out,
    );

    // "Several gates" onto the read bus, then the output register.
    let bypass = b.signal_vec("BYPASS .S0-8", 32).expect("valid name");
    let read_bus = b.signal_vec("READ BUS", 32).expect("valid name");
    b.or2(
        "BUS OR",
        DelayRange::from_ns(1.0, 2.9),
        ram_out,
        bypass,
        read_bus,
    );

    let regclk = b.signal("REG CLK .P0-2").expect("valid name");
    b.set_wire_delay(regclk, DelayRange::ZERO);
    let r_out = b.signal_vec("R OUT", 32).expect("valid name");
    b.reg(
        "OUT REG",
        DelayRange::from_ns(1.5, 4.5),
        regclk,
        read_bus,
        r_out,
    );
    b.setup_hold("OUT REG CHK", ns(2.5), ns(1.5), read_bus, regclk);

    let handles = RegisterFileSignals {
        we,
        adr,
        ram_out,
        read_bus,
        r_out,
    };
    (
        b.finish().expect("register file circuit is well-formed"),
        handles,
    )
}

/// Fig 2-6: the case-analysis circuit — two multiplexers with
/// complementary selects around 10/20 ns paths.
///
/// Without case analysis the `CONTROL SIGNAL` select is merely `S` and the
/// verifier sees a phantom 40 ns path; splitting into the two cases of
/// §2.7.1 recovers the true 30 ns delay. Returns the netlist and
/// `(input, control, output)` signal ids.
///
/// # Panics
///
/// Panics only if the internal builder is inconsistent (a bug).
#[must_use]
pub fn case_analysis_circuit() -> (Netlist, (SignalId, SignalId, SignalId)) {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let input = b.signal("INPUT .S0-4").expect("valid name");
    let ctrl = b.signal("CONTROL SIGNAL .S0-8").expect("valid name");
    let d10 = b.signal("PATH 10").expect("valid name");
    let d20 = b.signal("PATH 20").expect("valid name");
    let m1 = b.signal("MUX1 OUT").expect("valid name");
    let m1d10 = b.signal("MUX1 PATH 10").expect("valid name");
    let m1d20 = b.signal("MUX1 PATH 20").expect("valid name");
    let output = b.signal("OUTPUT").expect("valid name");
    b.delay("D10", DelayRange::from_ns(10.0, 10.0), z(input), d10);
    b.delay("D20", DelayRange::from_ns(20.0, 20.0), z(input), d20);
    b.mux2("MUX1", DelayRange::ZERO, z(ctrl), z(d10), z(d20), m1);
    b.delay("D10B", DelayRange::from_ns(10.0, 10.0), z(m1), m1d10);
    b.delay("D20B", DelayRange::from_ns(20.0, 20.0), z(m1), m1d20);
    b.mux2(
        "MUX2",
        DelayRange::ZERO,
        z(ctrl).inverted(),
        z(m1d10),
        z(m1d20),
        output,
    );
    (
        b.finish().expect("case circuit is well-formed"),
        (input, ctrl, output),
    )
}

/// Fig 3-12: a typical S-1 Mark IIA arithmetic pipeline stage — a 36-bit
/// ALU with output latch, a function decoder on its select lines, and a
/// 36-bit debugging/status register with a load enable.
///
/// All interface signals carry assertions, so the stage can be verified in
/// isolation (§2.5.2). Returns the netlist and the latched ALU output id.
///
/// # Panics
///
/// Panics only if the internal builder is inconsistent (a bug).
#[must_use]
pub fn alu_stage() -> (Netlist, SignalId) {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let a = b.signal_vec("A BUS .S2.5-7.5", 36).expect("valid name");
    let bb = b.signal_vec("B BUS .S2.5-7.5", 36).expect("valid name");
    let c1 = b.signal("CARRY IN .S2.5-7.5").expect("valid name");
    let func = b.signal_vec("FUNC CODE .S2-7", 4).expect("valid name");

    // Function decoder: complex combinational logic modelled with CHG.
    let s = b.signal_vec("ALU SELECT", 4).expect("valid name");
    b.chg(
        "FUNC DECODER",
        DelayRange::from_ns(2.0, 4.0),
        [Conn::new(func)],
        s,
    );

    // The ALU data path (Fig 3-9 models it as a group of CHG gates).
    let alu = b.signal_vec("ALU OUT", 36).expect("valid name");
    b.chg(
        "ALU",
        DelayRange::from_ns(5.0, 11.0),
        [Conn::new(a), Conn::new(bb), Conn::new(c1), Conn::new(s)],
        alu,
    );

    // Output latch, open units 5-6.
    let lat_en = b.signal("ALU LATCH EN .P5-6").expect("valid name");
    let latched = b.signal_vec("ALU LATCHED", 36).expect("valid name");
    b.latch(
        "ALU LATCH",
        DelayRange::from_ns(1.0, 3.5),
        lat_en,
        alu,
        latched,
    );
    b.setup_hold(
        "ALU LATCH CHK",
        ns(2.0),
        ns(1.0),
        alu,
        Conn::new(lat_en).inverted(),
    );

    // Debugging/status register with load enable gated onto its clock.
    let stat_clk = b.signal("STATUS CLK .P7-8").expect("valid name");
    let load_en = b.signal("LOAD STATUS .S6.5-13.5").expect("valid name");
    let gated = b.signal("STATUS REG CLK").expect("valid name");
    b.and2(
        "STATUS CLK GATE",
        DelayRange::from_ns(1.0, 2.9),
        Conn::new(stat_clk).with_directive("H"),
        load_en,
        gated,
    );
    let status = b.signal_vec("STATUS REG", 36).expect("valid name");
    b.reg(
        "STATUS",
        DelayRange::from_ns(1.5, 4.5),
        gated,
        latched,
        status,
    );
    b.setup_hold("STATUS CHK", ns(2.5), ns(1.5), latched, gated);

    (b.finish().expect("ALU stage is well-formed"), latched)
}

/// Figs 4-1/4-2: the correlation circuit — a register reloading itself
/// through a multiplexer, with a clock buffer that inserts a large skew.
///
/// The minimum register + multiplexer delay exceeds the hold time, so the
/// real hardware is safe; but the verifier reasons in absolute times and
/// reports a **false** hold error (Fig 4-1). Passing
/// `with_corr_delay = true` inserts the `CORR` fictitious delay of §4.2.3
/// into the feedback path, suppressing the false error (Fig 4-2).
///
/// # Panics
///
/// Panics only if the internal builder is inconsistent (a bug).
#[must_use]
pub fn correlation_circuit(with_corr_delay: bool) -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let ck = b.signal("CK .P0-1 (0,0)").expect("valid name");
    let ckb = b.signal("CK BUFFERED").expect("valid name");
    // The clock buffer inserts 0..4 ns of skew.
    b.buf("CK BUF", DelayRange::from_ns(0.0, 4.0), z(ck), ckb);

    let sel = b.signal("RELOAD SEL .S0-8").expect("valid name");
    let newd = b.signal_vec("NEW DATA .S6-10", 16).expect("valid name");
    let q = b.signal_vec("Q", 16).expect("valid name");
    let m = b.signal_vec("REG IN", 16).expect("valid name");

    let feedback: Conn = if with_corr_delay {
        let fb = b.signal_vec("Q CORR", 16).expect("valid name");
        // CORR: a fictitious delay at least as long as the clock skew.
        b.delay("CORR", DelayRange::from_ns(4.0, 4.0), z(q), fb);
        z(fb)
    } else {
        z(q)
    };
    b.mux2(
        "RELOAD MUX",
        DelayRange::from_ns(1.2, 3.3),
        z(sel),
        feedback,
        z(newd),
        m,
    );
    b.reg(
        "FEEDBACK REG",
        DelayRange::from_ns(1.0, 3.8),
        z(ckb),
        z(m),
        q,
    );
    b.setup_hold("FEEDBACK CHK", ns(2.5), ns(1.5), z(m), z(ckb));
    b.finish().expect("correlation circuit is well-formed")
}

/// Fig 1-3: a set-reset latch built from two cross-coupled NOR gates —
/// the thesis' example of an *asynchronous* sequential circuit, which the
/// verification approach explicitly does not cover (§1.2.4: "analysis of
/// the timing of asynchronous circuits requires full functional
/// verification, which is beyond the scope of this thesis").
///
/// The verifier still *terminates* on it: the feedback loop settles at
/// conservative values (or is reported as an oscillation), rather than
/// hanging — the engineering requirement §2.9's fixed point must meet.
///
/// # Panics
///
/// Panics only if the internal builder is inconsistent (a bug).
#[must_use]
pub fn sr_latch() -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let set = b.signal("SET .S2-8").expect("valid name");
    let reset = b.signal("RESET .S2-8").expect("valid name");
    let a = b.signal("A").expect("valid name");
    let q = b.signal("B").expect("valid name");
    b.gate(
        "NOR1",
        scald_netlist::PrimKind::Nor,
        DelayRange::from_ns(1.0, 2.9),
        [z(set), z(q)],
        a,
    );
    b.gate(
        "NOR2",
        scald_netlist::PrimKind::Nor,
        DelayRange::from_ns(1.0, 2.9),
        [z(reset), z(a)],
        q,
    );
    b.finish().expect("SR latch is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figure_circuits_validate() {
        let _ = hazard_circuit(true);
        let _ = hazard_circuit(false);
        let (n, _) = register_file_circuit();
        assert!(n.prim_count() >= 7);
        let _ = case_analysis_circuit();
        let (alu, _) = alu_stage();
        assert!(alu.prim_count() >= 7);
        let _ = correlation_circuit(true);
        let _ = correlation_circuit(false);
    }

    #[test]
    fn sr_latch_terminates() {
        use scald_netlist::PrimKind;
        let n = sr_latch();
        assert!(n
            .iter_prims()
            .all(|(_, p)| matches!(p.kind(), PrimKind::Nor)));
        // Termination (not verdicts) is the contract for asynchronous
        // feedback; the verifier crate's tests drive it.
    }

    #[test]
    fn register_file_has_data_sheet_checkers() {
        let (n, _) = register_file_circuit();
        let hist = n.primitive_histogram();
        let names: Vec<&str> = hist.iter().map(|(s, _)| s.as_str()).collect();
        assert!(names.contains(&"SETUP HOLD CHK"));
        assert!(names.contains(&"SETUP RISE HOLD FALL CHK"));
        assert!(names.contains(&"MIN PULSE WIDTH"));
        assert!(names.contains(&"3 CHG"));
        assert!(names.contains(&"2 MUX"));
    }
}
