//! Synthetic S-1-Mark-IIA-like design generator.
//!
//! The thesis evaluates the Timing Verifier on a major portion of the
//! S-1 Mark IIA processor: 6357 MSI ECL chips represented by 8 282
//! primitives of 22 types (≈1.3 primitives per chip, average vector width
//! 6.5 bits), 33 152 signal value lists (§3.3.2, Tables 3-1..3-3). Those
//! schematics are not available, so this module generates a deterministic
//! synthetic design matched to the *published statistics*: the same
//! primitive vocabulary, comparable primitives-per-chip density and
//! vector widths, pipeline-register structure with set-up/hold and
//! pulse-width checkers, and two clock phases.
//!
//! The generator is seeded and reproducible; the Table 3-1/3-2/3-3
//! benchmarks report both the paper's numbers and the measured ones.

use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, SignalId};
use scald_rng::Rng;
use scald_wave::{DelayRange, Time};

/// Options for the synthetic design.
#[derive(Debug, Clone, Copy)]
pub struct S1Options {
    /// Target chip count (the thesis example: 6357).
    pub chips: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for S1Options {
    fn default() -> S1Options {
        S1Options {
            chips: 6357,
            seed: 0x5ca1d,
        }
    }
}

impl S1Options {
    /// A small smoke-test design (~60 chips).
    #[must_use]
    pub fn small() -> S1Options {
        S1Options {
            chips: 60,
            seed: 0x5ca1d,
        }
    }
}

/// Statistics of the generated design.
#[derive(Debug, Clone, Copy, Default)]
pub struct S1Stats {
    /// Chips the generated slices account for.
    pub chips: usize,
    /// Primitives emitted.
    pub prims: usize,
    /// Signals created.
    pub signals: usize,
}

/// Vector width distribution tuned so the average primitive width lands
/// near the thesis' 6.5 bits.
fn sample_width(rng: &mut Rng) -> u32 {
    match rng.range_u32(0, 100) {
        0..=24 => 1,
        25..=34 => 4,
        35..=54 => 8,
        55..=69 => 16,
        70..=89 => 32,
        _ => 36,
    }
}

/// Generates the synthetic design.
///
/// # Panics
///
/// Panics only on internal builder inconsistencies (a bug).
#[must_use]
pub fn s1_like_netlist(opts: S1Options) -> (Netlist, S1Stats) {
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut b = NetlistBuilder::new(Config::s1_example());
    let ns = Time::from_ns;

    // Two clock phases (§3.3: the instruction unit runs at 50 ns, the
    // execution unit at 25 ns, so phase B fires twice per 50 ns cycle).
    // Data changes early in the cycle (inputs asserted stable from unit
    // 2.5-3.5 on), clocks capture late (units 5.5-7), so a correctly
    // phased design verifies clean; the paper's evaluation design was a
    // live, mostly correct processor.
    let clk_a = b.signal("CLK A .P6-7").expect("valid");
    let clk_b = b.signal("CLK B .P6.5-7.5").expect("valid");
    let clocks = [clk_a, clk_b];

    // A pool of global control signals with stable assertions.
    let mut controls = Vec::new();
    for i in 0..24 {
        let lo = ["2", "2.5", "3"][i % 3];
        let c = b.signal(&format!("CTL {i} .S{lo}-8")).expect("valid");
        controls.push(c);
    }

    let mut chips = 0usize;
    let mut slice = 0usize;
    // The output register of the previous slice, chained forward to give
    // the design cross-slice depth.
    let mut prev_out: Option<SignalId> = None;

    while chips < opts.chips {
        slice += 1;
        let w = sample_width(&mut rng);
        let clk = *rng.choose(&clocks);
        let ctl = *rng.choose(&controls);
        let ctl2 = *rng.choose(&controls);
        let p = format!("S{slice}");
        match rng.range_u32(0, 10) {
            // Datapath slice: mux -> logic -> register, with checker.
            0..=3 => {
                let din = b.signal_vec(&format!("{p}/IN .S3-8"), w).expect("valid");
                let muxed = b.signal_vec(&format!("{p}/MUXED"), w).expect("valid");
                let logic = b.signal_vec(&format!("{p}/LOGIC"), w).expect("valid");
                let q = b.signal_vec(&format!("{p}/Q"), w).expect("valid");
                let alt: Conn = match prev_out {
                    Some(s) => {
                        // §4.2.3: a fictitious delay at least as long as
                        // the clock skew decorrelates the same-clock
                        // feed-forward path.
                        let pw = b.signal_width(s);
                        let piped = b.signal_vec(&format!("{p}/PIPE"), pw).expect("valid");
                        b.delay(
                            format!("{p}/PIPE CORR"),
                            DelayRange::from_ns(6.0, 6.0),
                            s,
                            piped,
                        );
                        piped.into()
                    }
                    None => din.into(),
                };
                b.mux2(
                    format!("{p}/MUX"),
                    DelayRange::from_ns(1.2, 3.3),
                    ctl,
                    din,
                    alt,
                    muxed,
                );
                b.chg(
                    format!("{p}/LOGIC"),
                    DelayRange::from_ns(1.5, 3.0),
                    [Conn::new(muxed), Conn::new(ctl2)],
                    logic,
                );
                b.reg(
                    format!("{p}/REG"),
                    DelayRange::from_ns(1.5, 4.5),
                    clk,
                    logic,
                    q,
                );
                b.setup_hold(format!("{p}/REG CHK"), ns(2.5), ns(1.5), logic, clk);
                prev_out = Some(q);
                chips += 3;
            }
            // Memory-like slice: SRHF + pulse checks + wide read path.
            4..=5 => {
                let adr = b.signal_vec(&format!("{p}/ADR .S3-8"), 4).expect("valid");
                let we = b.signal(&format!("{p}/WE")).expect("valid");
                let rdata = b.signal_vec(&format!("{p}/RDATA"), w).expect("valid");
                b.and2(
                    format!("{p}/WE GATE"),
                    DelayRange::from_ns(1.0, 2.9),
                    Conn::new(clk_a).with_directive("H"),
                    ctl,
                    we,
                );
                b.setup_rise_hold_fall(format!("{p}/ADR CHK"), ns(3.5), ns(1.0), adr, we);
                let _ = clk;
                b.min_pulse_width(format!("{p}/WE CHK"), ns(4.0), ns(3.0), we);
                let extra: Conn = match prev_out {
                    Some(s) => {
                        let pw = b.signal_width(s);
                        let piped = b.signal_vec(&format!("{p}/RPIPE"), pw).expect("valid");
                        b.delay(
                            format!("{p}/RPIPE CORR"),
                            DelayRange::from_ns(6.0, 6.0),
                            s,
                            piped,
                        );
                        piped.into()
                    }
                    None => adr.into(),
                };
                b.chg(
                    format!("{p}/READ"),
                    DelayRange::from_ns(3.0, 6.0),
                    [Conn::new(adr), Conn::new(we), extra],
                    rdata,
                );
                chips += 6;
            }
            // Control slice: scalar gate soup plus a latch.
            6..=7 => {
                let x = b.signal(&format!("{p}/X .S3-8")).expect("valid");
                let y = b.signal(&format!("{p}/Y")).expect("valid");
                let zz = b.signal(&format!("{p}/Z")).expect("valid");
                let nn = b.signal(&format!("{p}/NN")).expect("valid");
                let xo = b.signal(&format!("{p}/XO")).expect("valid");
                let nq = b.signal(&format!("{p}/NQ")).expect("valid");
                let bq = b.signal(&format!("{p}/BQ")).expect("valid");
                let lq = b.signal(&format!("{p}/LQ")).expect("valid");
                b.or2(format!("{p}/OR"), DelayRange::from_ns(1.0, 2.9), x, ctl, y);
                b.and2(
                    format!("{p}/AND"),
                    DelayRange::from_ns(1.0, 2.9),
                    y,
                    ctl2,
                    zz,
                );
                b.gate(
                    format!("{p}/NAND"),
                    scald_netlist::PrimKind::Nand,
                    DelayRange::from_ns(1.0, 2.9),
                    [Conn::new(zz), Conn::new(ctl)],
                    nn,
                );
                b.gate(
                    format!("{p}/XOR"),
                    scald_netlist::PrimKind::Xor,
                    DelayRange::from_ns(1.2, 3.1),
                    [Conn::new(nn), Conn::new(ctl2)],
                    xo,
                );
                b.not(format!("{p}/NOT"), DelayRange::from_ns(1.0, 2.0), xo, nq);
                b.buf(format!("{p}/BUF"), DelayRange::from_ns(0.8, 1.6), nq, bq);
                b.latch(
                    format!("{p}/LATCH"),
                    DelayRange::from_ns(1.0, 3.5),
                    clk,
                    bq,
                    lq,
                );
                chips += 5;
            }
            // Wide-select slice: 4/8-input multiplexer trees.
            8 => {
                let nsel = if rng.bool() { 4 } else { 8 };
                let sel = b.signal(&format!("{p}/SEL .S3-8")).expect("valid");
                let out = b.signal_vec(&format!("{p}/MOUT"), w).expect("valid");
                let mut inputs: Vec<Conn> = vec![sel.into()];
                for i in 0..nsel {
                    let d = b.signal_vec(&format!("{p}/MD{i} .S3-8"), w).expect("valid");
                    inputs.push(d.into());
                }
                b.prim(
                    format!("{p}/WMUX"),
                    scald_netlist::PrimKind::Mux { data: nsel },
                    DelayRange::from_ns(1.5, 4.0),
                    inputs,
                    Some(out),
                );
                chips += 1;
            }
            // Set/reset register slice with delay-matched feedback.
            _ => {
                let d = b.signal_vec(&format!("{p}/D .S3-8"), w).expect("valid");
                let set = b.signal(&format!("{p}/SET")).expect("valid");
                let rst = b.signal(&format!("{p}/RST")).expect("valid");
                let q = b.signal_vec(&format!("{p}/SRQ"), w).expect("valid");
                let fb = b.signal_vec(&format!("{p}/FB"), w).expect("valid");
                b.constant(format!("{p}/KS"), scald_logic::Value::Zero, set);
                b.constant(format!("{p}/KR"), scald_logic::Value::Zero, rst);
                if rng.bool() {
                    b.reg_sr(
                        format!("{p}/SR REG"),
                        DelayRange::from_ns(1.0, 3.8),
                        clk,
                        d,
                        set,
                        rst,
                        q,
                    );
                } else {
                    b.latch_sr(
                        format!("{p}/SR LATCH"),
                        DelayRange::from_ns(1.0, 3.5),
                        clk,
                        d,
                        set,
                        rst,
                        q,
                    );
                }
                b.delay(format!("{p}/CORR"), DelayRange::from_ns(4.0, 4.0), q, fb);
                prev_out = Some(fb);
                chips += 3;
            }
        }
    }

    let netlist = b.finish().expect("generated design is well-formed");
    let stats = S1Stats {
        chips,
        prims: netlist.prim_count(),
        signals: netlist.signal_count(),
    };
    (netlist, stats)
}

/// Generates an equivalent design as HDL source text, so the full
/// Table 3-1 pipeline (read, Pass 1, Pass 2, verify) can be measured
/// through the macro expander.
///
/// The design wraps the datapath slice in a parameterized macro and
/// instantiates it once per slice — exercising parameter binding, port
/// widths and directive propagation at scale.
#[must_use]
pub fn s1_like_hdl(opts: S1Options) -> String {
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut src = String::from(
        "design S1 LIKE;\nperiod 50.0;\nclock_unit 6.25;\nwire_delay 0.0 2.0;\n\n\
         macro 'DP SLICE' (SIZE=8) (CK, SEL, DIN<0:SIZE-1>/P, ALT<0:SIZE-1>/P) \
         -> (Q<0:SIZE-1>/P);\n\
         \x20 signal PIPED<0:SIZE-1>/M;\n\
         \x20 signal MUXED<0:SIZE-1>/M;\n\
         \x20 signal LOGIC<0:SIZE-1>/M;\n\
         \x20 -- the CORR fictitious delay of 4.2.3 decorrelates the\n\
         \x20 -- same-clock feed-forward path\n\
         \x20 delay delay=6.0:6.0 (ALT) -> (PIPED/M);\n\
         \x20 mux delay=1.2:3.3 (SEL, DIN, PIPED/M) -> (MUXED/M);\n\
         \x20 chg delay=1.5:3.0 (MUXED/M, SEL) -> (LOGIC/M);\n\
         \x20 reg delay=1.5:4.5 (CK, LOGIC/M) -> (Q);\n\
         \x20 setup_hold setup=2.5 hold=1.5 (LOGIC/M, CK);\n\
         end;\n\ntop;\n",
    );
    // Slices are sized so that the HDL chip density roughly matches the
    // builder-based generator (3 chips per slice).
    let slices = (opts.chips / 3).max(1);
    let mut prev: Option<(usize, u32)> = None;
    for i in 0..slices {
        let w = sample_width(&mut rng);
        let ctl = rng.range_u32(0, 24);
        let lo = ["2", "2.5", "3"][ctl as usize % 3];
        let (alt, altw) = match prev {
            Some((j, pw)) if pw == w => (format!("'S{j} Q'"), w),
            _ => (format!("'S{i} ALT .S1.5-8'"), w),
        };
        let _ = altw;
        src.push_str(&format!(
            "  use 'DP SLICE' SIZE={w} ('CLK A .P6-7', 'CTL {ctl} .S{lo}-8', \
             'S{i} IN .S3-8', {alt}) -> ('S{i} Q');\n"
        ));
        prev = Some((i, w));
    }
    src.push_str("end;\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_design_matches_target_statistics() {
        let (n, stats) = s1_like_netlist(S1Options::small());
        assert!(stats.chips >= 60);
        // Primitive density comparable to the thesis' 1.3 per chip.
        let density = stats.prims as f64 / stats.chips as f64;
        assert!(
            (0.8..=2.0).contains(&density),
            "primitive density {density} out of range"
        );
        // Average vector width near the thesis' 6.5 bits.
        let avg = n.average_primitive_width();
        assert!((3.0..=11.0).contains(&avg), "avg width {avg}");
        assert_eq!(stats.prims, n.prim_count());
    }

    #[test]
    fn generator_is_deterministic() {
        let (a, _) = s1_like_netlist(S1Options::small());
        let (b, _) = s1_like_netlist(S1Options::small());
        assert_eq!(a.prim_count(), b.prim_count());
        assert_eq!(a.signal_count(), b.signal_count());
        assert_eq!(a.primitive_histogram(), b.primitive_histogram());
    }

    #[test]
    fn primitive_vocabulary_is_rich() {
        let (n, _) = s1_like_netlist(S1Options {
            chips: 600,
            seed: 7,
        });
        let hist = n.primitive_histogram();
        assert!(
            hist.len() >= 10,
            "expected a rich primitive mix, got {hist:?}"
        );
    }

    #[test]
    fn hdl_variant_compiles() {
        let src = s1_like_hdl(S1Options { chips: 30, seed: 3 });
        let expansion = scald_hdl::compile(&src).expect("generated HDL must compile");
        assert!(expansion.netlist.prim_count() >= 40);
        assert_eq!(expansion.stats.instances_expanded, 10);
    }
}
