//! Programmatic netlist construction.
//!
//! [`NetlistBuilder`] is the API equivalent of drawing a SCALD schematic:
//! declare signals (with assertions in their names), instantiate
//! primitives, and [`finish`](NetlistBuilder::finish) to validate. The HDL
//! macro expander lowers to this same builder.

use scald_assertions::Assertion;
use scald_logic::Value;
use scald_wave::{DelayRange, Time};
use std::collections::HashMap;

use crate::netlist::split_name;
use crate::{Config, Netlist, NetlistError, PrimKind, Primitive, Signal, SignalId};

/// A connection from a signal to a primitive input: the signal plus
/// optional complementation (`- WE` in Fig 3-5), an evaluation-directive
/// string (`&H`, §2.6) and a wire-delay override (§2.5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Conn {
    /// The source signal.
    pub signal: SignalId,
    /// Use the complement of the signal (a leading `-` in SCALD).
    pub invert: bool,
    /// Evaluation-directive string whose first letter governs this gate
    /// and whose tail is passed downstream (§2.6, §2.8).
    pub directive: Option<String>,
    /// Overrides the interconnection delay for this wire only.
    pub wire_delay: Option<DelayRange>,
}

impl Conn {
    /// A plain connection.
    #[must_use]
    pub fn new(signal: SignalId) -> Conn {
        Conn {
            signal,
            invert: false,
            directive: None,
            wire_delay: None,
        }
    }

    /// Marks the connection as complemented (`- NAME`).
    #[must_use]
    pub fn inverted(mut self) -> Conn {
        self.invert = !self.invert;
        self
    }

    /// Attaches an evaluation-directive string such as `"H"` or `"HZ"`.
    #[must_use]
    pub fn with_directive(mut self, directive: impl Into<String>) -> Conn {
        self.directive = Some(directive.into());
        self
    }

    /// Overrides the wire delay for this connection.
    #[must_use]
    pub fn with_wire_delay(mut self, delay: DelayRange) -> Conn {
        self.wire_delay = Some(delay);
        self
    }
}

impl From<SignalId> for Conn {
    fn from(signal: SignalId) -> Conn {
        Conn::new(signal)
    }
}

/// Incremental builder for a [`Netlist`].
///
/// # Examples
///
/// Build and validate the smallest interesting circuit — a register fed by
/// an asserted data signal, with its set-up/hold constraint checked:
///
/// ```
/// use scald_netlist::{Config, NetlistBuilder};
/// use scald_wave::{DelayRange, Time};
///
/// # fn main() -> Result<(), scald_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(Config::s1_example());
/// let clk = b.signal("CLK .P2-3")?;
/// let d = b.signal_vec("W DATA .S0-6", 32)?;
/// let q = b.signal_vec("R OUT", 32)?;
/// b.reg("OUT REG", DelayRange::from_ns(1.5, 4.5), clk, d, q);
/// b.setup_hold("OUT REG CHK", Time::from_ns(2.5), Time::from_ns(1.5), d, clk);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.prims().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    config: Config,
    signals: Vec<Signal>,
    prims: Vec<Primitive>,
    by_name: HashMap<String, SignalId>,
    error: Option<NetlistError>,
}

impl NetlistBuilder {
    /// Creates an empty builder with the given design configuration.
    #[must_use]
    pub fn new(config: Config) -> NetlistBuilder {
        NetlistBuilder {
            config,
            signals: Vec::new(),
            prims: Vec::new(),
            by_name: HashMap::new(),
            error: None,
        }
    }

    /// Declares (or re-references) a scalar signal. The name may carry an
    /// assertion suffix (`"CLK .P2-3"`); re-declaring an existing signal
    /// is allowed if the assertion is consistent (§2.5: assertions are
    /// part of the name, so all references agree by construction).
    ///
    /// # Errors
    ///
    /// Returns an error if the assertion is malformed or conflicts with an
    /// earlier declaration of the same base name.
    pub fn signal(&mut self, full_name: &str) -> Result<SignalId, NetlistError> {
        self.signal_vec(full_name, 1)
    }

    /// Declares a vector signal of the given bit width. See
    /// [`signal`](Self::signal).
    ///
    /// # Errors
    ///
    /// As for [`signal`](Self::signal); also errors if an earlier
    /// declaration gave a different width.
    pub fn signal_vec(&mut self, full_name: &str, width: u32) -> Result<SignalId, NetlistError> {
        let (base, assertion) = split_name(full_name)?;
        self.signal_parsed(base, assertion.as_ref(), width)
    }

    /// Declares (or re-references) a signal whose name is already split:
    /// `base` is the name without an assertion suffix, `assertion` the
    /// parsed suffix. Behaves exactly like [`signal_vec`](Self::signal_vec)
    /// on the joined name, without formatting or parsing any text.
    ///
    /// # Errors
    ///
    /// Errors if an earlier declaration of `base` gave a different width
    /// or a different assertion.
    pub fn signal_parsed(
        &mut self,
        base: &str,
        assertion: Option<&Assertion>,
        width: u32,
    ) -> Result<SignalId, NetlistError> {
        if let Some(&id) = self.by_name.get(base) {
            let existing = &mut self.signals[id.index()];
            if existing.width != width {
                return Err(NetlistError::ConflictingSignal {
                    name: base.to_owned(),
                    detail: format!("widths ({} vs {width})", existing.width),
                });
            }
            match (&existing.assertion, assertion) {
                (Some(a), Some(b)) if a != b => {
                    return Err(NetlistError::ConflictingSignal {
                        name: base.to_owned(),
                        detail: format!("assertions ({a} vs {b})"),
                    });
                }
                (None, Some(b)) => {
                    // Later reference supplies the assertion.
                    existing.assertion = Some(b.clone());
                }
                _ => {}
            }
            return Ok(id);
        }
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(Signal {
            name: base.to_owned(),
            width,
            assertion: assertion.cloned(),
            wire_delay: None,
            wired_or: false,
        });
        self.by_name.insert(base.to_owned(), id);
        Ok(id)
    }

    /// Reserves room for `signals` more signals and `prims` more
    /// primitives, so a caller that knows the design's size builds it
    /// without reallocating and leaves no spare capacity in the netlist.
    pub fn reserve(&mut self, signals: usize, prims: usize) {
        self.signals.reserve_exact(signals);
        self.by_name.reserve(signals);
        self.prims.reserve_exact(prims);
    }

    /// Looks up an already-declared signal by base name.
    #[must_use]
    pub fn find_signal(&self, base_name: &str) -> Option<SignalId> {
        self.by_name.get(base_name).copied()
    }

    /// The declared width of a signal.
    #[must_use]
    pub fn signal_width(&self, signal: SignalId) -> u32 {
        self.signals[signal.index()].width
    }

    /// Marks a signal as a wired-OR bus: multiple drivers are permitted
    /// and their values are joined with the worst-case OR (Fig 3-1's ECL
    /// memory-expansion idiom).
    pub fn mark_wired_or(&mut self, signal: SignalId) {
        self.signals[signal.index()].wired_or = true;
    }

    /// Sets a wire-delay override for all connections driven by `signal`
    /// (the designer-specified interconnection delay of §2.5.3, e.g. the
    /// 0.0–6.0 ns register-file address lines of §3.2).
    pub fn set_wire_delay(&mut self, signal: SignalId, delay: DelayRange) {
        self.signals[signal.index()].wire_delay = Some(delay);
    }

    /// Adds an arbitrary primitive. Prefer the typed helpers below.
    pub fn prim(
        &mut self,
        name: impl Into<String>,
        kind: PrimKind,
        delay: DelayRange,
        inputs: Vec<Conn>,
        output: Option<SignalId>,
    ) {
        self.prims.push(Primitive {
            name: name.into(),
            kind,
            delay,
            edge_delays: None,
            inputs,
            output,
        });
    }

    /// Adds a fully specified primitive verbatim — connections, edge
    /// delays and all. Used by delta application (`NetlistDelta::apply`)
    /// to replay an existing primitive table; the referenced signal ids
    /// must belong to this builder.
    pub fn push_prim(&mut self, prim: Primitive) {
        self.prims.push(prim);
    }

    /// Adds a variadic gate (`And`, `Or`, `Xor`, their inverting forms, or
    /// `Chg`).
    pub fn gate<C: Into<Conn>>(
        &mut self,
        name: impl Into<String>,
        kind: PrimKind,
        delay: DelayRange,
        inputs: impl IntoIterator<Item = C>,
        output: SignalId,
    ) {
        let conns = inputs.into_iter().map(Into::into).collect();
        self.prim(name, kind, delay, conns, Some(output));
    }

    /// Adds a 2-input OR gate.
    pub fn or2(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        a: impl Into<Conn>,
        b: impl Into<Conn>,
        output: SignalId,
    ) {
        self.gate(name, PrimKind::Or, delay, [a.into(), b.into()], output);
    }

    /// Adds a 2-input AND gate.
    pub fn and2(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        a: impl Into<Conn>,
        b: impl Into<Conn>,
        output: SignalId,
    ) {
        self.gate(name, PrimKind::And, delay, [a.into(), b.into()], output);
    }

    /// Adds an inverter.
    pub fn not(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        self.gate(name, PrimKind::Not, delay, [input.into()], output);
    }

    /// Adds an inverter with separate rising/falling delays (§4.2.2
    /// extension). The `rise`/`fall` ranges apply to the *output* edges.
    pub fn not_asym(
        &mut self,
        name: impl Into<String>,
        rise: DelayRange,
        fall: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        let ed = crate::EdgeDelays { rise, fall };
        self.prims.push(Primitive {
            name: name.into(),
            kind: PrimKind::Not,
            delay: ed.envelope(),
            edge_delays: Some(ed),
            inputs: vec![input.into()],
            output: Some(output),
        });
    }

    /// Adds a buffer with separate rising/falling delays (§4.2.2
    /// extension).
    pub fn buf_asym(
        &mut self,
        name: impl Into<String>,
        rise: DelayRange,
        fall: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        let ed = crate::EdgeDelays { rise, fall };
        self.prims.push(Primitive {
            name: name.into(),
            kind: PrimKind::Buf,
            delay: ed.envelope(),
            edge_delays: Some(ed),
            inputs: vec![input.into()],
            output: Some(output),
        });
    }

    /// Adds a buffer.
    pub fn buf(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        self.gate(name, PrimKind::Buf, delay, [input.into()], output);
    }

    /// Adds an n-input CHANGE primitive, the model for complex
    /// combinational logic (§2.4.2).
    pub fn chg<C: Into<Conn>>(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        inputs: impl IntoIterator<Item = C>,
        output: SignalId,
    ) {
        self.gate(name, PrimKind::Chg, delay, inputs, output);
    }

    /// Adds a pure min/max delay element (also the `CORR` fictitious delay
    /// of §4.2.3).
    pub fn delay(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Delay,
            delay,
            vec![input.into()],
            Some(output),
        );
    }

    /// Adds a constant driver.
    pub fn constant(&mut self, name: impl Into<String>, value: Value, output: SignalId) {
        self.prim(
            name,
            PrimKind::Const(value),
            DelayRange::ZERO,
            Vec::new(),
            Some(output),
        );
    }

    /// Adds a 2-input multiplexer: `output = select ? d1 : d0`.
    pub fn mux2(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        select: impl Into<Conn>,
        d0: impl Into<Conn>,
        d1: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Mux { data: 2 },
            delay,
            vec![select.into(), d0.into(), d1.into()],
            Some(output),
        );
    }

    /// Adds an edge-triggered register (Fig 2-1, first model).
    pub fn reg(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        clock: impl Into<Conn>,
        data: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Reg { set_reset: false },
            delay,
            vec![clock.into(), data.into()],
            Some(output),
        );
    }

    /// Adds a register with asynchronous SET/RESET (Fig 2-1, second model).
    #[allow(clippy::too_many_arguments)]
    pub fn reg_sr(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        clock: impl Into<Conn>,
        data: impl Into<Conn>,
        set: impl Into<Conn>,
        reset: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Reg { set_reset: true },
            delay,
            vec![clock.into(), data.into(), set.into(), reset.into()],
            Some(output),
        );
    }

    /// Adds a transparent latch (Fig 2-2, first model).
    pub fn latch(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        enable: impl Into<Conn>,
        data: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Latch { set_reset: false },
            delay,
            vec![enable.into(), data.into()],
            Some(output),
        );
    }

    /// Adds a latch with asynchronous SET/RESET (Fig 2-2, second model).
    #[allow(clippy::too_many_arguments)]
    pub fn latch_sr(
        &mut self,
        name: impl Into<String>,
        delay: DelayRange,
        enable: impl Into<Conn>,
        data: impl Into<Conn>,
        set: impl Into<Conn>,
        reset: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Latch { set_reset: true },
            delay,
            vec![enable.into(), data.into(), set.into(), reset.into()],
            Some(output),
        );
    }

    /// Adds a `SETUP HOLD CHK` (§2.4.4): `input` must be quiescent from
    /// `setup` before to `hold` after each rising edge of `clock`.
    pub fn setup_hold(
        &mut self,
        name: impl Into<String>,
        setup: Time,
        hold: Time,
        input: impl Into<Conn>,
        clock: impl Into<Conn>,
    ) {
        self.prim(
            name,
            PrimKind::SetupHold { setup, hold },
            DelayRange::ZERO,
            vec![input.into(), clock.into()],
            None,
        );
    }

    /// Adds a `SETUP RISE HOLD FALL CHK` (§2.4.4): set-up before the
    /// rising edge of `clock`, stability while it is true, and hold after
    /// its falling edge.
    pub fn setup_rise_hold_fall(
        &mut self,
        name: impl Into<String>,
        setup: Time,
        hold: Time,
        input: impl Into<Conn>,
        clock: impl Into<Conn>,
    ) {
        self.prim(
            name,
            PrimKind::SetupRiseHoldFall { setup, hold },
            DelayRange::ZERO,
            vec![input.into(), clock.into()],
            None,
        );
    }

    /// Adds a `MIN PULSE WIDTH` checker (§2.4.5).
    pub fn min_pulse_width(
        &mut self,
        name: impl Into<String>,
        min_high: Time,
        min_low: Time,
        input: impl Into<Conn>,
    ) {
        self.prim(
            name,
            PrimKind::MinPulseWidth {
                high: min_high,
                low: min_low,
            },
            DelayRange::ZERO,
            vec![input.into()],
            None,
        );
    }

    /// Number of signals declared so far.
    #[must_use]
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of primitives added so far.
    #[must_use]
    pub fn prim_count(&self) -> usize {
        self.prims.len()
    }

    /// Validates and produces the [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found: multiple drivers, wrong
    /// input counts, invalid directives, checkers with outputs, etc.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Netlist::new_validated(self.config, self.signals, self.prims, self.by_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_assertions::AssertionKind;

    fn builder() -> NetlistBuilder {
        NetlistBuilder::new(Config::s1_example())
    }

    #[test]
    fn signals_dedup_by_base_name() {
        let mut b = builder();
        let a = b.signal("CLK .P2-3").unwrap();
        let a2 = b.signal("CLK .P2-3").unwrap();
        assert_eq!(a, a2);
        assert_eq!(b.signal_count(), 1);
    }

    #[test]
    fn fixed_width_assertions_keep_every_digit() {
        let mut b = builder();
        let ck = b.signal("CK .P2+10.25").unwrap();
        let a = b.finish().unwrap().signal(ck).assertion.clone().unwrap();
        assert_eq!(
            a.ranges,
            vec![scald_assertions::TimeRange::UnitsPlusNs(2.0, 10.25)]
        );
        // The parsed form declares the same signal without re-reading text.
        let mut b = builder();
        let id = b.signal_parsed("CK", Some(&a), 1).unwrap();
        assert_eq!(b.signal("CK .P2+10.25").unwrap(), id);
        assert!(
            b.signal("CK .P2+10.2").is_err(),
            "10.2 is a different pulse"
        );
    }

    #[test]
    fn conflicting_assertions_rejected() {
        let mut b = builder();
        b.signal("CLK .P2-3").unwrap();
        let err = b.signal("CLK .P2-4").unwrap_err();
        assert!(matches!(err, NetlistError::ConflictingSignal { .. }));
        assert!(err.to_string().contains("assertions"));
    }

    #[test]
    fn later_reference_supplies_assertion() {
        let mut b = builder();
        let id = b.signal("DATA").unwrap();
        let id2 = b.signal("DATA .S0-6").unwrap();
        assert_eq!(id, id2);
        let n = b.finish().unwrap();
        assert_eq!(
            n.signal(id).assertion.as_ref().map(|a| a.kind),
            Some(AssertionKind::Stable)
        );
    }

    #[test]
    fn conflicting_widths_rejected() {
        let mut b = builder();
        b.signal_vec("BUS", 32).unwrap();
        let err = b.signal_vec("BUS", 16).unwrap_err();
        assert!(err.to_string().contains("widths"));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = builder();
        let a = b.signal("A").unwrap();
        let q = b.signal("Q").unwrap();
        b.buf("B1", DelayRange::ZERO, a, q);
        b.buf("B2", DelayRange::ZERO, a, q);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn wrong_input_count_rejected() {
        let mut b = builder();
        let a = b.signal("A").unwrap();
        let q = b.signal("Q").unwrap();
        b.prim(
            "BAD REG",
            PrimKind::Reg { set_reset: false },
            DelayRange::ZERO,
            vec![Conn::new(a)],
            Some(q),
        );
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::WrongInputCount { .. }));
        assert!(err.to_string().contains("needs 2 input(s)"));
    }

    #[test]
    fn invalid_directive_rejected() {
        let mut b = builder();
        let a = b.signal("A").unwrap();
        let c = b.signal("C").unwrap();
        let q = b.signal("Q").unwrap();
        b.and2(
            "G",
            DelayRange::ZERO,
            Conn::new(a).with_directive("HX"),
            c,
            q,
        );
        let err = b.finish().unwrap_err();
        assert!(matches!(
            err,
            NetlistError::InvalidDirective { bad: 'X', .. }
        ));
    }

    #[test]
    fn checker_cannot_drive_output() {
        let mut b = builder();
        let a = b.signal("A").unwrap();
        let ck = b.signal("CK").unwrap();
        let q = b.signal("Q").unwrap();
        b.prim(
            "CHK",
            PrimKind::SetupHold {
                setup: Time::from_ns(1.0),
                hold: Time::from_ns(1.0),
            },
            DelayRange::ZERO,
            vec![Conn::new(a), Conn::new(ck)],
            Some(q),
        );
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::CheckerWithOutput { .. }));
    }

    #[test]
    fn fanout_and_driver_indexes() {
        let mut b = builder();
        let a = b.signal("A").unwrap();
        let q1 = b.signal("Q1").unwrap();
        let q2 = b.signal("Q2").unwrap();
        b.buf("B1", DelayRange::ZERO, a, q1);
        b.not("N1", DelayRange::ZERO, a, q2);
        let n = b.finish().unwrap();
        assert_eq!(n.fanout(a).len(), 2);
        assert!(n.driver(a).is_none());
        let d1 = n.driver(q1).unwrap();
        assert_eq!(n.prim(d1).name, "B1");
    }

    #[test]
    fn wire_delay_resolution_order() {
        let mut b = builder();
        let a = b.signal("A").unwrap();
        let v = b.signal("ADR").unwrap();
        b.set_wire_delay(v, DelayRange::from_ns(0.0, 6.0));
        let q = b.signal("Q").unwrap();
        b.and2(
            "G",
            DelayRange::ZERO,
            Conn::new(a).with_wire_delay(DelayRange::from_ns(1.0, 1.5)),
            v,
            q,
        );
        let n = b.finish().unwrap();
        let g = n.prim(n.driver(q).unwrap());
        // Per-connection override wins.
        assert_eq!(n.wire_delay(&g.inputs[0]), DelayRange::from_ns(1.0, 1.5));
        // Signal-level override next.
        assert_eq!(n.wire_delay(&g.inputs[1]), DelayRange::from_ns(0.0, 6.0));
        // Default otherwise.
        let b2 = Conn::new(a);
        assert_eq!(n.wire_delay(&b2), DelayRange::from_ns(0.0, 2.0));
    }

    #[test]
    fn histogram_matches_table_3_2_style() {
        let mut b = builder();
        let ck = b.signal("CK .P2-3").unwrap();
        let d = b.signal_vec("D", 8).unwrap();
        let q = b.signal_vec("Q", 8).unwrap();
        let s = b.signal("S").unwrap();
        let m = b.signal_vec("M", 8).unwrap();
        b.reg("R1", DelayRange::from_ns(1.5, 4.5), ck, d, q);
        b.mux2("M1", DelayRange::from_ns(1.2, 3.3), s, d, q, m);
        b.setup_hold("C1", Time::from_ns(2.5), Time::from_ns(1.5), d, ck);
        let n = b.finish().unwrap();
        let hist = n.primitive_histogram();
        let names: Vec<&str> = hist.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"REG"));
        assert!(names.contains(&"2 MUX"));
        assert!(names.contains(&"SETUP HOLD CHK"));
        // Average width: REG drives 8 bits, MUX 8 bits, checker 1.
        let avg = n.average_primitive_width();
        assert!((avg - 17.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_connection_round_trips() {
        let c = Conn::new(SignalId(0)).inverted().inverted();
        assert!(!c.invert);
    }
}
