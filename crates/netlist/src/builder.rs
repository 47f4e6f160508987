//! Programmatic netlist construction.
//!
//! [`NetlistBuilder`] is the API equivalent of drawing a SCALD schematic:
//! declare signals (with assertions in their names), instantiate
//! primitives, and [`finish`](NetlistBuilder::finish) to validate. The HDL
//! macro expander lowers to this same builder.

use scald_assertions::Assertion;
use scald_logic::Value;
use scald_wave::{DelayRange, Time};

use crate::netlist::{split_name, Span, NO_OUTPUT};
use crate::{Config, EdgeDelays, Netlist, NetlistError, PrimId, PrimKind, PrimRef, SignalId};

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

/// Incremental builder for a [`Netlist`]: every call appends straight
/// to the netlist's columns, and [`finish`](NetlistBuilder::finish)
/// validates them and fills the driver and fan-out indexes.
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
/// assert_eq!(netlist.prim_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    net: Netlist,
    /// Each signal's index into `net.assertions`, [`NO_ASSERTION`] for
    /// none. The netlist's table is sorted by signal when the builder
    /// finishes; until then it is in the order assertions arrived.
    assertion_at: Vec<u32>,
}

/// An `assertion_at` entry for a signal without an assertion.
const NO_ASSERTION: u32 = u32::MAX;

impl NetlistBuilder {
    /// Creates an empty builder with the given design configuration.
    #[must_use]
    pub fn new(config: Config) -> NetlistBuilder {
        NetlistBuilder {
            net: Netlist::empty(config),
            assertion_at: Vec::new(),
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
        if let Some(id) = self.find_signal(base) {
            let existing = self.net.signal_width[id.index()];
            if existing != width {
                return Err(NetlistError::ConflictingSignal {
                    name: base.to_owned(),
                    detail: format!("widths ({existing} vs {width})"),
                });
            }
            let at = self.assertion_at[id.index()];
            match (at, assertion) {
                (NO_ASSERTION, Some(b)) => {
                    // Later reference supplies the assertion.
                    self.set_assertion(id, b.clone());
                }
                (at, Some(b)) if at != NO_ASSERTION => {
                    let a = &self.net.assertions[at as usize].1;
                    if a != b {
                        return Err(NetlistError::ConflictingSignal {
                            name: base.to_owned(),
                            detail: format!("assertions ({a} vs {b})"),
                        });
                    }
                }
                _ => {}
            }
            return Ok(id);
        }
        let net = &mut self.net;
        let id = SignalId(u32::try_from(net.signal_count()).expect("signal count exceeds u32"));
        net.signal_name.push(Span::push(&mut net.names, base));
        net.signal_width.push(width);
        net.signal_wired_or.push(false);
        net.by_name.insert(&net.names, &net.signal_name, id);
        self.assertion_at.push(NO_ASSERTION);
        if let Some(a) = assertion {
            self.set_assertion(id, a.clone());
        }
        Ok(id)
    }

    fn set_assertion(&mut self, id: SignalId, assertion: Assertion) {
        self.assertion_at[id.index()] = self.net.assertions.len() as u32;
        self.net.assertions.push((id, assertion));
    }

    /// Reserves room for `signals` more signals and `prims` more
    /// primitives, so a caller that knows the design's size builds it
    /// without reallocating the per-signal and per-primitive columns.
    pub fn reserve(&mut self, signals: usize, prims: usize) {
        let net = &mut self.net;
        net.signal_name.reserve_exact(signals);
        net.signal_width.reserve_exact(signals);
        net.signal_wired_or.reserve_exact(signals);
        self.assertion_at.reserve_exact(signals);
        net.by_name.reserve(&net.names, &net.signal_name, signals);
        net.prim_name.reserve_exact(prims);
        net.prim_kind.reserve_exact(prims);
        net.prim_delay.reserve_exact(prims);
        net.prim_output.reserve_exact(prims);
        net.input_start.reserve_exact(prims);
    }

    /// Looks up an already-declared signal by base name.
    #[must_use]
    pub fn find_signal(&self, base_name: &str) -> Option<SignalId> {
        self.net.signal_by_name(base_name)
    }

    /// The declared width of a signal.
    #[must_use]
    pub fn signal_width(&self, signal: SignalId) -> u32 {
        self.net.signal_width[signal.index()]
    }

    /// Marks a signal as a wired-OR bus: multiple drivers are permitted
    /// and their values are joined with the worst-case OR (Fig 3-1's ECL
    /// memory-expansion idiom).
    pub fn mark_wired_or(&mut self, signal: SignalId) {
        self.net.signal_wired_or[signal.index()] = true;
    }

    /// Sets a wire-delay override for all connections driven by `signal`
    /// (the designer-specified interconnection delay of §2.5.3, e.g. the
    /// 0.0–6.0 ns register-file address lines of §3.2). A later call for
    /// the same signal replaces an earlier one.
    pub fn set_wire_delay(&mut self, signal: SignalId, delay: DelayRange) {
        self.net.signal_wire_delays.push((signal, delay));
    }

    /// Appends one primitive's columns and its input slots.
    fn push(
        &mut self,
        name: &str,
        kind: PrimKind,
        delay: DelayRange,
        edge_delays: Option<EdgeDelays>,
        inputs: impl IntoIterator<Item = Conn>,
        output: Option<SignalId>,
    ) {
        for conn in inputs {
            self.push_input(
                conn.signal,
                conn.invert,
                conn.directive.as_deref(),
                conn.wire_delay,
            );
        }
        self.push_header(name, kind, delay, edge_delays, output);
    }

    /// Appends one input slot of the primitive being added.
    fn push_input(
        &mut self,
        signal: SignalId,
        invert: bool,
        directive: Option<&str>,
        wire_delay: Option<DelayRange>,
    ) {
        let net = &mut self.net;
        let slot = u32::try_from(net.input_signal.len()).expect("input count exceeds u32");
        net.input_signal.push(signal);
        net.input_invert.push(invert);
        if let Some(d) = directive {
            net.directives
                .push((slot, Span::push(&mut net.directive_text, d)));
        }
        if let Some(w) = wire_delay {
            net.conn_wire_delays.push((slot, w));
        }
    }

    /// Appends the columns of the primitive whose inputs were just
    /// pushed, closing its input row.
    fn push_header(
        &mut self,
        name: &str,
        kind: PrimKind,
        delay: DelayRange,
        edge_delays: Option<EdgeDelays>,
        output: Option<SignalId>,
    ) {
        let net = &mut self.net;
        let id = PrimId(u32::try_from(net.prim_count()).expect("primitive count exceeds u32"));
        net.prim_name.push(Span::push(&mut net.names, name));
        net.prim_kind.push(kind);
        net.prim_delay.push(delay);
        net.prim_output.push(output.map_or(NO_OUTPUT, |s| s.0));
        net.input_start.push(net.input_signal.len() as u32);
        if let Some(ed) = edge_delays {
            net.edge_delays.push((id, ed));
        }
    }

    /// Adds an arbitrary primitive. Prefer the typed helpers below.
    pub fn prim(
        &mut self,
        name: impl AsRef<str>,
        kind: PrimKind,
        delay: DelayRange,
        inputs: impl IntoIterator<Item = Conn>,
        output: Option<SignalId>,
    ) {
        self.push(name.as_ref(), kind, delay, None, inputs, output);
    }

    /// Adds a copy of a primitive of another netlist, connections and
    /// all, with the given timing. Used by delta application
    /// (`NetlistDelta::apply`) to replay an existing design; the
    /// referenced signal ids must mean the same signals in this builder.
    pub fn copy_prim(
        &mut self,
        prim: PrimRef<'_>,
        delay: DelayRange,
        edge_delays: Option<EdgeDelays>,
    ) {
        for conn in prim.inputs() {
            self.push_input(
                conn.signal(),
                conn.invert(),
                conn.directive(),
                conn.wire_delay(),
            );
        }
        self.push_header(prim.name(), prim.kind(), delay, edge_delays, prim.output());
    }

    /// Adds a variadic gate (`And`, `Or`, `Xor`, their inverting forms, or
    /// `Chg`).
    pub fn gate<C: Into<Conn>>(
        &mut self,
        name: impl AsRef<str>,
        kind: PrimKind,
        delay: DelayRange,
        inputs: impl IntoIterator<Item = C>,
        output: SignalId,
    ) {
        let inputs = inputs.into_iter().map(Into::into);
        self.prim(name, kind, delay, inputs, Some(output));
    }

    /// Adds a 2-input OR gate.
    pub fn or2(
        &mut self,
        name: impl AsRef<str>,
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
        name: impl AsRef<str>,
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
        name: impl AsRef<str>,
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
        name: impl AsRef<str>,
        rise: DelayRange,
        fall: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        let ed = EdgeDelays { rise, fall };
        let (name, input) = (name.as_ref(), [input.into()]);
        self.push(
            name,
            PrimKind::Not,
            ed.envelope(),
            Some(ed),
            input,
            Some(output),
        );
    }

    /// Adds a buffer with separate rising/falling delays (§4.2.2
    /// extension).
    pub fn buf_asym(
        &mut self,
        name: impl AsRef<str>,
        rise: DelayRange,
        fall: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        let ed = EdgeDelays { rise, fall };
        let (name, input) = (name.as_ref(), [input.into()]);
        self.push(
            name,
            PrimKind::Buf,
            ed.envelope(),
            Some(ed),
            input,
            Some(output),
        );
    }

    /// Adds a buffer.
    pub fn buf(
        &mut self,
        name: impl AsRef<str>,
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
        name: impl AsRef<str>,
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
        name: impl AsRef<str>,
        delay: DelayRange,
        input: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(name, PrimKind::Delay, delay, [input.into()], Some(output));
    }

    /// Adds a constant driver.
    pub fn constant(&mut self, name: impl AsRef<str>, value: Value, output: SignalId) {
        self.prim(
            name,
            PrimKind::Const(value),
            DelayRange::ZERO,
            [],
            Some(output),
        );
    }

    /// Adds a 2-input multiplexer: `output = select ? d1 : d0`.
    pub fn mux2(
        &mut self,
        name: impl AsRef<str>,
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
            [select.into(), d0.into(), d1.into()],
            Some(output),
        );
    }

    /// Adds an edge-triggered register (Fig 2-1, first model).
    pub fn reg(
        &mut self,
        name: impl AsRef<str>,
        delay: DelayRange,
        clock: impl Into<Conn>,
        data: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Reg { set_reset: false },
            delay,
            [clock.into(), data.into()],
            Some(output),
        );
    }

    /// Adds a register with asynchronous SET/RESET (Fig 2-1, second model).
    #[allow(clippy::too_many_arguments)]
    pub fn reg_sr(
        &mut self,
        name: impl AsRef<str>,
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
            [clock.into(), data.into(), set.into(), reset.into()],
            Some(output),
        );
    }

    /// Adds a transparent latch (Fig 2-2, first model).
    pub fn latch(
        &mut self,
        name: impl AsRef<str>,
        delay: DelayRange,
        enable: impl Into<Conn>,
        data: impl Into<Conn>,
        output: SignalId,
    ) {
        self.prim(
            name,
            PrimKind::Latch { set_reset: false },
            delay,
            [enable.into(), data.into()],
            Some(output),
        );
    }

    /// Adds a latch with asynchronous SET/RESET (Fig 2-2, second model).
    #[allow(clippy::too_many_arguments)]
    pub fn latch_sr(
        &mut self,
        name: impl AsRef<str>,
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
            [enable.into(), data.into(), set.into(), reset.into()],
            Some(output),
        );
    }

    /// Adds a `SETUP HOLD CHK` (§2.4.4): `input` must be quiescent from
    /// `setup` before to `hold` after each rising edge of `clock`.
    pub fn setup_hold(
        &mut self,
        name: impl AsRef<str>,
        setup: Time,
        hold: Time,
        input: impl Into<Conn>,
        clock: impl Into<Conn>,
    ) {
        self.prim(
            name,
            PrimKind::SetupHold { setup, hold },
            DelayRange::ZERO,
            [input.into(), clock.into()],
            None,
        );
    }

    /// Adds a `SETUP RISE HOLD FALL CHK` (§2.4.4): set-up before the
    /// rising edge of `clock`, stability while it is true, and hold after
    /// its falling edge.
    pub fn setup_rise_hold_fall(
        &mut self,
        name: impl AsRef<str>,
        setup: Time,
        hold: Time,
        input: impl Into<Conn>,
        clock: impl Into<Conn>,
    ) {
        self.prim(
            name,
            PrimKind::SetupRiseHoldFall { setup, hold },
            DelayRange::ZERO,
            [input.into(), clock.into()],
            None,
        );
    }

    /// Adds a `MIN PULSE WIDTH` checker (§2.4.5).
    pub fn min_pulse_width(
        &mut self,
        name: impl AsRef<str>,
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
            [input.into()],
            None,
        );
    }

    /// Number of signals declared so far.
    #[must_use]
    pub fn signal_count(&self) -> usize {
        self.net.signal_count()
    }

    /// Number of primitives added so far.
    #[must_use]
    pub fn prim_count(&self) -> usize {
        self.net.prim_count()
    }

    /// Validates and produces the [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found: multiple drivers, wrong
    /// input counts, invalid directives, checkers with outputs, etc.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let NetlistBuilder {
            mut net,
            assertion_at,
        } = self;
        drop(assertion_at);
        net.assertions.sort_unstable_by_key(|&(s, _)| s);
        // The last override of a signal wins.
        net.signal_wire_delays.sort_by_key(|&(s, _)| s);
        let mut overrides = std::mem::take(&mut net.signal_wire_delays);
        overrides.reverse();
        overrides.dedup_by_key(|&mut (s, _)| s);
        overrides.reverse();
        net.signal_wire_delays = overrides;
        net.shrink_to_fit();
        net.validate()?;
        Ok(net)
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
        let a = b.finish().unwrap().signal(ck).assertion().cloned().unwrap();
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
            n.signal(id).assertion().map(|a| a.kind),
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
        assert_eq!(n.prim(d1).name(), "B1");
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
        let q2 = b.signal("Q2").unwrap();
        b.buf("B", DelayRange::ZERO, a, q2);
        let n = b.finish().unwrap();
        let g = n.prim(n.driver(q).unwrap());
        // Per-connection override wins.
        assert_eq!(n.wire_delay(g.input(0)), DelayRange::from_ns(1.0, 1.5));
        // Signal-level override next.
        assert_eq!(n.wire_delay(g.input(1)), DelayRange::from_ns(0.0, 6.0));
        // Default otherwise.
        let other = n.prim(n.driver(q2).unwrap());
        assert_eq!(n.wire_delay(other.input(0)), DelayRange::from_ns(0.0, 2.0));
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
