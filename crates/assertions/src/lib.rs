//! Signal assertions: the `.P`, `.C` and `.S` suffixes of SCALD signal
//! names (§2.5).
//!
//! In SCALD, timing assertions are part of a signal's *name*, which
//! guarantees that every reference to the signal agrees on its timing.
//! Three kinds exist:
//!
//! * **Precision clocks** — `NAME .P <spec>`: clocks that have been
//!   hand-adjusted (de-skewed); they get a tight default skew.
//! * **Non-precision clocks** — `NAME .C <spec>`: unadjusted clocks, with a
//!   larger default skew.
//! * **Stable assertions** — `NAME .S <spec>`: control/data signals that
//!   the designer asserts are stable during the given intervals and may be
//!   changing during the rest of the cycle.
//!
//! The `<spec>` grammar (§2.5.1):
//!
//! ```text
//! spec   := ranges [ '(' minus ',' plus ')' ] [ 'L' ]
//! ranges := range { ',' range }
//! range  := time | time '-' time | time '+' width_ns
//! ```
//!
//! Times are in designer-chosen *clock units* that scale with the period
//! (§2.3); a `time '+' width` range fixes the pulse width in nanoseconds so
//! it does **not** scale. A single time means a one-clock-unit interval.
//! `L` asserts the clock is *low* during the given ranges. All ranges are
//! taken modulo the cycle time (§3.2), so `.S4-9` on an 8-unit cycle wraps.
//!
//! # Examples
//!
//! ```
//! use scald_assertions::{Assertion, AssertionKind, parse_signal_name};
//!
//! let (base, assertion) = parse_signal_name("WRITE .S0-6 L").unwrap();
//! assert_eq!(base, "WRITE");
//! let a = assertion.unwrap();
//! assert_eq!(a.kind, AssertionKind::Stable);
//! assert!(a.active_low);
//!
//! let (base, assertion) = parse_signal_name("CK .P2-3").unwrap();
//! assert_eq!(base, "CK");
//! assert_eq!(assertion.unwrap().kind, AssertionKind::PrecisionClock);
//! ```

#![warn(missing_docs)]

use scald_logic::Value;
use scald_wave::{Skew, Time, Waveform};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Which kind of assertion a signal name carries (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssertionKind {
    /// `.P` — a clock adjusted to a specified (small) skew.
    PrecisionClock,
    /// `.C` — an unadjusted clock with the larger default skew.
    NonPrecisionClock,
    /// `.S` — a stable assertion on a control or data signal.
    Stable,
}

impl AssertionKind {
    /// The suffix letter (`P`, `C` or `S`).
    #[must_use]
    pub const fn letter(self) -> char {
        match self {
            AssertionKind::PrecisionClock => 'P',
            AssertionKind::NonPrecisionClock => 'C',
            AssertionKind::Stable => 'S',
        }
    }

    /// `true` for the two clock kinds.
    #[must_use]
    pub const fn is_clock(self) -> bool {
        matches!(
            self,
            AssertionKind::PrecisionClock | AssertionKind::NonPrecisionClock
        )
    }
}

/// One `time`, `time-time` or `time+width` range in an assertion spec.
///
/// Starts and ends are in clock units; a [`TimeRange::UnitsPlusNs`] end is
/// an absolute width in nanoseconds that does not scale with the period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeRange {
    /// `t`: a one-clock-unit interval starting at `t`.
    Single(f64),
    /// `a-b`: from time `a` to time `b` (both clock units, modulo period).
    Units(f64, f64),
    /// `a+w`: from time `a` (clock units) for `w` nanoseconds.
    UnitsPlusNs(f64, f64),
}

impl TimeRange {
    /// Resolves the range to absolute `(start, end)` instants given the
    /// clock-unit scale.
    #[must_use]
    pub fn resolve(self, clock_unit: Time) -> (Time, Time) {
        let at = |units: f64| Time::from_ps((units * clock_unit.as_ps() as f64).round() as i64);
        match self {
            TimeRange::Single(t) => (at(t), at(t + 1.0)),
            TimeRange::Units(a, b) => (at(a), at(b)),
            TimeRange::UnitsPlusNs(a, w) => (at(a), at(a) + Time::from_ns(w)),
        }
    }
}

impl fmt::Display for TimeRange {
    /// Writes the range so that [`parse_assertion`] reads back exactly the
    /// same values: whole clock units as integers, a `+` width with one
    /// decimal (`+10.0`) when that is exact, and otherwise the shortest
    /// decimal that parses back to the same `f64` (`+10.25`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn num(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
            if x.fract() == 0.0 && (x as i64) as f64 == x {
                write!(f, "{}", x as i64)
            } else {
                write!(f, "{x}")
            }
        }
        match *self {
            TimeRange::Single(t) => num(f, t),
            TimeRange::Units(a, b) => {
                num(f, a)?;
                write!(f, "-")?;
                num(f, b)
            }
            TimeRange::UnitsPlusNs(a, w) => {
                num(f, a)?;
                let one_decimal = format!("{w:.1}");
                if one_decimal.parse::<f64>() == Ok(w) {
                    write!(f, "+{one_decimal}")
                } else {
                    write!(f, "+{w}")
                }
            }
        }
    }
}

/// A parsed signal assertion.
///
/// Two assertions are equal when they specify the same kind, ranges, skew
/// and polarity — the test SCALD applies when checking that the interface
/// signals of separately verified design sections are consistent (§2.5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Assertion {
    /// Clock or stable assertion.
    pub kind: AssertionKind,
    /// The asserted intervals, in clock units.
    pub ranges: Vec<TimeRange>,
    /// Explicit skew override `(minus, plus)` in nanoseconds; `None` uses
    /// the default for the kind.
    pub skew: Option<(f64, f64)>,
    /// `L`: the clock is low (rather than high) during the ranges.
    pub active_low: bool,
}

/// Timing context needed to turn an [`Assertion`] into a waveform:
/// the circuit period, the clock-unit scale (§2.3), and the default skews
/// for the two clock categories (§2.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingContext {
    /// The circuit clock period (§2.2).
    pub period: Time,
    /// One designer clock unit, e.g. one-eighth of the period.
    pub clock_unit: Time,
    /// Default skew for `.P` clocks (the thesis used ±1.0 ns).
    pub precision_skew: Skew,
    /// Default skew for `.C` clocks (the thesis used ±5.0 ns).
    pub nonprecision_skew: Skew,
}

impl TimingContext {
    /// The context used throughout the thesis' examples: a 50 ns cycle with
    /// 6.25 ns clock units (8 units per cycle), ±1 ns precision skew and
    /// ±5 ns non-precision skew (§3.2, §3.3).
    #[must_use]
    pub fn s1_example() -> TimingContext {
        TimingContext {
            period: Time::from_ns(50.0),
            clock_unit: Time::from_ns(6.25),
            precision_skew: Skew::from_ns(1.0, 1.0),
            nonprecision_skew: Skew::from_ns(5.0, 5.0),
        }
    }
}

impl Assertion {
    /// Feeds the assertion's structure to `state`: its kind, each range
    /// (variant plus the `f64` bit patterns), its skew and its polarity.
    /// Assertions with the same bits hash alike, and no text is built.
    /// (`Assertion` does not implement [`Hash`]: its `PartialEq` equates
    /// `0.0` with `-0.0`, which differ in bits.)
    pub fn hash_bits<H: Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
        state.write_usize(self.ranges.len());
        for range in &self.ranges {
            let (tag, a, b) = match *range {
                TimeRange::Single(t) => (0_u8, t, 0.0),
                TimeRange::Units(a, b) => (1, a, b),
                TimeRange::UnitsPlusNs(a, w) => (2, a, w),
            };
            state.write_u8(tag);
            state.write_u64(a.to_bits());
            state.write_u64(b.to_bits());
        }
        match self.skew {
            None => state.write_u8(0),
            Some((minus, plus)) => {
                state.write_u8(1);
                state.write_u64(minus.to_bits());
                state.write_u64(plus.to_bits());
            }
        }
        self.active_low.hash(state);
    }

    /// Builds the initial waveform and skew for a signal carrying this
    /// assertion (§2.9).
    ///
    /// Clock assertions produce a `0`/`1` waveform (high during the ranges,
    /// or low if `L`) plus the clock's skew, kept separate so the pulse
    /// width survives (§2.8). Stable assertions produce `S` during the
    /// ranges and `C` elsewhere, with zero skew.
    #[must_use]
    pub fn to_state(&self, ctx: &TimingContext) -> (Waveform, Skew) {
        let (asserted, base) = match (self.kind, self.active_low) {
            (AssertionKind::Stable, _) => (Value::Stable, Value::Change),
            (_, false) => (Value::One, Value::Zero),
            (_, true) => (Value::Zero, Value::One),
        };
        let wave = Waveform::from_intervals(
            ctx.period,
            base,
            self.ranges.iter().map(|r| {
                let (s, e) = r.resolve(ctx.clock_unit);
                (s, e, asserted)
            }),
        );
        let skew = if self.kind.is_clock() {
            match self.skew {
                Some((m, p)) => Skew::from_ns(m.abs(), p),
                None => match self.kind {
                    AssertionKind::PrecisionClock => ctx.precision_skew,
                    AssertionKind::NonPrecisionClock => ctx.nonprecision_skew,
                    AssertionKind::Stable => unreachable!(),
                },
            }
        } else {
            Skew::ZERO
        };
        (wave, skew)
    }
}

impl fmt::Display for Assertion {
    /// Reconstructs the canonical suffix text, e.g. `.C2-3,5-6 L`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".{}", self.kind.letter())?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        if let Some((m, p)) = self.skew {
            write!(f, " ({m},{p})")?;
        }
        if self.active_low {
            write!(f, " L")?;
        }
        Ok(())
    }
}

/// Error from [`parse_signal_name`] / [`parse_assertion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAssertionError {
    message: String,
}

impl ParseAssertionError {
    fn new(msg: impl Into<String>) -> ParseAssertionError {
        ParseAssertionError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for ParseAssertionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid assertion: {}", self.message)
    }
}

impl std::error::Error for ParseAssertionError {}

/// Splits a full SCALD signal name into its base name and optional
/// assertion.
///
/// The assertion starts at the last ` .P`, ` .C` or ` .S` in the name
/// (assertions "are given at the end of signal names and are preceded by a
/// period", §2.5.1). Names without such a suffix have no assertion.
///
/// # Errors
///
/// Returns an error if an assertion suffix is present but malformed.
///
/// ```
/// use scald_assertions::parse_signal_name;
/// let (base, a) = parse_signal_name("W DATA .S0-6").unwrap();
/// assert_eq!(base, "W DATA");
/// assert!(a.is_some());
/// let (base, a) = parse_signal_name("PLAIN WIRE").unwrap();
/// assert_eq!(base, "PLAIN WIRE");
/// assert!(a.is_none());
/// ```
pub fn parse_signal_name(full: &str) -> Result<(String, Option<Assertion>), ParseAssertionError> {
    split_signal_name(full).map(|(base, assertion)| (base.to_owned(), assertion))
}

/// [`parse_signal_name`] without copying: the base name is returned as a
/// slice of `full`.
///
/// # Errors
///
/// As for [`parse_signal_name`].
///
/// ```
/// use scald_assertions::split_signal_name;
/// let (base, a) = split_signal_name("  W DATA .S0-6").unwrap();
/// assert_eq!(base, "W DATA");
/// assert!(a.is_some());
/// ```
pub fn split_signal_name(full: &str) -> Result<(&str, Option<Assertion>), ParseAssertionError> {
    let full = full.trim();
    // Find the last " .X" with X in {P, C, S}.
    let mut split_at = None;
    let bytes = full.as_bytes();
    for i in (0..full.len()).rev() {
        if bytes[i] == b'.'
            && i > 0
            && bytes[i - 1] == b' '
            && i + 1 < full.len()
            && matches!(bytes[i + 1], b'P' | b'C' | b'S')
        {
            split_at = Some(i);
            break;
        }
    }
    match split_at {
        None => Ok((full, None)),
        Some(i) => {
            let base = full[..i].trim_end();
            if base.is_empty() {
                return Err(ParseAssertionError::new(format!(
                    "signal name {full:?} is only an assertion"
                )));
            }
            let assertion = parse_assertion(&full[i..])?;
            Ok((base, Some(assertion)))
        }
    }
}

/// Parses an assertion suffix such as `.C2-3,5-6 L`, `.P2,5 (-0.5,0.5)` or
/// `.S0-6`.
///
/// # Errors
///
/// Returns an error if the suffix does not match the grammar in the
/// [crate documentation](crate).
pub fn parse_assertion(s: &str) -> Result<Assertion, ParseAssertionError> {
    let s = s.trim();
    let rest = s
        .strip_prefix('.')
        .ok_or_else(|| ParseAssertionError::new(format!("{s:?} does not start with '.'")))?;
    let mut chars = rest.chars();
    let kind = match chars.next() {
        Some('P') => AssertionKind::PrecisionClock,
        Some('C') => AssertionKind::NonPrecisionClock,
        Some('S') => AssertionKind::Stable,
        other => {
            return Err(ParseAssertionError::new(format!(
                "expected P, C or S after '.', found {other:?}"
            )))
        }
    };
    let spec = chars.as_str().trim();

    let mut ranges = Vec::new();
    let mut skew = None;
    let mut active_low = false;

    let mut toks = Tokenizer::new(spec);
    // Ranges: number [ ('-'|'+') number ] { ',' ... }
    loop {
        let start = toks
            .number()
            .ok_or_else(|| ParseAssertionError::new(format!("expected a time in {spec:?}")))?;
        match toks.peek() {
            Some('-') => {
                toks.bump();
                let end = toks.number().ok_or_else(|| {
                    ParseAssertionError::new(format!("expected end time after '-' in {spec:?}"))
                })?;
                ranges.push(TimeRange::Units(start, end));
            }
            Some('+') => {
                toks.bump();
                let width = toks.number().ok_or_else(|| {
                    ParseAssertionError::new(format!("expected width after '+' in {spec:?}"))
                })?;
                ranges.push(TimeRange::UnitsPlusNs(start, width));
            }
            _ => ranges.push(TimeRange::Single(start)),
        }
        if toks.peek() == Some(',') {
            toks.bump();
        } else {
            break;
        }
    }
    // Optional skew "(minus,plus)".
    toks.skip_ws();
    if toks.peek() == Some('(') {
        toks.bump();
        let minus = toks
            .number()
            .ok_or_else(|| ParseAssertionError::new("expected minus skew after '('"))?;
        if toks.peek() == Some(',') {
            toks.bump();
        } else {
            return Err(ParseAssertionError::new(
                "expected ',' in skew specification",
            ));
        }
        let plus = toks
            .number()
            .ok_or_else(|| ParseAssertionError::new("expected plus skew"))?;
        if toks.peek() == Some(')') {
            toks.bump();
        } else {
            return Err(ParseAssertionError::new("expected ')' to close skew"));
        }
        if minus > 0.0 {
            return Err(ParseAssertionError::new(format!(
                "minus skew must be negative or zero, got {minus}"
            )));
        }
        if plus < 0.0 {
            return Err(ParseAssertionError::new(format!(
                "plus skew must be positive or zero, got {plus}"
            )));
        }
        skew = Some((minus, plus));
    }
    // Optional polarity 'L'.
    toks.skip_ws();
    if toks.peek() == Some('L') {
        toks.bump();
        active_low = true;
    }
    toks.skip_ws();
    if let Some(c) = toks.peek() {
        return Err(ParseAssertionError::new(format!(
            "unexpected {c:?} at end of assertion {s:?}"
        )));
    }
    if kind == AssertionKind::Stable && skew.is_some() {
        return Err(ParseAssertionError::new(
            "stable assertions cannot specify skew",
        ));
    }
    Ok(Assertion {
        kind,
        ranges,
        skew,
        active_low,
    })
}

/// Minimal character tokenizer for assertion specs.
struct Tokenizer<'a> {
    rest: std::str::Chars<'a>,
}

impl<'a> Tokenizer<'a> {
    fn new(s: &'a str) -> Tokenizer<'a> {
        Tokenizer { rest: s.chars() }
    }

    fn skip_ws(&mut self) {
        while self.peek() == Some(' ') {
            self.bump();
        }
    }

    fn peek(&self) -> Option<char> {
        self.rest.clone().next()
    }

    fn bump(&mut self) {
        self.rest.next();
    }

    /// Parses an optionally signed decimal number. Skips leading spaces.
    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let s = self.rest.as_str();
        let mut len = 0;
        let bytes = s.as_bytes();
        if len < bytes.len() && bytes[len] == b'-' {
            len += 1;
        }
        let digits_start = len;
        while len < bytes.len() && (bytes[len].is_ascii_digit() || bytes[len] == b'.') {
            len += 1;
        }
        if len == digits_start {
            return None;
        }
        // A numeral too long for an `f64` reads as infinity, which no
        // assertion can display and read back; reject it here.
        let parsed = s[..len].parse::<f64>().ok().filter(|x| x.is_finite())?;
        for _ in 0..len {
            self.bump();
        }
        Some(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value::*;

    fn ctx() -> TimingContext {
        TimingContext::s1_example()
    }

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn parse_paper_examples() {
        // "XYZ .C 4-6 L"
        let (base, a) = parse_signal_name("XYZ .C4-6 L").unwrap();
        assert_eq!(base, "XYZ");
        let a = a.unwrap();
        assert_eq!(a.kind, AssertionKind::NonPrecisionClock);
        assert_eq!(a.ranges, vec![TimeRange::Units(4.0, 6.0)]);
        assert!(a.active_low);

        // "XYZ .C2-3,5-6"
        let (_, a) = parse_signal_name("XYZ .C2-3,5-6").unwrap();
        let a = a.unwrap();
        assert_eq!(
            a.ranges,
            vec![TimeRange::Units(2.0, 3.0), TimeRange::Units(5.0, 6.0)]
        );

        // "XYZ .C2,5" — single times are one clock unit wide.
        let (_, a) = parse_signal_name("XYZ .C2,5").unwrap();
        let a = a.unwrap();
        assert_eq!(
            a.ranges,
            vec![TimeRange::Single(2.0), TimeRange::Single(5.0)]
        );

        // "2+10.0": high at unit 2 for 10.0 ns.
        let (_, a) = parse_signal_name("XYZ .C2+10.0").unwrap();
        let a = a.unwrap();
        assert_eq!(a.ranges, vec![TimeRange::UnitsPlusNs(2.0, 10.0)]);
    }

    #[test]
    fn parse_spaces_variant() {
        let (base, a) = parse_signal_name("CK .P 2-3 L").unwrap();
        assert_eq!(base, "CK");
        let a = a.unwrap();
        assert_eq!(a.kind, AssertionKind::PrecisionClock);
        assert!(a.active_low);
    }

    #[test]
    fn parse_explicit_skew() {
        let (_, a) = parse_signal_name("CK .P2-3 (-0.5,0.5)").unwrap();
        let a = a.unwrap();
        assert_eq!(a.skew, Some((-0.5, 0.5)));
    }

    #[test]
    fn parse_multiword_base_names() {
        let (base, a) = parse_signal_name("W DATA .S0-6").unwrap();
        assert_eq!(base, "W DATA");
        assert_eq!(a.unwrap().kind, AssertionKind::Stable);
        let (base, a) = parse_signal_name("READ ADR .S4-9").unwrap();
        assert_eq!(base, "READ ADR");
        assert!(a.is_some());
    }

    #[test]
    fn names_without_assertions() {
        let (base, a) = parse_signal_name("REG OUT").unwrap();
        assert_eq!(base, "REG OUT");
        assert!(a.is_none());
        // A '.' not preceded by a space is part of the name.
        let (base, a) = parse_signal_name("NET.Px").unwrap();
        assert_eq!(base, "NET.Px");
        assert!(a.is_none());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_signal_name("X .Q1-2").is_ok()); // .Q is not an assertion
        assert!(parse_assertion(".C").is_err()); // no ranges
        assert!(parse_assertion(".C1-2 X").is_err()); // trailing junk
        assert!(parse_assertion(".C1-2 (0.5,0.5)").is_err()); // minus must be <= 0
        assert!(parse_assertion(".C1-2 (-0.5,-0.5)").is_err()); // plus must be >= 0
        assert!(parse_assertion(".S1-2 (-1,1)").is_err()); // stable has no skew
        let err = parse_assertion(".C").unwrap_err();
        assert!(err.to_string().contains("invalid assertion"));
    }

    #[test]
    fn clock_waveform_high_during_ranges() {
        // .C2-3,5-6 on the 8-unit 50 ns cycle: high 12.5..18.75, 31.25..37.5.
        let a = parse_assertion(".C2-3,5-6").unwrap();
        let (wave, skew) = a.to_state(&ctx());
        assert_eq!(wave.value_at(ns(14.0)), One);
        assert_eq!(wave.value_at(ns(20.0)), Zero);
        assert_eq!(wave.value_at(ns(33.0)), One);
        assert_eq!(wave.value_at(ns(40.0)), Zero);
        assert_eq!(skew, Skew::from_ns(5.0, 5.0)); // non-precision default
    }

    #[test]
    fn active_low_clock() {
        let a = parse_assertion(".C4-6 L").unwrap();
        let (wave, _) = a.to_state(&ctx());
        // Low from unit 4 (25 ns) to unit 6 (37.5 ns), high elsewhere.
        assert_eq!(wave.value_at(ns(30.0)), Zero);
        assert_eq!(wave.value_at(ns(10.0)), One);
        assert_eq!(wave.value_at(ns(40.0)), One);
    }

    #[test]
    fn precision_clock_gets_tight_default_skew() {
        let a = parse_assertion(".P2,5").unwrap();
        let (_, skew) = a.to_state(&ctx());
        assert_eq!(skew, Skew::from_ns(1.0, 1.0));
    }

    #[test]
    fn explicit_skew_overrides_default() {
        let a = parse_assertion(".P2-3 (-0.25,0.25)").unwrap();
        let (_, skew) = a.to_state(&ctx());
        assert_eq!(skew, Skew::from_ns(0.25, 0.25));
    }

    #[test]
    fn fixed_width_range_does_not_scale() {
        let a = parse_assertion(".C2+10.0").unwrap();
        let (wave, _) = a.to_state(&ctx());
        // High from 12.5 ns for exactly 10 ns.
        assert_eq!(wave.value_at(ns(12.5)), One);
        assert_eq!(wave.value_at(ns(22.4)), One);
        assert_eq!(wave.value_at(ns(22.5)), Zero);
    }

    #[test]
    fn stable_assertion_wraps_modulo_cycle() {
        // ".S4-9" on the 8-unit cycle: stable 4..8 and 0..1 (§3.2).
        let a = parse_assertion(".S4-9").unwrap();
        let (wave, skew) = a.to_state(&ctx());
        assert_eq!(skew, Skew::ZERO);
        assert_eq!(wave.value_at(ns(30.0)), Stable); // unit 4.8
        assert_eq!(wave.value_at(ns(49.0)), Stable); // unit 7.8
        assert_eq!(wave.value_at(ns(3.0)), Stable); // unit 0.5 (wrapped)
        assert_eq!(wave.value_at(ns(10.0)), Change); // unit 1.6
    }

    #[test]
    fn stable_assertion_w_data_example() {
        // "W DATA .S0-6": stable 0..37.5 ns, changing 37.5..50.
        let a = parse_assertion(".S0-6").unwrap();
        let (wave, _) = a.to_state(&ctx());
        assert_eq!(wave.value_at(ns(0.0)), Stable);
        assert_eq!(wave.value_at(ns(37.0)), Stable);
        assert_eq!(wave.value_at(ns(38.0)), Change);
        assert_eq!(wave.value_at(ns(49.0)), Change);
    }

    #[test]
    fn display_round_trip() {
        for text in [
            ".C2-3,5-6",
            ".P2,5",
            ".C4-6 L",
            ".C2+10.0",
            ".C2+10.25",
            ".P2-3 (-0.5,0.5)",
            ".S0-6",
        ] {
            let a = parse_assertion(text).unwrap();
            let shown = a.to_string();
            assert_eq!(shown, text, "canonical text");
            let reparsed = parse_assertion(&shown).unwrap();
            assert_eq!(reparsed, a, "round trip failed for {text:?} -> {shown:?}");
        }
        // Whole numbers beyond `i64` keep their value too.
        let a = parse_assertion(".S100000000000000000000-100000000000000000001").unwrap();
        assert_eq!(parse_assertion(&a.to_string()).unwrap(), a);
    }

    #[test]
    fn numerals_too_long_for_f64_are_rejected() {
        let huge = format!(".S1-{}", "9".repeat(400));
        assert!(parse_assertion(&huge).is_err());
    }

    #[test]
    fn equality_supports_interface_consistency_checks() {
        let a = parse_assertion(".S0-6").unwrap();
        let b = parse_assertion(".S0-6").unwrap();
        let c = parse_assertion(".S0-7").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
