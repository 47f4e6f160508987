//! Time quantities, delay ranges and skew.
//!
//! The thesis expresses component timing in nanoseconds with one decimal
//! (e.g. a gate with a 1.5/3.0 ns delay) and design timing in *clock units*
//! that scale with the period (§2.3). To keep all interval arithmetic exact
//! we represent time as an integer count of picoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An exact time quantity in integer picoseconds.
///
/// `Time` is used both for instants within a clock period and for durations
/// (delays, set-up times, pulse widths). All the thesis' example values
/// (0.5 ns, 6.25 ns clock units, …) are exactly representable.
///
/// ```
/// use scald_wave::Time;
/// let t = Time::from_ns(6.25);
/// assert_eq!(t.as_ps(), 6_250);
/// assert_eq!((t + t).to_string(), "12.5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

impl Time {
    /// Zero picoseconds.
    pub const ZERO: Time = Time(0);

    /// Constructs a time from an integer number of picoseconds.
    #[must_use]
    pub const fn from_ps(ps: i64) -> Time {
        Time(ps)
    }

    /// Constructs a time from a (possibly fractional) number of
    /// nanoseconds, rounding to the nearest picosecond.
    #[must_use]
    pub fn from_ns(ns: f64) -> Time {
        Time((ns * 1_000.0).round() as i64)
    }

    /// The number of picoseconds.
    #[must_use]
    pub const fn as_ps(self) -> i64 {
        self.0
    }

    /// The value in nanoseconds (may be fractional).
    #[must_use]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Euclidean remainder, used to wrap instants into `[0, period)`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    #[must_use]
    pub fn rem_period(self, period: Time) -> Time {
        assert!(period > Time::ZERO, "period must be positive");
        Time(self.0.rem_euclid(period.0))
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `true` if this time is negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Neg for Time {
    type Output = Time;
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Mul<i64> for Time {
    type Output = Time;
    fn mul(self, rhs: i64) -> Time {
        Time(self.0 * rhs)
    }
}

impl fmt::Display for Time {
    /// Formats in nanoseconds the way the thesis' listings do
    /// (`11.5`, `0.0`, `6.25`): the exact decimal value of the integer
    /// picoseconds, with trailing zeros dropped but at least one digit
    /// after the point. Width and fill flags are ignored.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0.unsigned_abs();
        let (mut whole, frac) = (ps / 1_000, ps % 1_000);
        let frac_digits = if frac % 100 == 0 {
            1
        } else if frac % 10 == 0 {
            2
        } else {
            3
        };
        // Sign, at most 16 whole digits, the point and 3 fraction digits.
        let mut buf = [0u8; 24];
        let mut at = buf.len();
        let mut rest = frac / 10u64.pow(3 - frac_digits);
        for _ in 0..frac_digits {
            at -= 1;
            buf[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        at -= 1;
        buf[at] = b'.';
        loop {
            at -= 1;
            buf[at] = b'0' + (whole % 10) as u8;
            whole /= 10;
            if whole == 0 {
                break;
            }
        }
        if self.0 < 0 {
            at -= 1;
            buf[at] = b'-';
        }
        f.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
    }
}

/// A closed min/max propagation-delay range (§1.4.1.1).
///
/// All component and interconnection delays in the verifier are specified
/// as a minimum and maximum possible value; the verification then holds for
/// every combination of real delays within the ranges.
///
/// ```
/// use scald_wave::{DelayRange, Time};
/// let d = DelayRange::from_ns(1.5, 3.0);
/// assert_eq!(d.spread(), Time::from_ns(1.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DelayRange {
    /// Minimum possible delay.
    pub min: Time,
    /// Maximum possible delay.
    pub max: Time,
}

impl DelayRange {
    /// A zero-delay range.
    pub const ZERO: DelayRange = DelayRange {
        min: Time::ZERO,
        max: Time::ZERO,
    };

    /// Creates a delay range.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is negative.
    #[must_use]
    pub fn new(min: Time, max: Time) -> DelayRange {
        assert!(
            !min.is_negative() && min <= max,
            "invalid delay range [{min}, {max}]"
        );
        DelayRange { min, max }
    }

    /// Creates a delay range from nanosecond bounds.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is negative.
    #[must_use]
    pub fn from_ns(min: f64, max: f64) -> DelayRange {
        DelayRange::new(Time::from_ns(min), Time::from_ns(max))
    }

    /// [`from_ns`](Self::from_ns) for untrusted bounds: `None` where
    /// `from_ns` would panic.
    #[must_use]
    pub fn try_from_ns(min: f64, max: f64) -> Option<DelayRange> {
        let (min, max) = (Time::from_ns(min), Time::from_ns(max));
        (!min.is_negative() && min <= max).then_some(DelayRange { min, max })
    }

    /// The uncertainty this delay adds: `max - min`.
    #[must_use]
    pub fn spread(self) -> Time {
        self.max - self.min
    }

    /// Series composition: the delay of passing through `self` then `rhs`.
    #[must_use]
    pub fn then(self, rhs: DelayRange) -> DelayRange {
        DelayRange {
            min: self.min + rhs.min,
            max: self.max + rhs.max,
        }
    }
}

impl fmt::Display for DelayRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.min, self.max)
    }
}

/// A process/operating corner selecting how [`DelayRange`]s are read
/// (§1.4.1.2, §4.2).
///
/// The verifier's default analysis keeps the full `[min, max]` range so
/// one run covers every combination of real delays. Corner analysis
/// instead collapses every range to a single point — the fastest
/// possible parts, a typical part, or the slowest — which is how
/// multi-corner sign-off sweeps (min/typ/max) are expressed as case
/// axes.
///
/// ```
/// use scald_wave::{DelayCorner, DelayRange, Time};
/// let d = DelayRange::from_ns(1.0, 3.0);
/// assert_eq!(DelayCorner::Worst.collapse(d), d);
/// assert_eq!(DelayCorner::Min.collapse(d).max, Time::from_ns(1.0));
/// assert_eq!(DelayCorner::Typ.collapse(d).min, Time::from_ns(2.0));
/// assert_eq!(DelayCorner::Max.collapse(d).min, Time::from_ns(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DelayCorner {
    /// Keep the full `[min, max]` range (the verifier's default: the
    /// result holds for every real delay inside every range).
    #[default]
    Worst,
    /// Every delay at its minimum: the fast corner.
    Min,
    /// Every delay at the midpoint of its range: the typical corner.
    Typ,
    /// Every delay at its maximum: the slow corner.
    Max,
}

impl DelayCorner {
    /// All corners, in sweep order.
    pub const ALL: [DelayCorner; 4] = [
        DelayCorner::Worst,
        DelayCorner::Min,
        DelayCorner::Typ,
        DelayCorner::Max,
    ];

    /// Collapses a delay range to this corner's point value (identity
    /// for [`DelayCorner::Worst`]).
    #[must_use]
    pub fn collapse(self, range: DelayRange) -> DelayRange {
        let point = match self {
            DelayCorner::Worst => return range,
            DelayCorner::Min => range.min,
            DelayCorner::Typ => Time::from_ps((range.min.as_ps() + range.max.as_ps()) / 2),
            DelayCorner::Max => range.max,
        };
        DelayRange {
            min: point,
            max: point,
        }
    }

    /// The lower-case token used in labels, sweep specs and reports
    /// (`worst` / `min` / `typ` / `max`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            DelayCorner::Worst => "worst",
            DelayCorner::Min => "min",
            DelayCorner::Typ => "typ",
            DelayCorner::Max => "max",
        }
    }

    /// Parses a corner token as produced by [`DelayCorner::token`].
    #[must_use]
    pub fn from_token(token: &str) -> Option<DelayCorner> {
        match token {
            "worst" => Some(DelayCorner::Worst),
            "min" => Some(DelayCorner::Min),
            "typ" => Some(DelayCorner::Typ),
            "max" => Some(DelayCorner::Max),
            _ => None,
        }
    }
}

impl fmt::Display for DelayCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Timing skew: the uncertainty in *when* a signal transitions, kept
/// separate from the signal's value list (§2.8).
///
/// A signal with skew `(minus, plus)` may transition anywhere from `minus`
/// earlier to `plus` later than the nominal times in its waveform — with
/// the *same* displacement applied to every transition, which is what
/// preserves pulse-width information (Fig 2-8).
///
/// ```
/// use scald_wave::{Skew, Time};
/// let clock_skew = Skew::from_ns(1.0, 1.0); // the thesis' precision clocks
/// assert_eq!(clock_skew.width(), Time::from_ns(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Skew {
    /// How much earlier than nominal the signal may transition (magnitude).
    pub minus: Time,
    /// How much later than nominal the signal may transition.
    pub plus: Time,
}

impl Skew {
    /// No skew at all.
    pub const ZERO: Skew = Skew {
        minus: Time::ZERO,
        plus: Time::ZERO,
    };

    /// Creates a skew from non-negative early/late magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if either magnitude is negative.
    #[must_use]
    pub fn new(minus: Time, plus: Time) -> Skew {
        assert!(
            !minus.is_negative() && !plus.is_negative(),
            "skew magnitudes must be non-negative: (-{minus}, +{plus})"
        );
        Skew { minus, plus }
    }

    /// Creates a skew from nanosecond magnitudes, e.g. `Skew::from_ns(1.0,
    /// 1.0)` for the thesis' ±1 ns precision clocks.
    ///
    /// # Panics
    ///
    /// Panics if either magnitude is negative.
    #[must_use]
    pub fn from_ns(minus: f64, plus: f64) -> Skew {
        Skew::new(Time::from_ns(minus), Time::from_ns(plus))
    }

    /// Total width of the uncertainty window.
    #[must_use]
    pub fn width(self) -> Time {
        self.minus + self.plus
    }

    /// `true` if there is no uncertainty.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == Skew::ZERO
    }

    /// Accumulates the uncertainty of a variable delay: delaying a signal
    /// by `[min, max]` shifts its waveform by `min` and widens the late
    /// side of its skew by `max - min` (§2.8, Fig 2-8).
    #[must_use]
    pub fn after_delay(self, delay: DelayRange) -> Skew {
        Skew {
            minus: self.minus,
            plus: self.plus + delay.spread(),
        }
    }
}

impl fmt::Display for Skew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(-{},+{})", self.minus, self.plus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_is_exact_for_tenths() {
        assert_eq!(Time::from_ns(1.5).as_ps(), 1_500);
        assert_eq!(Time::from_ns(6.25).as_ps(), 6_250);
        assert_eq!(Time::from_ns(0.0), Time::ZERO);
        assert_eq!(Time::from_ns(-2.0).as_ps(), -2_000);
    }

    #[test]
    fn display_matches_listing_style() {
        assert_eq!(Time::from_ns(11.5).to_string(), "11.5");
        assert_eq!(Time::from_ns(50.0).to_string(), "50.0");
        assert_eq!(Time::from_ns(6.25).to_string(), "6.25");
    }

    #[test]
    fn rem_period_wraps_negatives() {
        let p = Time::from_ns(50.0);
        assert_eq!(Time::from_ns(-1.0).rem_period(p), Time::from_ns(49.0));
        assert_eq!(Time::from_ns(51.0).rem_period(p), Time::from_ns(1.0));
        assert_eq!(Time::from_ns(50.0).rem_period(p), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn rem_period_rejects_zero_period() {
        let _ = Time::from_ns(1.0).rem_period(Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(3.0);
        let b = Time::from_ns(1.5);
        assert_eq!(a + b, Time::from_ns(4.5));
        assert_eq!(a - b, Time::from_ns(1.5));
        assert_eq!(-b, Time::from_ns(-1.5));
        assert_eq!(b * 4, Time::from_ns(6.0));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn delay_range_composition() {
        let gate = DelayRange::from_ns(1.0, 2.9);
        let wire = DelayRange::from_ns(0.0, 2.0);
        let total = gate.then(wire);
        assert_eq!(total, DelayRange::from_ns(1.0, 4.9));
        assert_eq!(total.spread(), Time::from_ns(3.9));
    }

    #[test]
    #[should_panic(expected = "invalid delay range")]
    fn delay_range_rejects_inverted_bounds() {
        let _ = DelayRange::from_ns(3.0, 1.0);
    }

    #[test]
    fn corners_collapse_ranges() {
        let d = DelayRange::from_ns(1.0, 3.0);
        assert_eq!(DelayCorner::Worst.collapse(d), d);
        assert_eq!(DelayCorner::Min.collapse(d), DelayRange::from_ns(1.0, 1.0));
        assert_eq!(DelayCorner::Typ.collapse(d), DelayRange::from_ns(2.0, 2.0));
        assert_eq!(DelayCorner::Max.collapse(d), DelayRange::from_ns(3.0, 3.0));
        for c in DelayCorner::ALL {
            assert_eq!(DelayCorner::from_token(c.token()), Some(c));
        }
        assert_eq!(DelayCorner::from_token("slow"), None);
    }

    #[test]
    fn skew_accumulates_delay_spread() {
        let s = Skew::ZERO.after_delay(DelayRange::from_ns(5.0, 10.0));
        assert_eq!(s, Skew::from_ns(0.0, 5.0));
        let s2 = s.after_delay(DelayRange::from_ns(1.0, 2.0));
        assert_eq!(s2, Skew::from_ns(0.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "skew magnitudes must be non-negative")]
    fn skew_rejects_negative_magnitudes() {
        let _ = Skew::new(Time::from_ns(-1.0), Time::ZERO);
    }
}
