//! Periodic signal values: the Timing Verifier's linked-list-of-values,
//! rebuilt as a canonical transition list (§2.8, Fig 2-7).
//!
//! A [`Waveform`] records a signal's seven-value behaviour over exactly one
//! clock period. The thesis stores a linked list of `(value, width)` nodes
//! whose widths must sum exactly to the period; we store the equivalent
//! canonical list of `(time, value)` transitions, which makes the modular
//! arithmetic of delays and assertions direct.

use crate::{Span, Time};
use scald_logic::Value;
use std::fmt;

/// The seven-value behaviour of a signal over one clock period.
///
/// Internally a sorted list of `(time, value)` transitions within
/// `[0, period)`; the value at an instant `t` is that of the latest
/// transition at or before `t`, wrapping circularly. The representation is
/// canonical: times strictly increase, circularly adjacent values differ,
/// and a constant signal is a single transition at time 0 — so `==` is
/// semantic equality.
///
/// ```
/// use scald_logic::Value;
/// use scald_wave::{Time, Waveform};
///
/// let period = Time::from_ns(50.0);
/// // A clock high from 10 ns to 20 ns.
/// let clock = Waveform::from_intervals(
///     period,
///     Value::Zero,
///     [(Time::from_ns(10.0), Time::from_ns(20.0), Value::One)],
/// );
/// assert_eq!(clock.value_at(Time::from_ns(15.0)), Value::One);
/// assert_eq!(clock.value_at(Time::from_ns(25.0)), Value::Zero);
/// // Instants wrap modulo the period.
/// assert_eq!(clock.value_at(Time::from_ns(65.0)), Value::One);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Waveform {
    period: Time,
    /// Canonical transition list; see type-level docs.
    trans: Vec<(Time, Value)>,
}

impl Waveform {
    /// A signal holding one value for the whole period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    #[must_use]
    pub fn constant(period: Time, value: Value) -> Waveform {
        assert!(period > Time::ZERO, "period must be positive");
        Waveform {
            period,
            trans: vec![(Time::ZERO, value)],
        }
    }

    /// Builds a waveform that holds `base` everywhere except over the given
    /// `(start, end, value)` intervals (ends exclusive, times wrapped
    /// modulo the period). Later intervals overwrite earlier ones.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    #[must_use]
    pub fn from_intervals<I>(period: Time, base: Value, intervals: I) -> Waveform
    where
        I: IntoIterator<Item = (Time, Time, Value)>,
    {
        let mut w = Waveform::constant(period, base);
        for (start, end, value) in intervals {
            // An interval at least one period long covers the whole cycle;
            // Span::wrapping would fold it to an empty span (e.g. `.S0-8`
            // on an 8-unit cycle means "always stable", not "never").
            let span = if end - start >= period {
                Span::full(period)
            } else {
                Span::wrapping(start, end, period)
            };
            w = w.overwrite(span, value);
        }
        w
    }

    /// Builds a waveform from the thesis' run-length form: a list of
    /// `(value, width)` segments starting at time 0.
    ///
    /// # Errors
    ///
    /// Returns an error if any width is non-positive or the widths do not
    /// sum exactly to `period` (the consistency rule of §2.8).
    pub fn from_segments<I>(period: Time, segments: I) -> Result<Waveform, SegmentError>
    where
        I: IntoIterator<Item = (Value, Time)>,
    {
        assert!(period > Time::ZERO, "period must be positive");
        let mut trans = Vec::new();
        let mut at = Time::ZERO;
        for (value, width) in segments {
            if width <= Time::ZERO {
                return Err(SegmentError::NonPositiveWidth { at, width });
            }
            trans.push((at, value));
            at += width;
        }
        if at != period {
            return Err(SegmentError::WidthSumMismatch { sum: at, period });
        }
        Ok(Waveform::from_transitions(period, trans))
    }

    /// Builds a waveform from raw `(time, value)` transitions, wrapping
    /// times into the period and canonicalizing. When two transitions land
    /// on the same instant the later one in the input wins.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive or `trans` is empty.
    #[must_use]
    pub fn from_transitions(period: Time, trans: Vec<(Time, Value)>) -> Waveform {
        assert!(period > Time::ZERO, "period must be positive");
        assert!(!trans.is_empty(), "waveform needs at least one value");
        let mut wrapped: Vec<(Time, Value)> = trans
            .into_iter()
            .map(|(t, v)| (t.rem_period(period), v))
            .collect();
        // Stable sort preserves input order among equal times, so "later
        // in the input wins" is implemented by keeping the last duplicate.
        wrapped.sort_by_key(|(t, _)| *t);
        wrapped.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        let mut w = Waveform {
            period,
            trans: wrapped,
        };
        w.canonicalize();
        w
    }

    fn canonicalize(&mut self) {
        // Merge adjacent equal values.
        self.trans.dedup_by_key(|(_, v)| *v);
        // Merge across the wrap point.
        while self.trans.len() > 1
            && self.trans.first().map(|e| e.1) == self.trans.last().map(|e| e.1)
        {
            self.trans.remove(0);
        }
        if self.trans.len() == 1 {
            self.trans[0].0 = Time::ZERO;
        }
    }

    /// The clock period this waveform spans.
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// `true` if the signal holds a single value all period.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.trans.len() == 1
    }

    /// The canonical transition list: `(time, value)` pairs with strictly
    /// increasing times in `[0, period)` and circularly distinct values.
    #[must_use]
    pub fn transitions(&self) -> &[(Time, Value)] {
        &self.trans
    }

    /// The number of value records needed to store this waveform in the
    /// thesis' run-length representation (used for the Table 3-3 storage
    /// statistics).
    #[must_use]
    pub fn value_record_count(&self) -> usize {
        if self.is_constant() {
            1
        } else if self.trans[0].0 == Time::ZERO {
            self.trans.len()
        } else {
            // The run containing time 0 is split into two records.
            self.trans.len() + 1
        }
    }

    /// The value of the signal at instant `t` (taken modulo the period).
    #[must_use]
    pub fn value_at(&self, t: Time) -> Value {
        let t = t.rem_period(self.period);
        match self.trans.partition_point(|(tt, _)| *tt <= t) {
            0 => self.trans.last().expect("waveform is non-empty").1,
            i => self.trans[i - 1].1,
        }
    }

    /// Run-length segments starting at time 0: `(start, value, width)`
    /// triples covering the period exactly — the form the thesis' summary
    /// listings print (Fig 3-10).
    #[must_use]
    pub fn segments(&self) -> Vec<(Time, Value, Time)> {
        let mut out = Vec::with_capacity(self.trans.len() + 1);
        if self.is_constant() {
            return vec![(Time::ZERO, self.trans[0].1, self.period)];
        }
        let first_t = self.trans[0].0;
        if first_t > Time::ZERO {
            // The wrapped tail of the last run.
            let last_v = self.trans.last().expect("non-empty").1;
            out.push((Time::ZERO, last_v, first_t));
        }
        for (i, &(t, v)) in self.trans.iter().enumerate() {
            let end = self
                .trans
                .get(i + 1)
                .map_or(self.period, |&(t_next, _)| t_next);
            out.push((t, v, end - t));
        }
        out
    }

    /// Replaces the signal's value with `value` over `span`.
    #[must_use]
    pub fn overwrite(&self, span: Span, value: Value) -> Waveform {
        if span.is_empty() {
            return self.clone();
        }
        if span.is_full(self.period) {
            return Waveform::constant(self.period, value);
        }
        let start = span.start();
        let end = span.end(self.period);
        let resume = self.value_at(end);
        let mut trans: Vec<(Time, Value)> = Vec::with_capacity(self.trans.len() + 2);
        for &(t, v) in &self.trans {
            if !span.contains(t, self.period) {
                trans.push((t, v));
            }
        }
        trans.push((start, value));
        trans.push((end, resume));
        Waveform::from_transitions(self.period, trans)
    }

    /// Transforms every value pointwise (e.g. with [`Value::not`] for an
    /// inverter with zero delay).
    #[must_use]
    pub fn map(&self, f: impl Fn(Value) -> Value) -> Waveform {
        let trans = self.trans.iter().map(|&(t, v)| (t, f(v))).collect();
        Waveform::from_transitions(self.period, trans)
    }

    /// Shifts the whole waveform later by `d` (modulo the period). Negative
    /// `d` shifts earlier. Pulse widths are preserved exactly — this is the
    /// "delay by the minimum" half of the separated-skew scheme (§2.8).
    #[must_use]
    pub fn delayed(&self, d: Time) -> Waveform {
        if self.is_constant() {
            return self.clone();
        }
        let trans = self.trans.iter().map(|&(t, v)| (t + d, v)).collect();
        Waveform::from_transitions(self.period, trans)
    }

    /// Combines two waveforms pointwise with `f` (the gate-evaluation
    /// primitive: `f` is one of the worst-case functions of §2.4.2).
    ///
    /// # Panics
    ///
    /// Panics if the waveforms have different periods.
    #[must_use]
    pub fn combine(&self, other: &Waveform, f: impl Fn(Value, Value) -> Value) -> Waveform {
        assert_eq!(
            self.period, other.period,
            "cannot combine waveforms with different periods"
        );
        let mut times: Vec<Time> = self
            .trans
            .iter()
            .chain(other.trans.iter())
            .map(|&(t, _)| t)
            .collect();
        times.sort();
        times.dedup();
        let trans = times
            .into_iter()
            .map(|t| (t, f(self.value_at(t), other.value_at(t))))
            .collect();
        Waveform::from_transitions(self.period, trans)
    }

    /// Combines any number of waveforms pointwise with an n-ary function.
    ///
    /// # Panics
    ///
    /// Panics if `waves` is empty or the periods differ.
    #[must_use]
    pub fn combine_many(waves: &[&Waveform], f: impl Fn(&[Value]) -> Value) -> Waveform {
        assert!(
            !waves.is_empty(),
            "combine_many requires at least one input"
        );
        let period = waves[0].period;
        assert!(
            waves.iter().all(|w| w.period == period),
            "cannot combine waveforms with different periods"
        );
        let mut times: Vec<Time> = waves
            .iter()
            .flat_map(|w| w.trans.iter().map(|&(t, _)| t))
            .collect();
        times.sort();
        times.dedup();
        let mut vals = Vec::with_capacity(waves.len());
        let trans = times
            .into_iter()
            .map(|t| {
                vals.clear();
                vals.extend(waves.iter().map(|w| w.value_at(t)));
                (t, f(&vals))
            })
            .collect();
        Waveform::from_transitions(period, trans)
    }

    /// Maximal circular spans over which `pred` holds for the signal value.
    ///
    /// If `pred` holds everywhere a single full-period span is returned;
    /// if nowhere, the result is empty. Spans are reported in order of
    /// their start time.
    #[must_use]
    pub fn spans_where(&self, pred: impl Fn(Value) -> bool) -> Vec<Span> {
        let segs = self.segments();
        let matches: Vec<bool> = segs.iter().map(|&(_, v, _)| pred(v)).collect();
        if matches.iter().all(|&m| m) {
            return vec![Span::full(self.period)];
        }
        if !matches.iter().any(|&m| m) {
            return Vec::new();
        }
        let n = segs.len();
        let mut spans = Vec::new();
        let mut i = 0;
        while i < n {
            if matches[i] && (i > 0 || !matches[n - 1]) {
                // Start of a run (runs beginning at segment 0 that continue
                // from the end of the period are handled from their true
                // start at the tail).
                let start = segs[i].0;
                let mut width = Time::ZERO;
                let mut j = i;
                while matches[j % n] {
                    width += segs[j % n].2;
                    j += 1;
                    if j % n == i {
                        break;
                    }
                }
                spans.push(Span::new(start, width, self.period));
                if j <= n {
                    i = j;
                } else {
                    break; // wrapped past the end; done
                }
            } else {
                i += 1;
            }
        }
        spans
    }

    /// `true` if the signal is guaranteed quiescent (`0`, `1` or `S`)
    /// throughout `span`, the test applied by set-up/hold checkers and
    /// `&A` directives.
    ///
    /// A zero-width span tests the single instant at its start.
    #[must_use]
    pub fn quiescent_throughout(&self, span: Span) -> bool {
        if span.is_empty() {
            return self.value_at(span.start()).is_quiescent();
        }
        if span.is_full(self.period) {
            return self.trans.iter().all(|&(_, v)| v.is_quiescent());
        }
        for (a, b) in span.linear_pieces(self.period) {
            if a == b {
                continue;
            }
            for &(t, v, w) in &self.segments() {
                // Segment [t, t+w) overlaps piece [a, b)?
                if t < b && a < t + w && !v.is_quiescent() {
                    return false;
                }
            }
        }
        true
    }

    /// Folds separated skew back into the value list (§2.8, Fig 2-9).
    ///
    /// Every transition instant `t` becomes an uncertainty window
    /// `[t - minus, t + plus)` holding the transition's
    /// [`edge value`](Value::edge_to); overlapping windows collapse with
    /// [`Value::join`]. Use this before combining a skewed signal with
    /// another signal, and in checkers that need the worst-case picture.
    #[must_use]
    pub fn with_skew_applied(&self, skew: crate::Skew) -> Waveform {
        if skew.is_zero() || self.is_constant() {
            return self.clone();
        }
        // Edge windows: (span, window value) per transition.
        let n = self.trans.len();
        let mut windows = Vec::with_capacity(n);
        for (i, &(t, v_new)) in self.trans.iter().enumerate() {
            let v_old = self.trans[(i + n - 1) % n].1;
            let span = Span::new(t - skew.minus, skew.width(), self.period);
            windows.push((span, v_old.edge_to(v_new)));
        }
        // Evaluate on the elementary intervals between all boundaries.
        let mut bounds: Vec<Time> = Vec::with_capacity(3 * n);
        for &(t, _) in &self.trans {
            bounds.push(t);
            bounds.push((t - skew.minus).rem_period(self.period));
            bounds.push((t + skew.plus).rem_period(self.period));
        }
        bounds.sort();
        bounds.dedup();
        let trans = bounds
            .into_iter()
            .map(|b| {
                let mut v = self.value_at(b);
                for &(span, wv) in &windows {
                    if span.contains(b, self.period) {
                        v = v.join(wv);
                    }
                }
                (b, v)
            })
            .collect();
        Waveform::from_transitions(self.period, trans)
    }
}

impl fmt::Display for Waveform {
    /// Formats as the summary-listing style of Fig 3-10: alternating value
    /// mnemonics and the times (in ns) at which the value starts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write as _;
        // A late first transition: the wrapped tail of the last run opens
        // the period.
        let wrapped = (self.trans[0].0 > Time::ZERO)
            .then(|| (Time::ZERO, self.trans.last().expect("non-empty").1));
        for (i, (start, v)) in wrapped
            .into_iter()
            .chain(self.trans.iter().copied())
            .enumerate()
        {
            if i > 0 {
                f.write_char(' ')?;
            }
            f.write_char(v.mnemonic())?;
            f.write_char(' ')?;
            fmt::Display::fmt(&start, f)?;
        }
        Ok(())
    }
}

/// Error from [`Waveform::from_segments`]: the run-length list violated the
/// consistency rule of §2.8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// A segment had a zero or negative width.
    NonPositiveWidth {
        /// Offset of the offending segment from the start of the period.
        at: Time,
        /// The invalid width.
        width: Time,
    },
    /// The widths did not sum exactly to the period.
    WidthSumMismatch {
        /// Sum of the given widths.
        sum: Time,
        /// The required period.
        period: Time,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::NonPositiveWidth { at, width } => {
                write!(f, "segment at offset {at} has non-positive width {width}")
            }
            SegmentError::WidthSumMismatch { sum, period } => {
                write!(f, "segment widths sum to {sum} but the period is {period}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value::*;

    const P: Time = Time::from_ps(50_000);

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    fn clock_10_20() -> Waveform {
        Waveform::from_intervals(P, Zero, [(ns(10.0), ns(20.0), One)])
    }

    #[test]
    fn constant_waveform() {
        let w = Waveform::constant(P, Stable);
        assert!(w.is_constant());
        assert_eq!(w.value_at(ns(0.0)), Stable);
        assert_eq!(w.value_at(ns(49.9)), Stable);
        assert_eq!(w.segments(), vec![(Time::ZERO, Stable, P)]);
        assert_eq!(w.value_record_count(), 1);
    }

    #[test]
    fn value_at_wraps() {
        let w = clock_10_20();
        assert_eq!(w.value_at(ns(9.9)), Zero);
        assert_eq!(w.value_at(ns(10.0)), One);
        assert_eq!(w.value_at(ns(19.9)), One);
        assert_eq!(w.value_at(ns(20.0)), Zero);
        assert_eq!(w.value_at(ns(60.0)), One); // 60 mod 50 = 10
        assert_eq!(w.value_at(ns(-45.0)), Zero); // -45 mod 50 = 5
    }

    #[test]
    fn from_segments_round_trip() {
        let w = Waveform::from_segments(P, [(Zero, ns(10.0)), (One, ns(10.0)), (Zero, ns(30.0))])
            .unwrap();
        assert_eq!(w, clock_10_20());
    }

    #[test]
    fn from_segments_rejects_bad_sum() {
        let err = Waveform::from_segments(P, [(Zero, ns(10.0))]).unwrap_err();
        assert!(matches!(err, SegmentError::WidthSumMismatch { .. }));
        assert!(err.to_string().contains("sum to 10.0"));
    }

    #[test]
    fn from_segments_rejects_zero_width() {
        let err = Waveform::from_segments(P, [(Zero, Time::ZERO), (One, P)]).unwrap_err();
        assert!(matches!(err, SegmentError::NonPositiveWidth { .. }));
    }

    #[test]
    fn canonicalization_merges_adjacent_and_wraparound() {
        let w = Waveform::from_transitions(
            P,
            vec![
                (ns(0.0), Zero),
                (ns(10.0), Zero),
                (ns(20.0), One),
                (ns(30.0), Zero),
            ],
        );
        // 0..20 Zero merges; trailing Zero merges with leading Zero.
        assert_eq!(w.transitions(), &[(ns(20.0), One), (ns(30.0), Zero)]);
        assert_eq!(w.value_at(ns(5.0)), Zero);
    }

    #[test]
    fn all_equal_collapses_to_constant() {
        let w = Waveform::from_transitions(P, vec![(ns(7.0), Stable), (ns(30.0), Stable)]);
        assert!(w.is_constant());
        assert_eq!(w.transitions(), &[(Time::ZERO, Stable)]);
    }

    #[test]
    fn duplicate_times_last_wins() {
        let w = Waveform::from_transitions(P, vec![(ns(10.0), One), (ns(10.0), Stable)]);
        assert_eq!(w.value_at(ns(10.0)), Stable);
    }

    #[test]
    fn segments_cover_period_exactly() {
        let w = clock_10_20();
        let segs = w.segments();
        let total: Time = segs
            .iter()
            .fold(Time::ZERO, |acc, &(_, _, width)| acc + width);
        assert_eq!(total, P);
        assert_eq!(segs[0], (Time::ZERO, Zero, ns(10.0)));
        assert_eq!(segs[1], (ns(10.0), One, ns(10.0)));
        assert_eq!(segs[2], (ns(20.0), Zero, ns(30.0)));
    }

    #[test]
    fn value_record_count_counts_split_wrap_run() {
        // Clock whose low run wraps: records = high run + two split low runs.
        let w = clock_10_20();
        assert_eq!(w.value_record_count(), 3); // 0..10 Zero, 10..20 One, 20..50 Zero
        let w2 = Waveform::from_intervals(P, Zero, [(ns(0.0), ns(20.0), One)]);
        assert_eq!(w2.value_record_count(), 2);
    }

    #[test]
    fn delayed_rotates_preserving_pulse_width() {
        let w = clock_10_20().delayed(ns(35.0));
        // High from 45..55 -> wraps to 45..50 and 0..5.
        assert_eq!(w.value_at(ns(47.0)), One);
        assert_eq!(w.value_at(ns(3.0)), One);
        assert_eq!(w.value_at(ns(5.0)), Zero);
        assert_eq!(w.value_at(ns(44.9)), Zero);
        // Total high time still 10 ns.
        let high: Time = w
            .segments()
            .iter()
            .filter(|&&(_, v, _)| v == One)
            .fold(Time::ZERO, |acc, &(_, _, width)| acc + width);
        assert_eq!(high, ns(10.0));
    }

    #[test]
    fn delayed_by_period_is_identity() {
        let w = clock_10_20();
        assert_eq!(w.delayed(P), w);
        assert_eq!(w.delayed(-P), w);
        assert_eq!(w.delayed(ns(15.0)).delayed(ns(35.0)), w);
    }

    #[test]
    fn map_not_flips_clock() {
        let w = clock_10_20().map(Value::not);
        assert_eq!(w.value_at(ns(15.0)), Zero);
        assert_eq!(w.value_at(ns(5.0)), One);
    }

    #[test]
    fn combine_or_of_two_clocks() {
        let a = clock_10_20();
        let b = Waveform::from_intervals(P, Zero, [(ns(15.0), ns(30.0), One)]);
        let o = a.combine(&b, Value::or);
        assert_eq!(o.value_at(ns(5.0)), Zero);
        assert_eq!(o.value_at(ns(12.0)), One);
        assert_eq!(o.value_at(ns(25.0)), One);
        assert_eq!(o.value_at(ns(35.0)), Zero);
        // Exactly one high run 10..30.
        assert_eq!(
            o,
            Waveform::from_intervals(P, Zero, [(ns(10.0), ns(30.0), One)])
        );
    }

    #[test]
    fn combine_many_matches_pairwise() {
        let a = clock_10_20();
        let b = Waveform::from_intervals(P, Zero, [(ns(15.0), ns(30.0), One)]);
        let c = Waveform::constant(P, Stable);
        let many =
            Waveform::combine_many(&[&a, &b, &c], |vs| vs.iter().copied().fold(Zero, Value::or));
        let pair = a.combine(&b, Value::or).combine(&c, Value::or);
        assert_eq!(many, pair);
    }

    #[test]
    #[should_panic(expected = "different periods")]
    fn combine_rejects_period_mismatch() {
        let a = clock_10_20();
        let b = Waveform::constant(ns(25.0), Zero);
        let _ = a.combine(&b, Value::or);
    }

    #[test]
    fn overwrite_wrapping_span() {
        let w =
            Waveform::constant(P, Stable).overwrite(Span::wrapping(ns(45.0), ns(5.0), P), Change);
        assert_eq!(w.value_at(ns(47.0)), Change);
        assert_eq!(w.value_at(ns(2.0)), Change);
        assert_eq!(w.value_at(ns(5.0)), Stable);
        assert_eq!(w.value_at(ns(44.0)), Stable);
    }

    #[test]
    fn spans_where_finds_wrapping_run() {
        let w = Waveform::from_intervals(P, Stable, [(ns(45.0), ns(5.0), Change)]);
        let spans = w.spans_where(|v| v == Change);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start(), ns(45.0));
        assert_eq!(spans[0].width(), ns(10.0));
    }

    #[test]
    fn spans_where_all_or_nothing() {
        let w = Waveform::constant(P, Stable);
        assert_eq!(w.spans_where(|v| v == Stable), vec![Span::full(P)]);
        assert!(w.spans_where(|v| v == Change).is_empty());
    }

    #[test]
    fn spans_where_multiple_runs() {
        let w = Waveform::from_intervals(
            P,
            Stable,
            [(ns(5.0), ns(10.0), Change), (ns(20.0), ns(22.0), Change)],
        );
        let spans = w.spans_where(Value::is_transitioning);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start(), spans[0].width()), (ns(5.0), ns(5.0)));
        assert_eq!((spans[1].start(), spans[1].width()), (ns(20.0), ns(2.0)));
    }

    #[test]
    fn quiescent_throughout_checks() {
        let w = Waveform::from_intervals(P, Stable, [(ns(10.0), ns(15.0), Change)]);
        assert!(w.quiescent_throughout(Span::new(ns(20.0), ns(10.0), P)));
        assert!(!w.quiescent_throughout(Span::new(ns(5.0), ns(10.0), P)));
        assert!(!w.quiescent_throughout(Span::full(P)));
        // Wrapping span that misses the change.
        assert!(w.quiescent_throughout(Span::wrapping(ns(40.0), ns(10.0), P)));
        // Instants.
        assert!(w.quiescent_throughout(Span::instant(ns(9.9), P)));
        assert!(!w.quiescent_throughout(Span::instant(ns(10.0), P)));
    }

    #[test]
    fn skew_fold_reproduces_fig_2_9() {
        // Fig 2-8/2-9: an output Z transitions 0->1 at 10 and 1->0 at 20
        // after the minimum gate delay; the gate's 5 ns delay spread is the
        // skew. Folding yields R over [10,15), F over [20,25).
        let z = clock_10_20();
        let folded = z.with_skew_applied(crate::Skew::from_ns(0.0, 5.0));
        assert_eq!(folded.value_at(ns(9.9)), Zero);
        assert_eq!(folded.value_at(ns(10.0)), Rise);
        assert_eq!(folded.value_at(ns(14.9)), Rise);
        assert_eq!(folded.value_at(ns(15.0)), One);
        assert_eq!(folded.value_at(ns(20.0)), Fall);
        assert_eq!(folded.value_at(ns(24.9)), Fall);
        assert_eq!(folded.value_at(ns(25.0)), Zero);
    }

    #[test]
    fn skew_fold_with_minus_side() {
        // Precision-clock style +-1 ns skew: windows straddle the nominal edges.
        let folded = clock_10_20().with_skew_applied(crate::Skew::from_ns(1.0, 1.0));
        assert_eq!(folded.value_at(ns(8.9)), Zero);
        assert_eq!(folded.value_at(ns(9.0)), Rise);
        assert_eq!(folded.value_at(ns(10.9)), Rise);
        assert_eq!(folded.value_at(ns(11.0)), One);
        assert_eq!(folded.value_at(ns(19.0)), Fall);
        assert_eq!(folded.value_at(ns(21.0)), Zero);
    }

    #[test]
    fn skew_fold_overlapping_windows_join_to_change() {
        // A 2 ns pulse with 5 ns of skew: rise and fall windows overlap.
        let w = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(12.0), One)]);
        let folded = w.with_skew_applied(crate::Skew::from_ns(0.0, 5.0));
        // In [12, 15) both the rise window [10,15) and fall window [12,17)
        // apply: R join F = C.
        assert_eq!(folded.value_at(ns(11.0)), Rise);
        assert_eq!(folded.value_at(ns(13.0)), Change);
        assert_eq!(folded.value_at(ns(16.0)), Fall);
        assert_eq!(folded.value_at(ns(17.0)), Zero);
    }

    #[test]
    fn skew_fold_zero_skew_is_identity() {
        let w = clock_10_20();
        assert_eq!(w.with_skew_applied(crate::Skew::ZERO), w);
    }

    #[test]
    fn display_is_listing_style() {
        let w = clock_10_20();
        assert_eq!(w.to_string(), "0 0.0 1 10.0 0 20.0");
    }
}
