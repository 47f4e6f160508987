//! ASCII timing diagrams: a visual rendering of the Fig 3-10 summary
//! listing.
//!
//! Each signal becomes one row of one character per time bucket:
//!
//! ```text
//! time        0    6.25  12.5  18.75  25    31.25 37.5  43.75   ns
//! CK .P2-3    ______________/~~~~~\______________________________
//! W DATA      =============================================xxxxxx
//! ```
//!
//! | char | value |
//! |---|---|
//! | `_` | `0` |
//! | `~` | `1` |
//! | `=` | `S` (stable, level unknown) |
//! | `x` | `C` (may be changing) |
//! | `/` | `R` (rising) |
//! | `\` | `F` (falling) |
//! | `?` | `U` (undefined) |

use scald_logic::Value;
use scald_wave::{Time, Waveform};
use std::fmt::Write;

/// One character per bucket for a value.
fn glyph(v: Value) -> char {
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

/// Renders labelled waveforms as an ASCII timing diagram with `columns`
/// buckets across one period. All waveforms must share a period.
///
/// # Panics
///
/// Panics if `columns` is zero or the waveforms' periods differ.
#[must_use]
pub fn render_diagram(signals: &[(String, Waveform)], columns: usize) -> String {
    assert!(columns > 0, "diagram needs at least one column");
    let Some(period) = signals.first().map(|(_, w)| w.period()) else {
        return String::new();
    };
    assert!(
        signals.iter().all(|(_, w)| w.period() == period),
        "all diagram waveforms must share one period"
    );
    let label_width = signals
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max(4);

    let mut out = header(label_width, period, columns);
    for (name, wave) in signals {
        let _ = writeln!(out, "{name:<label_width$}  {}", glyph_row(wave, columns));
    }
    out
}

/// The diagram's time-scale line: a mark roughly every eight columns.
pub(crate) fn header(label_width: usize, period: Time, columns: usize) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<label_width$}  ", "time");
    let mut col = 0;
    while col < columns {
        let t = Time::from_ps(period.as_ps() * col as i64 / columns as i64);
        let mark = t.to_string();
        let _ = write!(out, "{mark:<8}");
        col += 8;
    }
    out.push_str("ns\n");
    out
}

/// One glyph per bucket of `wave`, each sampled at the bucket's
/// midpoint.
pub(crate) fn glyph_row(wave: &Waveform, columns: usize) -> String {
    let period = wave.period();
    (0..columns)
        .map(|c| {
            let t = Time::from_ps(period.as_ps() * (2 * c as i64 + 1) / (2 * columns as i64));
            glyph(wave.value_at(t))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value::*;

    #[test]
    fn clock_renders_as_pulse() {
        let period = Time::from_ns(50.0);
        let clk = Waveform::from_intervals(
            period,
            Zero,
            [(Time::from_ns(10.0), Time::from_ns(20.0), One)],
        );
        let out = render_diagram(&[("CK".to_owned(), clk)], 10);
        let row = out.lines().nth(1).expect("signal row");
        assert_eq!(row, "CK    __~~______");
    }

    #[test]
    fn all_values_have_distinct_glyphs() {
        let period = Time::from_ns(70.0);
        let w = Waveform::from_segments(
            period,
            [
                (Zero, Time::from_ns(10.0)),
                (One, Time::from_ns(10.0)),
                (Stable, Time::from_ns(10.0)),
                (Change, Time::from_ns(10.0)),
                (Rise, Time::from_ns(10.0)),
                (Fall, Time::from_ns(10.0)),
                (Unknown, Time::from_ns(10.0)),
            ],
        )
        .expect("segments valid");
        let out = render_diagram(&[("W".to_owned(), w)], 7);
        let row = out.lines().nth(1).expect("signal row");
        assert_eq!(row, "W     _~=x/\\?");
    }

    #[test]
    fn header_carries_time_marks() {
        let period = Time::from_ns(50.0);
        let w = Waveform::constant(period, Stable);
        let out = render_diagram(&[("SIG".to_owned(), w)], 16);
        let header = out.lines().next().expect("header");
        assert!(header.starts_with("time"));
        assert!(header.contains("0.0"));
        assert!(header.contains("25.0"));
        assert!(header.trim_end().ends_with("ns"));
    }

    #[test]
    fn empty_input_renders_empty() {
        assert_eq!(render_diagram(&[], 10), "");
    }

    #[test]
    #[should_panic(expected = "share one period")]
    fn mismatched_periods_rejected() {
        let a = Waveform::constant(Time::from_ns(50.0), Stable);
        let b = Waveform::constant(Time::from_ns(25.0), Stable);
        let _ = render_diagram(&[("A".to_owned(), a), ("B".to_owned(), b)], 10);
    }
}
