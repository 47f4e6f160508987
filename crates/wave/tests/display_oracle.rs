//! Oracle tests for the text forms of [`Time`] and [`Waveform`]: the
//! integer-decimal `Time` formatter and the transition-walking waveform
//! listing must print exactly what the earlier `f64` formatter and the
//! `segments()`-based listing printed. Both earlier implementations are
//! kept below as the oracles.

use std::fmt::Write as _;

use scald_logic::{Value, ALL_VALUES};
use scald_rng::Rng;
use scald_wave::{Time, Waveform};

/// The earlier `Time` formatter: through `f64` nanoseconds, one decimal
/// when the value is a whole tenth, shortest round-trip form otherwise.
fn oracle_time(t: Time, out: &mut String) {
    let ns = t.as_ns();
    if (ns * 10.0).fract().abs() < 1e-9 {
        write!(out, "{ns:.1}").unwrap();
    } else {
        write!(out, "{ns}").unwrap();
    }
}

/// The earlier waveform listing: one `value start` pair per run-length
/// segment.
fn oracle_wave(w: &Waveform) -> String {
    let mut out = String::new();
    for (i, (start, v, _)) in w.segments().into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        write!(out, "{v} ").unwrap();
        oracle_time(start, &mut out);
    }
    out
}

fn assert_time_matches(ps: i64, want: &mut String, got: &mut String) {
    want.clear();
    got.clear();
    let t = Time::from_ps(ps);
    oracle_time(t, want);
    write!(got, "{t}").unwrap();
    assert_eq!(got, want, "ps = {ps}");
}

#[test]
fn every_small_time_prints_as_the_f64_formatter_did() {
    let (mut want, mut got) = (String::new(), String::new());
    for ps in -3_000_000..=3_000_000 {
        assert_time_matches(ps, &mut want, &mut got);
    }
}

#[test]
fn seeded_times_up_to_1e15_print_as_the_f64_formatter_did() {
    let (mut want, mut got) = (String::new(), String::new());
    let mut rng = Rng::seed_from_u64(0x7153_0001);
    let mut lo = 1i64;
    for _ in 0..15 {
        let hi = lo * 10;
        for _ in 0..200_000 {
            let ps = rng.range_i64(lo, hi);
            // Whole tenths and hundredths of a nanosecond take the other
            // branch of the oracle; make sure both are well covered.
            let ps = match rng.below(4) {
                0 => ps - ps % 100,
                1 => ps - ps % 10,
                _ => ps,
            };
            let ps = if rng.bool() { ps } else { -ps };
            assert_time_matches(ps, &mut want, &mut got);
        }
        lo = hi;
    }
}

#[test]
fn times_beyond_1e15_print_exactly() {
    // The f64 formatter printed `9357193340851.691` here: past 2^53 the
    // division by 1000 loses the last digit.
    assert_eq!(
        Time::from_ps(9_357_193_340_851_692).to_string(),
        "9357193340851.692"
    );
    assert_eq!(Time::from_ps(i64::MIN).to_string(), "-9223372036854775.808");
    assert_eq!(Time::from_ps(i64::MAX).to_string(), "9223372036854775.807");
}

#[test]
fn width_and_fill_flags_stay_ignored() {
    let t = Time::from_ns(2.5);
    assert_eq!(format!("{t:>6}"), "2.5");
    assert_eq!(format!("{t:<6}|"), "2.5|");
}

const PERIOD_PS: i64 = 50_000;

fn any_value(rng: &mut Rng) -> Value {
    *rng.choose(&ALL_VALUES)
}

fn waveform(rng: &mut Rng, transitions: (usize, usize), earliest: i64) -> Waveform {
    let n = rng.range_usize(transitions.0, transitions.1);
    let raw: Vec<(Time, Value)> = (0..n)
        .map(|_| {
            let t = rng.range_i64(earliest, PERIOD_PS);
            // Mostly sub-nanosecond instants, some on whole tenths.
            let t = if rng.bool() { t - t % 100 } else { t };
            (Time::from_ps(t), any_value(rng))
        })
        .collect();
    Waveform::from_transitions(Time::from_ps(PERIOD_PS), raw)
}

#[test]
fn seeded_waveforms_print_as_the_segment_listing_did() {
    let mut rng = Rng::seed_from_u64(0x7153_0002);
    let period = Time::from_ps(PERIOD_PS);
    let mut constants = 0;
    let mut late = 0;
    let mut long = 0;
    for _ in 0..20_000 {
        let w = match rng.below(3) {
            0 => Waveform::constant(period, any_value(&mut rng)),
            // First transition well after time 0: the listing opens with
            // the wrapped tail of the last run.
            1 => waveform(&mut rng, (1, 6), PERIOD_PS / 2),
            _ => waveform(&mut rng, (20, 60), 0),
        };
        constants += usize::from(w.is_constant());
        late += usize::from(w.transitions()[0].0 > Time::ZERO);
        long += usize::from(w.transitions().len() >= 10);
        assert_eq!(w.to_string(), oracle_wave(&w), "{:?}", w.transitions());
    }
    assert!(constants > 1_000 && late > 1_000 && long > 1_000);
}
