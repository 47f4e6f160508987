//! Randomized property tests (seeded, std-only): assertion Display/parse
//! round trips and waveform construction invariants.

use scald_assertions::{
    parse_assertion, parse_signal_name, Assertion, AssertionKind, TimeRange, TimingContext,
};
use scald_logic::Value;
use scald_rng::Rng;
use scald_wave::Time;

const CASES: usize = 1024;

fn kind(rng: &mut Rng) -> AssertionKind {
    *rng.choose(&[
        AssertionKind::PrecisionClock,
        AssertionKind::NonPrecisionClock,
        AssertionKind::Stable,
    ])
}

fn time_range(rng: &mut Rng) -> TimeRange {
    match rng.range_u32(0, 3) {
        0 => TimeRange::Single(f64::from(rng.range_u32(0, 16))),
        1 => {
            let a = rng.range_u32(0, 16);
            let w = rng.range_u32(1, 16);
            TimeRange::Units(f64::from(a), f64::from(a + w))
        }
        _ => {
            let a = rng.range_u32(0, 16);
            let w = rng.range_u32(1, 200);
            TimeRange::UnitsPlusNs(f64::from(a), f64::from(w) / 10.0)
        }
    }
}

fn assertion(rng: &mut Rng) -> Assertion {
    let kind = kind(rng);
    let ranges: Vec<TimeRange> = (0..rng.range_usize(1, 4))
        .map(|_| time_range(rng))
        .collect();
    let skew = if rng.bool() {
        Some((rng.range_u32(0, 50), rng.range_u32(0, 50)))
    } else {
        None
    };
    let active_low = rng.bool();
    let skew = if kind.is_clock() {
        skew.map(|(m, p)| (-f64::from(m) / 10.0, f64::from(p) / 10.0))
    } else {
        None
    };
    Assertion {
        kind,
        ranges,
        skew,
        active_low,
    }
}

/// An uppercase multi-word base name like `MEM WRITE STROBE`.
fn base_name(rng: &mut Rng) -> String {
    let letter = |rng: &mut Rng| (b'A' + rng.range_u32(0, 26) as u8) as char;
    let mut s = String::new();
    s.push(letter(rng));
    for _ in 0..rng.range_usize(0, 11) {
        s.push(if rng.bool_with(0.2) { ' ' } else { letter(rng) });
    }
    // No leading/trailing/double spaces: collapse then trim.
    let mut out = String::new();
    let mut prev_space = true;
    for c in s.chars() {
        if c == ' ' {
            if !prev_space {
                out.push(c);
            }
            prev_space = true;
        } else {
            out.push(c);
            prev_space = false;
        }
    }
    let out = out.trim_end().to_owned();
    if out.is_empty() {
        "A".to_owned()
    } else {
        out
    }
}

/// Display -> parse reconstructs the assertion exactly — the property
/// SCALD relies on when assertions live inside signal names.
#[test]
fn display_parse_round_trip() {
    let mut rng = Rng::seed_from_u64(0xa55e_0001);
    for _ in 0..CASES {
        let a = assertion(&mut rng);
        let text = a.to_string();
        let parsed =
            parse_assertion(&text).unwrap_or_else(|e| panic!("{text:?} failed to parse: {e}"));
        assert_eq!(parsed, a, "text: {text}");
    }
}

/// Any finite number the parser accepts: short decimals (`10.25`),
/// long fractions, whole numbers beyond `i64`, and arbitrary bit
/// patterns.
fn any_number(rng: &mut Rng) -> f64 {
    let x = match rng.range_u32(0, 4) {
        0 => f64::from(rng.range_u32(0, 100_000)) / 100.0,
        1 => rng.range_i64(-1_000_000, 1_000_000) as f64 / 10f64.powi(rng.range_u32(0, 8) as i32),
        2 => rng.range_f64(0.0, 1e30),
        _ => f64::from_bits(rng.next_u64()),
    };
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn any_assertion(rng: &mut Rng) -> Assertion {
    let kind = kind(rng);
    let ranges = (0..rng.range_usize(1, 4))
        .map(|_| match rng.range_u32(0, 3) {
            0 => TimeRange::Single(any_number(rng)),
            1 => TimeRange::Units(any_number(rng), any_number(rng)),
            _ => TimeRange::UnitsPlusNs(any_number(rng), any_number(rng)),
        })
        .collect();
    let skew =
        (kind.is_clock() && rng.bool()).then(|| (-any_number(rng).abs(), any_number(rng).abs()));
    Assertion {
        kind,
        ranges,
        skew,
        active_low: rng.bool(),
    }
}

/// Display is lossless: parsing what an assertion displays gives back
/// the same values for every finite number, not only the one-decimal
/// widths of [`display_parse_round_trip`]. Signal names, and the content
/// hashes built from them, therefore tell apart `+10.25` and `+10.2`.
#[test]
fn display_parse_round_trip_is_exact_for_any_finite_value() {
    let mut rng = Rng::seed_from_u64(0xa55e_0004);
    for _ in 0..CASES {
        let a = any_assertion(&mut rng);
        let text = a.to_string();
        let parsed =
            parse_assertion(&text).unwrap_or_else(|e| panic!("{text:?} failed to parse: {e}"));
        assert_eq!(parsed, a, "text: {text}");
    }
}

/// The assertion survives embedding in a full signal name.
#[test]
fn embeds_in_signal_names() {
    let mut rng = Rng::seed_from_u64(0xa55e_0002);
    for _ in 0..CASES {
        let a = assertion(&mut rng);
        let base = base_name(&mut rng);
        let full = format!("{base} {a}");
        let (parsed_base, parsed_a) =
            parse_signal_name(&full).unwrap_or_else(|e| panic!("{full:?} failed: {e}"));
        assert_eq!(parsed_base, base);
        assert_eq!(parsed_a, Some(a));
    }
}

/// to_state produces a waveform whose asserted intervals carry the
/// asserted value — and clock skews come from the right default.
#[test]
fn to_state_paints_asserted_value() {
    let mut rng = Rng::seed_from_u64(0xa55e_0003);
    for _ in 0..CASES {
        let a = assertion(&mut rng);
        let ctx = TimingContext::s1_example();
        let (wave, skew) = a.to_state(&ctx);
        // Sample the midpoint of each range (modulo the period).
        for r in &a.ranges {
            let (start, end) = r.resolve(ctx.clock_unit);
            if end <= start {
                continue;
            }
            let mid_ps = (start.as_ps() + end.as_ps()) / 2;
            let v = wave.value_at(Time::from_ps(mid_ps));
            let expect = match (a.kind, a.active_low) {
                (AssertionKind::Stable, _) => Value::Stable,
                (_, false) => Value::One,
                (_, true) => Value::Zero,
            };
            // Later overlapping ranges may repaint, so only require the
            // value to be one of the two paint colours.
            let base = match (a.kind, a.active_low) {
                (AssertionKind::Stable, _) => Value::Change,
                (_, false) => Value::Zero,
                (_, true) => Value::One,
            };
            assert!(
                v == expect || v == base,
                "range {} midpoint {} has {}",
                r,
                Time::from_ps(mid_ps),
                v
            );
        }
        if a.kind.is_clock() {
            match a.skew {
                Some((m, p)) => {
                    assert_eq!(skew.minus, Time::from_ns(m.abs()));
                    assert_eq!(skew.plus, Time::from_ns(p));
                }
                None => {
                    let expect = match a.kind {
                        AssertionKind::PrecisionClock => ctx.precision_skew,
                        _ => ctx.nonprecision_skew,
                    };
                    assert_eq!(skew, expect);
                }
            }
        } else {
            assert!(skew.is_zero());
        }
    }
}
