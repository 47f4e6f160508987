//! The eval-cache key as it was built before keys were packed — a `Vec`
//! of per-input records with boxed evaluation-string tails — kept as the
//! exactness oracle for [`EvalKey`]. In this crate's unit-test build
//! every [`EvalCache::key_for`] also builds the oracle key, and two side
//! maps per cache assert that two packed keys are equal exactly when
//! their oracle keys are equal, and that equal packed keys carry equal
//! hashes. Were the packing to drop or merge a part of the key, a hit
//! would serve another evaluation's outcome; were it to split one, hit
//! and miss counts would change. The tests below drive corpora in which
//! every part of the key varies, and assert that each feature occurs.
//!
//! A pin of the packed key is its input's state id, so two pins are
//! equal when their states are: the oracle's record holds the waveform
//! itself, compared structurally, and a waveform interned in two
//! [`WaveStore`](scald_wave::WaveStore)s is one pin.

use std::collections::HashMap;

use scald_netlist::PrimRef;
use scald_wave::{DelayCorner, Skew, Waveform};

use super::{EvalCache, EvalKey, INLINE_PINS};
use crate::view::StateView;

/// One input signal's state, as the old key held it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct InputKey {
    wave: Waveform,
    skew: Skew,
    eval: Option<Box<str>>,
}

/// The old key: signature, corner and each input's state in connection
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OracleKey {
    sig: u32,
    corner: DelayCorner,
    inputs: Vec<InputKey>,
}

fn oracle_key<S: StateView + ?Sized>(
    sig: u32,
    prim: PrimRef<'_>,
    states: &S,
    corner: DelayCorner,
) -> OracleKey {
    let inputs = prim
        .input_signals()
        .iter()
        .map(|s| {
            let src = states.state_at(s.index()).get();
            InputKey {
                wave: src.wave.to_waveform(),
                skew: src.skew,
                eval: src.eval.as_ref().map(|e| e.remaining().into()),
            }
        })
        .collect();
    OracleKey {
        sig,
        corner,
        inputs,
    }
}

/// What the keys a cache built showed, one count per key or pin.
#[derive(Debug, Default, Clone)]
struct Coverage {
    /// Keys checked against the oracle.
    keys: u64,
    /// Keys whose oracle key an earlier key of the cache already had.
    repeated: u64,
    /// Keys at a point delay corner.
    point_corners: u64,
    /// Keys with more pins than fit inline.
    spilled: u64,
    /// Pins whose value carries an evaluation string.
    tails: u64,
    /// Pins whose riding string has two or more letters left.
    long_tails: u64,
    /// Pins with a non-zero skew.
    skewed: u64,
}

/// Every key a cache built, both ways round.
#[derive(Debug, Default)]
pub(super) struct SideMaps {
    by_oracle: HashMap<OracleKey, EvalKey>,
    by_key: HashMap<EvalKey, OracleKey>,
    coverage: Coverage,
}

/// Builds the oracle key for the same inputs as `key` and checks it
/// against every key `cache` built before.
pub(super) fn cross_check<S: StateView + ?Sized>(
    cache: &EvalCache,
    key: &EvalKey,
    sig: u32,
    prim: PrimRef<'_>,
    states: &S,
    corner: DelayCorner,
) {
    let oracle = oracle_key(sig, prim, states, corner);
    let mut maps = cache.oracle.lock().expect("side maps poisoned");
    let cov = &mut maps.coverage;
    cov.keys += 1;
    cov.point_corners += u64::from(corner != DelayCorner::Worst);
    cov.spilled += u64::from(oracle.inputs.len() > INLINE_PINS);
    for input in &oracle.inputs {
        cov.tails += u64::from(input.eval.is_some());
        cov.long_tails += u64::from(input.eval.as_ref().is_some_and(|e| e.len() >= 2));
        cov.skewed += u64::from(!input.skew.is_zero());
    }
    if let Some(seen) = maps.by_oracle.get(&oracle) {
        assert!(
            seen == key && seen.hash == key.hash,
            "equal oracle keys packed apart: {oracle:?}\n{seen:?}\n{key:?}"
        );
        maps.coverage.repeated += 1;
    } else {
        maps.by_oracle.insert(oracle.clone(), key.clone());
    }
    if let Some(seen) = maps.by_key.get(key) {
        assert_eq!(
            *seen, oracle,
            "distinct oracle keys packed together: {key:?}"
        );
    } else {
        maps.by_key.insert(key.clone(), oracle);
    }
}

mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::state::{EvalStr, SignalState, StateId};
    use crate::{CaseSet, RunOptions, VerifierBuilder};
    use scald_gen::s1::{s1_like_netlist, S1Options};
    use scald_gen::scale::{scale_netlist, ScaleOptions};
    use scald_gen::sweep::{sweep_netlist, SweepOptions};
    use scald_logic::Value;
    use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, PrimKind};
    use scald_wave::{DelayRange, Time, WaveStore, Waveform};

    fn coverage(cache: &EvalCache) -> Coverage {
        cache
            .oracle
            .lock()
            .expect("side maps poisoned")
            .coverage
            .clone()
    }

    /// Runs `netlist` over `cases` (the base alone when empty) and over
    /// the same cases crossed with every delay corner, all through
    /// `cache`.
    fn runs(cache: &Arc<EvalCache>, netlist: &Netlist, cases: &[&str]) {
        let verify = |options: RunOptions| {
            VerifierBuilder::new(netlist.clone())
                .shared_eval_cache(Arc::clone(cache))
                .build()
                .run(&options)
                .expect("corpus designs settle");
        };
        let set = || CaseSet::exhaustive(cases.iter().copied());
        verify(RunOptions::new().cases(set()));
        verify(RunOptions::new().cases(set().cross_corners(DelayCorner::ALL)));
    }

    /// Directive strings whose tails propagate through chains of
    /// buffers (`HZZW` leaves `ZZW`, `ZW`, `W`), two equal buffers whose
    /// inputs differ only in the string riding on them, and gates wider
    /// than the inline pins.
    fn chains_and_wide_gates() -> Netlist {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let d = DelayRange::from_ns(1.0, 2.0);
        let x = b.signal("X .S0-6").unwrap();
        let ck = b.signal("CK .P2-3").unwrap();
        for (c, directive) in ["HZZW", "EZZW", "EEEW", "AEZE"].into_iter().enumerate() {
            let mut prev = b.signal(&format!("C{c} 0")).unwrap();
            b.buf(
                format!("C{c} HEAD"),
                d,
                Conn::new(ck).with_directive(directive),
                prev,
            );
            for level in 1..=directive.len() {
                let next = b.signal(&format!("C{c} {level}")).unwrap();
                let inputs = [Conn::new(prev), Conn::new(x)];
                b.gate(format!("C{c} G{level}"), PrimKind::And, d, inputs, next);
                prev = next;
            }
        }
        // `Y1` carries `ZW`, `Y2` carries `W`, on one wave with one skew.
        let y1 = b.signal("Y1").unwrap();
        let y2 = b.signal("Y2").unwrap();
        b.buf("Y1 BUF", d, Conn::new(x).with_directive("EZW"), y1);
        b.buf("Y2 BUF", d, Conn::new(x).with_directive("EW"), y2);
        for (i, y) in [y1, y2].into_iter().enumerate() {
            let out = b.signal(&format!("Z{i}")).unwrap();
            b.buf(format!("Z{i} BUF"), d, y, out);
        }
        for width in [5, 6, 9] {
            let ins: Vec<_> = (0..width)
                .map(|i| b.signal(&format!("W{width} IN{i} .S{}-7", i % 4)).unwrap())
                .collect();
            let out = b.signal(&format!("W{width} OUT")).unwrap();
            b.gate(
                format!("W{width}"),
                PrimKind::Or,
                d,
                ins.iter().copied(),
                out,
            );
            let out = b.signal(&format!("W{width} CHG")).unwrap();
            b.chg(format!("W{width} CHG"), d, ins, out);
        }
        b.finish().unwrap()
    }

    /// The corpus: seeded S-1 designs with cases, a scale design, a
    /// sweep with its exhaustive mode cases, and the chain design —
    /// every case set also crossed with the corners.
    #[test]
    fn packed_keys_match_the_vec_key_oracle() {
        let cache = Arc::new(EvalCache::new());
        for seed in 0..3 {
            let (s1, _) = s1_like_netlist(S1Options { chips: 60, seed });
            runs(&cache, &s1, &["CTL 0", "CTL 1"]);
        }
        let (scale, _) = scale_netlist(&ScaleOptions::prims(2_000));
        runs(&cache, &scale, &[]);
        let (sweep, stats) = sweep_netlist(&SweepOptions {
            mode_bits: 3,
            master_slices: 30,
            block_slices: 2,
            seed: 9,
        });
        let bits: Vec<&str> = stats.mode_bits.iter().map(String::as_str).collect();
        runs(&cache, &sweep, &bits);
        runs(&cache, &chains_and_wide_gates(), &[]);

        let cov = coverage(&cache);
        assert!(cov.keys > 10_000, "{cov:?}");
        assert!(cov.repeated > cov.keys / 2, "hits: {cov:?}");
        assert!(cov.point_corners > 0, "point corners: {cov:?}");
        assert!(cov.spilled > 0, "spilled keys: {cov:?}");
        assert!(cov.tails > 0, "riding strings: {cov:?}");
        assert!(cov.long_tails > 0, "multi-letter tails: {cov:?}");
        assert!(cov.skewed > 0, "skewed pins: {cov:?}");
    }

    /// Keys that differ in exactly one part — the wave (here one with
    /// the same id in another store), each skew half, tail, pin count,
    /// corner, signature — built by one cache: each pair must stay
    /// apart, and rebuilding either key must land on it. A wave equal to
    /// the plain one but interned in another store is the same pin.
    #[test]
    fn keys_differing_in_one_part_stay_apart() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let d = DelayRange::from_ns(1.0, 2.0);
        let ins: Vec<_> = (0..6)
            .map(|i| b.signal(&format!("I{i}")).unwrap())
            .collect();
        let outs: Vec<_> = (0..3)
            .map(|i| b.signal(&format!("O{i}")).unwrap())
            .collect();
        b.gate("AND2", PrimKind::And, d, ins[..2].iter().copied(), outs[0]);
        b.gate("AND3", PrimKind::And, d, ins[..3].iter().copied(), outs[1]);
        b.gate("AND6", PrimKind::And, d, ins.iter().copied(), outs[2]);
        let netlist = b.finish().unwrap();
        let period = netlist.config().timing.period;
        let [and2, and3, and6] = [0, 1, 2].map(|i| netlist.iter_prims().nth(i).unwrap().1);

        // Waves with the same id in two stores: the second store interns
        // waves until one lands on the first's id.
        let ns = Time::from_ns;
        let (one, other) = (WaveStore::new(), WaveStore::new());
        let quiet = one.intern(Waveform::constant(period, Value::Stable));
        let twin = (1..400)
            .map(|k| {
                other.intern(Waveform::from_intervals(
                    period,
                    Value::Stable,
                    [(ns(1.0), ns(2.0) + Time::from_ps(k), Value::Change)],
                ))
            })
            .find(|w| w.id() == quiet.id())
            .expect("some wave lands on the same id");
        let state = |wave: &scald_wave::WaveRef, skew: Skew, eval: Option<&str>| {
            StateId::of(&SignalState {
                wave: wave.clone(),
                skew,
                eval: eval.map(EvalStr::new),
            })
        };
        let plain = state(&quiet, Skew::ZERO, None);
        let variants = [
            plain,
            state(&twin, Skew::ZERO, None),
            state(&quiet, Skew::new(ns(1.0), Time::ZERO), None),
            state(&quiet, Skew::new(Time::ZERO, ns(1.0)), None),
            state(&quiet, Skew::ZERO, Some("ZW")),
            state(&quiet, Skew::ZERO, Some("W")),
        ];
        let cache = EvalCache::new();
        let mut keys = Vec::new();
        for &last in &variants {
            let mut states = vec![plain; 6];
            states[5] = last;
            states[2] = last;
            for prim in [and3, and6] {
                for corner in [DelayCorner::Worst, DelayCorner::Min] {
                    for sig in [0, 1] {
                        keys.push(cache.key_for(sig, prim, states.as_slice(), corner));
                    }
                }
            }
        }
        // The first key's signature, corner and first two pins, and one
        // pin fewer.
        let all_plain = vec![plain; 6];
        keys.push(cache.key_for(0, and2, all_plain.as_slice(), DelayCorner::Worst));
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let cov = coverage(&cache);
        assert_eq!(cov.keys, keys.len() as u64);
        assert!(
            cov.spilled > 0 && cov.tails > 0 && cov.skewed > 0,
            "{cov:?}"
        );
        // The same inputs again land on equal keys with equal hashes.
        let again = cache.key_for(0, and6, all_plain.as_slice(), DelayCorner::Worst);
        assert_eq!(again, keys[4]);
        assert_eq!(again.hash, keys[4].hash);
        // The plain wave interned in the other store is the plain state.
        let copy = other.intern(quiet.to_waveform());
        assert_ne!(copy.store_tag(), quiet.store_tag());
        let mut copies = vec![plain; 6];
        copies[5] = state(&copy, Skew::ZERO, None);
        let shared = cache.key_for(0, and6, copies.as_slice(), DelayCorner::Worst);
        assert_eq!(shared, keys[4]);
        assert_eq!(shared.hash, keys[4].hash);
    }
}
