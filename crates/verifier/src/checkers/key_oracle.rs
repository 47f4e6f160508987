//! The per-instance checker pass and the per-checker slack loop, kept
//! as the oracles for the keyed pass and the keyed slack table. The
//! oracles run every checker primitive's kernel, one instance at a
//! time; the keyed versions run it once per distinct [`CheckerKey`]. In
//! this crate's unit-test build every full pass and every slack view is
//! also computed the per-instance way and must agree exactly: the
//! violations, the three firing sets, the evaluated and inherited
//! counts, the static units, and every [`CheckMargin`]. The tests below
//! drive corpora chosen so that each part of the key decides a verdict
//! somewhere, and assert that each feature the key reads occurs.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};

use scald_netlist::{Netlist, PrimId, PrimKind};
use scald_wave::{DelayCorner, Time};

use super::{
    check_checker_prim, check_hazard_gate, check_signal_assertion, checker_margins,
    has_assertion_unit, CheckMargin, CheckPass, CheckerKey,
};
use crate::state::{Directive, EvalStr};
use crate::view::StateView;

/// The full pass with one kernel run per checker primitive, as it ran
/// before checker keys.
fn full_pass_per_instance<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
) -> CheckPass {
    use super::{CheckCache, StaticUnits};
    use std::sync::Arc;

    let mut out = Vec::new();
    let mut violating_prims = BTreeSet::new();
    let mut violating_hazards = BTreeSet::new();
    let mut violating_asserts = BTreeSet::new();
    let mut checker_prims = 0u64;
    let mut assert_signals = Vec::new();
    for (pid, prim) in netlist.iter_prims() {
        if !prim.kind().is_checker() {
            continue;
        }
        checker_prims += 1;
        let before = out.len();
        check_checker_prim(netlist, states, prim, corner, &mut out);
        if out.len() > before {
            violating_prims.insert(pid);
        }
    }
    for &(pid, clock_idx) in hazards {
        let before = out.len();
        check_hazard_gate(netlist, states, pid, clock_idx, corner, &mut out);
        if out.len() > before {
            violating_hazards.insert((pid, clock_idx));
        }
    }
    for (sid, sig) in netlist.iter_signals() {
        if !has_assertion_unit(netlist, sid, sig.assertion()) {
            continue;
        }
        assert_signals.push(sid);
        let before = out.len();
        check_signal_assertion(netlist, states, sid, sig, &mut out);
        if out.len() > before {
            violating_asserts.insert(sid);
        }
    }
    let evaluated = checker_prims + hazards.len() as u64 + assert_signals.len() as u64;
    CheckPass {
        violations: out,
        cache: CheckCache {
            violating_prims,
            violating_hazards,
            violating_asserts,
            units: Arc::new(StaticUnits {
                checker_prims,
                assert_signals,
            }),
        },
        evaluated,
        inherited: 0,
    }
}

/// The slack view with one margin computation per checker primitive,
/// as it ran before checker keys.
fn slack_per_checker<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    corner: DelayCorner,
) -> Vec<CheckMargin> {
    let mut out: Vec<CheckMargin> = netlist
        .iter_prims()
        .filter(|(_, prim)| prim.kind().is_checker())
        .map(|(_, prim)| {
            let m = checker_margins(netlist, prim, states, corner);
            CheckMargin {
                checker: prim.name().to_owned(),
                signal: netlist.signal(prim.input(0).signal()).name().to_owned(),
                setup_slack: m.setup,
                hold_slack: m.hold,
                pulse_slack: m.pulse,
            }
        })
        .collect();
    out.sort_by_key(|m| {
        [m.setup_slack, m.hold_slack, m.pulse_slack]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Time::from_ps(i64::MAX))
    });
    out
}

/// What the oracle checks saw while recording, one count per checker
/// primitive (or per pass) that showed the feature.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// Full passes checked against the per-instance pass.
    full_passes: u64,
    /// Slack views checked against the per-checker loop.
    slack_views: u64,
    /// Passes or views at a point delay corner.
    point_corners: u64,
    /// Checker primitives with an inverted pin.
    inverted: u64,
    /// Checker pins whose wire delay is a per-wire override.
    wire_overrides: u64,
    /// Checker pins whose wire delay is a per-signal override.
    signal_wire_overrides: u64,
    /// Checker pins whose directive head (own or propagated) is `Z`/`H`.
    z_or_h_heads: u64,
    /// Checker pins whose head rides on the incoming value.
    propagated_heads: u64,
    /// Checker pins whose source carries a non-zero skew.
    skewed: u64,
    /// `MinPulseWidth` primitives.
    pulse_width: u64,
    /// Checker primitives that fired.
    firing: u64,
    /// Checker primitives whose key an earlier primitive of the same
    /// pass already had.
    shared: u64,
}

thread_local! {
    static COVERAGE: RefCell<Option<Coverage>> = const { RefCell::new(None) };
}

/// Tallies the features the checker keys of one pass read.
fn tally<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    corner: DelayCorner,
    cov: &mut Coverage,
) {
    cov.point_corners += u64::from(corner != DelayCorner::Worst);
    let mut keys = HashSet::new();
    for (_, prim) in netlist.iter_prims() {
        if !prim.kind().is_checker() {
            continue;
        }
        let pins = if matches!(prim.kind(), PrimKind::MinPulseWidth { .. }) {
            1
        } else {
            2
        };
        let pins = || prim.inputs().take(pins);
        cov.inverted += u64::from(pins().any(|c| c.invert()));
        for conn in pins() {
            let src = states.state_at(conn.signal().index()).get();
            let head = match conn.directive() {
                Some(d) => d.chars().next().and_then(Directive::from_letter),
                None => src.eval.as_ref().and_then(EvalStr::head),
            };
            cov.wire_overrides += u64::from(conn.wire_delay().is_some());
            cov.signal_wire_overrides += u64::from(
                conn.wire_delay().is_none() && netlist.signal(conn.signal()).wire_delay().is_some(),
            );
            cov.z_or_h_heads += u64::from(head.is_some_and(Directive::zeroes_gate));
            cov.propagated_heads += u64::from(conn.directive().is_none() && head.is_some());
            cov.skewed += u64::from(!src.skew.is_zero());
        }
        cov.pulse_width += u64::from(matches!(prim.kind(), PrimKind::MinPulseWidth { .. }));
        if !keys.insert(CheckerKey::of(netlist, prim, states, corner)) {
            cov.shared += 1;
        }
    }
}

/// Runs the per-instance pass for the same inputs as the keyed full
/// pass `pass` and asserts that both agree; records coverage when the
/// calling thread is recording.
pub(super) fn cross_check_full<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
    pass: &CheckPass,
) {
    let oracle = full_pass_per_instance(netlist, states, hazards, corner);
    assert_eq!(pass.violations, oracle.violations, "violations");
    assert_eq!(pass.cache.violating_prims, oracle.cache.violating_prims);
    assert_eq!(pass.cache.violating_hazards, oracle.cache.violating_hazards);
    assert_eq!(pass.cache.violating_asserts, oracle.cache.violating_asserts);
    assert_eq!(
        (pass.evaluated, pass.inherited),
        (oracle.evaluated, oracle.inherited),
        "(evaluated, inherited)"
    );
    assert_eq!(
        pass.cache.units.checker_prims,
        oracle.cache.units.checker_prims
    );
    assert_eq!(
        pass.cache.units.assert_signals,
        oracle.cache.units.assert_signals
    );
    COVERAGE.with(|c| {
        if let Some(cov) = c.borrow_mut().as_mut() {
            cov.full_passes += 1;
            cov.firing += pass.cache.violating_prims.len() as u64;
            tally(netlist, states, corner, cov);
        }
    });
}

/// Runs the per-checker slack loop for the same inputs as the keyed
/// view `rows` and asserts that every margin agrees, in order.
pub(super) fn cross_check_slack<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    corner: DelayCorner,
    rows: &[CheckMargin],
) {
    assert_eq!(rows, slack_per_checker(netlist, states, corner), "margins");
    COVERAGE.with(|c| {
        if let Some(cov) = c.borrow_mut().as_mut() {
            cov.slack_views += 1;
            tally(netlist, states, corner, cov);
        }
    });
}

mod tests {
    use super::*;
    use crate::state::{SignalState, StateId};
    use crate::{Case, CaseSet, RunOptions, Verifier};
    use scald_gen::figures::hazard_circuit;
    use scald_gen::s1::{s1_like_netlist, S1Options};
    use scald_gen::scale::{scale_netlist, ScaleOptions};
    use scald_logic::Value;
    use scald_netlist::{Config, Conn, NetlistBuilder};
    use scald_wave::{DelayRange, WaveStore, Waveform};

    /// Records coverage while `f` runs on this thread.
    fn recording(f: impl FnOnce()) -> Coverage {
        COVERAGE.with(|c| *c.borrow_mut() = Some(Coverage::default()));
        f();
        COVERAGE
            .with(|c| c.borrow_mut().take())
            .expect("recording was on")
    }

    fn add(total: &mut Coverage, c: Coverage) {
        total.full_passes += c.full_passes;
        total.slack_views += c.slack_views;
        total.point_corners += c.point_corners;
        total.inverted += c.inverted;
        total.wire_overrides += c.wire_overrides;
        total.signal_wire_overrides += c.signal_wire_overrides;
        total.z_or_h_heads += c.z_or_h_heads;
        total.propagated_heads += c.propagated_heads;
        total.skewed += c.skewed;
        total.pulse_width += c.pulse_width;
        total.firing += c.firing;
        total.shared += c.shared;
    }

    /// Checker pairs that differ in one part of the key, the clean one
    /// first in netlist order: were that part left out of the key, the
    /// second would inherit the first's clean verdict and the oracle
    /// would see it fire. Data `D .S0-4` is stable 0–25 ns; the `CK
    /// .P2-3` edge window after skew and wire is 11.5–15.5 ns, so a
    /// checker on the plain pins has 9.5 ns of set-up and 9.5 ns of
    /// hold.
    fn key_pairs() -> Netlist {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let ns = Time::from_ns;
        let d = b.signal("D .S0-4").unwrap();
        let d2 = b.signal("D2 .S0-4").unwrap();
        let e = b.signal("E .S0-1").unwrap();
        let ck = b.signal("CK .P2-3").unwrap();
        let ckc = b.signal("CKC .C2-3").unwrap();
        let ck2 = b.signal("CK2 .P1-2").unwrap();
        let q = b.signal("Q").unwrap();
        let q2 = b.signal("Q2").unwrap();
        let long = DelayRange::from_ns(0.0, 12.0);
        b.set_wire_delay(d2, long);
        // The gate passes the tail `Z` of its input's string to `Q`.
        b.buf(
            "QBUF",
            DelayRange::from_ns(1.0, 1.0),
            Conn::new(d).with_directive("EZ"),
            q,
        );
        b.buf("Q2BUF", DelayRange::from_ns(1.0, 1.0), d, q2);

        // Kind parameters: 9.5 ns of set-up passes 2.5 and misses 10.
        b.setup_hold("BASE", ns(2.5), ns(1.5), d, ck);
        b.setup_hold("SETUP10", ns(10.0), ns(1.5), d, ck);
        // Inversion: the inverted clock rises at 18.75 ns, leaving
        // 15.75 ns of set-up.
        b.setup_hold("INV10", ns(10.0), ns(1.5), d, Conn::new(ck).inverted());
        b.setup_hold("PLAIN10", ns(10.0), ns(1.5), d, ck);
        // A pulse width on the inverted clock sees its 43.75 ns low
        // phase as the high pulse; the plain clock's 6.25 ns misses 8.
        b.min_pulse_width("MPW INV", ns(8.0), ns(1.0), Conn::new(ck).inverted());
        b.min_pulse_width("MPW", ns(8.0), ns(1.0), ck);
        // Skew: `.C` carries ±5 ns on the same wave, leaving 5.5 ns.
        b.setup_hold("SETUP7", ns(7.0), ns(1.5), d, ck);
        b.setup_hold("SKEW7", ns(7.0), ns(1.5), d, ckc);
        // The clock: `CK2` rises at 6.25 ns, leaving 3.25 ns.
        b.setup_hold("CLOCK7", ns(7.0), ns(1.5), d, ck2);
        // Directive heads that zero a long wire, then the same wire
        // without them: a per-wire override, a per-signal override and
        // a head riding on the value.
        b.setup_hold(
            "WIRE Z",
            ns(2.5),
            ns(1.5),
            Conn::new(d).with_wire_delay(long).with_directive("Z"),
            ck,
        );
        b.setup_hold(
            "WIRE H",
            ns(2.5),
            ns(1.5),
            Conn::new(d).with_wire_delay(long).with_directive("H"),
            ck,
        );
        b.setup_hold(
            "WIRE",
            ns(2.5),
            ns(1.5),
            Conn::new(d).with_wire_delay(long),
            ck,
        );
        b.setup_hold("SIGNAL WIRE", ns(2.5), ns(1.5), d2, ck);
        b.setup_hold(
            "RIDING Z",
            ns(2.5),
            ns(1.5),
            Conn::new(q).with_wire_delay(long),
            ck,
        );
        b.setup_hold(
            "NOT RIDING",
            ns(2.5),
            ns(1.5),
            Conn::new(q2).with_wire_delay(long),
            ck,
        );
        // The data wave.
        b.setup_hold("LATE DATA", ns(2.5), ns(1.5), e, ck);
        // The other two-pin kind.
        b.setup_rise_hold_fall("RISE FALL", ns(2.5), ns(1.5), d, ck);
        b.finish().unwrap()
    }

    /// Many checkers reading the same few states: most keys repeat.
    fn shared_keys() -> Netlist {
        scale_netlist(&ScaleOptions::prims(3_000)).0
    }

    fn run(netlist: &Netlist, options: &RunOptions) -> Verifier {
        let mut v = Verifier::new(netlist.clone());
        v.run(options).expect("corpus designs settle");
        v
    }

    /// The corpora at the worst-case corner, at every point corner, and
    /// as a case tree crossed with the corners (whose corner roots run
    /// full passes); each run's final state also gives a slack view.
    fn corpus_runs(netlist: &Netlist, cases: &[&str]) -> Coverage {
        recording(|| {
            let _ = run(netlist, &RunOptions::new()).slack_report();
            for corner in DelayCorner::ALL {
                let v = run(netlist, &RunOptions::new().case(Case::new().corner(corner)));
                let _ = v.slack_report();
            }
            if !cases.is_empty() {
                let set =
                    CaseSet::exhaustive(cases.iter().copied()).cross_corners(DelayCorner::ALL);
                let _ = run(netlist, &RunOptions::new().cases(set));
            }
        })
    }

    fn corpora() -> Coverage {
        let mut total = Coverage::default();
        let pairs = key_pairs();
        // Each pair's second checker fires at the worst-case corner, and
        // each first one is clean.
        let outcome = Verifier::new(pairs.clone())
            .run(&RunOptions::new())
            .expect("key pairs settle");
        let fired: BTreeSet<&str> = outcome
            .sole()
            .violations
            .iter()
            .map(|v| v.source.as_str())
            .collect();
        assert_eq!(
            fired,
            BTreeSet::from([
                "SETUP10",
                "PLAIN10",
                "MPW",
                "SKEW7",
                "CLOCK7",
                "WIRE",
                "SIGNAL WIRE",
                "NOT RIDING",
                "LATE DATA",
            ]),
            "{:#?}",
            outcome.sole().violations
        );
        let c = corpus_runs(&pairs, &[]);
        assert!(c.firing > 0 && c.shared > 0, "key pairs: {c:?}");
        add(&mut total, c);

        let c = corpus_runs(&shared_keys(), &[]);
        assert!(c.shared > 100, "shared keys: {c:?}");
        add(&mut total, c);

        let (s1, _) = s1_like_netlist(S1Options {
            chips: 16,
            seed: 0x5ca1d,
        });
        add(&mut total, corpus_runs(&s1, &["CTL 0", "CTL 1"]));

        let netlist = scald_hdl::compile(include_str!("../../../../designs/register_file.scald"))
            .expect("shipped design compiles")
            .netlist;
        let c = corpus_runs(&netlist, &["BYPASS", "WRITE"]);
        assert!(c.firing > 0, "register file: {c:?}");
        add(&mut total, c);

        add(
            &mut total,
            corpus_runs(&hazard_circuit(true), &["D IN", "ENABLE"]),
        );
        total
    }

    /// The first oracle property: every full pass over the corpora
    /// equals the per-instance pass, and the corpora exercise every
    /// part of the key.
    #[test]
    fn keyed_checker_passes_match_the_per_instance_oracle() {
        let total = corpora();
        assert!(total.full_passes > 0, "{total:?}");
        assert!(total.point_corners > 0, "point corners: {total:?}");
        assert!(total.inverted > 0, "inverted pins: {total:?}");
        assert!(total.wire_overrides > 0, "per-wire delays: {total:?}");
        assert!(
            total.signal_wire_overrides > 0,
            "per-signal delays: {total:?}"
        );
        assert!(total.z_or_h_heads > 0, "Z/H heads: {total:?}");
        assert!(total.propagated_heads > 0, "riding heads: {total:?}");
        assert!(total.skewed > 0, "skewed pins: {total:?}");
        assert!(total.pulse_width > 0, "pulse-width checkers: {total:?}");
        assert!(total.firing > 0, "firing checkers: {total:?}");
        assert!(total.shared > 0, "shared keys: {total:?}");
    }

    /// The second oracle property: every slack view over the corpora
    /// equals the per-checker loop, margin for margin.
    #[test]
    fn keyed_slack_matches_the_per_checker_loop() {
        let total = corpora();
        assert!(total.slack_views > 0, "{total:?}");
        assert!(total.point_corners > 0, "point corners: {total:?}");
        assert!(total.shared > 0, "shared keys: {total:?}");
    }

    /// Wave ids are unique only within one store: two checkers whose
    /// data waves have the same id in different stores keep different
    /// keys, and the one that fires is not taken for the clean one.
    #[test]
    fn keys_tell_wave_stores_apart() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let ns = Time::from_ns;
        let d = b.signal("D").unwrap();
        let late = b.signal("LATE").unwrap();
        let ck = b.signal("CK").unwrap();
        b.setup_hold("EARLY CHK", ns(2.5), ns(1.5), d, ck);
        b.setup_hold("LATE CHK", ns(2.5), ns(1.5), late, ck);
        let netlist = b.finish().unwrap();
        let period = netlist.config().timing.period;

        // The clean wave is the first in its store; a second store
        // interns late-changing waves until one gets the same id.
        let (one, other) = (WaveStore::new(), WaveStore::new());
        let clean = one.intern(Waveform::constant(period, Value::Stable));
        let colliding = (1..400)
            .map(|k| {
                let start = ns(11.0) - Time::from_ps(k);
                other.intern(Waveform::from_intervals(
                    period,
                    Value::Stable,
                    [(start, ns(12.0), Value::Change)],
                ))
            })
            .find(|w| w.id() == clean.id())
            .expect("some wave lands on the same id");
        assert_ne!(clean.store_tag(), colliding.store_tag());
        let clock =
            Waveform::from_intervals(period, Value::Zero, [(ns(12.0), ns(18.0), Value::One)]);
        let state = |wave| {
            StateId::of(&SignalState {
                wave,
                skew: scald_wave::Skew::ZERO,
                eval: None,
            })
        };
        let states = [
            state(clean),
            state(colliding),
            state(WaveStore::global().intern(clock)),
        ];
        // Both calls run their oracles.
        let pass =
            super::super::run_checks_cached(&netlist, &states[..], &[], DelayCorner::Worst, None);
        let late_chk = netlist
            .iter_prims()
            .find(|(_, p)| p.name() == "LATE CHK")
            .map(|(pid, _)| pid)
            .expect("named checker");
        assert_eq!(pass.cache.violating_prims, BTreeSet::from([late_chk]));
        let _ = super::super::slack_report(&netlist, &states[..], DelayCorner::Worst);
    }
}
