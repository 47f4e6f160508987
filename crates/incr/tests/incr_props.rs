//! The central correctness property of `scald-incr`: a warm-started
//! [`Session::apply`] produces a report **byte-identical** (modulo effort
//! counters) to a cold verification of the edited design.
//!
//! Designs are generated S-1-like netlists; edits are seeded scripts of
//! retimes, removals, buffer splices, assertion changes and case-set
//! swaps, applied in sequence so later edits see earlier ones.

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_incr::{
    design_hash, Case, Delta, DeltaConn, DesignInput, NetlistDelta, PrimSpec, Session,
};
use scald_netlist::{Config, Netlist, NetlistBuilder, PrimKind};
use scald_rng::Rng;
use scald_verifier::{CaseSet, RunOptions, Verifier};
use scald_wave::{DelayRange, Time};

/// Cold-verifies `netlist` against `cases` exactly as a fresh run would.
fn cold_report(netlist: &Netlist, cases: &[Case]) -> String {
    let mut v = Verifier::new(netlist.clone());
    let results = v
        .run(&RunOptions::new().cases(CaseSet::list(cases.iter().cloned())))
        .expect("cold run settles")
        .cases;
    v.report("prop", &results).strip_effort().to_json()
}

/// One seeded edit: either a structural [`NetlistDelta`] or a case swap.
enum Edit {
    Structural(NetlistDelta),
    Cases(Vec<Case>),
}

/// Draws an edit against the *current* state of the design so scripts
/// stay valid as they accumulate.
fn draw_edit(rng: &mut Rng, netlist: &Netlist, tag: String) -> Edit {
    let prims = netlist.prims();
    match rng.range_u32(0, 5) {
        0 => {
            // ECO retime of a random primitive.
            let p = rng.range_usize(0, prims.len());
            let lo = rng.range_f64(0.5, 4.0);
            let hi = lo + rng.range_f64(0.0, 6.0);
            let mut d = NetlistDelta::new();
            d.retime(prims[p].name.clone(), DelayRange::from_ns(lo, hi));
            Edit::Structural(d)
        }
        1 => {
            // Remove a random primitive; its output goes undriven.
            let p = rng.range_usize(0, prims.len());
            let mut d = NetlistDelta::new();
            d.remove_prim(prims[p].name.clone());
            Edit::Structural(d)
        }
        2 => {
            // Splice a buffer off a scalar control signal.
            let ctl = rng.range_u32(0, 24);
            let mut d = NetlistDelta::new();
            d.add_prim(PrimSpec {
                name: format!("ECO/{tag}"),
                kind: PrimKind::Buf,
                delay: DelayRange::from_ns(0.5, 2.5),
                inputs: vec![DeltaConn::new(format!("CTL {ctl}"))],
                output: Some(format!("ECO/{tag} OUT")),
            });
            Edit::Structural(d)
        }
        3 => {
            // Change (or drop) a random signal's assertion.
            let sigs = netlist.signals();
            let s = rng.range_usize(0, sigs.len());
            let assertion = if rng.bool() {
                let lo = ["2", "2.5", "3"][rng.range_usize(0, 3)];
                Some(format!(".S{lo}-8"))
            } else {
                None
            };
            let mut d = NetlistDelta::new();
            d.set_assertion(sigs[s].name.clone(), assertion);
            Edit::Structural(d)
        }
        _ => {
            // Swap the case set: pin one or two control signals.
            let mut cases = Vec::new();
            for _ in 0..rng.range_u32(1, 3) {
                let mut case = Case::new();
                for _ in 0..rng.range_u32(1, 3) {
                    let ctl = rng.range_u32(0, 24);
                    case = case.assign(format!("CTL {ctl}"), rng.bool());
                }
                cases.push(case);
            }
            Edit::Cases(cases)
        }
    }
}

#[test]
fn warm_apply_matches_cold_run_over_seeded_edit_scripts() {
    const DESIGNS: usize = 12;
    const EDITS: usize = 9;
    let mut pairs = 0usize;
    let mut warm_passes = 0usize;

    for design in 0..DESIGNS {
        let opts = S1Options {
            chips: 8 + 2 * design,
            seed: 0xec0_0000 + design as u64,
        };
        let (netlist, _) = s1_like_netlist(opts);
        let mut rng = Rng::seed_from_u64(0x5eed_0000 + design as u64);
        let mut current = netlist.clone();
        let mut cases = vec![Case::new()];
        let mut session = Session::open(DesignInput::netlist(netlist, cases.clone()), "prop")
            .expect("opens cold");
        assert!(!session.outcome().stats.warm, "initial open is cold");
        assert_eq!(
            session.report().strip_effort().to_json(),
            cold_report(&current, &cases),
            "design {design}: the opening run is itself a plain cold run"
        );

        for edit in 0..EDITS {
            let delta = match draw_edit(&mut rng, &current, format!("{design}_{edit}")) {
                Edit::Structural(d) => {
                    current = d.apply(&current).expect("edit applies");
                    Delta::Netlist(d)
                }
                Edit::Cases(c) => {
                    cases = c.clone();
                    Delta::Cases(c)
                }
            };
            let stats = session.apply(delta).expect("warm apply settles");
            assert!(
                stats.warm,
                "design {design} edit {edit}: same config must warm-start"
            );
            assert_eq!(
                session.report().strip_effort().to_json(),
                cold_report(&current, &cases),
                "design {design} edit {edit}: warm report differs from cold"
            );
            pairs += 1;
            if stats.warm {
                warm_passes += 1;
            }
        }
    }

    assert!(pairs >= 100, "property needs >=100 pairs, got {pairs}");
    assert_eq!(warm_passes, pairs, "every apply after open must be warm");
}

#[test]
fn single_retime_touches_a_small_cone() {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips: 60,
        seed: 0x5ca1d,
    });
    let target = netlist
        .prims()
        .iter()
        .find(|p| p.name.ends_with("/LOGIC") || p.name.ends_with("/MUX"))
        .expect("generated design has datapath slices")
        .name
        .clone();
    let mut session =
        Session::open(DesignInput::netlist(netlist, vec![Case::new()]), "cone").expect("opens");
    let cold_events = session.outcome().stats.events;

    let mut d = NetlistDelta::new();
    d.retime(target, DelayRange::from_ns(2.0, 7.0));
    let stats = session.apply(Delta::Netlist(d)).expect("applies");
    assert!(stats.warm);
    assert!(
        stats.cone_prims < stats.total_prims / 2,
        "one retime should dirty a minority cone: {}/{} prims",
        stats.cone_prims,
        stats.total_prims
    );
    assert!(
        stats.events < cold_events,
        "warm settle ({} events) should beat the cold run ({cold_events})",
        stats.events
    );
}

#[test]
fn identical_source_reapply_is_all_clean() {
    let (netlist, _) = s1_like_netlist(S1Options { chips: 20, seed: 7 });
    let mut session = Session::open(
        DesignInput::netlist(netlist.clone(), vec![Case::new()]),
        "noop",
    )
    .expect("opens");
    let before = session.report().strip_effort().to_json();
    let stats = session
        .apply(Delta::Netlist(NetlistDelta::new()))
        .expect("empty delta applies");
    assert!(stats.warm);
    assert_eq!(stats.dirty_prims, 0, "nothing changed");
    assert_eq!(stats.seeded_prims, 0);
    assert_eq!(session.report().strip_effort().to_json(), before);
}

/// Editing a fixed pulse width from `+10.25` to `+10.2` ns is a real
/// edit: the clock's full name, and so its content hash, changes, and the
/// warm report equals a cold run of the edited source.
#[test]
fn hundredths_of_a_pulse_width_are_an_edit() {
    let design = |width: &str| {
        format!(
            "design PW; period 50.0; clock_unit 6.25;\ntop;\n\
             \x20 buf delay=1.0:1.0 ('CK .P2+{width}') -> (CKB);\n\
             \x20 min_pulse_width high=10.22 (CKB);\n\
             \x20 reg delay=1.5:4.5 (CKB, 'D .S0-6') -> (Q);\nend;\n"
        )
    };
    let cold = |src: &str| {
        Session::open(DesignInput::source(src), "pw")
            .expect("opens")
            .report()
            .strip_effort()
            .to_json()
    };
    let (before, after) = (design("10.25"), design("10.2"));
    assert_ne!(cold(&before), cold(&after), "the edit changes the verdict");

    let mut session = Session::open(DesignInput::source(&before), "pw").expect("opens");
    let stats = session
        .apply(Delta::Source(after.clone()))
        .expect("edit applies");
    assert!(stats.dirty_prims > 0, "the clock's cone is dirty");
    assert_eq!(session.report().strip_effort().to_json(), cold(&after));
}

/// A hand-built netlist with two buffers both named `B` (the expander
/// makes names unique; the builder does not). `B` buffers `D` onto `Q1`
/// and `Q2`, and `Q1` feeds a register and its set-up/hold check.
fn duplicate_named_bufs(delay: DelayRange) -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let clk = b.signal("CLK .P6-7").expect("valid name");
    let d = b.signal_vec("D .S0-6", 8).expect("valid name");
    let q1 = b.signal_vec("Q1", 8).expect("valid name");
    let q2 = b.signal_vec("Q2", 8).expect("valid name");
    let r = b.signal_vec("R", 8).expect("valid name");
    b.buf("B", delay, d, q1);
    b.buf("B", delay, d, q2);
    b.reg("REG", DelayRange::from_ns(1.5, 4.5), clk, q1, r);
    b.setup_hold("REG CHK", Time::from_ns(2.5), Time::from_ns(1.5), q1, clk);
    b.finish().expect("valid netlist")
}

/// A name that is ambiguous in the design pairs nothing: retiming `B`
/// re-verifies both buffers, and the warm report equals a cold open of
/// the edited netlist.
#[test]
fn duplicate_named_prims_reverify_dirty() {
    let before = duplicate_named_bufs(DelayRange::from_ns(1.0, 2.0));
    let mut session =
        Session::open(DesignInput::netlist(before, vec![Case::new()]), "prop").expect("opens");
    let mut d = NetlistDelta::new();
    d.retime("B", DelayRange::from_ns(20.0, 30.0));
    let edited = d.apply(session.netlist()).expect("retime applies");
    let stats = session
        .apply(Delta::Netlist(d))
        .expect("warm apply settles");
    assert!(stats.warm);
    assert_eq!(stats.dirty_prims, 2, "both buffers named B are dirty");
    assert_eq!(stats.seeded_prims, 2);
    assert_eq!(
        session.report().strip_effort().to_json(),
        cold_report(&edited, &[Case::new()]),
        "warm report differs from cold"
    );
}

/// `design_hash` covers duplicate-named primitives too, so a pool never
/// mistakes the retimed design for the original.
#[test]
fn design_hash_covers_duplicate_named_prims() {
    let cases = [Case::new()];
    let fast = duplicate_named_bufs(DelayRange::from_ns(1.0, 2.0));
    let slow = duplicate_named_bufs(DelayRange::from_ns(20.0, 30.0));
    assert_ne!(design_hash(&fast, &cases), design_hash(&slow, &cases));
    assert_eq!(
        design_hash(&fast, &cases),
        design_hash(&duplicate_named_bufs(DelayRange::from_ns(1.0, 2.0)), &cases)
    );
}
