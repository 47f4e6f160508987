//! Property tests over the scale-sweep generator: 50 seeds with the
//! shape knobs swept alongside, each checked for the well-formedness
//! invariants the engine's hot path depends on.
//!
//! * Every signal is either driven by a primitive or carries a stable or
//!   periodic assertion — nothing floats X into the settle loop.
//! * The CSR fan-out index (the CALL LIST ARRAY of Table 3-3) agrees
//!   exactly, row by row, with a reverse index rebuilt from the
//!   primitives' input lists: sorted, deduplicated, no phantom readers
//!   and no missing ones.

use scald_gen::scale::{scale_netlist, Fanout, ScaleOptions};
use scald_netlist::Netlist;

fn check_well_formed(n: &Netlist, what: &str) {
    // Rebuild the fan-out relation from the primitive side.
    let mut rebuilt: Vec<Vec<scald_netlist::PrimId>> = vec![Vec::new(); n.signal_count()];
    for (pid, p) in n.iter_prims() {
        for &s in p.input_signals() {
            rebuilt[s.index()].push(pid);
        }
    }
    for row in &mut rebuilt {
        row.sort_unstable();
        row.dedup();
    }

    let csr = n.fanout_csr();
    assert_eq!(
        csr.rows(),
        n.signal_count(),
        "{what}: one CSR row per signal"
    );
    let mut items = 0usize;
    for (sid, sig) in n.iter_signals() {
        assert!(
            !n.drivers(sid).is_empty() || sig.assertion().is_some(),
            "{what}: signal {} is neither driven nor asserted",
            sig.full_name()
        );
        let row = csr.row(sid.index());
        assert_eq!(
            row,
            rebuilt[sid.index()].as_slice(),
            "{what}: CSR fanout row for {} disagrees with the rebuilt index",
            sig.full_name()
        );
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "{what}: CSR row for {} is not strictly sorted",
            sig.full_name()
        );
        // The accessor and the raw CSR row must be the same slice.
        assert_eq!(row, n.fanout(sid), "{what}: fanout() bypasses the CSR");
        items += row.len();
    }
    assert_eq!(csr.len(), items, "{what}: CSR item count");

    // Reverse direction: every driver edge is backed by a real output.
    for (sid, _) in n.iter_signals() {
        for &pid in n.drivers(sid) {
            assert_eq!(
                n.prim(pid).output(),
                Some(sid),
                "{what}: driver index lists a primitive that does not drive it"
            );
        }
    }
}

#[test]
fn fifty_seeds_are_well_formed() {
    for seed in 0u64..50 {
        // Sweep the shape knobs alongside the seed so the 50 designs
        // cover deep/wide, narrow/hubbed and 1..4-clock corners.
        let opts = ScaleOptions {
            target_prims: 400 + (seed as usize % 7) * 130,
            depth: 0.10 + 0.85 * ((seed % 10) as f64 / 9.0),
            fanout: if seed % 3 == 0 {
                Fanout::Narrow
            } else {
                Fanout::Hubs {
                    percent: 2 + (seed as u32 % 12),
                    taps: 1 + (seed as u32 % 4),
                }
            },
            clocks: 1 + (seed as usize % 4),
            seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
        };
        let (n, stats) = scale_netlist(&opts);
        assert!(stats.prims >= opts.target_prims, "seed {seed} undershot");
        check_well_formed(&n, &format!("seed {seed}"));
    }
}

#[test]
fn s1_generator_is_well_formed_too() {
    use scald_gen::s1::{s1_like_netlist, S1Options};
    let (n, _) = s1_like_netlist(S1Options::small());
    check_well_formed(&n, "s1 small");
}
