//! Bounded growth of the process-global [`WaveStore`] and
//! [`StateStore`] under real engine load: across a 50-seed
//! generated-design sweep each store grows only with the *distinct*
//! population — of waveforms, of signal states — re-verifying an
//! identical design interns nothing new, and deduplication absorbs the
//! bulk of the intern traffic. (One test function on purpose: the
//! global stores are process-wide state, so concurrent test functions
//! would race their counters.)

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_rng::Rng;
use scald_verifier::{RunOptions, StateStore, Verifier};
use scald_wave::{StoreStats, WaveStore};

/// Dedup absorbed at least the replay half of the traffic: unique
/// entries stay below half the interns, and hits account for the rest
/// exactly.
fn assert_bounded(what: &str, stats: StoreStats) {
    assert!(stats.hits > 0, "{what}: {stats:?}");
    assert!(
        stats.unique as u64 <= stats.interns / 2,
        "the {what} store grew linearly with intern traffic: {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.unique as u64,
        stats.interns,
        "every {what} intern either hit a canonical copy or created one"
    );
}

#[test]
fn global_store_growth_is_bounded_across_a_seeded_sweep() {
    let store = WaveStore::global();
    let states = StateStore::global();
    let mut rng = Rng::seed_from_u64(0x57035);
    let mut designs = 0usize;
    while designs < 50 {
        designs += 1;
        let (netlist, _) = s1_like_netlist(S1Options {
            chips: rng.range_usize(4, 10),
            seed: rng.next_u64(),
        });

        let mut cold = Verifier::new(netlist.clone());
        cold.run(&RunOptions::new()).unwrap();
        let after_cold = (store.len(), states.len());

        // The bound: a byte-identical design produces byte-identical
        // waveforms and states, every one of which is already canonical
        // — the second verification adds zero entries.
        let mut replay = Verifier::new(netlist);
        replay.run(&RunOptions::new()).unwrap();
        assert_eq!(
            (store.len(), states.len()),
            after_cold,
            "design {designs}: re-verifying an identical design grew a store"
        );
    }

    // Across the whole sweep, dedup must have absorbed at least the
    // entire replay half of each store's traffic.
    assert_bounded("wave", store.stats());
    assert_bounded("state", states.stats());
}
