//! Seeded property suite for waveform interning: identity coincides
//! exactly with structural equality, equal-but-differently-built
//! waveforms canonicalize to one id, and growth is bounded by the number
//! of *distinct* waveforms, not by intern traffic. The counts are taken
//! on a local [`Interner`], the one the global [`WaveStore`] is built
//! on, so no other test's waves are in them.
//!
//! [`WaveStore`]: scald_wave::WaveStore

use scald_logic::{Value, ALL_VALUES};
use scald_rng::Rng;
use scald_wave::{Interner, Time, WaveRef, Waveform};

const P: Time = Time::from_ps(50_000);

/// A random canonical waveform: 1–5 raw transitions at arbitrary
/// instants (canonicalization may merge them down).
fn random_wave(rng: &mut Rng) -> Waveform {
    let n = rng.range_usize(1, 6);
    let trans = (0..n)
        .map(|_| {
            (
                Time::from_ps(rng.range_i64(0, 50_000)),
                *rng.choose(&ALL_VALUES),
            )
        })
        .collect();
    Waveform::from_transitions(P, trans)
}

/// An interner no other test interns into.
fn local() -> &'static Interner<Waveform> {
    Box::leak(Box::default())
}

/// `intern(w) == intern(w')` iff `w == w'` — checked pairwise over 50
/// seeded batches against everything interned so far, for both the
/// local interner's ids and the global store's [`WaveRef`] equality.
#[test]
fn intern_identity_coincides_with_structural_equality() {
    let store = local();
    let mut seen: Vec<(Waveform, u32, WaveRef)> = Vec::new();
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(0x1d_c0de ^ seed);
        for _ in 0..8 {
            let w = random_wave(&mut rng);
            let (id, canonical) = store.intern(w.clone());
            assert_eq!(*canonical, w, "the canonical copy is the waveform");
            let r = WaveRef::from(w.clone());
            assert_eq!(*r.as_wave(), w, "the canonical copy is the waveform");
            for (other_w, other_id, other_r) in &seen {
                let structurally_equal = w == *other_w;
                assert_eq!(
                    id == *other_id,
                    structurally_equal,
                    "seed {seed}: id identity diverged for {w} vs {other_w}"
                );
                assert_eq!(r == *other_r, structurally_equal);
            }
            seen.push((w, id, r));
        }
    }
    // Hash-consing stored exactly one slot per distinct waveform.
    let mut distinct: Vec<&Waveform> = Vec::new();
    for (w, _, _) in &seen {
        if !distinct.contains(&w) {
            distinct.push(w);
        }
    }
    assert_eq!(store.len(), distinct.len());
}

/// Equal waveforms built along different construction paths — shuffled
/// `from_intervals` order, split intervals, raw transitions — are one
/// interned id. (Semantic canonicalization is what makes the store's
/// id compare exact.)
#[test]
fn differently_built_equal_waveforms_share_a_handle() {
    let store = local();
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(0xca11 ^ (seed << 8));
        // A partition of the period into 2–4 disjoint runs.
        let mut cuts: Vec<i64> = (0..rng.range_usize(1, 4))
            .map(|_| rng.range_i64(1, 50_000))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut bounds = vec![0i64];
        bounds.extend(&cuts);
        bounds.push(50_000);
        let runs: Vec<(Time, Time, Value)> = bounds
            .windows(2)
            .map(|w| {
                (
                    Time::from_ps(w[0]),
                    Time::from_ps(w[1]),
                    *rng.choose(&ALL_VALUES),
                )
            })
            .collect();

        // Path 1: intervals in layout order over an arbitrary base.
        let base = *rng.choose(&ALL_VALUES);
        let in_order = Waveform::from_intervals(P, base, runs.iter().copied());
        // Path 2: the same disjoint intervals applied in shuffled order.
        let mut shuffled = runs.clone();
        rng.shuffle(&mut shuffled);
        let out_of_order = Waveform::from_intervals(P, base, shuffled);
        // Path 3: the widest run split at an interior point, overwritten
        // in two adjacent pieces (run-length merging must rejoin them).
        let (s, e, v) = *runs
            .iter()
            .max_by_key(|(start, end, _)| *end - *start)
            .unwrap();
        let mid = Time::from_ps((s.as_ps() + e.as_ps()) / 2);
        let split = Waveform::from_intervals(
            P,
            base,
            runs.iter().copied().flat_map(|r| {
                if r == (s, e, v) && mid > s {
                    vec![(s, mid, v), (mid, e, v)]
                } else {
                    vec![r]
                }
            }),
        );
        // Path 4: the run-length list as raw transitions.
        let raw = Waveform::from_transitions(
            P,
            runs.iter()
                .map(|&(start, _, value)| (start, value))
                .collect(),
        );

        assert_eq!(in_order, out_of_order, "seed {seed}");
        assert_eq!(in_order, split, "seed {seed}");
        assert_eq!(in_order, raw, "seed {seed}");
        let ids: Vec<_> = [in_order, out_of_order, split, raw]
            .into_iter()
            .map(|w| store.intern(w).0)
            .collect();
        assert!(
            ids.windows(2).all(|p| p[0] == p[1]),
            "seed {seed}: construction path leaked into identity: {ids:?}"
        );
    }
}

/// Overlap order *does* matter when values differ — and the store keeps
/// the two outcomes distinct while canonicalizing each side.
#[test]
fn overlapping_intervals_canonicalize_by_last_writer() {
    let store = local();
    let (a, b, c) = (
        Time::from_ps(10_000),
        Time::from_ps(20_000),
        Time::from_ps(30_000),
    );
    // One covered on [a,c), then Stable overwrites its tail [b,c)...
    let tail_wins =
        Waveform::from_intervals(P, Value::Zero, [(a, c, Value::One), (b, c, Value::Stable)]);
    // ...equals the direct two-run build, id for id.
    let direct =
        Waveform::from_intervals(P, Value::Zero, [(a, b, Value::One), (b, c, Value::Stable)]);
    let direct_id = store.intern(direct).0;
    assert_eq!(store.intern(tail_wins).0, direct_id);
    // Applying the same intervals in the opposite order lets One win the
    // overlap — a different waveform, hence a different slot.
    let head_wins =
        Waveform::from_intervals(P, Value::Zero, [(b, c, Value::Stable), (a, c, Value::One)]);
    assert_ne!(store.intern(head_wins).0, direct_id);
    assert_eq!(store.len(), 2);
}

/// Store growth is bounded by the distinct-waveform population: hammering
/// the store with thousands of interns drawn from a small pool neither
/// grows it past the pool nor misses an available canonical copy.
#[test]
fn growth_is_bounded_by_the_distinct_population() {
    let store = local();
    let mut rng = Rng::seed_from_u64(0xb0b);
    let pool: Vec<Waveform> = (0..32).map(|_| random_wave(&mut rng)).collect();
    let mut distinct: Vec<&Waveform> = Vec::new();
    for w in &pool {
        if !distinct.contains(&w) {
            distinct.push(w);
        }
    }
    for _ in 0..5_000 {
        let w = rng.choose(&pool).clone();
        store.intern(w);
    }
    let stats = store.stats();
    assert_eq!(stats.unique, distinct.len(), "no duplicate slots, ever");
    assert_eq!(stats.interns, 5_000);
    assert_eq!(
        stats.hits,
        stats.interns - distinct.len() as u64,
        "every intern after the first of each waveform is a hit"
    );
}
