//! Mode-sweep generator: designs whose case sweeps share prefixes.
//!
//! The case-tree engine (DESIGN.md § "The case tree") settles a shared
//! assignment prefix once per trie node instead of once per case. To
//! measure that, the benchmark needs a design where an exhaustive sweep
//! has *structured* cost: a handful of mode bits whose cones differ by
//! orders of magnitude. This module generates one:
//!
//! * a **master** mode bit — created first, so it has the lowest signal
//!   id and becomes the root split of the case trie under the engine's
//!   canonical assignment order — fanning out to `master_slices`
//!   datapath slices, and
//! * `mode_bits - 1` **block** mode bits, each fanning out to a small
//!   private block of `block_slices` slices.
//!
//! An exhaustive sweep over `[master, block 0, block 1, ...]` therefore
//! re-settles the expensive master cone on *every* case run alone, but
//! only once per root branch when the case tree runs the sweep — the
//! per-case settle effort collapses from `O(master + blocks)` to
//! `O(block)`, which is what `BENCH_cases.json` records at 10/100/1000
//! cases.
//!
//! Every slice is the clean datapath cell of [`crate::scale`] (stable
//! asserted data, late capture clock, set-up/hold checker), so sweep
//! cost measures the engine, not violation bookkeeping.

use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, SignalId};
use scald_rng::Rng;
use scald_wave::{DelayRange, Time};

/// Options for the mode-sweep generator.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Total case-sweepable mode bits, master included (at least 1).
    /// `CaseSet::exhaustive` over all of them yields `2^mode_bits`
    /// cases.
    pub mode_bits: usize,
    /// Datapath slices (3 primitives each) fanned out from the master
    /// mode bit — the expensive shared cone.
    pub master_slices: usize,
    /// Datapath slices per block mode bit — the cheap private cones.
    pub block_slices: usize,
    /// RNG seed (stable-assertion jitter), for reproducibility.
    pub seed: u64,
}

impl Default for SweepOptions {
    /// Ten mode bits (a 1024-case exhaustive sweep) over a master cone
    /// two orders of magnitude heavier than each block cone.
    fn default() -> SweepOptions {
        SweepOptions {
            mode_bits: 10,
            master_slices: 1500,
            block_slices: 10,
            seed: 0x5ca1f,
        }
    }
}

/// Statistics of the generated design.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Primitives emitted.
    pub prims: usize,
    /// Signals created.
    pub signals: usize,
    /// The sweepable mode-bit signal names, in signal-id order: the
    /// master first, then the block bits. Feed these to
    /// `CaseSet::exhaustive` to build the shared-prefix sweep.
    pub mode_bits: Vec<String>,
}

/// One clean datapath slice reading `mode`: a combinational stage into a
/// registered capture with its set-up/hold checker (3 primitives).
fn emit_slice(b: &mut NetlistBuilder, rng: &mut Rng, name: &str, mode: SignalId, clk: SignalId) {
    let ns = Time::from_ns;
    let lo = ["3", "3.5", "4"][rng.below(3) as usize];
    let din = b
        .signal(&format!("{name}/IN .S{lo}-8"))
        .expect("valid stable input");
    let logic = b.signal(&format!("{name}/LOGIC")).expect("valid");
    let q = b.signal(&format!("{name}/Q")).expect("valid");
    b.chg(
        format!("{name}/LOGIC"),
        DelayRange::from_ns(1.5, 3.0),
        vec![Conn::new(mode), Conn::new(din)],
        logic,
    );
    b.reg(
        format!("{name}/REG"),
        DelayRange::from_ns(1.5, 4.5),
        clk,
        logic,
        q,
    );
    b.setup_hold(format!("{name}/CHK"), ns(2.5), ns(1.5), logic, clk);
}

/// Generates a mode-sweep design (see the module docs).
///
/// # Panics
///
/// Panics if `opts.mode_bits` is 0, or on internal builder
/// inconsistencies (a bug).
#[must_use]
pub fn sweep_netlist(opts: &SweepOptions) -> (Netlist, SweepStats) {
    assert!(opts.mode_bits >= 1, "a sweep needs at least the master bit");
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut b = NetlistBuilder::new(Config::s1_example());

    // The mode bits come first so the master holds the lowest signal id:
    // the engine sorts case assignments canonically by id, making the
    // master the root split of every exhaustive sweep's trie. The bits
    // are undriven and unasserted — assumed stable — so a case override
    // pins them to a constant for the whole cycle.
    let master = b.signal("MODE MASTER").expect("valid master bit");
    let blocks: Vec<SignalId> = (0..opts.mode_bits - 1)
        .map(|i| b.signal(&format!("MODE {i}")).expect("valid block bit"))
        .collect();
    let mut mode_bits = vec!["MODE MASTER".to_owned()];
    mode_bits.extend((0..opts.mode_bits - 1).map(|i| format!("MODE {i}")));

    // Late capture phase: high units 6..7.6 of the 8-unit period, same
    // clean timing as the scale generator's slices.
    let clk = b.signal("CLK .P6-7.6").expect("valid clock");

    for i in 0..opts.master_slices {
        emit_slice(&mut b, &mut rng, &format!("MASTER{i}"), master, clk);
    }
    for (bi, &bit) in blocks.iter().enumerate() {
        for i in 0..opts.block_slices {
            emit_slice(&mut b, &mut rng, &format!("B{bi}N{i}"), bit, clk);
        }
    }

    let netlist = b.finish().expect("sweep design is well-formed");
    let stats = SweepStats {
        prims: netlist.prim_count(),
        signals: netlist.signal_count(),
        mode_bits,
    };
    (netlist, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_bit_holds_the_lowest_signal_id() {
        let (netlist, stats) = sweep_netlist(&SweepOptions {
            mode_bits: 4,
            master_slices: 8,
            block_slices: 2,
            seed: 1,
        });
        assert_eq!(stats.mode_bits.len(), 4);
        assert_eq!(stats.mode_bits[0], "MODE MASTER");
        // 3 prims per slice: 8 master + 3 blocks of 2.
        assert_eq!(stats.prims, 3 * (8 + 3 * 2));
        let ids: Vec<usize> = stats
            .mode_bits
            .iter()
            .map(|name| {
                netlist
                    .signal_by_name(name)
                    .unwrap_or_else(|| panic!("{name} exists"))
                    .index()
            })
            .collect();
        assert_eq!(ids[0], 0, "master created first");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ascending ids: {ids:?}"
        );
    }

    #[test]
    fn sweep_design_verifies_clean() {
        let (netlist, _) = sweep_netlist(&SweepOptions {
            mode_bits: 3,
            master_slices: 6,
            block_slices: 2,
            seed: 2,
        });
        let mut v = scald_verifier::Verifier::new(netlist);
        let outcome = v
            .run(&scald_verifier::RunOptions::new())
            .expect("settles clean");
        assert!(outcome.cases.iter().all(|c| c.violations.is_empty()));
    }
}
