//! Scale-sweep generator: synthetic designs from 10^3 to 10^6 primitives.
//!
//! [`crate::s1`] reproduces the published statistics of *one* design (the
//! 6357-chip S-1 Mark IIA evaluation). This module instead sweeps *size*,
//! with independent shape knobs, so the engine's hot path can be measured
//! against designs that stress it in different ways:
//!
//! * **`target_prims`** — generation stops once at least this many
//!   primitives exist, so a sweep can hit 1k/10k/100k/1M exactly where
//!   the thesis' single data point (8 282) sits in the middle.
//! * **`depth`** — the probability that a new slice *extends* an
//!   existing register chain instead of rooting a fresh one. High values
//!   make long pipelines (many settle waves, shallow per-wave
//!   parallelism); low values make wide forests (few waves, wide ones).
//! * **`fanout`** — [`Fanout::Hubs`] promotes a fraction of slice
//!   outputs to shared nets that later slices tap. Because every tap
//!   draws uniformly from the hubs alive *so far*, early hubs accumulate
//!   readers harmonically — a heavy-tailed fanout distribution like a
//!   real enable/select tree, exactly the shape that stresses a CSR
//!   fanout index.
//! * **`clocks`** — the number of staggered capture phases, for
//!   multi-clock variants (the S-1's instruction unit ran at 50 ns
//!   against a 25 ns execution unit, §3.3).
//!
//! Every knob is consumed through one seeded [`Rng`], so a `(knobs,
//! seed)` pair names a design reproducibly on any host.

use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, SignalId};
use scald_rng::Rng;
use scald_wave::{DelayRange, Time};
use std::fmt::Write as _;

/// Fanout shape of the generated design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// Point-to-point: each slice reads only its own chain and the
    /// shared control pool.
    Narrow,
    /// A percentage of slice outputs become shared "hub" nets that later
    /// slices tap as extra inputs.
    Hubs {
        /// Percent (0..=100) of slice outputs promoted to hubs.
        percent: u32,
        /// Hub nets each subsequent slice taps.
        taps: u32,
    },
}

/// Options for the scale sweep generator.
#[derive(Debug, Clone, Copy)]
pub struct ScaleOptions {
    /// Stop generating once at least this many primitives exist.
    pub target_prims: usize,
    /// Probability (0.0..=1.0) that a slice extends an existing chain
    /// (depth) rather than rooting a new one (width).
    pub depth: f64,
    /// Fanout shape.
    pub fanout: Fanout,
    /// Number of staggered clock phases (at least 1).
    pub clocks: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl ScaleOptions {
    /// The default shape at a given size: moderately deep (expected
    /// chain length 4), heavy-tailed fanout, two clock phases.
    #[must_use]
    pub fn prims(target_prims: usize) -> ScaleOptions {
        ScaleOptions {
            target_prims,
            depth: 0.75,
            fanout: Fanout::Hubs {
                percent: 5,
                taps: 2,
            },
            clocks: 2,
            seed: 0x5ca1e,
        }
    }
}

/// Statistics of the generated design.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScaleStats {
    /// Primitives emitted.
    pub prims: usize,
    /// Signals created.
    pub signals: usize,
    /// Register chains still open when generation stopped (width).
    pub chains: usize,
    /// Longest register chain, in slices (depth).
    pub max_depth: usize,
    /// Slice outputs promoted to shared hub nets.
    pub hubs: usize,
}

/// `t` tenths of a clock unit, printed the way assertions are written
/// ("6", "6.5") — no trailing zero decimals.
fn tenths(t: u32) -> String {
    if t.is_multiple_of(10) {
        format!("{}", t / 10)
    } else {
        format!("{}.{}", t / 10, t % 10)
    }
}

/// The name `N{slice}/{suffix}`, written into `buf`.
fn slice_name<'a>(buf: &'a mut String, slice: usize, suffix: &str) -> &'a str {
    buf.clear();
    write!(buf, "N{slice}/{suffix}").expect("String write cannot fail");
    buf
}

/// Vector width distribution: mostly narrow with a wide tail, averaging
/// near the thesis' 6.5 bits.
fn sample_width(rng: &mut Rng) -> u32 {
    match rng.range_u32(0, 100) {
        0..=29 => 1,
        30..=54 => 4,
        55..=79 => 8,
        80..=94 => 16,
        _ => 32,
    }
}

/// Generates a design of at least `opts.target_prims` primitives.
///
/// Every slice is the clean datapath cell the S-1 generator verifies
/// clean (stable-asserted inputs, late capture clocks, the §4.2.3
/// decorrelation delay on every registered feed-forward), so settle cost
/// measures the *engine*, not violation bookkeeping.
///
/// # Panics
///
/// Panics only on internal builder inconsistencies (a bug).
#[must_use]
pub fn scale_netlist(opts: &ScaleOptions) -> (Netlist, ScaleStats) {
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut b = NetlistBuilder::new(Config::s1_example());
    let ns = Time::from_ns;

    // Capture phases staggered across the late-cycle units 6.0..7.6
    // (clock_unit 6.25 ns, period 8 units): late enough that data
    // asserted stable from unit 3 meets setup, early enough that the
    // hold window ends before the assertions expire at unit 8.
    let k = opts.clocks.max(1);
    let clocks: Vec<SignalId> = (0..k)
        .map(|i| {
            let start = 60 + 2 * u32::try_from(i % 4).expect("fits");
            let name = format!("CLK{i} .P{}-{}", tenths(start), tenths(start + 10));
            b.signal(&name).expect("valid clock")
        })
        .collect();

    // Shared control pool with stable assertions (select/enable nets).
    let controls: Vec<SignalId> = (0..16)
        .map(|i| {
            let lo = ["2", "2.5", "3"][i % 3];
            b.signal(&format!("CTL {i} .S{lo}-8")).expect("valid")
        })
        .collect();

    let depth_pct = (opts.depth.clamp(0.0, 1.0) * 100.0) as u32;
    // Open chain tails: (tail signal, chain depth in slices).
    let mut frontier: Vec<(SignalId, usize)> = Vec::new();
    let mut hubs: Vec<SignalId> = Vec::new();
    let mut prims = 0usize;
    let mut slice = 0usize;
    let mut max_depth = 0usize;

    // One name buffer and one input list, reused by every slice.
    let mut buf = String::new();
    let mut inputs: Vec<Conn> = Vec::new();
    while prims < opts.target_prims {
        slice += 1;
        let clk = *rng.choose(&clocks);
        let ctl = *rng.choose(&controls);

        // Depth vs width: extend a random open chain, or root a new one.
        let extend = !frontier.is_empty() && rng.range_u32(0, 100) < depth_pct;
        let (din, depth, w): (Conn, usize, u32) = if extend {
            let idx = rng.range_u32(0, u32::try_from(frontier.len()).expect("fits")) as usize;
            let (tail, d) = frontier.swap_remove(idx);
            // §4.2.3: a fictitious delay at least as long as the clock
            // skew decorrelates the registered feed-forward path.
            let w = b.signal_width(tail);
            let piped = b
                .signal_vec(slice_name(&mut buf, slice, "PIPE"), w)
                .expect("valid");
            b.delay(
                slice_name(&mut buf, slice, "CORR"),
                DelayRange::from_ns(6.0, 6.0),
                tail,
                piped,
            );
            prims += 1;
            (piped.into(), d + 1, w)
        } else {
            let w = sample_width(&mut rng);
            let din = b
                .signal_vec(slice_name(&mut buf, slice, "IN .S3-8"), w)
                .expect("valid");
            (din.into(), 1, w)
        };

        // Heavy-tailed fanout: tap hub nets as extra combinational
        // inputs. Drawing uniformly from all hubs alive so far gives the
        // earliest hubs harmonically growing reader counts.
        inputs.extend([din, Conn::new(ctl)]);
        if let Fanout::Hubs { taps, .. } = opts.fanout {
            for _ in 0..taps {
                if hubs.is_empty() {
                    break;
                }
                inputs.push(Conn::new(*rng.choose(&hubs)));
            }
        }

        let logic = b
            .signal_vec(slice_name(&mut buf, slice, "LOGIC"), w)
            .expect("valid");
        let q = b
            .signal_vec(slice_name(&mut buf, slice, "Q"), w)
            .expect("valid");
        let gate_delay = DelayRange::from_ns(1.5, 3.0);
        b.chg(
            slice_name(&mut buf, slice, "LOGIC"),
            gate_delay,
            inputs.drain(..),
            logic,
        );
        b.reg(
            slice_name(&mut buf, slice, "REG"),
            DelayRange::from_ns(1.5, 4.5),
            clk,
            logic,
            q,
        );
        b.setup_hold(
            slice_name(&mut buf, slice, "CHK"),
            ns(2.5),
            ns(1.5),
            logic,
            clk,
        );
        prims += 3;
        max_depth = max_depth.max(depth);
        frontier.push((q, depth));

        if let Fanout::Hubs { percent, .. } = opts.fanout {
            if rng.range_u32(0, 100) < percent {
                // Hub taps are also registered feed-forward, so they get
                // the same decorrelation treatment — once per hub, not
                // per tap.
                let hub = b
                    .signal_vec(slice_name(&mut buf, slice, "HUB"), w)
                    .expect("valid");
                b.delay(
                    slice_name(&mut buf, slice, "HUB CORR"),
                    DelayRange::from_ns(6.0, 6.0),
                    q,
                    hub,
                );
                prims += 1;
                hubs.push(hub);
            }
        }
    }

    let netlist = b.finish().expect("generated design is well-formed");
    let stats = ScaleStats {
        prims: netlist.prim_count(),
        signals: netlist.signal_count(),
        chains: frontier.len(),
        max_depth,
        hubs: hubs.len(),
    };
    debug_assert_eq!(stats.prims, prims);
    (netlist, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_the_primitive_target() {
        for target in [1_000usize, 5_000] {
            let (_, stats) = scale_netlist(&ScaleOptions::prims(target));
            assert!(stats.prims >= target, "{} < {target}", stats.prims);
            // Overshoot is bounded by one slice.
            assert!(stats.prims < target + 8, "{} overshoots", stats.prims);
        }
    }

    #[test]
    fn depth_knob_controls_chain_length() {
        let deep = scale_netlist(&ScaleOptions {
            depth: 0.95,
            ..ScaleOptions::prims(2_000)
        })
        .1;
        let wide = scale_netlist(&ScaleOptions {
            depth: 0.10,
            ..ScaleOptions::prims(2_000)
        })
        .1;
        assert!(
            deep.max_depth > 4 * wide.max_depth,
            "deep {} vs wide {}",
            deep.max_depth,
            wide.max_depth
        );
        assert!(
            wide.chains > 4 * deep.chains,
            "wide {} vs deep {}",
            wide.chains,
            deep.chains
        );
    }

    #[test]
    fn hub_fanout_is_heavy_tailed() {
        let (n, stats) = scale_netlist(&ScaleOptions {
            fanout: Fanout::Hubs {
                percent: 10,
                taps: 2,
            },
            ..ScaleOptions::prims(3_000)
        });
        assert!(stats.hubs > 0);
        let max_fanout = n
            .iter_signals()
            .map(|(id, _)| n.fanout(id).len())
            .max()
            .unwrap_or(0);
        // The most-read hub should dwarf the point-to-point norm of 2-3.
        assert!(max_fanout >= 10, "max fanout only {max_fanout}");
    }

    #[test]
    fn multi_clock_variants_settle_clean() {
        for clocks in [1usize, 3] {
            let (n, _) = scale_netlist(&ScaleOptions {
                clocks,
                ..ScaleOptions::prims(1_200)
            });
            let mut v = scald_verifier::Verifier::new(n);
            let outcome = v
                .run(&scald_verifier::RunOptions::new())
                .expect("settles")
                .into_sole();
            assert_eq!(
                outcome.violations.len(),
                0,
                "{clocks}-clock design must verify clean"
            );
        }
    }
}
