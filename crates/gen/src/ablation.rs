//! Ablation of the vector-width symmetry (§3.3.2).
//!
//! The thesis credits the one-timing-value-per-vector representation with
//! reducing the S-1 example from 53 833 primitives to 8 282 (6.5×).
//! [`bit_blast`] undoes that optimization — expanding every vector
//! primitive into per-bit scalar copies — so the saving can be *measured*:
//! verify the original and the blasted netlist and compare primitive
//! counts, event counts and wall time (`cargo run -p scald-bench --bin
//! ablation --release`).

use scald_netlist::{Conn, Netlist, NetlistBuilder, SignalId};
use std::collections::HashMap;

/// Expands every vector primitive into per-bit scalar copies.
///
/// Each vector signal `N` of width `w` becomes scalar signals `N[0]` …
/// `N[w-1]` (assertions, wire-delay overrides and wired-OR flags copied to
/// every bit); each primitive driving a `w`-bit output becomes `w` copies.
/// A scalar input (e.g. a clock or select) is shared by all copies; a
/// vector input of a different width contributes bit `i % width` — the
/// same convention hardware replication uses.
///
/// # Panics
///
/// Panics only if the input netlist is internally inconsistent (a bug).
#[must_use]
pub fn bit_blast(netlist: &Netlist) -> Netlist {
    let mut b = NetlistBuilder::new(*netlist.config());
    // (original signal, bit) -> new scalar signal.
    let mut bits: HashMap<(SignalId, u32), SignalId> = HashMap::new();

    for (sid, sig) in netlist.iter_signals() {
        for bit in 0..sig.width().max(1) {
            let base = if sig.width() > 1 {
                format!("{}[{bit}]", sig.name())
            } else {
                sig.name().to_owned()
            };
            let full = match sig.assertion() {
                Some(a) => format!("{base} {a}"),
                None => base,
            };
            let new = b.signal(&full).expect("blasted signal name is valid");
            if let Some(wd) = sig.wire_delay() {
                b.set_wire_delay(new, wd);
            }
            if sig.wired_or() {
                b.mark_wired_or(new);
            }
            bits.insert((sid, bit), new);
        }
    }

    let pick = |bits: &HashMap<(SignalId, u32), SignalId>, sid: SignalId, bit: u32| -> SignalId {
        let w = netlist.signal(sid).width().max(1);
        bits[&(sid, bit % w)]
    };

    for (_, prim) in netlist.iter_prims() {
        let out_width = prim.output().map_or_else(
            || netlist.signal(prim.input(0).signal()).width().max(1),
            |o| netlist.signal(o).width().max(1),
        );
        for bit in 0..out_width {
            let inputs = prim.inputs().map(|c| Conn {
                signal: pick(&bits, c.signal(), bit),
                ..c.to_conn()
            });
            let output = prim.output().map(|o| pick(&bits, o, bit));
            let name = if out_width > 1 {
                format!("{}[{bit}]", prim.name())
            } else {
                prim.name().to_owned()
            };
            b.prim(name, prim.kind(), prim.delay(), inputs, output);
        }
    }
    b.finish().expect("blasted netlist is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::register_file_circuit;
    use crate::s1::{s1_like_netlist, S1Options};

    #[test]
    fn blast_multiplies_primitives_by_width() {
        let (n, _) = register_file_circuit();
        let blasted = bit_blast(&n);
        let expect: usize = n
            .iter_prims()
            .map(|(_, p)| {
                p.output().map_or_else(
                    || n.signal(p.input(0).signal()).width().max(1),
                    |o| n.signal(o).width().max(1),
                ) as usize
            })
            .sum();
        assert_eq!(blasted.prim_count(), expect);
        assert!(blasted.prim_count() > n.prim_count());
        // Everything is scalar now.
        assert!(blasted.iter_signals().all(|(_, s)| s.width() == 1));
    }

    #[test]
    fn blast_preserves_verification_verdicts() {
        use scald_verifier::{RunOptions, Verifier};
        let (n, _) = register_file_circuit();
        let mut v = Verifier::new(n.clone());
        let original = v.run(&RunOptions::new()).expect("settles").into_sole();
        let mut vb = Verifier::new(bit_blast(&n));
        let blasted = vb.run(&RunOptions::new()).expect("settles").into_sole();
        // Violations multiply by the vector width, but the per-cause
        // classes are identical.
        assert_eq!(original.is_clean(), blasted.is_clean());
        assert!(blasted.violations.len() >= original.violations.len());
        assert!(blasted.events >= original.events);
    }

    #[test]
    fn blast_scales_on_generated_design() {
        let (n, _) = s1_like_netlist(S1Options {
            chips: 60,
            seed: 0x5ca1d,
        });
        let blasted = bit_blast(&n);
        let ratio = blasted.prim_count() as f64 / n.prim_count() as f64;
        // The thesis' ratio was 53 833 / 8 282 ≈ 6.5.
        assert!(ratio > 3.0, "ratio {ratio}");
    }
}
