//! Golden pin of the HDL macro expander: a canonical dump of every
//! expansion — signals, primitives, cases and `ExpandStats` counts — is
//! hashed with FNV-1a and compared against constants captured before the
//! expander was last rewritten. Any change to an id, a name, a width, an
//! assertion, a delay, a connection or a count changes the hash.
//!
//! The inputs are the shipped `designs/*.scald`, `s1_like_hdl` at four
//! sizes, and the 50 SCALD twins of `rtl_pairs`.

use std::fmt::Write as _;

use scald::gen::rtl_pairs::paired_design;
use scald::gen::s1::{s1_like_hdl, S1Options};
use scald::hdl::{compile, Expansion};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The canonical dump: one line per signal in id order, one per
/// primitive in id order, the cases, then the statistics counts (the
/// pass timings are wall clock and left out).
fn dump(e: &Expansion) -> String {
    let mut out = String::new();
    let n = &e.netlist;
    writeln!(out, "config {:?}", n.config()).unwrap();
    for (i, s) in n.signals().iter().enumerate() {
        writeln!(
            out,
            "sig {i} {:?} w={} a={:?} wd={:?} wor={}",
            s.name, s.width, s.assertion, s.wire_delay, s.wired_or
        )
        .unwrap();
    }
    for (i, p) in n.prims().iter().enumerate() {
        write!(
            out,
            "prim {i} {:?} {:?} d={:?} ed={:?} in=[",
            p.name, p.kind, p.delay, p.edge_delays
        )
        .unwrap();
        for c in &p.inputs {
            write!(
                out,
                "({},{},{:?},{:?})",
                c.signal.index(),
                c.invert,
                c.directive,
                c.wire_delay
            )
            .unwrap();
        }
        writeln!(out, "] out={:?}", p.output.map(|s| s.index())).unwrap();
    }
    writeln!(out, "cases {:?}", e.cases).unwrap();
    let s = &e.stats;
    writeln!(
        out,
        "stats macros={} instances={} prims={} signals={}",
        s.macros_defined, s.instances_expanded, s.prims_emitted, s.signals
    )
    .unwrap();
    out
}

fn hash_of(label: &str, src: &str) -> u64 {
    let e = compile(src).unwrap_or_else(|err| panic!("{label}: does not compile: {err}"));
    fnv1a(dump(&e).as_bytes())
}

#[test]
fn shipped_designs_expand_to_pinned_netlists() {
    let golden: [(&str, u64); 5] = [
        ("case_analysis.scald", 0x3610_1047_36c0_e302),
        ("eco_edit_after.scald", 0x3cc9_41d5_1bf3_7912),
        ("eco_edit_before.scald", 0xbde1_611c_2bd6_ca6c),
        ("mini_cpu.scald", 0xe513_2a16_8f3b_a2ee),
        ("register_file.scald", 0x1e49_309d_9ea5_ce82),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/designs");
    let mut shipped: Vec<String> = std::fs::read_dir(dir)
        .expect("designs/ exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .filter(|n| n.ends_with(".scald"))
        .collect();
    shipped.sort();
    let pinned: Vec<&str> = golden.iter().map(|(n, _)| *n).collect();
    assert_eq!(shipped, pinned, "every shipped design is pinned");
    for (name, want) in golden {
        let src = std::fs::read_to_string(format!("{dir}/{name}")).expect("design file");
        let got = hash_of(name, &src);
        assert_eq!(got, want, "{name}: expansion hash {got:#018x}");
    }
}

#[test]
fn s1_like_designs_expand_to_pinned_netlists() {
    let golden: [(usize, u64); 4] = [
        (60, 0x53b1_af5d_6cfc_5cd3),
        (400, 0x97ca_26d1_0762_90b3),
        (1_000, 0x068a_1930_20bb_0659),
        (6_357, 0xfcf2_a470_9c43_49e4),
    ];
    for (chips, want) in golden {
        let src = s1_like_hdl(S1Options { chips, seed: 7 });
        let got = hash_of(&format!("s1_like_hdl {chips}"), &src);
        assert_eq!(got, want, "s1_like_hdl at {chips} chips: hash {got:#018x}");
    }
}

#[test]
fn rtl_pair_twins_expand_to_pinned_netlists() {
    let mut all = String::new();
    for seed in 0..50 {
        let pair = paired_design(seed);
        let e = compile(&pair.scald).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        writeln!(all, "seed {seed}").unwrap();
        all.push_str(&dump(&e));
    }
    let got = fnv1a(all.as_bytes());
    assert_eq!(
        got, 0xfb2d_274c_2eeb_6304,
        "rtl_pairs twins: hash {got:#018x}"
    );
}
