//! Randomized property tests (seeded, std-only): print → parse round
//! trips for randomly generated designs, and expansion determinism.

use scald_hdl::ast::{AttrVal, ConnExpr, Design, Expr, MacroDef, Port, ScopeMark, Stmt};
use scald_hdl::{expand, parse, print};
use scald_rng::Rng;

const CASES: usize = 128;

/// `[A-Z][A-Z0-9_]{0,6}`
fn ident(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    let mut s = String::new();
    s.push(*rng.choose(FIRST) as char);
    for _ in 0..rng.range_usize(0, 7) {
        s.push(*rng.choose(REST) as char);
    }
    s
}

/// Multi-word SCALD-style names that need quoting.
fn fancy_name(rng: &mut Rng) -> String {
    match rng.range_u32(0, 3) {
        0 => ident(rng),
        1 => format!("{} {}", ident(rng), ident(rng)),
        _ => {
            let a = ident(rng);
            let lo = rng.range_u32(0, 8);
            let w = rng.range_u32(1, 8);
            format!("{a} .S{lo}-{}", lo + w)
        }
    }
}

fn expr(rng: &mut Rng) -> Expr {
    match rng.range_u32(0, 3) {
        0 => Expr::Num(rng.range_i64(0, 64)),
        1 => Expr::Var("SIZE".to_owned()),
        _ => Expr::Sub(
            Box::new(Expr::Var("SIZE".to_owned())),
            Box::new(Expr::Num(rng.range_i64(1, 8))),
        ),
    }
}

fn directive(rng: &mut Rng) -> String {
    const LETTERS: &[u8] = b"EWZAH";
    (0..rng.range_usize(1, 4))
        .map(|_| *rng.choose(LETTERS) as char)
        .collect()
}

fn conn(rng: &mut Rng) -> ConnExpr {
    ConnExpr {
        invert: rng.bool(),
        name: fancy_name(rng),
        range: if rng.bool() {
            Some((expr(rng), expr(rng)))
        } else {
            None
        },
        scope: match rng.range_u32(0, 3) {
            0 => Some(ScopeMark::Local),
            1 => Some(ScopeMark::Parameter),
            _ => None,
        },
        directive: if rng.bool() {
            Some(directive(rng))
        } else {
            None
        },
    }
}

fn attr(rng: &mut Rng) -> (String, AttrVal) {
    let key = rng.choose(&["delay", "setup", "hold"]).to_string();
    let val = if rng.bool() {
        let a = rng.range_u32(0, 100);
        let b = rng.range_u32(0, 100);
        AttrVal::Range(f64::from(a) / 10.0, f64::from(a + b) / 10.0)
    } else {
        AttrVal::Num(f64::from(rng.range_u32(0, 100)) / 10.0)
    };
    (key, val)
}

fn prim_stmt(rng: &mut Rng) -> Stmt {
    let kind = rng.choose(&["and", "or", "buf", "chg"]).to_string();
    Stmt::Prim {
        kind,
        attrs: (0..rng.range_usize(0, 2)).map(|_| attr(rng)).collect(),
        inputs: (0..rng.range_usize(1, 3)).map(|_| conn(rng)).collect(),
        outputs: vec![conn(rng)],
        line: 0,
    }
}

/// A macro instantiation of the design's single `HELPER` macro.
fn use_stmt(rng: &mut Rng) -> Stmt {
    Stmt::Use {
        name: "HELPER".to_owned(),
        attrs: if rng.bool() {
            vec![(
                "SIZE".to_owned(),
                AttrVal::Num(f64::from(rng.range_u32(1, 9))),
            )]
        } else {
            Vec::new()
        },
        inputs: vec![conn(rng)],
        outputs: vec![conn(rng)],
        line: 0,
    }
}

/// The declaration-flavoured statements: signal widths, wired-OR marks,
/// per-signal wire-delay overrides.
fn decl_stmt(rng: &mut Rng) -> Stmt {
    match rng.range_u32(0, 3) {
        0 => Stmt::SignalDecl {
            conn: ConnExpr {
                invert: false,
                name: fancy_name(rng),
                range: if rng.bool() {
                    Some((Expr::Num(0), Expr::Num(rng.range_i64(1, 32))))
                } else {
                    None
                },
                scope: if rng.bool() {
                    Some(ScopeMark::Local)
                } else {
                    None
                },
                directive: None,
            },
            line: 0,
        },
        1 => Stmt::WiredOr {
            name: fancy_name(rng),
            line: 0,
        },
        _ => {
            let min = f64::from(rng.range_u32(0, 50)) / 10.0;
            Stmt::WireDelay {
                name: fancy_name(rng),
                min,
                max: min + f64::from(rng.range_u32(0, 50)) / 10.0,
                line: 0,
            }
        }
    }
}

/// Any top-level statement, weighted toward primitives.
fn stmt(rng: &mut Rng) -> Stmt {
    match rng.range_u32(0, 6) {
        0 => use_stmt(rng),
        1 => decl_stmt(rng),
        _ => prim_stmt(rng),
    }
}

fn design(rng: &mut Rng) -> Design {
    let name = ident(rng);
    let top: Vec<Stmt> = (0..rng.range_usize(1, 6)).map(|_| stmt(rng)).collect();
    // No `use` in the macro body: HELPER instantiating itself would only
    // exercise the recursion guard and starve the expansion property.
    let body: Vec<Stmt> = (0..rng.range_usize(0, 3))
        .map(|_| match rng.range_u32(0, 5) {
            0 => decl_stmt(rng),
            _ => prim_stmt(rng),
        })
        .collect();
    let cases: Vec<Vec<(String, bool)>> = (0..rng.range_usize(0, 2))
        .map(|_| {
            (0..rng.range_usize(1, 3))
                .map(|_| (fancy_name(rng), rng.bool()))
                .collect()
        })
        .collect();
    let mac = MacroDef {
        name: "HELPER".to_owned(),
        params: vec![("SIZE".to_owned(), Some(4))],
        inputs: vec![Port {
            name: "A".to_owned(),
            range: Some((
                Expr::Num(0),
                Expr::Sub(
                    Box::new(Expr::Var("SIZE".to_owned())),
                    Box::new(Expr::Num(1)),
                ),
            )),
        }],
        outputs: vec![Port {
            name: "Q".to_owned(),
            range: None,
        }],
        body,
        line: 0,
    };
    Design {
        name,
        period_ns: 50.0,
        clock_unit_ns: 6.25,
        wire_delay_ns: (0.0, 2.0),
        precision_skew_ns: (1.0, 1.0),
        clock_skew_ns: (5.0, 5.0),
        macros: vec![mac],
        top,
        cases,
    }
}

fn strip(design: &mut Design) {
    fn strip_stmt(s: &mut Stmt) {
        match s {
            Stmt::Prim { line, .. }
            | Stmt::Use { line, .. }
            | Stmt::SignalDecl { line, .. }
            | Stmt::WiredOr { line, .. }
            | Stmt::WireDelay { line, .. } => *line = 0,
        }
    }
    for m in &mut design.macros {
        m.line = 0;
        for s in &mut m.body {
            strip_stmt(s);
        }
    }
    for s in &mut design.top {
        strip_stmt(s);
    }
}

/// print -> parse reconstructs the AST exactly (modulo line numbers).
#[test]
fn print_parse_round_trip() {
    let mut rng = Rng::seed_from_u64(0x1d1_0001);
    for _ in 0..CASES {
        let d = design(&mut rng);
        let printed = print(&d);
        let mut parsed = match parse(&printed) {
            Ok(p) => p,
            Err(e) => panic!("printed text failed to parse: {e}\n{printed}"),
        };
        strip(&mut parsed);
        let mut original = d;
        strip(&mut original);
        // The macro body may be unused; still must round trip.
        assert_eq!(parsed, original, "printed:\n{printed}");
    }
}

/// If the design expands at all, a second expansion from the printed
/// text gives the same primitive and signal counts.
#[test]
fn expansion_agrees_across_round_trip() {
    let mut rng = Rng::seed_from_u64(0x1d1_0002);
    for _ in 0..CASES {
        let d = design(&mut rng);
        let Ok(a) = expand(&d) else { continue };
        let printed = print(&d);
        let reparsed = parse(&printed).expect("printed parses");
        let b = expand(&reparsed).expect("round-tripped design expands");
        assert_eq!(a.netlist.prims().len(), b.netlist.prims().len());
        assert_eq!(a.netlist.signals().len(), b.netlist.signals().len());
        assert_eq!(
            a.netlist.primitive_histogram(),
            b.netlist.primitive_histogram()
        );
    }
}

/// A buffer statement `buf (IN) -> (OUT)` over plain signal names.
fn buf_stmt(input: &str, output: &str, scope: Option<ScopeMark>) -> Stmt {
    let end = |name: &str| ConnExpr {
        invert: false,
        name: name.to_owned(),
        range: None,
        scope,
        directive: None,
    };
    Stmt::Prim {
        kind: "buf".to_owned(),
        attrs: Vec::new(),
        inputs: vec![end(input)],
        outputs: vec![end(output)],
        line: 0,
    }
}

/// A design with two macros (`HA`, `HB`) instantiated in a random
/// interleaving with top-level primitives.
fn two_macro_design(rng: &mut Rng) -> Design {
    let mac = |name: &str, extra: usize| MacroDef {
        name: name.to_owned(),
        params: Vec::new(),
        inputs: vec![Port {
            name: "A".to_owned(),
            range: None,
        }],
        outputs: vec![Port {
            name: "Q".to_owned(),
            range: None,
        }],
        body: {
            let mut body = vec![buf_stmt("A", "Q", None)];
            for k in 0..extra {
                body.push(buf_stmt("A", &format!("T{k}"), Some(ScopeMark::Local)));
            }
            body
        },
        line: 0,
    };
    let mut top = Vec::new();
    for i in 0..rng.range_usize(4, 9) {
        top.push(match rng.range_u32(0, 3) {
            0 => buf_stmt(&format!("IN{i}"), &format!("W{i}"), None),
            kind => Stmt::Use {
                name: if kind == 1 { "HA" } else { "HB" }.to_owned(),
                attrs: Vec::new(),
                inputs: vec![ConnExpr {
                    invert: false,
                    name: format!("IN{i}"),
                    range: None,
                    scope: None,
                    directive: None,
                }],
                outputs: vec![ConnExpr {
                    invert: false,
                    name: format!("W{i}"),
                    range: None,
                    scope: None,
                    directive: None,
                }],
                line: 0,
            },
        });
    }
    Design {
        name: "STABLE IDS".to_owned(),
        period_ns: 50.0,
        clock_unit_ns: 6.25,
        wire_delay_ns: (0.0, 2.0),
        precision_skew_ns: (1.0, 1.0),
        clock_skew_ns: (5.0, 5.0),
        macros: vec![mac("HA", 1), mac("HB", rng.range_usize(0, 3))],
        top,
        cases: Vec::new(),
    }
}

/// The guarantee `scald-incr` warm starts rest on: expanded instance
/// names are *stable* under macro-body edits. Growing `HB`'s body must
/// not rename any primitive outside the `HB` instances — with the old
/// global-ordinal naming, an extra statement inside one macro body
/// shifted the ordinals of every primitive expanded after it.
#[test]
fn macro_body_edit_keeps_outside_prim_names_stable() {
    use std::collections::BTreeSet;
    let mut rng = Rng::seed_from_u64(0x1d1_0003);
    for _ in 0..32 {
        let original = two_macro_design(&mut rng);
        let a = expand(&original).expect("original expands");

        let mut edited = original.clone();
        edited.macros[1]
            .body
            .push(buf_stmt("A", "PATCH", Some(ScopeMark::Local)));
        let b = expand(&edited).expect("edited design expands");

        let names = |e: &scald_hdl::Expansion| -> BTreeSet<String> {
            e.netlist.prims().iter().map(|p| p.name.clone()).collect()
        };
        let outside = |s: &BTreeSet<String>| -> BTreeSet<String> {
            s.iter().filter(|n| !n.contains("HB#")).cloned().collect()
        };
        let (before, after) = (names(&a), names(&b));
        assert_eq!(
            outside(&before),
            outside(&after),
            "names outside the edited macro must not move"
        );
        // The edit itself landed: one new primitive per HB instance.
        let hb_instances = before.iter().filter(|n| n.contains("HB#")).count() > 0;
        if hb_instances {
            assert!(after.len() > before.len(), "edited body grew the design");
        }
    }
}

/// An assertion reaches the netlist exactly as written: a `+10.25` ns
/// pulse stays 10.25 ns, through a macro port and a `/M` local alike.
#[test]
fn fixed_width_assertions_keep_every_digit() {
    use scald_assertions::TimeRange;
    let src = "design D; period 50.0; clock_unit 6.25;\n\
               macro M (CK/P) -> (Q/P);\n\
               \x20 buf ('L .P2+10.25'/M) -> (Q);\n\
               \x20 buf (CK) -> ('L .P2+10.25'/M);\n\
               end;\n\
               top;\n  use M ('CK .P2+10.25') -> (OUT);\nend;\n";
    let netlist = scald_hdl::compile(src).expect("compiles").netlist;
    for name in ["CK", "TOP/M#1/L"] {
        let sig = netlist.signal(netlist.signal_by_name(name).expect("declared"));
        assert_eq!(
            sig.assertion.as_ref().map(|a| a.ranges.clone()),
            Some(vec![TimeRange::UnitsPlusNs(2.0, 10.25)]),
            "{name}"
        );
        assert!(
            sig.full_name().ends_with(".P2+10.25"),
            "{}",
            sig.full_name()
        );
    }
}
