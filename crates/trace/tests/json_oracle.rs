//! Oracle test for the JSON writer: on seeded trees, the one generic
//! writer must produce the bytes the earlier two writers did — the
//! compact `Display` and the pretty printer, each with its own escaped
//! copy of every key and string and an indent string per line — both
//! through `Json` and when a caller streams the same tree value by value
//! through `Writer`. Both earlier writers are kept below as the oracles.
//! Finite trees must also parse back to themselves.

use std::fmt;

use scald_rng::Rng;
use scald_trace::json::{parse, Json, Writer};

fn oracle_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The earlier compact writer.
struct OracleCompact<'a>(&'a Json);

impl fmt::Display for OracleCompact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => f.write_str(&oracle_escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", OracleCompact(item))?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{}", oracle_escape(k), OracleCompact(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The earlier pretty writer.
fn oracle_pretty(value: &Json, out: &mut String, indent: usize) {
    match value {
        Json::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(indent + 1));
                oracle_pretty(item, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(indent + 1));
                out.push_str(&oracle_escape(k));
                out.push_str(": ");
                oracle_pretty(v, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => out.push_str(&OracleCompact(other).to_string()),
    }
}

const NUMBERS: [f64; 20] = [
    -0.0,
    0.0,
    0.1,
    -2.5,
    49.0,
    1e15 - 1.0,
    1e15,
    1e15 + 1.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    1e300,
    -1e300,
    5e-324,
    f64::MAX,
    f64::MIN_POSITIVE,
    0.300_000_000_000_000_04,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const PIECES: [&str; 12] = [
    "a",
    "SETUP TIME",
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{1}",
    "\u{1f}",
    "\u{7f}",
    "é→",
    "📈",
];

fn any_string(rng: &mut Rng) -> String {
    (0..rng.range_usize(0, 6))
        .map(|_| *rng.choose(&PIECES))
        .collect()
}

fn any_number(rng: &mut Rng, finite: bool) -> f64 {
    loop {
        let n = match rng.below(3) {
            0 => *rng.choose(&NUMBERS),
            1 => rng.range_i64(-1_000_000, 1_000_000) as f64 / 1000.0,
            _ => f64::from_bits(rng.next_u64()),
        };
        if !finite || n.is_finite() {
            return n;
        }
    }
}

fn any_tree(rng: &mut Rng, depth: usize, finite: bool) -> Json {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.bool()),
        2 => Json::Num(any_number(rng, finite)),
        3 => Json::Str(any_string(rng)),
        4 => Json::Arr(
            (0..rng.range_usize(0, 5))
                .map(|_| any_tree(rng, depth - 1, finite))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.range_usize(0, 5))
                .map(|_| (any_string(rng), any_tree(rng, depth - 1, finite)))
                .collect(),
        ),
    }
}

/// Streams `value` through `w` one call per token, as a document
/// writer does, without handing the writer a tree.
fn stream(w: &mut Writer<&mut String>, value: &Json) {
    match value {
        Json::Null => w.null(),
        Json::Bool(b) => w.bool(*b),
        Json::Num(n) => w.num(*n),
        Json::Str(s) => w.str(s),
        Json::Arr(items) => {
            w.begin_array().unwrap();
            for item in items {
                stream(w, item);
            }
            w.end_array()
        }
        Json::Obj(fields) => {
            w.begin_object().unwrap();
            for (k, v) in fields {
                w.key(k).unwrap();
                stream(w, v);
            }
            w.end_object()
        }
    }
    .unwrap();
}

fn streamed(tree: &Json, pretty: bool) -> String {
    let mut out = String::new();
    let mut w = if pretty {
        Writer::pretty(&mut out)
    } else {
        Writer::compact(&mut out)
    };
    stream(&mut w, tree);
    out
}

#[test]
fn seeded_trees_render_as_the_two_earlier_writers_did() {
    let mut rng = Rng::seed_from_u64(0x150e_0001);
    for i in 0..4_000 {
        let finite = i % 2 == 0;
        let tree = any_tree(&mut rng, 6, finite);
        let compact = tree.to_string();
        assert_eq!(compact, OracleCompact(&tree).to_string());
        assert_eq!(streamed(&tree, false), compact, "streamed compact");
        let pretty = tree.to_string_pretty();
        let mut want = String::new();
        oracle_pretty(&tree, &mut want, 0);
        assert_eq!(streamed(&tree, true), want, "streamed pretty");
        want.push('\n');
        assert_eq!(pretty, want);
        if finite {
            for text in [&compact, &pretty] {
                assert_eq!(parse(text).as_ref(), Ok(&tree), "{text}");
            }
        }
    }
}

#[test]
fn every_listed_number_renders_as_before() {
    for n in NUMBERS {
        let v = Json::Num(n);
        assert_eq!(v.to_string(), OracleCompact(&v).to_string(), "{n:?}");
        assert_eq!(v.to_string_pretty(), format!("{}\n", OracleCompact(&v)));
    }
}
