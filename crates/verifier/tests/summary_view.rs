//! The report's summary rows against the path they replaced: every
//! signal's full name formatted and its resolved waveform copied, the
//! rows sorted by name with a stable sort, and each listing formatted
//! row by row. The Fig 3-10 listing, the JSON `summary` rows, the
//! timing diagram and `Report::waves` must all agree with it, on designs
//! where base-name order differs from full-name order, where names
//! share more than 16 leading bytes, where names hold multi-byte
//! characters, and on an empty design.

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_netlist::{Config, Netlist, NetlistBuilder};
use scald_trace::json::Json;
use scald_verifier::{render_diagram, RunOptions, Verifier};
use scald_wave::{DelayRange, Waveform};
use std::fmt::Write as _;

/// The rows as the verifier sorted them before the view: full names
/// and resolved waveforms, stably sorted by name.
fn sorted_waves(v: &Verifier) -> Vec<(String, Waveform)> {
    let mut rows: Vec<(String, Waveform)> = v
        .netlist()
        .iter_signals()
        .map(|(sid, sig)| (sig.full_name(), v.resolved(sid)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// The Fig 3-10 listing as it was formatted row by row: the name column
/// as wide as the longest name in bytes, padded by `{:width$}`.
fn format_summary(waves: &[(String, Waveform)]) -> String {
    let width = waves.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, wave) in waves {
        writeln!(out, "{name:width$}  {wave}").unwrap();
    }
    out
}

/// The document's `summary` rows as they were built row by row.
fn summary_json(waves: &[(String, Waveform)]) -> Json {
    Json::Arr(
        waves
            .iter()
            .map(|(name, wave)| {
                Json::Obj(vec![
                    ("signal".into(), Json::str(name)),
                    ("wave".into(), Json::str(wave.to_string())),
                ])
            })
            .collect(),
    )
}

/// Verifies `netlist` and checks every summary rendering against the
/// oracle; returns the oracle's rows.
fn check(netlist: Netlist) -> Vec<(String, Waveform)> {
    let mut v = Verifier::new(netlist);
    let outcome = v.run(&RunOptions::new()).expect("design settles");
    let report = v.report("summary", &outcome.cases);
    let oracle = sorted_waves(&v);
    let listing = format_summary(&oracle);
    assert_eq!(report.summary_text(), listing);
    assert_eq!(v.summary_listing(), listing);
    for columns in [1, 7, 64] {
        let diagram = render_diagram(&oracle, columns);
        assert_eq!(report.diagram_text(columns), diagram, "{columns} columns");
        assert_eq!(v.timing_diagram(columns), diagram, "{columns} columns");
    }
    let rows = summary_json(&oracle);
    assert_eq!(report.json_value().get("summary"), Some(&rows));
    assert_eq!(report.stripped_json_value().get("summary"), Some(&rows));
    let waves: Vec<(String, Waveform)> = report
        .waves()
        .map(|(name, wave)| (name.to_owned(), wave))
        .collect();
    assert_eq!(waves, oracle);
    oracle
}

/// A design declaring `names`: two in three are driven from an asserted
/// source or a clock through a buffer with a delay spread, so rows
/// carry skews and many share one folded wave.
fn chain(names: &[&str]) -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let ids: Vec<_> = names.iter().map(|n| b.signal(n).unwrap()).collect();
    let src = b.signal("SRC .S0-4").unwrap();
    let ck = b.signal("CK .P2-3").unwrap();
    for (i, &id) in ids.iter().enumerate() {
        if i % 3 == 0 {
            continue; // undriven: asserted, or assumed stable
        }
        let input = if i % 2 == 0 { src } else { ck };
        b.buf(format!("B{i}"), DelayRange::from_ns(1.0, 3.0), input, id);
    }
    b.finish().unwrap()
}

#[test]
fn summary_rows_match_the_sorted_waves_oracle() {
    // Base-name order differs from full-name order: `X .S0-2` has the
    // base name `X`, which sorts before `X .A`, but its full name sorts
    // after it.
    let names = ["X0", "X .S0-2", "X!", "X .A", "Y .P2-3 L", "W", "V .C1-2"];
    let netlist = chain(&names);
    let mut by_base: Vec<&str> = netlist.signals().iter().map(|s| s.name.as_str()).collect();
    let mut by_full: Vec<String> = netlist.signals().iter().map(|s| s.full_name()).collect();
    by_base.sort_unstable();
    by_full.sort_unstable();
    let base_order: Vec<String> = by_base
        .iter()
        .map(|b| {
            let sig = netlist.signals().iter().find(|s| s.name == *b).unwrap();
            sig.full_name()
        })
        .collect();
    assert_ne!(base_order, by_full, "the two orders must differ");
    check(netlist);

    // Names sharing more than 16 leading bytes, some exactly 16 bytes
    // long and prefixes of others.
    let names = [
        "A SHARED PREFIX OF MANY BYTES 2",
        "A SHARED PREFIX OF MANY BYTES 10 .S1-5",
        "A SHARED PREFIX OF MANY BYTES",
        "A SHARED PREFIX OF MANY BYTES 1",
        "SIXTEEN BYTES 1A .S0-2",
        "SIXTEEN BYTES 16",
        "SIXTEEN BYTES 1",
        "SIXTEEN BYTES 16 MORE",
        "A SHARED PREFIX OF MANY BYTES 2 BUS .S2-6",
    ];
    let oracle = check(chain(&names));
    assert!(oracle
        .windows(2)
        .any(|w| w[0].0.len() > 16 && w[0].0.as_bytes()[..16] == w[1].0.as_bytes()[..16]));

    // Multi-byte names: the width is the longest name in bytes, the
    // padding counts chars.
    let names = [
        "ÄPFEL .S0-4",
        "ΔT",
        "日本語 SIGNAL .C2-3",
        "Z",
        "ÅÄÖ BUS",
        "ZZZZZZZZZZZZ",
    ];
    let oracle = check(chain(&names));
    let widest = oracle.iter().map(|(n, _)| n.len()).max().unwrap();
    assert!(oracle
        .iter()
        .any(|(n, _)| n.len() == widest && n.chars().count() < widest));

    // An empty design renders empty listings.
    let empty = NetlistBuilder::new(Config::s1_example()).finish().unwrap();
    assert!(check(empty).is_empty());

    // A generated design: hundreds of rows over a few dozen waves.
    let (s1, _) = s1_like_netlist(S1Options {
        chips: 200,
        seed: 0x5ca1d,
    });
    assert!(check(s1).len() > 300);
}
