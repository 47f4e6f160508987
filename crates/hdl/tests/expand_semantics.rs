//! Name-resolution rules of the macro expander that designs rely on and
//! that no error test exercises: how ports, `/M` locals, globals and
//! untouched `wire_delay`/`wired_or` signals resolve.

use scald_hdl::compile;
use scald_netlist::Netlist;

fn head(src_body: &str) -> String {
    format!("design D; period 50.0; clock_unit 6.25;\n{src_body}")
}

fn names(netlist: &Netlist) -> Vec<&str> {
    netlist.iter_signals().map(|(_, s)| s.name()).collect()
}

#[test]
fn assertions_in_uninstantiated_macros_are_never_read() {
    let src = head(
        "macro UNUSED (A/P) -> (Q/P);\n  buf ('X .Sbad') -> (Q);\nend;\n\
         top;\n  buf (A) -> (B);\nend;\n",
    );
    let expansion = compile(&src).expect("the bad assertion is never reached");
    assert_eq!(names(&expansion.netlist), ["A", "B"]);
}

#[test]
fn a_local_named_like_a_port_binds_to_the_port() {
    let src = head(
        "macro M (A/P) -> (Q/P);\n  buf (A/M) -> (T/M);\n  buf (T/M) -> (Q);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
    );
    let expansion = compile(&src).expect("compiles");
    assert_eq!(names(&expansion.netlist), ["X", "TOP/M#1/T", "Y"]);
}

#[test]
fn the_last_of_two_same_named_ports_wins() {
    let src = head(
        "macro M (A/P, A/P) -> (Q/P);\n  and (A, A) -> (Q);\nend;\n\
         top;\n  use M (X, W) -> (Y);\nend;\n",
    );
    let netlist = compile(&src).expect("compiles").netlist;
    assert_eq!(names(&netlist), ["W", "Y"]);
    let w = netlist.signal_by_name("W").expect("declared");
    assert!(netlist
        .iter_prims()
        .all(|(_, p)| p.input_signals().iter().all(|&s| s == w)));
}

#[test]
fn untouched_wire_delay_and_wired_or_signals_are_scalars() {
    let src = head(
        "top;\n  signal BUS<0:7>;\n  wire_delay BUS 0.0 6.0;\n  wired_or OTHER;\n\
         \x20 buf (X) -> (Y);\nend;\n",
    );
    let netlist = compile(&src).expect("compiles").netlist;
    assert_eq!(names(&netlist), ["X", "Y", "BUS", "OTHER"]);
    let bus = netlist.signal(netlist.signal_by_name("BUS").expect("declared"));
    assert_eq!(bus.width(), 1, "declared after the primitives, as a scalar");
    assert!(bus.wire_delay().is_some());
    let other = netlist.signal(netlist.signal_by_name("OTHER").expect("declared"));
    assert!(other.wired_or());
}

#[test]
fn a_global_named_like_a_flattened_local_is_that_local() {
    let src = head(
        "macro M (A/P) -> (Q/P);\n  buf (A) -> (X/M);\n  buf (X/M) -> (Q);\nend;\n\
         top;\n  use M (IN) -> (OUT);\n  buf ('TOP/M#1/X') -> (Z);\nend;\n",
    );
    let netlist = compile(&src).expect("compiles").netlist;
    assert_eq!(names(&netlist), ["IN", "TOP/M#1/X", "OUT", "Z"]);
    let local = netlist.signal_by_name("TOP/M#1/X").expect("declared");
    assert_eq!(netlist.fanout(local).len(), 2);
}

#[test]
fn a_local_under_a_macro_named_with_an_assertion_mark_is_rejected() {
    let src = head(
        "macro 'M .S1' (A/P) -> (Q/P);\n  buf (A) -> (X/M);\n  buf (X/M) -> (Q);\nend;\n\
         top;\n  use 'M .S1' (IN) -> (OUT);\nend;\n",
    );
    let err = compile(&src).expect_err("the flat name reads as a malformed assertion");
    assert!(err.to_string().contains("invalid assertion"), "{err}");
}
