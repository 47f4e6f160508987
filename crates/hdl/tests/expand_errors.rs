//! Error-path tests for the macro expander: the diagnostics a designer
//! actually hits.

use scald_hdl::{compile, HdlError};

fn head(src_body: &str) -> String {
    format!("design D; period 50.0; clock_unit 6.25;\n{src_body}")
}

fn expect_expand_error(src: &str, needle: &str) {
    match compile(src) {
        Err(HdlError::Expand { message, .. }) => {
            assert!(
                message.contains(needle),
                "expected {needle:?} in {message:?}"
            );
        }
        Err(other) => panic!("expected expansion error, got: {other}"),
        Ok(_) => panic!("expected expansion error, compiled fine"),
    }
}

#[test]
fn unknown_macro() {
    let src = head("top;\n  use NOPE (A) -> (B);\nend;\n");
    expect_expand_error(&src, "unknown macro");
}

#[test]
fn unknown_parameter() {
    let src = head(
        "macro M (SIZE=1) (A<0:SIZE-1>/P) -> (B<0:SIZE-1>/P);\n  buf (A) -> (B);\nend;\n\
         top;\n  use M WIDTH=8 (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "no parameter");
}

#[test]
fn missing_parameter_value() {
    // A parameter without a default (after one with, so the list is
    // recognized) must be supplied at every call site.
    let src = head(
        "macro M (SIZE=1, N) (A<0:SIZE-1>/P) -> (B<0:SIZE-1>/P);\n  buf (A) -> (B);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "has no value");
}

#[test]
fn port_count_mismatch() {
    let src = head(
        "macro M (A/P, B/P) -> (Q/P);\n  and (A, B) -> (Q);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "expects 2 input(s)");
}

#[test]
fn width_conflict_through_ports() {
    let src = head(
        "macro M8 (A<0:7>/P) -> (Q<0:7>/P);\n  buf (A) -> (Q);\nend;\n\
         macro M16 (A<0:15>/P) -> (Q<0:15>/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  use M8 (BUS) -> (Y8);\n  use M16 (BUS) -> (Y16);\nend;\n",
    );
    expect_expand_error(&src, "width");
}

#[test]
fn recursive_macro_detected() {
    let src = head(
        "macro LOOPY (A/P) -> (Q/P);\n  use LOOPY (A) -> (Q);\nend;\n\
         top;\n  use LOOPY (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "recursive");
}

#[test]
fn checker_with_output_rejected() {
    let src = head("top;\n  setup_hold setup=1.0 hold=1.0 (A, CK) -> (Q);\nend;\n");
    expect_expand_error(&src, "cannot drive an output");
}

#[test]
fn gate_without_output_rejected() {
    let src = head("top;\n  and (A, B);\nend;\n");
    expect_expand_error(&src, "exactly one output");
}

#[test]
fn complemented_output_rejected() {
    let src = head("top;\n  and (A, B) -> (-Q);\nend;\n");
    expect_expand_error(&src, "cannot be complemented");
}

#[test]
fn rise_fall_on_wrong_primitive() {
    let src = head("top;\n  and rise=1.0:2.0 (A, B) -> (Q);\nend;\n");
    expect_expand_error(&src, "only supported on not/buf");
}

#[test]
fn port_reference_with_assertion_rejected() {
    let src = head(
        "macro M (A/P) -> (Q/P);\n  buf ('A .S0-4') -> (Q);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "cannot carry an assertion");
}

#[test]
fn multiple_drivers_caught_by_netlist_validation() {
    let src = head("top;\n  buf (A) -> (Q);\n  buf (B) -> (Q);\nend;\n");
    match compile(&src) {
        Err(HdlError::Netlist(e)) => {
            assert!(e.to_string().contains("driven by both"), "{e}");
        }
        other => panic!("expected netlist error, got {other:?}"),
    }
}

#[test]
fn error_messages_carry_line_numbers() {
    let src = head("top;\n  use NOPE (A) -> (B);\nend;\n");
    match compile(&src) {
        Err(e @ HdlError::Expand { line, .. }) => {
            assert_eq!(line, 3);
            assert!(e.to_string().contains("line 3"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn edge_delay_attrs_produce_asymmetric_primitive() {
    let src = head("top;\n  not rise=1.0:2.0 fall=3.0:5.0 ('A .P1.6-4.8 (0,0)') -> (B);\nend;\n");
    let expansion = compile(&src).expect("compiles");
    let prim = &expansion.netlist.prims()[0];
    let ed = prim.edge_delays.expect("asymmetric delays set");
    assert_eq!(ed.rise, scald_wave::DelayRange::from_ns(1.0, 2.0));
    assert_eq!(ed.fall, scald_wave::DelayRange::from_ns(3.0, 5.0));
    // The symmetric delay holds the conservative envelope.
    assert_eq!(prim.delay, scald_wave::DelayRange::from_ns(1.0, 5.0));
}

/// Expects an expansion error at `line` whose message contains `needle`.
fn expect_expand_error_at(src: &str, line: u32, needle: &str) {
    match compile(src) {
        Err(HdlError::Expand { message, line: at }) => {
            assert!(
                message.contains(needle),
                "expected {needle:?} in {message:?}"
            );
            assert_eq!(at, line, "{message}");
        }
        Err(other) => panic!("expected expansion error, got: {other}"),
        Ok(_) => panic!("expected expansion error, compiled fine"),
    }
}

#[test]
fn bit_range_wider_than_u32_is_an_error_not_a_panic() {
    let src = head("top;\n  signal BUS<0:4294967295>;\n  buf (BUS) -> (Q);\nend;\n");
    expect_expand_error_at(&src, 3, "4294967296 bits wide");
    // One bit narrower is the widest range a signal can have.
    let src = head("top;\n  signal BUS<0:4294967294>;\n  buf (BUS) -> (Q);\nend;\n");
    let expansion = compile(&src).expect("widest range compiles");
    assert_eq!(expansion.netlist.signals()[0].width, u32::MAX);
}

#[test]
fn overflowing_range_arithmetic_is_an_error_not_a_panic() {
    let src = head(
        "macro M (N=1) (A<0:N*N>/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  use M N=4294967296 (X) -> (Y);\nend;\n",
    );
    expect_expand_error_at(&src, 6, "arithmetic overflow");
    let src = head(
        "macro M (N=1) (A<0:(N-1)/(0-1)>/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  use M N=-9223372036854775807 (X) -> (Y);\nend;\n",
    );
    expect_expand_error_at(&src, 6, "arithmetic overflow");
}

#[test]
fn inverted_delay_ranges_are_errors_not_panics() {
    let src = head("top;\n  buf delay=3.0:1.0 (A) -> (B);\nend;\n");
    expect_expand_error_at(&src, 3, "not a delay range");
    let src = head("top;\n  not rise=-1.0:2.0 (A) -> (B);\nend;\n");
    expect_expand_error_at(&src, 3, "not a delay range");
    let src = head("top;\n  buf (A) -> (B);\n  wire_delay A 2.0 1.0;\nend;\n");
    expect_expand_error_at(&src, 4, "not a delay range");
    match compile("design D; period 50.0; clock_unit 6.25;\nwire_delay 2.0 1.0;\ntop;\nend;\n") {
        Err(HdlError::Parse(e)) => {
            assert_eq!(e.line, 2, "{e}");
            assert!(e.to_string().contains("not a delay range"), "{e}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn edge_delayed_inverter_without_input_fails_validation() {
    let src = head("top;\n  not rise=1.0:2.0 () -> (Q);\nend;\n");
    match compile(&src) {
        Err(HdlError::Netlist(e)) => {
            assert!(e.to_string().contains("needs 1 input(s)"), "{e}");
        }
        other => panic!("expected a netlist error, got {other:?}"),
    }
}
