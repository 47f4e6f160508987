//! Ready-made HDL sources for the thesis' component library and circuits.
//!
//! These are the textual equivalents of the macro drawings in Figs 3-5
//! through 3-9 (the Fairchild F10145A register file, the `10176` register,
//! the `10173` multiplexer, the `10105` OR gate and the ALU), plus the
//! Fig 2-5 example circuit wired from them.

/// The component library of Figs 3-5..3-9, as macro definitions. Append a
/// `top; … end;` block to use it.
#[must_use]
pub fn component_library() -> &'static str {
    r"
-- Fig 3-5: 16-word RAM, Fairchild F10145A data-sheet timing.
macro '16W RAM 10145A' (SIZE=4)
    (WE, CS, A<0:3>, I<0:SIZE-1>/P) -> (DO<0:SIZE-1>/P);
  -- Write-data set-up/hold against the falling write-enable.
  setup_hold setup=4.5 hold=-1.0 (I, -WE);
  -- Address stability around the whole write pulse.
  setup_rise_hold_fall setup=3.5 hold=1.0 (A, WE);
  min_pulse_width high=4.0 (WE);
  -- Read path: 'CHG' 1.5:3.0 for chip select, '3 CHG' 3.0:6.0 for the
  -- address/data path.
  signal CSD/M;
  chg delay=1.5:3.0 (CS) -> (CSD/M);
  chg delay=3.0:6.0 (A, WE, CSD/M) -> (DO);
end;

-- Fig 3-7: edge-triggered register.
macro 'REG 10176' (SIZE=1) (CK, I<0:SIZE-1>/P) -> (Q<0:SIZE-1>/P);
  reg delay=1.5:4.5 (CK, I) -> (Q);
  setup_hold setup=2.5 hold=1.5 (I, CK);
end;

-- Fig 3-6: 2-input multiplexer (select adds 0.3:1.2 on top of 1.2:3.3).
macro '2 MUX 10173' (SIZE=1) (S, D0<0:SIZE-1>/P, D1<0:SIZE-1>/P)
    -> (Q<0:SIZE-1>/P);
  signal SD/M;
  delay delay=0.3:1.2 (S) -> (SD/M);
  mux delay=1.2:3.3 (SD/M, D0, D1) -> (Q);
end;

-- Fig 3-8: 2-input OR gate.
macro '2 OR 10105' (SIZE=1) (A<0:SIZE-1>/P, B<0:SIZE-1>/P)
    -> (Q<0:SIZE-1>/P);
  or delay=1.0:2.9 (A, B) -> (Q);
end;
"
}

/// The Fig 2-5 register-file example circuit, wired from the component
/// library: address multiplexer, gated write enable (with the `&H`
/// directive), the RAM, and the output register. Designed per §3.2 to run
/// at 50 ns with the default 0.0/2.0 ns wires and a 0.0/6.0 ns address
/// run.
#[must_use]
pub fn register_file_example() -> String {
    format!(
        "design REGISTER FILE EXAMPLE;\n\
         period 50.0;\nclock_unit 6.25;\nwire_delay 0.0 2.0;\n\
         {}\n\
         top;\n\
         \x20 wire_delay 'ADR' 0.0 6.0;\n\x20 wire_delay 'REG CLK' 0.0 0.0;\n\x20 wire_delay 'R/W SEL' 0.0 0.0;\n\x20 wire_delay 'CK' 0.0 0.0;\n\
         \x20 signal CS;\n\
         \x20 const0 () -> (CS);\n\
         \x20 and delay=1.0:2.9 (-'CK .P2-3 L' &H, -'WRITE .S0-6 L') -> (WE);\n\
         \x20 use '2 MUX 10173' SIZE=4 ('R/W SEL .P0-4', 'READ ADR .S4-9', \
         'WRITE ADR .S0-6') -> (ADR);\n\
         \x20 use '16W RAM 10145A' SIZE=32 (WE, CS, ADR, 'W DATA .S0-6') \
         -> ('RAM OUT');\n\
         \x20 use '2 OR 10105' SIZE=32 ('RAM OUT', 'BYPASS .S0-8') \
         -> ('READ BUS');\n\
         \x20 use 'REG 10176' SIZE=32 ('REG CLK .P0-2', 'READ BUS') \
         -> ('R OUT');\n\
         end;\n",
        component_library()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_file_example_compiles() {
        let expansion =
            scald_hdl::compile(&register_file_example()).expect("figure circuit must compile");
        let n = &expansion.netlist;
        // RAM (4 prims incl. checkers... ) + mux macro (2) + reg macro (2)
        // + or (1) + top-level and + const.
        assert!(n.prim_count() >= 10, "{}", n.prim_count());
        let names: Vec<String> = n
            .primitive_histogram()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.iter().any(|s| s == "SETUP RISE HOLD FALL CHK"));
        assert!(names.iter().any(|s| s == "MIN PULSE WIDTH"));
        // Vector symmetry: the 32-bit data path is one primitive wide.
        let ram_out = n.signal_by_name("RAM OUT").expect("RAM OUT exists");
        assert_eq!(n.signal(ram_out).width(), 32);
    }
}
