//! The Timing Verifier's built-in primitive functions (§2.4, §3.1).
//!
//! Circuits are described in terms of gates, registers, latches,
//! multiplexers and the three checker primitives; more complex components
//! are macros over these (the HDL crate performs that expansion). Each
//! primitive represents an arbitrarily wide data path — one timing value
//! per vector, the symmetry the thesis credits with a 6.5× reduction in
//! primitive count (§3.3.2).

use scald_logic::Value;
use scald_wave::{DelayRange, Time};
use std::fmt;

use crate::{Conn, SignalId};

/// The kind of a primitive, with any kind-specific timing parameters.
///
/// Input ordering conventions (positions in [`Primitive::inputs`]):
///
/// | kind | inputs |
/// |---|---|
/// | gates / `Chg` | data inputs, any number |
/// | `Mux { data }` | `[select, d0, d1, …]` |
/// | `Reg` | `[clock, data]`, plus `[set, reset]` if `set_reset` |
/// | `Latch` | `[enable, data]`, plus `[set, reset]` if `set_reset` |
/// | `SetupHold`, `SetupRiseHoldFall` | `[checked input, clock]` |
/// | `MinPulseWidth` | `[checked input]` |
/// | `Buf`, `Not`, `Delay` | `[input]` |
/// | `Const` | none |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimKind {
    /// Worst-case AND gate (§2.4.2).
    And,
    /// Worst-case INCLUSIVE-OR gate.
    Or,
    /// AND with inverted output.
    Nand,
    /// OR with inverted output.
    Nor,
    /// Worst-case EXCLUSIVE-OR gate.
    Xor,
    /// XOR with inverted output.
    Xnor,
    /// Inverter.
    Not,
    /// Non-inverting buffer.
    Buf,
    /// The CHANGE function: models complex combinational logic (adders,
    /// parity trees, ALU data paths) where only *when* the output changes
    /// matters (§2.4.2).
    Chg,
    /// Multiplexer with `data` data inputs selected by the first input.
    Mux {
        /// Number of data inputs (2 for the thesis' `2 MUX`).
        data: u32,
    },
    /// Edge-triggered register, clocked on the rising edge of its clock
    /// input (§2.4.3, Fig 2-1). With `set_reset`, asynchronous SET/RESET
    /// inputs override the clocked behaviour.
    Reg {
        /// Whether asynchronous SET and RESET inputs are present.
        set_reset: bool,
    },
    /// Transparent latch: output follows data while enable is high and
    /// holds when it falls (§2.4.3, Fig 2-2).
    Latch {
        /// Whether asynchronous SET and RESET inputs are present.
        set_reset: bool,
    },
    /// Pure min/max delay element. Also used for the `CORR` fictitious
    /// delay the designer inserts to suppress correlation false errors
    /// (§4.2.3, Fig 4-2).
    Delay,
    /// A constant source driving its output with a fixed value.
    Const(
        /// The driven value.
        Value,
    ),
    /// `SETUP HOLD CHK` (§2.4.4, Fig 2-3): the input must be quiescent
    /// from `setup` before until `hold` after the rising edge of the
    /// clock input.
    SetupHold {
        /// Required stability interval before the clock edge. May be
        /// negative (the input may change up to `-setup` *after* the edge).
        setup: Time,
        /// Required stability interval after the clock edge. May be
        /// negative, as in the thesis' register-file example (−1.0 ns).
        hold: Time,
    },
    /// `SETUP RISE HOLD FALL CHK` (§2.4.4): set-up before the *rising*
    /// edge, hold after the *falling* edge, and stability for the whole
    /// interval the clock is true — the constraint shape of memory
    /// write-enable pulses.
    SetupRiseHoldFall {
        /// Required stability interval before the rising clock edge.
        setup: Time,
        /// Required stability interval after the falling clock edge.
        hold: Time,
    },
    /// `MIN PULSE WIDTH` (§2.4.5, Fig 2-4): every high pulse on the input
    /// must last at least `high`, every low pulse at least `low`.
    MinPulseWidth {
        /// Minimum high-pulse width (zero disables the high check).
        high: Time,
        /// Minimum low-pulse width (zero disables the low check).
        low: Time,
    },
}

impl PrimKind {
    /// `true` for the three checker primitives, which verify constraints
    /// but drive no output.
    #[must_use]
    pub const fn is_checker(self) -> bool {
        matches!(
            self,
            PrimKind::SetupHold { .. }
                | PrimKind::SetupRiseHoldFall { .. }
                | PrimKind::MinPulseWidth { .. }
        )
    }

    /// `true` for the clocked storage primitives.
    #[must_use]
    pub const fn is_storage(self) -> bool {
        matches!(self, PrimKind::Reg { .. } | PrimKind::Latch { .. })
    }

    /// The exact number of inputs this kind requires, or `None` if it is
    /// variadic (gates and `Chg` take any number ≥ 1).
    #[must_use]
    pub fn required_inputs(self) -> Option<usize> {
        match self {
            PrimKind::And
            | PrimKind::Or
            | PrimKind::Nand
            | PrimKind::Nor
            | PrimKind::Xor
            | PrimKind::Xnor
            | PrimKind::Chg => None,
            PrimKind::Not | PrimKind::Buf | PrimKind::Delay | PrimKind::MinPulseWidth { .. } => {
                Some(1)
            }
            PrimKind::Mux { data } => Some(1 + data as usize),
            PrimKind::Reg { set_reset } | PrimKind::Latch { set_reset } => {
                Some(if set_reset { 4 } else { 2 })
            }
            PrimKind::Const(_) => Some(0),
            PrimKind::SetupHold { .. } | PrimKind::SetupRiseHoldFall { .. } => Some(2),
        }
    }

    /// Whether this kind drives an output signal.
    #[must_use]
    pub const fn has_output(self) -> bool {
        !self.is_checker()
    }

    /// The display name the thesis' Table 3-2 primitive histogram uses,
    /// parameterized by the input count for variadic kinds (`2 OR`,
    /// `3 CHG`, `8 MUX`, `REG RS`, …).
    #[must_use]
    pub fn type_name(self, n_inputs: usize) -> String {
        match self {
            PrimKind::And => format!("{n_inputs} AND"),
            PrimKind::Or => format!("{n_inputs} OR"),
            PrimKind::Nand => format!("{n_inputs} NAND"),
            PrimKind::Nor => format!("{n_inputs} NOR"),
            PrimKind::Xor => format!("{n_inputs} XOR"),
            PrimKind::Xnor => format!("{n_inputs} XNOR"),
            PrimKind::Not => "NOT".to_owned(),
            PrimKind::Buf => "BUF".to_owned(),
            PrimKind::Chg => {
                if n_inputs == 1 {
                    "CHG".to_owned()
                } else {
                    format!("{n_inputs} CHG")
                }
            }
            PrimKind::Mux { data } => format!("{data} MUX"),
            PrimKind::Reg { set_reset: false } => "REG".to_owned(),
            PrimKind::Reg { set_reset: true } => "REG RS".to_owned(),
            PrimKind::Latch { set_reset: false } => "LATCH".to_owned(),
            PrimKind::Latch { set_reset: true } => "LATCH RS".to_owned(),
            PrimKind::Delay => "DELAY".to_owned(),
            PrimKind::Const(v) => format!("CONST {v}"),
            PrimKind::SetupHold { .. } => "SETUP HOLD CHK".to_owned(),
            PrimKind::SetupRiseHoldFall { .. } => "SETUP RISE HOLD FALL CHK".to_owned(),
            PrimKind::MinPulseWidth { .. } => "MIN PULSE WIDTH".to_owned(),
        }
    }
}

impl fmt::Display for PrimKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Without the instance's input count, format variadic kinds bare.
        let name = match self {
            PrimKind::And => "AND".to_owned(),
            PrimKind::Or => "OR".to_owned(),
            PrimKind::Nand => "NAND".to_owned(),
            PrimKind::Nor => "NOR".to_owned(),
            PrimKind::Xor => "XOR".to_owned(),
            PrimKind::Xnor => "XNOR".to_owned(),
            PrimKind::Chg => "CHG".to_owned(),
            other => other.type_name(0),
        };
        f.write_str(&name)
    }
}

/// Separate rising- and falling-edge propagation delays (§4.2.2).
///
/// The thesis lists asymmetric delays as future work for nMOS-style
/// technologies: "one approach is to recognize multiple inverting levels
/// of logic, and to automatically adjust the delays specified for those
/// gates". This extension implements the per-edge delay model for unary
/// primitives (buffers, inverters, delays): output edges of known
/// polarity use the matching delay; value-unknown transitions use the
/// conservative envelope of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeDelays {
    /// Delay applied to output *rising* edges.
    pub rise: DelayRange,
    /// Delay applied to output *falling* edges.
    pub fall: DelayRange,
}

impl EdgeDelays {
    /// The conservative envelope covering both edges: what a
    /// value-independent analysis must assume when the polarity of a
    /// transition is unknown (§4.2.2: "merely using the maximum of the
    /// rising and falling delays is the correct choice").
    #[must_use]
    pub fn envelope(self) -> DelayRange {
        DelayRange::new(
            self.rise.min.min(self.fall.min),
            self.rise.max.max(self.fall.max),
        )
    }
}

/// One primitive instance in a flattened design.
#[derive(Debug, Clone, PartialEq)]
pub struct Primitive {
    /// Hierarchical instance name (for reports), e.g. `ALU0/OUT REG`.
    pub name: String,
    /// The primitive function and its parameters.
    pub kind: PrimKind,
    /// Min/max propagation delay from any input to the output. The thesis
    /// uses one delay per primitive; different per-input delays are
    /// modelled with buffer primitives on the inputs (§2.4.3).
    pub delay: DelayRange,
    /// Optional asymmetric rising/falling delays (§4.2.2 extension).
    /// When set on a unary primitive, output edges of known polarity use
    /// the matching range and `delay` is ignored; other primitives use
    /// [`EdgeDelays::envelope`].
    pub edge_delays: Option<EdgeDelays>,
    /// Input connections, ordered per the [`PrimKind`] conventions.
    pub inputs: Vec<Conn>,
    /// The driven output signal; `None` for checkers.
    pub output: Option<SignalId>,
}

impl Primitive {
    /// The Table 3-2 display name of this instance's primitive type.
    #[must_use]
    pub fn type_name(&self) -> String {
        self.kind.type_name(self.inputs.len())
    }

    /// Iterates over all signals this primitive reads.
    pub fn input_signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.inputs.iter().map(|c| c.signal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_wave::DelayRange;

    #[test]
    fn required_input_counts() {
        assert_eq!(PrimKind::Not.required_inputs(), Some(1));
        assert_eq!(PrimKind::And.required_inputs(), None);
        assert_eq!(PrimKind::Mux { data: 4 }.required_inputs(), Some(5));
        assert_eq!(
            PrimKind::Reg { set_reset: false }.required_inputs(),
            Some(2)
        );
        assert_eq!(PrimKind::Reg { set_reset: true }.required_inputs(), Some(4));
        assert_eq!(
            PrimKind::Latch { set_reset: true }.required_inputs(),
            Some(4)
        );
        assert_eq!(PrimKind::Const(Value::Zero).required_inputs(), Some(0));
        assert_eq!(
            PrimKind::MinPulseWidth {
                high: Time::ZERO,
                low: Time::ZERO
            }
            .required_inputs(),
            Some(1)
        );
    }

    #[test]
    fn classification_predicates() {
        assert!(PrimKind::SetupHold {
            setup: Time::ZERO,
            hold: Time::ZERO
        }
        .is_checker());
        assert!(!PrimKind::And.is_checker());
        assert!(PrimKind::Reg { set_reset: false }.is_storage());
        assert!(PrimKind::Latch { set_reset: true }.is_storage());
        assert!(!PrimKind::Buf.is_storage());
        assert!(PrimKind::And.has_output());
        assert!(!PrimKind::MinPulseWidth {
            high: Time::ZERO,
            low: Time::ZERO
        }
        .has_output());
    }

    #[test]
    fn table_3_2_type_names() {
        assert_eq!(PrimKind::Or.type_name(2), "2 OR");
        assert_eq!(PrimKind::Chg.type_name(1), "CHG");
        assert_eq!(PrimKind::Chg.type_name(3), "3 CHG");
        assert_eq!(PrimKind::Mux { data: 8 }.type_name(9), "8 MUX");
        assert_eq!(PrimKind::Reg { set_reset: true }.type_name(4), "REG RS");
        assert_eq!(PrimKind::Latch { set_reset: false }.type_name(2), "LATCH");
        assert_eq!(
            PrimKind::SetupRiseHoldFall {
                setup: Time::ZERO,
                hold: Time::ZERO
            }
            .type_name(2),
            "SETUP RISE HOLD FALL CHK"
        );
        assert_eq!(PrimKind::Const(Value::One).type_name(0), "CONST 1");
        // Display formats variadic kinds without a count.
        assert_eq!(PrimKind::And.to_string(), "AND");
        assert_eq!(PrimKind::Reg { set_reset: false }.to_string(), "REG");
    }

    #[test]
    fn edge_delay_envelope_covers_both() {
        let ed = EdgeDelays {
            rise: DelayRange::from_ns(1.0, 2.0),
            fall: DelayRange::from_ns(3.0, 5.0),
        };
        assert_eq!(ed.envelope(), DelayRange::from_ns(1.0, 5.0));
        let sym = EdgeDelays {
            rise: DelayRange::from_ns(2.0, 3.0),
            fall: DelayRange::from_ns(2.0, 3.0),
        };
        assert_eq!(sym.envelope(), DelayRange::from_ns(2.0, 3.0));
    }
}
