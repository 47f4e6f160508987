//! SCALD-style hardware description language: parser and two-pass macro
//! expander.
//!
//! SCALD described designs as graphics-based hierarchical macro drawings
//! (§3.1); this crate provides a text-format equivalent with the same
//! semantic features:
//!
//! * hierarchical **macros** with integer parameters (`SIZE=32`) and
//!   bit-vector ports (`I<0:SIZE-1>`),
//! * **signal names that carry assertions** (`'CLK .P2-3'`,
//!   `'W DATA .S0-6'`, §2.5) so every reference agrees on timing,
//! * `/P` parameter and `/M` macro-local scope markers,
//! * complemented connections (`-WE`) and `&`-directive strings (`&HZ`,
//!   §2.6),
//! * per-signal wire-delay overrides and **case-analysis** blocks (§2.7.1).
//!
//! [`compile`] parses and expands in one call; [`parse`] and [`expand`]
//! expose the two phases so the Table 3-1 statistics (read / Pass 1 /
//! Pass 2) can be measured separately.
//!
//! ```
//! let src = r"
//! design MINI; period 50.0; clock_unit 6.25;
//! macro DFF (SIZE=1) (CK, I<0:SIZE-1>/P) -> (Q<0:SIZE-1>/P);
//!   reg delay=1.5:4.5 (CK, I) -> (Q);
//!   setup_hold setup=2.5 hold=1.5 (I, CK);
//! end;
//! top;
//!   use DFF SIZE=32 ('CLK .P2-3', 'W DATA .S0-6') -> ('R OUT');
//! end;
//! ";
//! let expansion = scald_hdl::compile(src)?;
//! assert_eq!(expansion.netlist.prim_count(), 2);
//! assert_eq!(expansion.stats.instances_expanded, 1);
//! # Ok::<(), scald_hdl::HdlError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod expand;
mod parser;
mod printer;
mod token;

pub use expand::{compile, expand, ExpandStats, Expansion, HdlError};
pub use parser::{parse, ParseError, PRIM_KEYWORDS};
pub use printer::print;
pub use token::{lex, LexError, Spanned, Token};
