//! Netlist model for the SCALD Timing Verifier: signals, primitives,
//! connections and the validated circuit graph.
//!
//! A design is flattened (by the `scald-hdl` macro expander, or built
//! directly with [`NetlistBuilder`]) into the primitive vocabulary of §2.4:
//! worst-case gates, the CHANGE function, multiplexers, edge-triggered
//! registers and transparent latches (each with optional asynchronous
//! SET/RESET), pure delays, and the three checker primitives
//! (`SETUP HOLD CHK`, `SETUP RISE HOLD FALL CHK`, `MIN PULSE WIDTH`).
//!
//! Signals are *vector* nets carrying one timing value regardless of bit
//! width — the representation symmetry that let the thesis describe a
//! 6357-chip processor with 8 282 primitives instead of 53 833 (§3.3.2).
//!
//! A [`Netlist`] stores the design as columns over one name arena, like
//! the thesis' flat records and CALL LIST ARRAY (§3.3.2, Table 3-3);
//! [`Netlist::prim`] and [`Netlist::signal`] hand out `Copy` views
//! ([`PrimRef`], [`SignalRef`]) that read them.
//!
//! ```
//! use scald_netlist::{Config, NetlistBuilder};
//! use scald_wave::DelayRange;
//!
//! # fn main() -> Result<(), scald_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new(Config::s1_example());
//! let a = b.signal("A .S0-6")?;
//! let bsig = b.signal("B .S0-6")?;
//! let q = b.signal("Q")?;
//! b.or2("OR1", DelayRange::from_ns(1.0, 2.9), a, bsig, q);
//! let netlist = b.finish()?;
//! let or1 = netlist.driver(q).expect("OR1 drives Q");
//! assert_eq!(netlist.prim(or1).type_name(), "2 OR");
//! assert_eq!(netlist.prim(or1).input_signals(), [a, bsig]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
mod delta;
mod netlist;
mod primitive;

pub use builder::{Conn, NetlistBuilder};
pub use delta::{DeltaConn, DeltaError, DeltaOp, NetlistDelta, PrimSpec};
pub use netlist::{
    Config, ConnRef, Csr, Netlist, NetlistError, PrimId, PrimRef, SignalId, SignalRef,
};
pub use primitive::{EdgeDelays, PrimKind};
