//! Periodic waveforms, time arithmetic and skew for the SCALD Timing
//! Verifier.
//!
//! This crate implements the signal-value representation of §2.8 of
//! McWilliams' thesis: a signal's behaviour over one clock period is a
//! run-length list of seven-value segments ([`Waveform`]), with the
//! uncertainty in *when* transitions occur kept in a separate [`Skew`]
//! field so that pulse widths are preserved through variable delays
//! (Fig 2-8). When signals are combined the skew is folded back into the
//! value list as `R`/`F`/`C` windows ([`Waveform::with_skew_applied`],
//! Fig 2-9).
//!
//! Time is exact integer picoseconds ([`Time`]); intervals within the
//! period are circular [`Span`]s, because assertions and signal values are
//! periodic (§2.1) and wrap modulo the cycle time (§3.2).
//!
//! # Example: the skew handling of Figs 2-8 and 2-9
//!
//! ```
//! use scald_logic::Value;
//! use scald_wave::{DelayRange, Skew, Time, Waveform};
//!
//! let period = Time::from_ns(50.0);
//! let input = Waveform::from_intervals(
//!     period,
//!     Value::Zero,
//!     [(Time::from_ns(5.0), Time::from_ns(15.0), Value::One)],
//! );
//!
//! // An OR gate with 5.0/10.0 ns delay: combine at zero delay, shift by
//! // the minimum, and accumulate the spread as separated skew.
//! let gate = DelayRange::from_ns(5.0, 10.0);
//! let output = input.delayed(gate.min);
//! let skew = Skew::ZERO.after_delay(gate);
//! assert_eq!(skew, Skew::from_ns(0.0, 5.0));
//!
//! // The 10 ns pulse width is intact in the delayed waveform...
//! assert_eq!(output.value_at(Time::from_ns(12.0)), Value::One);
//!
//! // ...and folding the skew produces the R/F windows of Fig 2-9.
//! let folded = output.with_skew_applied(skew);
//! assert_eq!(folded.value_at(Time::from_ns(12.0)), Value::Rise);
//! assert_eq!(folded.value_at(Time::from_ns(16.0)), Value::One);
//! assert_eq!(folded.value_at(Time::from_ns(22.0)), Value::Fall);
//! ```

#![warn(missing_docs)]

mod edges;
mod intern;
mod span;
mod store;
mod time;
mod waveform;

pub use edges::{edge_windows, pulses, Edge, EdgeWindow, Pulse};
pub use intern::{CarriedHash, CarriedMap, Interner, Padded, Shards, StoreStats};
pub use span::Span;
pub use store::{WaveId, WaveRef, WaveStore};
pub use time::{DelayCorner, DelayRange, Skew, Time};
pub use waveform::{SegmentError, Waveform};
