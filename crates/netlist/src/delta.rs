//! Netlist deltas: small, named edits applied to a validated [`Netlist`]
//! to produce a new validated netlist — the structural half of the
//! incremental re-verification workflow (`scald-incr`).
//!
//! A [`NetlistDelta`] is an ordered list of [`DeltaOp`]s addressed by
//! *name* (signal base names, primitive instance names), because names —
//! unlike [`SignalId`](crate::SignalId)/[`PrimId`](crate::PrimId)
//! indices — survive the rebuild.
//! [`NetlistDelta::apply`] replays the base netlist through a fresh
//! [`NetlistBuilder`] with the edits folded in, preserving the original
//! signal declaration order so unchanged signals keep their ids.
//!
//! Signals are never *removed* by a delta: a signal whose last driver is
//! removed simply becomes undriven (and, without an assertion, is treated
//! as assumed-stable by the verifier, exactly as in a cold run). This
//! keeps delta application total and the id mapping simple.

use scald_wave::DelayRange;
use std::collections::HashMap;

use crate::{Conn, Netlist, NetlistBuilder, NetlistError, PrimKind, Primitive};

/// A connection endpoint in an [`DeltaOp::AddPrim`] request, addressed by
/// signal name. The name may carry an assertion suffix (`"CLK .P6-7"`);
/// names that do not resolve to an existing signal declare a fresh scalar
/// signal (vector signals must already exist in the base netlist).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaConn {
    /// Full signal name, optionally with an assertion suffix.
    pub signal: String,
    /// Use the complement of the signal.
    pub invert: bool,
    /// Evaluation-directive string (`"H"`, `"HZ"`, …).
    pub directive: Option<String>,
    /// Per-connection wire-delay override.
    pub wire_delay: Option<DelayRange>,
}

impl DeltaConn {
    /// A plain connection to the named signal.
    #[must_use]
    pub fn new(signal: impl Into<String>) -> DeltaConn {
        DeltaConn {
            signal: signal.into(),
            invert: false,
            directive: None,
            wire_delay: None,
        }
    }

    /// Marks the connection as complemented.
    #[must_use]
    pub fn inverted(mut self) -> DeltaConn {
        self.invert = !self.invert;
        self
    }

    /// Attaches an evaluation-directive string.
    #[must_use]
    pub fn with_directive(mut self, directive: impl Into<String>) -> DeltaConn {
        self.directive = Some(directive.into());
        self
    }
}

/// A new primitive to splice into the design.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimSpec {
    /// Instance name (must not collide with an existing primitive).
    pub name: String,
    /// Primitive kind, with its kind-specific parameters.
    pub kind: PrimKind,
    /// Min/max propagation delay.
    pub delay: DelayRange,
    /// Input connections, in primitive input order.
    pub inputs: Vec<DeltaConn>,
    /// Output signal name, if the primitive drives one.
    pub output: Option<String>,
}

/// One edit in a [`NetlistDelta`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Splice in a new primitive (new signal names are declared scalar).
    AddPrim(PrimSpec),
    /// Remove the named primitive. Its output signal stays declared and
    /// becomes undriven if this was the only driver.
    RemovePrim {
        /// Instance name of the primitive to remove.
        name: String,
    },
    /// Replace the named primitive's delay (an ECO retime). Asymmetric
    /// edge delays, if any, are replaced by the single new envelope.
    Retime {
        /// Instance name of the primitive to retime.
        prim: String,
        /// The new min/max propagation delay.
        delay: DelayRange,
    },
    /// Replace (or remove, with `None`) a signal's timing assertion. The
    /// assertion is given as the name suffix it would carry, e.g.
    /// `".S3-8"` or `".P6-7"`.
    SetAssertion {
        /// Base name of the signal.
        signal: String,
        /// The new assertion suffix, or `None` to drop the assertion.
        assertion: Option<String>,
    },
}

/// Errors from [`NetlistDelta::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// A `RemovePrim`/`Retime` op named a primitive the base lacks.
    UnknownPrim(String),
    /// A `SetAssertion` op named a signal the base lacks.
    UnknownSignal(String),
    /// An `AddPrim` op reused an existing primitive name.
    DuplicatePrim(String),
    /// The edited design failed netlist validation.
    Netlist(NetlistError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownPrim(n) => write!(f, "delta names unknown primitive {n:?}"),
            DeltaError::UnknownSignal(n) => write!(f, "delta names unknown signal {n:?}"),
            DeltaError::DuplicatePrim(n) => {
                write!(f, "delta adds primitive {n:?} which already exists")
            }
            DeltaError::Netlist(e) => write!(f, "edited design is invalid: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<NetlistError> for DeltaError {
    fn from(e: NetlistError) -> DeltaError {
        DeltaError::Netlist(e)
    }
}

/// An ordered batch of netlist edits, applied atomically in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetlistDelta {
    ops: Vec<DeltaOp>,
}

impl NetlistDelta {
    /// An empty delta (applying it reproduces the base netlist).
    #[must_use]
    pub fn new() -> NetlistDelta {
        NetlistDelta::default()
    }

    /// Appends an arbitrary op.
    pub fn push(&mut self, op: DeltaOp) -> &mut NetlistDelta {
        self.ops.push(op);
        self
    }

    /// Appends an `AddPrim` op.
    pub fn add_prim(&mut self, spec: PrimSpec) -> &mut NetlistDelta {
        self.push(DeltaOp::AddPrim(spec))
    }

    /// Appends a `RemovePrim` op.
    pub fn remove_prim(&mut self, name: impl Into<String>) -> &mut NetlistDelta {
        self.push(DeltaOp::RemovePrim { name: name.into() })
    }

    /// Appends a `Retime` op.
    pub fn retime(&mut self, prim: impl Into<String>, delay: DelayRange) -> &mut NetlistDelta {
        self.push(DeltaOp::Retime {
            prim: prim.into(),
            delay,
        })
    }

    /// Appends a `SetAssertion` op.
    pub fn set_assertion(
        &mut self,
        signal: impl Into<String>,
        assertion: Option<String>,
    ) -> &mut NetlistDelta {
        self.push(DeltaOp::SetAssertion {
            signal: signal.into(),
            assertion,
        })
    }

    /// The ops, in application order.
    #[must_use]
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// `true` when the delta contains no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the delta to `base`, producing a new validated netlist.
    ///
    /// Base signals keep their declaration order (and therefore their
    /// [`SignalId`](crate::SignalId)s); signals first named by `AddPrim`
    /// ops are appended after them.
    ///
    /// # Errors
    ///
    /// Returns a [`DeltaError`] when an op names an unknown primitive or
    /// signal, reuses a primitive name, or the edited design fails
    /// netlist validation.
    pub fn apply(&self, base: &Netlist) -> Result<Netlist, DeltaError> {
        // Fold the ops into lookup form first, validating names eagerly.
        let mut removed: Vec<&str> = Vec::new();
        let mut retimed: HashMap<&str, DelayRange> = HashMap::new();
        let mut assertions: HashMap<&str, Option<&str>> = HashMap::new();
        let mut added: Vec<&PrimSpec> = Vec::new();
        let prim_exists = |name: &str| -> bool { base.prims().iter().any(|p| p.name == name) };
        for op in &self.ops {
            match op {
                DeltaOp::AddPrim(spec) => {
                    if prim_exists(&spec.name) || added.iter().any(|s| s.name == spec.name) {
                        return Err(DeltaError::DuplicatePrim(spec.name.clone()));
                    }
                    added.push(spec);
                }
                DeltaOp::RemovePrim { name } => {
                    if !prim_exists(name) {
                        return Err(DeltaError::UnknownPrim(name.clone()));
                    }
                    removed.push(name);
                }
                DeltaOp::Retime { prim, delay } => {
                    if !prim_exists(prim) {
                        return Err(DeltaError::UnknownPrim(prim.clone()));
                    }
                    retimed.insert(prim, *delay);
                }
                DeltaOp::SetAssertion { signal, assertion } => {
                    if base.signal_by_name(signal).is_none() {
                        return Err(DeltaError::UnknownSignal(signal.clone()));
                    }
                    assertions.insert(signal, assertion.as_deref());
                }
            }
        }

        let mut b = NetlistBuilder::new(*base.config());

        // Replay the signal table in declaration order so surviving
        // signals keep their ids.
        for (sid, sig) in base.iter_signals() {
            let new_sid = match assertions.get(sig.name.as_str()) {
                Some(Some(a)) => b.signal_vec(&format!("{} {}", sig.name, a), sig.width)?,
                Some(None) => b.signal_parsed(&sig.name, None, sig.width)?,
                None => b.signal_parsed(&sig.name, sig.assertion.as_ref(), sig.width)?,
            };
            debug_assert_eq!(new_sid, sid);
            if let Some(wd) = sig.wire_delay {
                b.set_wire_delay(new_sid, wd);
            }
            if sig.wired_or {
                b.mark_wired_or(new_sid);
            }
        }

        // Replay the primitive table with removals and retimes folded in.
        for prim in base.prims() {
            if removed.iter().any(|n| *n == prim.name) {
                continue;
            }
            let mut p = prim.clone();
            if let Some(delay) = retimed.get(prim.name.as_str()) {
                p.delay = *delay;
                p.edge_delays = None;
            }
            b.push_prim(p);
        }

        // Splice in the additions, declaring any fresh (scalar) signals.
        // References to existing signals keep their declared width.
        fn resolve(b: &mut NetlistBuilder, name: &str) -> Result<crate::SignalId, DeltaError> {
            let (base_name, assertion) = crate::netlist::split_name(name)?;
            let width = b
                .find_signal(base_name)
                .map_or(1, |sid| b.signal_width(sid));
            Ok(b.signal_parsed(base_name, assertion.as_ref(), width)?)
        }
        for spec in added {
            let mut inputs = Vec::with_capacity(spec.inputs.len());
            for dc in &spec.inputs {
                let sid = resolve(&mut b, &dc.signal)?;
                let mut conn = Conn::new(sid);
                conn.invert = dc.invert;
                conn.directive = dc.directive.clone();
                conn.wire_delay = dc.wire_delay;
                inputs.push(conn);
            }
            let output = match &spec.output {
                Some(name) => Some(resolve(&mut b, name)?),
                None => None,
            };
            b.push_prim(Primitive {
                name: spec.name.clone(),
                kind: spec.kind,
                delay: spec.delay,
                edge_delays: None,
                inputs,
                output,
            });
        }

        Ok(b.finish()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use scald_wave::Time;

    fn base() -> Netlist {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let clk = b.signal("CLK .P6-7").expect("valid");
        let d = b.signal_vec("D .S0-3", 8).expect("valid");
        let x = b.signal_vec("X", 8).expect("valid");
        let q = b.signal_vec("Q", 8).expect("valid");
        b.buf("U1", DelayRange::from_ns(1.0, 2.0), d, x);
        b.reg("U2", DelayRange::from_ns(1.5, 4.5), clk, x, q);
        b.setup_hold("U3", Time::from_ns(2.5), Time::from_ns(1.0), x, clk);
        b.finish().expect("valid base")
    }

    #[test]
    fn empty_delta_reproduces_base() {
        let n = base();
        let edited = NetlistDelta::new().apply(&n).expect("applies");
        assert_eq!(edited.signals().len(), n.signals().len());
        assert_eq!(edited.prims().len(), n.prims().len());
        assert_eq!(edited.listing(), n.listing());
    }

    #[test]
    fn retime_replaces_delay_and_keeps_ids() {
        let n = base();
        let mut delta = NetlistDelta::new();
        delta.retime("U1", DelayRange::from_ns(3.0, 9.0));
        let edited = delta.apply(&n).expect("applies");
        assert_eq!(edited.prims()[0].delay, DelayRange::from_ns(3.0, 9.0));
        assert_eq!(
            edited.signal_by_name("Q"),
            n.signal_by_name("Q"),
            "surviving signals keep their ids"
        );
    }

    #[test]
    fn retime_keeps_fixed_width_assertions_exact() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let ck = b.signal("CK .P2+10.25").expect("valid");
        let q = b.signal("Q").expect("valid");
        b.buf("U1", DelayRange::from_ns(1.0, 2.0), ck, q);
        let n = b.finish().expect("valid base");
        let mut delta = NetlistDelta::new();
        delta.retime("U1", DelayRange::from_ns(3.0, 9.0));
        let edited = delta.apply(&n).expect("applies");
        let ck = edited.signal(edited.signal_by_name("CK").expect("kept"));
        assert_eq!(
            ck.assertion.as_ref().map(|a| a.ranges.clone()),
            Some(vec![scald_assertions::TimeRange::UnitsPlusNs(2.0, 10.25)])
        );
        assert_eq!(ck.full_name(), "CK .P2+10.25");
    }

    #[test]
    fn remove_prim_leaves_output_undriven() {
        let n = base();
        let mut delta = NetlistDelta::new();
        delta.remove_prim("U1");
        let edited = delta.apply(&n).expect("applies");
        assert_eq!(edited.prims().len(), n.prims().len() - 1);
        let x = edited.signal_by_name("X").expect("X survives");
        assert!(edited.driver(x).is_none(), "X is now undriven");
    }

    #[test]
    fn add_prim_declares_new_signals_after_base() {
        let n = base();
        let mut delta = NetlistDelta::new();
        delta.add_prim(PrimSpec {
            name: "U4".to_owned(),
            kind: PrimKind::Buf,
            delay: DelayRange::from_ns(0.5, 1.5),
            inputs: vec![DeltaConn::new("Q")],
            output: Some("Q BUF".to_owned()),
        });
        let edited = delta.apply(&n).expect("applies");
        let fresh = edited.signal_by_name("Q BUF").expect("declared");
        assert_eq!(fresh.index(), n.signals().len(), "appended after base");
        assert_eq!(edited.prims().last().expect("added").name, "U4");
    }

    #[test]
    fn set_assertion_replaces_and_removes() {
        let n = base();
        let mut delta = NetlistDelta::new();
        delta.set_assertion("D", Some(".S1-5".to_owned()));
        delta.set_assertion("CLK", None);
        let edited = delta.apply(&n).expect("applies");
        let d = edited.signal_by_name("D").expect("D");
        assert_eq!(edited.signal(d).full_name(), "D .S1-5");
        let clk = edited.signal_by_name("CLK").expect("CLK");
        assert!(edited.signal(clk).assertion.is_none());
    }

    #[test]
    fn unknown_names_are_rejected() {
        let n = base();
        let mut delta = NetlistDelta::new();
        delta.remove_prim("NOPE");
        assert_eq!(
            delta.apply(&n).unwrap_err(),
            DeltaError::UnknownPrim("NOPE".to_owned())
        );
        let mut delta = NetlistDelta::new();
        delta.set_assertion("NOPE", None);
        assert_eq!(
            delta.apply(&n).unwrap_err(),
            DeltaError::UnknownSignal("NOPE".to_owned())
        );
        let mut delta = NetlistDelta::new();
        delta.add_prim(PrimSpec {
            name: "U1".to_owned(),
            kind: PrimKind::Buf,
            delay: DelayRange::from_ns(0.5, 1.5),
            inputs: vec![DeltaConn::new("Q")],
            output: None,
        });
        assert_eq!(
            delta.apply(&n).unwrap_err(),
            DeltaError::DuplicatePrim("U1".to_owned())
        );
    }

    #[test]
    fn affected_cone_is_the_forward_closure() {
        let n = base();
        let d = n.signal_by_name("D").expect("D");
        let cone = n.affected_cone(&[d], &[]);
        // D feeds U1; U1 drives X which feeds U2 (reg) and U3 (checker);
        // U2 drives Q which feeds nothing.
        assert_eq!(cone.len(), 3, "cone: {cone:?}");
        let empty = n.affected_cone(&[], &[]);
        assert!(empty.is_empty());
    }
}
