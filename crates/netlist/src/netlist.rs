//! The flattened circuit: signals, primitives, drivers and the fan-out
//! index ("CALL LIST ARRAY", Table 3-3).

use scald_assertions::{split_signal_name, Assertion, TimingContext};
use scald_wave::DelayRange;
use std::collections::HashMap;
use std::fmt;

use crate::{Conn, PrimKind, Primitive};

/// Index of a signal in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a primitive in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrimId(pub(crate) u32);

impl PrimId {
    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A named signal (vector net). Each signal carries *one* timing value no
/// matter its bit width — the vector-symmetry saving of §3.3.2.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Base name, without the assertion suffix.
    pub name: String,
    /// Bit width of the vector (1 for scalars).
    pub width: u32,
    /// The assertion parsed from the signal's full name, if any (§2.5).
    pub assertion: Option<Assertion>,
    /// Overrides the design's default interconnection delay for wires
    /// driven by this signal (§2.5.3).
    pub wire_delay: Option<DelayRange>,
    /// Multiple drivers are allowed and joined with worst-case OR — the
    /// ECL wired-OR bus of the F10145A data sheet ("outputs can be
    /// wired-OR for easy memory expansion", Fig 3-1).
    pub wired_or: bool,
}

impl Signal {
    /// The full display name including the assertion suffix.
    #[must_use]
    pub fn full_name(&self) -> String {
        match &self.assertion {
            Some(a) => format!("{} {}", self.name, a),
            None => self.name.clone(),
        }
    }
}

/// Design-wide configuration: the timing context (period, clock units,
/// default clock skews) plus the default interconnection delay used for
/// wires without a specified delay (§2.5.3, §3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Period, clock-unit scale and default clock skews.
    pub timing: TimingContext,
    /// Min/max delay assumed for every wire unless overridden
    /// (0.0/2.0 ns in the thesis' examples).
    pub default_wire_delay: DelayRange,
}

impl Config {
    /// The configuration of the thesis' running example (§3.2): 50 ns
    /// cycle, 6.25 ns clock units, 0.0/2.0 ns default wires, ±1 ns
    /// precision and ±5 ns non-precision clock skew.
    #[must_use]
    pub fn s1_example() -> Config {
        Config {
            timing: TimingContext::s1_example(),
            default_wire_delay: DelayRange::from_ns(0.0, 2.0),
        }
    }
}

/// Compressed-sparse-row adjacency: every per-signal row packed into one
/// flat id array plus an offsets table. This is the thesis' CALL LIST
/// ARRAY stored the way Table 3-3 costs it — one contiguous block, one
/// FIELD per (signal, primitive) pair — instead of a `Vec<Vec<_>>` whose
/// rows are scattered allocations. Row lookup is two loads and a slice,
/// and walking many rows in id order is sequential in memory, which is
/// what the settle loop's fan-out enqueue does at scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[s]..offsets[s + 1]` bounds signal `s`'s row in `items`.
    offsets: Vec<u32>,
    /// All rows, concatenated in signal-id order.
    items: Vec<PrimId>,
}

impl Csr {
    /// Packs per-signal rows into contiguous form. Row order (and any
    /// duplicates the caller left in) is preserved exactly.
    fn from_rows(rows: &[Vec<PrimId>]) -> Csr {
        let total: usize = rows.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "adjacency exceeds u32 offsets ({total} entries)"
        );
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut items = Vec::with_capacity(total);
        offsets.push(0u32);
        for row in rows {
            items.extend_from_slice(row);
            offsets.push(items.len() as u32);
        }
        Csr { offsets, items }
    }

    /// The row for index `idx` (a signal's fan-out or driver list).
    #[must_use]
    pub fn row(&self, idx: usize) -> &[PrimId] {
        &self.items[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total entries across all rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no row has any entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A validated, flattened circuit ready for verification.
///
/// Construct one with [`NetlistBuilder`](crate::NetlistBuilder) or via the
/// HDL macro expander. The netlist owns:
///
/// * the signal table (names, widths, assertions, wire-delay overrides),
/// * the primitive table,
/// * the driver map (at most one primitive drives each signal), and
/// * the fan-out index — the thesis' "CALL LIST ARRAY" — listing, for each
///   signal, the primitives that must be re-evaluated when it changes.
#[derive(Debug, Clone)]
pub struct Netlist {
    config: Config,
    signals: Vec<Signal>,
    prims: Vec<Primitive>,
    drivers: Csr,
    fanout: Csr,
    by_name: HashMap<String, SignalId>,
}

impl Netlist {
    pub(crate) fn new_validated(
        config: Config,
        signals: Vec<Signal>,
        prims: Vec<Primitive>,
        by_name: HashMap<String, SignalId>,
    ) -> Result<Netlist, NetlistError> {
        let mut drivers: Vec<Vec<PrimId>> = vec![Vec::new(); signals.len()];
        let mut fanout: Vec<Vec<PrimId>> = vec![Vec::new(); signals.len()];

        for (i, prim) in prims.iter().enumerate() {
            let pid = PrimId(i as u32);
            if let Some(need) = prim.kind.required_inputs() {
                if prim.inputs.len() != need {
                    return Err(NetlistError::WrongInputCount {
                        prim: prim.name.clone(),
                        kind: prim.kind.type_name(prim.inputs.len()),
                        expected: need,
                        found: prim.inputs.len(),
                    });
                }
            } else if prim.inputs.is_empty() {
                return Err(NetlistError::WrongInputCount {
                    prim: prim.name.clone(),
                    kind: prim.kind.type_name(0),
                    expected: 1,
                    found: 0,
                });
            }
            for conn in &prim.inputs {
                if let Some(dir) = &conn.directive {
                    if let Some(bad) = dir
                        .chars()
                        .find(|c| !matches!(c, 'E' | 'W' | 'Z' | 'A' | 'H'))
                    {
                        return Err(NetlistError::InvalidDirective {
                            prim: prim.name.clone(),
                            directive: dir.clone(),
                            bad,
                        });
                    }
                }
                fanout[conn.signal.index()].push(pid);
            }
            match (prim.kind.has_output(), prim.output) {
                (true, Some(out)) => {
                    if let Some(&prev) = drivers[out.index()].first() {
                        if !signals[out.index()].wired_or {
                            return Err(NetlistError::MultipleDrivers {
                                signal: signals[out.index()].name.clone(),
                                first: prims[prev.index()].name.clone(),
                                second: prim.name.clone(),
                            });
                        }
                    }
                    drivers[out.index()].push(pid);
                }
                (true, None) => {
                    return Err(NetlistError::MissingOutput {
                        prim: prim.name.clone(),
                    })
                }
                (false, Some(_)) => {
                    return Err(NetlistError::CheckerWithOutput {
                        prim: prim.name.clone(),
                    })
                }
                (false, None) => {}
            }
        }
        for fo in &mut fanout {
            fo.sort();
            fo.dedup();
        }
        Ok(Netlist {
            config,
            signals,
            prims,
            drivers: Csr::from_rows(&drivers),
            fanout: Csr::from_rows(&fanout),
            by_name,
        })
    }

    /// The design configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// All signals, indexable by [`SignalId::index`].
    #[must_use]
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// All primitives, indexable by [`PrimId::index`].
    #[must_use]
    pub fn prims(&self) -> &[Primitive] {
        &self.prims
    }

    /// The signal with the given id.
    #[must_use]
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// The primitive with the given id.
    #[must_use]
    pub fn prim(&self, id: PrimId) -> &Primitive {
        &self.prims[id.index()]
    }

    /// Looks a signal up by base name (assertion suffix not included).
    #[must_use]
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// The primitive driving `signal`, if any. For wired-OR signals this
    /// is the first driver; see [`drivers`](Self::drivers) for all of them.
    #[must_use]
    pub fn driver(&self, signal: SignalId) -> Option<PrimId> {
        self.drivers.row(signal.index()).first().copied()
    }

    /// All primitives driving `signal` — more than one only on wired-OR
    /// buses.
    #[must_use]
    pub fn drivers(&self, signal: SignalId) -> &[PrimId] {
        self.drivers.row(signal.index())
    }

    /// The primitives that read `signal` — the entries of the thesis'
    /// CALL LIST ARRAY, i.e. what must be re-evaluated when the signal's
    /// value changes (§2.9).
    #[must_use]
    pub fn fanout(&self, signal: SignalId) -> &[PrimId] {
        self.fanout.row(signal.index())
    }

    /// The packed CALL LIST ARRAY itself — the CSR fan-out adjacency.
    /// Exposed so storage accounting and consistency tests can inspect
    /// the contiguous layout directly.
    #[must_use]
    pub fn fanout_csr(&self) -> &Csr {
        &self.fanout
    }

    /// The forward structural closure of a set of edited signals and
    /// primitives: every primitive that could need re-evaluation when
    /// those signals' values (or those primitives' definitions) change.
    /// This is the "dirty cone" seeded into a warm-started verifier run;
    /// for the initial signals it also includes their *drivers*, since a
    /// dirtied signal must be recomputed from scratch.
    ///
    /// Returns the cone members in id order.
    #[must_use]
    pub fn affected_cone(&self, signals: &[SignalId], prims: &[PrimId]) -> Vec<PrimId> {
        let mut in_cone = vec![false; self.prims.len()];
        let mut sig_seen = vec![false; self.signals.len()];
        let mut work: Vec<PrimId> = Vec::new();
        let enter = |p: PrimId, in_cone: &mut Vec<bool>, work: &mut Vec<PrimId>| {
            if !in_cone[p.index()] {
                in_cone[p.index()] = true;
                work.push(p);
            }
        };
        for &p in prims {
            enter(p, &mut in_cone, &mut work);
        }
        for &s in signals {
            if sig_seen[s.index()] {
                continue;
            }
            sig_seen[s.index()] = true;
            for &p in self.fanout(s) {
                enter(p, &mut in_cone, &mut work);
            }
            for &p in self.drivers(s) {
                enter(p, &mut in_cone, &mut work);
            }
        }
        while let Some(p) = work.pop() {
            if let Some(out) = self.prims[p.index()].output {
                if !sig_seen[out.index()] {
                    sig_seen[out.index()] = true;
                    for &q in self.fanout(out) {
                        enter(q, &mut in_cone, &mut work);
                    }
                }
            }
        }
        in_cone
            .iter()
            .enumerate()
            .filter(|(_, &hit)| hit)
            .map(|(i, _)| PrimId(i as u32))
            .collect()
    }

    /// Iterates over `(id, signal)` pairs.
    pub fn iter_signals(&self) -> impl Iterator<Item = (SignalId, &Signal)> {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s))
    }

    /// Iterates over `(id, primitive)` pairs.
    pub fn iter_prims(&self) -> impl Iterator<Item = (PrimId, &Primitive)> {
        self.prims
            .iter()
            .enumerate()
            .map(|(i, p)| (PrimId(i as u32), p))
    }

    /// The effective interconnection delay for a connection: the
    /// per-connection override if given, else the source signal's
    /// override, else the design default (§2.5.3).
    #[must_use]
    pub fn wire_delay(&self, conn: &Conn) -> DelayRange {
        conn.wire_delay
            .or(self.signal(conn.signal).wire_delay)
            .unwrap_or(self.config.default_wire_delay)
    }

    /// A text listing of the flattened design — the "fully elaborated
    /// design" output of the Macro Expander's second pass (§3.3.2): one
    /// line per primitive with its type, delay and connections.
    #[must_use]
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (_, p) in self.iter_prims() {
            let inputs: Vec<String> = p
                .inputs
                .iter()
                .map(|c| {
                    let mut s = String::new();
                    if c.invert {
                        s.push('-');
                    }
                    s.push_str(&self.signal(c.signal).name);
                    if let Some(d) = &c.directive {
                        let _ = write!(s, " &{d}");
                    }
                    s
                })
                .collect();
            let output = p
                .output
                .map_or(String::new(), |o| format!(" -> {}", self.signal(o).name));
            let _ = writeln!(
                out,
                "{:<28} {:<10} ({}){}   [{}]",
                p.type_name(),
                p.delay.to_string(),
                inputs.join(", "),
                output,
                p.name
            );
        }
        out
    }

    /// Histogram of primitive type names — the contents of Table 3-2.
    /// Returns `(type name, count)` sorted by descending count then name.
    #[must_use]
    pub fn primitive_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for p in &self.prims {
            *counts.entry(p.type_name()).or_insert(0) += 1;
        }
        let mut out: Vec<(String, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Average vector width of the primitives' outputs, the statistic the
    /// thesis reports as 6.5 bits (§3.3.2): the total bit-blasted
    /// primitive count divided by the vector primitive count.
    #[must_use]
    pub fn average_primitive_width(&self) -> f64 {
        if self.prims.is_empty() {
            return 0.0;
        }
        let total_bits: u64 = self
            .prims
            .iter()
            .map(|p| {
                p.output
                    .map_or(1, |out| u64::from(self.signal(out).width.max(1)))
            })
            .sum();
        total_bits as f64 / self.prims.len() as f64
    }
}

/// Errors detected while assembling or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal name was declared twice with conflicting properties.
    ConflictingSignal {
        /// The signal's base name.
        name: String,
        /// What differed between the declarations.
        detail: String,
    },
    /// Two primitives drive the same signal.
    MultipleDrivers {
        /// The multiply-driven signal.
        signal: String,
        /// The first driver's instance name.
        first: String,
        /// The conflicting driver's instance name.
        second: String,
    },
    /// A primitive has the wrong number of inputs for its kind.
    WrongInputCount {
        /// The primitive's instance name.
        prim: String,
        /// Its kind's display name.
        kind: String,
        /// How many inputs the kind requires (minimum for variadic kinds).
        expected: usize,
        /// How many were connected.
        found: usize,
    },
    /// A non-checker primitive has no output signal.
    MissingOutput {
        /// The primitive's instance name.
        prim: String,
    },
    /// A checker primitive was given an output signal.
    CheckerWithOutput {
        /// The primitive's instance name.
        prim: String,
    },
    /// An evaluation-directive string contains a letter outside
    /// `E W Z A H` (§2.6).
    InvalidDirective {
        /// The primitive the directive is attached to.
        prim: String,
        /// The full directive string.
        directive: String,
        /// The offending character.
        bad: char,
    },
    /// A signal's assertion suffix failed to parse.
    BadAssertion {
        /// The full signal name as given.
        name: String,
        /// The parse error message.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ConflictingSignal { name, detail } => {
                write!(f, "signal {name:?} declared twice with different {detail}")
            }
            NetlistError::MultipleDrivers {
                signal,
                first,
                second,
            } => write!(
                f,
                "signal {signal:?} is driven by both {first:?} and {second:?}"
            ),
            NetlistError::WrongInputCount {
                prim,
                kind,
                expected,
                found,
            } => write!(
                f,
                "primitive {prim:?} ({kind}) needs {expected} input(s), found {found}"
            ),
            NetlistError::MissingOutput { prim } => {
                write!(f, "primitive {prim:?} has no output signal")
            }
            NetlistError::CheckerWithOutput { prim } => {
                write!(f, "checker {prim:?} cannot drive an output signal")
            }
            NetlistError::InvalidDirective {
                prim,
                directive,
                bad,
            } => write!(
                f,
                "directive {directive:?} on {prim:?} contains {bad:?}; only E W Z A H are allowed"
            ),
            NetlistError::BadAssertion { name, message } => {
                write!(f, "signal {name:?}: {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// Convenience used by the builder: parse a full signal name into base and
/// assertion, mapping errors to [`NetlistError`].
pub(crate) fn split_name(full: &str) -> Result<(&str, Option<Assertion>), NetlistError> {
    split_signal_name(full).map_err(|e| NetlistError::BadAssertion {
        name: full.to_owned(),
        message: e.to_string(),
    })
}

/// Ensure `PrimKind` is available to doc links in this module.
#[allow(unused)]
fn _kind_link(_: PrimKind) {}
