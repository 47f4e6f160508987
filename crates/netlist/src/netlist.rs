//! The flattened circuit, stored as columns: per-primitive and
//! per-signal arrays, one input CSR, one name arena, sorted side tables
//! for the rare per-connection, per-primitive and per-signal extras, and
//! the driver and fan-out indexes ("CALL LIST ARRAY", Table 3-3).
//!
//! Nothing here owns a record per primitive or per signal: a
//! [`PrimRef`], [`ConnRef`] or [`SignalRef`] is a `Copy` view that reads
//! the columns on demand.

use scald_assertions::{split_signal_name, Assertion, TimingContext};
use scald_wave::DelayRange;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};

use crate::{Conn, EdgeDelays, PrimKind};

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
    /// Packs `rows` rows from `(row, item)` pairs by counting: `pairs` is
    /// called twice, once to size each row and once, backwards, to fill
    /// it. A row lists its items in the order `pairs` yields them.
    pub(crate) fn by_counting<I>(rows: usize, pairs: impl Fn() -> I) -> Csr
    where
        I: DoubleEndedIterator<Item = (usize, PrimId)>,
    {
        let mut offsets = vec![0u32; rows + 1];
        for (row, _) in pairs() {
            offsets[row] += 1;
        }
        // Each offset becomes its row's end; filling backwards moves it
        // to the row's start.
        let mut end = 0u32;
        for o in &mut offsets {
            end = end.checked_add(*o).expect("adjacency exceeds u32 offsets");
            *o = end;
        }
        let mut items = vec![PrimId(0); end as usize];
        for (row, item) in pairs().rev() {
            offsets[row] -= 1;
            items[offsets[row] as usize] = item;
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

/// Where a name sits in the name arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Appends `text` to `arena` and returns its span.
    pub(crate) fn push(arena: &mut String, text: &str) -> Span {
        let start = u32::try_from(arena.len()).expect("name arena exceeds u32 offsets");
        let len = u32::try_from(text.len()).expect("name exceeds u32 length");
        assert!(
            start.checked_add(len).is_some(),
            "name arena exceeds u32 offsets"
        );
        arena.push_str(text);
        Span { start, len }
    }

    pub(crate) fn of(self, arena: &str) -> &str {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// The `output` column's entry for a primitive that drives nothing.
pub(crate) const NO_OUTPUT: u32 = u32::MAX;

/// An open-addressing table of signal ids keyed by their names, which it
/// reads from the name arena instead of owning a copy. Slots hold
/// `id + 1` (0 is empty), and the table doubles before it is three
/// quarters full. Names come from design text, so the hash is std's
/// randomly keyed one: no input can be written to collide.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    slots: Vec<u32>,
    len: usize,
    hasher: RandomState,
}

impl NameIndex {
    /// The first slot of `name`'s probe sequence.
    fn home(&self, name: &str) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (self.hasher.hash_one(name) >> (64 - bits)) as usize
    }

    /// The signal named `name`, reading names through `spans`.
    pub(crate) fn find(&self, arena: &str, spans: &[Span], name: &str) -> Option<SignalId> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(name);
        loop {
            match self.slots[at] {
                0 => return None,
                s if spans[s as usize - 1].of(arena) == name => return Some(SignalId(s - 1)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Adds signal `id`, whose name (read through `spans`) is not yet in
    /// the table.
    pub(crate) fn insert(&mut self, arena: &str, spans: &[Span], id: SignalId) {
        self.reserve(arena, spans, 1);
        self.place(spans[id.index()].of(arena), id.0 + 1);
        self.len += 1;
    }

    /// Makes room for `additional` more names without rehashing.
    pub(crate) fn reserve(&mut self, arena: &str, spans: &[Span], additional: usize) {
        let need = self.len + additional;
        if need * 4 < self.slots.len() * 3 {
            return;
        }
        let size = (need * 4 / 3 + 1).next_power_of_two().max(8);
        let old = std::mem::replace(&mut self.slots, vec![0; size]);
        for s in old.into_iter().filter(|&s| s != 0) {
            self.place(spans[s as usize - 1].of(arena), s);
        }
    }

    fn place(&mut self, name: &str, slot: u32) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(name);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }
}

/// A validated, flattened circuit ready for verification.
///
/// Construct one with [`NetlistBuilder`](crate::NetlistBuilder) or via the
/// HDL macro expander. The netlist is a set of columns:
///
/// * per primitive: its [`PrimKind`], [`DelayRange`], output signal and
///   name, with its inputs' signals and invert flags in one CSR;
/// * per signal: its name, width and wired-OR flag;
/// * every name in one arena, and a name index of signal ids over it;
/// * sorted side tables for what few primitives, connections or signals
///   carry: edge delays, directives, wire-delay overrides, assertions;
/// * the driver map and the fan-out index — the thesis' "CALL LIST
///   ARRAY" — listing, for each signal, the primitives that must be
///   re-evaluated when it changes.
///
/// [`prim`](Self::prim), [`signal`](Self::signal) and
/// [`PrimRef::input`] hand out `Copy` views over these columns.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) config: Config,
    /// Every signal and primitive name, back to back.
    pub(crate) names: String,
    pub(crate) prim_name: Vec<Span>,
    pub(crate) prim_kind: Vec<PrimKind>,
    pub(crate) prim_delay: Vec<DelayRange>,
    /// The driven signal's index, [`NO_OUTPUT`] for checkers.
    pub(crate) prim_output: Vec<u32>,
    /// `input_start[p]..input_start[p + 1]` bounds primitive `p`'s input
    /// slots in the per-slot columns.
    pub(crate) input_start: Vec<u32>,
    pub(crate) input_signal: Vec<SignalId>,
    pub(crate) input_invert: Vec<bool>,
    /// Evaluation directives by input slot, their text in `directive_text`.
    pub(crate) directives: Vec<(u32, Span)>,
    pub(crate) directive_text: String,
    /// Per-connection wire-delay overrides by input slot.
    pub(crate) conn_wire_delays: Vec<(u32, DelayRange)>,
    /// Asymmetric edge delays by primitive.
    pub(crate) edge_delays: Vec<(PrimId, EdgeDelays)>,
    pub(crate) signal_name: Vec<Span>,
    pub(crate) signal_width: Vec<u32>,
    pub(crate) signal_wired_or: Vec<bool>,
    /// Assertions by signal.
    pub(crate) assertions: Vec<(SignalId, Assertion)>,
    /// Per-signal wire-delay overrides by signal.
    pub(crate) signal_wire_delays: Vec<(SignalId, DelayRange)>,
    pub(crate) by_name: NameIndex,
    pub(crate) drivers: Csr,
    pub(crate) fanout: Csr,
}

/// The value a sorted side table keeps for `key`, if any.
fn lookup<K: Ord + Copy, V>(table: &[(K, V)], key: K) -> Option<&V> {
    table
        .binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .map(|i| &table[i].1)
}

impl Netlist {
    /// An empty netlist with no rows and empty indexes, the state a
    /// builder starts appending to.
    pub(crate) fn empty(config: Config) -> Netlist {
        Netlist {
            config,
            names: String::new(),
            prim_name: Vec::new(),
            prim_kind: Vec::new(),
            prim_delay: Vec::new(),
            prim_output: Vec::new(),
            input_start: vec![0],
            input_signal: Vec::new(),
            input_invert: Vec::new(),
            directives: Vec::new(),
            directive_text: String::new(),
            conn_wire_delays: Vec::new(),
            edge_delays: Vec::new(),
            signal_name: Vec::new(),
            signal_width: Vec::new(),
            signal_wired_or: Vec::new(),
            assertions: Vec::new(),
            signal_wire_delays: Vec::new(),
            by_name: NameIndex::default(),
            drivers: Csr {
                offsets: vec![0],
                items: Vec::new(),
            },
            fanout: Csr {
                offsets: vec![0],
                items: Vec::new(),
            },
        }
    }

    /// Gives back the columns' spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.prim_name.shrink_to_fit();
        self.prim_kind.shrink_to_fit();
        self.prim_delay.shrink_to_fit();
        self.prim_output.shrink_to_fit();
        self.input_start.shrink_to_fit();
        self.input_signal.shrink_to_fit();
        self.input_invert.shrink_to_fit();
        self.directives.shrink_to_fit();
        self.directive_text.shrink_to_fit();
        self.conn_wire_delays.shrink_to_fit();
        self.edge_delays.shrink_to_fit();
        self.signal_name.shrink_to_fit();
        self.signal_width.shrink_to_fit();
        self.signal_wired_or.shrink_to_fit();
        self.assertions.shrink_to_fit();
        self.signal_wire_delays.shrink_to_fit();
    }

    /// Checks every primitive in id order, reporting the first problem,
    /// then fills the driver and fan-out indexes.
    pub(crate) fn validate(&mut self) -> Result<(), NetlistError> {
        // The first driver seen of each signal, for the multiple-driver
        // check.
        let mut first_driver = vec![NO_OUTPUT; self.signal_count()];
        for (pid, prim) in self.iter_prims() {
            let found = prim.input_count();
            let need = prim.kind().required_inputs();
            if need.is_some_and(|need| need != found) || (need.is_none() && found == 0) {
                return Err(NetlistError::WrongInputCount {
                    prim: prim.name().to_owned(),
                    kind: prim.kind().type_name(found),
                    expected: need.unwrap_or(1),
                    found,
                });
            }
            for dir in prim.inputs().filter_map(ConnRef::directive) {
                if let Some(bad) = dir
                    .chars()
                    .find(|c| !matches!(c, 'E' | 'W' | 'Z' | 'A' | 'H'))
                {
                    return Err(NetlistError::InvalidDirective {
                        prim: prim.name().to_owned(),
                        directive: dir.to_owned(),
                        bad,
                    });
                }
            }
            match (prim.kind().has_output(), prim.output()) {
                (true, Some(out)) => {
                    let first = &mut first_driver[out.index()];
                    if *first == NO_OUTPUT {
                        *first = pid.0;
                    } else if !self.signal_wired_or[out.index()] {
                        return Err(NetlistError::MultipleDrivers {
                            signal: self.signal(out).name().to_owned(),
                            first: self.prim(PrimId(*first)).name().to_owned(),
                            second: prim.name().to_owned(),
                        });
                    }
                }
                (true, None) => {
                    return Err(NetlistError::MissingOutput {
                        prim: prim.name().to_owned(),
                    })
                }
                (false, Some(_)) => {
                    return Err(NetlistError::CheckerWithOutput {
                        prim: prim.name().to_owned(),
                    })
                }
                (false, None) => {}
            }
        }
        drop(first_driver);

        let rows = self.signal_count();
        self.drivers = Csr::by_counting(rows, || {
            (0..self.prim_count() as u32)
                .map(|p| (self.prim_output[p as usize], PrimId(p)))
                .filter(|&(out, _)| out != NO_OUTPUT)
                .map(|(out, p)| (out as usize, p))
        });
        // A primitive reading one signal on several pins is listed once.
        self.fanout = Csr::by_counting(rows, || {
            (0..self.prim_count()).flat_map(|p| {
                let ins = &self.input_signal
                    [self.input_start[p] as usize..self.input_start[p + 1] as usize];
                ins.iter()
                    .enumerate()
                    .filter(move |&(i, s)| !ins[..i].contains(s))
                    .map(move |(_, s)| (s.index(), PrimId(p as u32)))
            })
        });
        Ok(())
    }

    /// The design configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of signals.
    #[must_use]
    pub fn signal_count(&self) -> usize {
        self.signal_name.len()
    }

    /// Number of primitives.
    #[must_use]
    pub fn prim_count(&self) -> usize {
        self.prim_name.len()
    }

    /// Number of primitive input connections across the design: the
    /// length of the input CSR.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_signal.len()
    }

    /// Bytes of name text: every signal's base name and every
    /// primitive's instance name, as the name arena holds them.
    #[must_use]
    pub fn name_bytes(&self) -> usize {
        self.names.len()
    }

    /// The signal with the given id.
    #[must_use]
    pub fn signal(&self, id: SignalId) -> SignalRef<'_> {
        assert!(id.index() < self.signal_count(), "no signal {id:?}");
        SignalRef { netlist: self, id }
    }

    /// The primitive with the given id.
    #[must_use]
    pub fn prim(&self, id: PrimId) -> PrimRef<'_> {
        assert!(id.index() < self.prim_count(), "no primitive {id:?}");
        PrimRef { netlist: self, id }
    }

    /// Looks a signal up by base name (assertion suffix not included).
    #[must_use]
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.by_name.find(&self.names, &self.signal_name, name)
    }

    /// The signals that carry an assertion, ascending by id, with it.
    pub fn asserted_signals(&self) -> impl Iterator<Item = (SignalId, &Assertion)> {
        self.assertions.iter().map(|(s, a)| (*s, a))
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
        let mut in_cone = vec![false; self.prim_count()];
        let mut sig_seen = vec![false; self.signal_count()];
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
            if let Some(out) = self.prim(p).output() {
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

    /// Iterates over `(id, signal)` pairs in id order.
    pub fn iter_signals(&self) -> impl ExactSizeIterator<Item = (SignalId, SignalRef<'_>)> {
        (0..self.signal_count() as u32).map(move |i| {
            let id = SignalId(i);
            (id, SignalRef { netlist: self, id })
        })
    }

    /// Iterates over `(id, primitive)` pairs in id order.
    pub fn iter_prims(&self) -> impl ExactSizeIterator<Item = (PrimId, PrimRef<'_>)> {
        (0..self.prim_count() as u32).map(move |i| {
            let id = PrimId(i);
            (id, PrimRef { netlist: self, id })
        })
    }

    /// The effective interconnection delay for a connection: the
    /// per-connection override if given, else the source signal's
    /// override, else the design default (§2.5.3).
    #[must_use]
    pub fn wire_delay(&self, conn: ConnRef<'_>) -> DelayRange {
        conn.wire_delay()
            .or_else(|| self.signal(conn.signal()).wire_delay())
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
                .inputs()
                .map(|c| {
                    let mut s = String::new();
                    if c.invert() {
                        s.push('-');
                    }
                    s.push_str(self.signal(c.signal()).name());
                    if let Some(d) = c.directive() {
                        let _ = write!(s, " &{d}");
                    }
                    s
                })
                .collect();
            let output = p
                .output()
                .map_or(String::new(), |o| format!(" -> {}", self.signal(o).name()));
            let _ = writeln!(
                out,
                "{:<28} {:<10} ({}){}   [{}]",
                p.type_name(),
                p.delay().to_string(),
                inputs.join(", "),
                output,
                p.name()
            );
        }
        out
    }

    /// Histogram of primitive type names — the contents of Table 3-2.
    /// Returns `(type name, count)` sorted by descending count then name.
    #[must_use]
    pub fn primitive_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for (_, p) in self.iter_prims() {
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
        if self.prim_count() == 0 {
            return 0.0;
        }
        let total_bits: u64 = self
            .prim_output
            .iter()
            .map(|&out| {
                if out == NO_OUTPUT {
                    1
                } else {
                    u64::from(self.signal_width[out as usize].max(1))
                }
            })
            .sum();
        total_bits as f64 / self.prim_count() as f64
    }
}

/// A primitive of a [`Netlist`]: a `Copy` view over its columns.
#[derive(Clone, Copy)]
pub struct PrimRef<'a> {
    netlist: &'a Netlist,
    id: PrimId,
}

impl<'a> PrimRef<'a> {
    /// Hierarchical instance name (for reports), e.g. `ALU0/OUT REG`.
    #[must_use]
    pub fn name(self) -> &'a str {
        self.netlist.prim_name[self.id.index()].of(&self.netlist.names)
    }

    /// The primitive function and its parameters.
    #[must_use]
    pub fn kind(self) -> PrimKind {
        self.netlist.prim_kind[self.id.index()]
    }

    /// Min/max propagation delay from any input to the output. The thesis
    /// uses one delay per primitive; different per-input delays are
    /// modelled with buffer primitives on the inputs (§2.4.3).
    #[must_use]
    pub fn delay(self) -> DelayRange {
        self.netlist.prim_delay[self.id.index()]
    }

    /// Optional asymmetric rising/falling delays (§4.2.2 extension).
    /// When set on a unary primitive, output edges of known polarity use
    /// the matching range and [`delay`](Self::delay) is ignored; other
    /// primitives use [`EdgeDelays::envelope`].
    #[must_use]
    pub fn edge_delays(self) -> Option<EdgeDelays> {
        lookup(&self.netlist.edge_delays, self.id).copied()
    }

    /// The driven output signal; `None` for checkers.
    #[must_use]
    pub fn output(self) -> Option<SignalId> {
        let out = self.netlist.prim_output[self.id.index()];
        (out != NO_OUTPUT).then_some(SignalId(out))
    }

    fn slots(self) -> std::ops::Range<u32> {
        let start = &self.netlist.input_start;
        start[self.id.index()]..start[self.id.index() + 1]
    }

    /// Number of input connections.
    #[must_use]
    pub fn input_count(self) -> usize {
        self.slots().len()
    }

    /// The signals this primitive reads, ordered per the [`PrimKind`]
    /// conventions.
    #[must_use]
    pub fn input_signals(self) -> &'a [SignalId] {
        let slots = self.slots();
        &self.netlist.input_signal[slots.start as usize..slots.end as usize]
    }

    /// Input connection `i`.
    ///
    /// # Panics
    ///
    /// Panics if the primitive has no input `i`.
    #[must_use]
    pub fn input(self, i: usize) -> ConnRef<'a> {
        let slots = self.slots();
        assert!(i < slots.len(), "{} has no input {i}", self.name());
        ConnRef {
            netlist: self.netlist,
            slot: slots.start + i as u32,
        }
    }

    /// The input connections, ordered per the [`PrimKind`] conventions.
    pub fn inputs(self) -> impl ExactSizeIterator<Item = ConnRef<'a>> + DoubleEndedIterator {
        let netlist = self.netlist;
        self.slots().map(move |slot| ConnRef { netlist, slot })
    }

    /// The Table 3-2 display name of this instance's primitive type.
    #[must_use]
    pub fn type_name(self) -> String {
        self.kind().type_name(self.input_count())
    }
}

impl fmt::Debug for PrimRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Primitive")
            .field("name", &self.name())
            .field("kind", &self.kind())
            .field("delay", &self.delay())
            .field("edge_delays", &self.edge_delays())
            .field("inputs", &self.inputs().collect::<Vec<_>>())
            .field("output", &self.output())
            .finish()
    }
}

/// One input connection of a primitive: a `Copy` view of its slot in
/// the input CSR and the side tables.
#[derive(Clone, Copy)]
pub struct ConnRef<'a> {
    netlist: &'a Netlist,
    slot: u32,
}

impl<'a> ConnRef<'a> {
    /// The source signal.
    #[must_use]
    pub fn signal(self) -> SignalId {
        self.netlist.input_signal[self.slot as usize]
    }

    /// Whether the complement of the signal is used (`- NAME`).
    #[must_use]
    pub fn invert(self) -> bool {
        self.netlist.input_invert[self.slot as usize]
    }

    /// The evaluation-directive string on this connection (§2.6).
    #[must_use]
    pub fn directive(self) -> Option<&'a str> {
        lookup(&self.netlist.directives, self.slot).map(|s| s.of(&self.netlist.directive_text))
    }

    /// This connection's own wire-delay override; see
    /// [`Netlist::wire_delay`] for the effective delay.
    #[must_use]
    pub fn wire_delay(self) -> Option<DelayRange> {
        lookup(&self.netlist.conn_wire_delays, self.slot).copied()
    }

    /// The connection as a builder input.
    #[must_use]
    pub fn to_conn(self) -> Conn {
        Conn {
            signal: self.signal(),
            invert: self.invert(),
            directive: self.directive().map(str::to_owned),
            wire_delay: self.wire_delay(),
        }
    }
}

impl fmt::Debug for ConnRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Conn")
            .field("signal", &self.signal())
            .field("invert", &self.invert())
            .field("directive", &self.directive())
            .field("wire_delay", &self.wire_delay())
            .finish()
    }
}

/// A named signal (vector net): a `Copy` view over its columns. Each
/// signal carries *one* timing value no matter its bit width — the
/// vector-symmetry saving of §3.3.2.
#[derive(Clone, Copy)]
pub struct SignalRef<'a> {
    netlist: &'a Netlist,
    id: SignalId,
}

impl<'a> SignalRef<'a> {
    /// Base name, without the assertion suffix.
    #[must_use]
    pub fn name(self) -> &'a str {
        self.netlist.signal_name[self.id.index()].of(&self.netlist.names)
    }

    /// Bit width of the vector (1 for scalars).
    #[must_use]
    pub fn width(self) -> u32 {
        self.netlist.signal_width[self.id.index()]
    }

    /// The assertion parsed from the signal's full name, if any (§2.5).
    #[must_use]
    pub fn assertion(self) -> Option<&'a Assertion> {
        lookup(&self.netlist.assertions, self.id)
    }

    /// Overrides the design's default interconnection delay for wires
    /// driven by this signal (§2.5.3).
    #[must_use]
    pub fn wire_delay(self) -> Option<DelayRange> {
        lookup(&self.netlist.signal_wire_delays, self.id).copied()
    }

    /// Multiple drivers are allowed and joined with worst-case OR — the
    /// ECL wired-OR bus of the F10145A data sheet ("outputs can be
    /// wired-OR for easy memory expansion", Fig 3-1).
    #[must_use]
    pub fn wired_or(self) -> bool {
        self.netlist.signal_wired_or[self.id.index()]
    }

    /// The full display name including the assertion suffix.
    #[must_use]
    pub fn full_name(self) -> String {
        match self.assertion() {
            Some(a) => format!("{} {}", self.name(), a),
            None => self.name().to_owned(),
        }
    }
}

impl fmt::Debug for SignalRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signal")
            .field("name", &self.name())
            .field("width", &self.width())
            .field("assertion", &self.assertion())
            .field("wire_delay", &self.wire_delay())
            .field("wired_or", &self.wired_or())
            .finish()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_name_index_finds_every_name_across_growth() {
        let mut arena = String::new();
        let mut spans = Vec::new();
        let mut index = NameIndex::default();
        for i in 0..1000u32 {
            spans.push(Span::push(&mut arena, &format!("S{i}/Q")));
            index.insert(&arena, &spans, SignalId(i));
        }
        for i in 0..1000u32 {
            assert_eq!(
                index.find(&arena, &spans, &format!("S{i}/Q")),
                Some(SignalId(i))
            );
        }
        assert_eq!(index.find(&arena, &spans, "S1000/Q"), None);
        assert_eq!(index.find(&arena, &spans, ""), None);
        assert!(index.slots.len() * 3 > index.len * 4);
    }

    #[test]
    fn counting_packs_rows_in_pair_order() {
        let pairs = [
            (2, PrimId(0)),
            (0, PrimId(1)),
            (2, PrimId(2)),
            (0, PrimId(3)),
        ];
        let csr = Csr::by_counting(4, || pairs.iter().copied());
        assert_eq!(csr.row(0), [PrimId(1), PrimId(3)]);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), [PrimId(0), PrimId(2)]);
        assert!(csr.row(3).is_empty());
        assert_eq!((csr.rows(), csr.len()), (4, 4));
    }
}
