//! Storage accounting in the five categories of Table 3-3.
//!
//! The thesis reports the memory the Timing Verifier's data structures
//! required for the 6357-chip example: circuit description (37.8%), signal
//! values, signal names (11.6%), string space (10.6%), the CALL LIST ARRAY
//! (6.9%) and miscellaneous (0.7%), with an average of 2.97 value records
//! per signal. This module measures the same categories for any design,
//! using the thesis' storage model (the S-1 Mark I PASCAL compiler did not
//! pack records: four bytes per field, one byte per char/boolean) so the
//! *percentages* are directly comparable.

use scald_netlist::{Netlist, Signal};
use std::fmt::{self, Write as _};

use crate::view::StateView;

/// Bytes per unpacked PASCAL field on the S-1 Mark I (§3.3.2).
const FIELD: usize = 4;

/// Measured storage by Table 3-3 category, in 1980-model bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Circuit description: one record per primitive plus its parameter
    /// connections (the thesis measured ~260 bytes per primitive).
    pub circuit_description: usize,
    /// Signal values: a VALUE BASE record per signal plus its VALUE
    /// records (Fig 2-7).
    pub signal_values: usize,
    /// Signal name table: per-signal descriptors pointing at values,
    /// drivers and users.
    pub signal_names: usize,
    /// String space: the text of all signal and primitive names.
    pub string_space: usize,
    /// The CALL LIST ARRAY: which primitives to re-evaluate per signal.
    pub call_list: usize,
    /// Everything else (fixed overhead).
    pub miscellaneous: usize,
    /// Total value records across all signals.
    pub value_records: usize,
    /// Number of signals, for the records-per-signal average.
    pub signal_count: usize,
}

impl StorageReport {
    /// Measures a settled verifier's structures.
    #[must_use]
    pub(crate) fn measure<S: StateView + ?Sized>(netlist: &Netlist, states: &S) -> StorageReport {
        // Circuit description: a primitive header (kind, delay min/max,
        // output pointer, name pointer, width — 8 fields) plus a parameter
        // record per connection (signal pointer, flags, directive pointer,
        // wire delay pair — 6 fields).
        let circuit_description: usize = netlist
            .prims()
            .iter()
            .map(|p| 8 * FIELD + p.inputs.len() * 6 * FIELD)
            .sum();

        // Signal values: VALUE BASE record (free-storage link, skew,
        // eval-string pointer, value-list pointer — 4 fields) plus a VALUE
        // record (value, width — 2 fields) per run-length node.
        let value_records = value_records(netlist, states);
        let signal_values = netlist.signals().len() * 4 * FIELD + value_records * 2 * FIELD;

        // Signal names: per signal, pointers to the value definition, the
        // defining primitive and the user list, plus width/assertion
        // descriptors (6 fields).
        let signal_names = netlist.signals().len() * 6 * FIELD;

        // String space: the actual name text.
        let string_space: usize = netlist.signals().iter().map(full_name_len).sum::<usize>()
            + netlist.prims().iter().map(|p| p.name.len()).sum::<usize>();

        // CALL LIST ARRAY: one pointer per (signal, using primitive) pair.
        let call_list: usize = netlist
            .iter_signals()
            .map(|(sid, _)| netlist.fanout(sid).len() * FIELD)
            .sum();

        // Miscellaneous fixed structures (queues, configuration, roots).
        let miscellaneous = 2048;

        StorageReport {
            circuit_description,
            signal_values,
            signal_names,
            string_space,
            call_list,
            miscellaneous,
            value_records,
            signal_count: netlist.signals().len(),
        }
    }

    /// Total bytes across all categories.
    #[must_use]
    pub fn total(&self) -> usize {
        self.circuit_description
            + self.signal_values
            + self.signal_names
            + self.string_space
            + self.call_list
            + self.miscellaneous
    }

    /// Average value records per signal (the thesis measured 2.97).
    #[must_use]
    pub fn value_records_per_signal(&self) -> f64 {
        if self.signal_count == 0 {
            0.0
        } else {
            self.value_records as f64 / self.signal_count as f64
        }
    }

    /// The rows of Table 3-3: `(category, bytes, percent)`.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, usize, f64)> {
        let total = self.total().max(1) as f64;
        let pct = |b: usize| 100.0 * b as f64 / total;
        vec![
            (
                "CIRCUIT DESCRIPTION",
                self.circuit_description,
                pct(self.circuit_description),
            ),
            ("SIGNAL VALUES", self.signal_values, pct(self.signal_values)),
            ("SIGNAL NAMES", self.signal_names, pct(self.signal_names)),
            ("STRING SPACE", self.string_space, pct(self.string_space)),
            ("CALL LIST ARRAY", self.call_list, pct(self.call_list)),
            ("MISCELLANEOUS", self.miscellaneous, pct(self.miscellaneous)),
        ]
    }
}

/// Total value records (Fig 2-7 run-length nodes plus base records)
/// across every signal of `states`: the one Table 3-3 figure a run
/// changes.
pub(crate) fn value_records<S: StateView + ?Sized>(netlist: &Netlist, states: &S) -> usize {
    (0..netlist.signals().len())
        .map(|i| states.state_at(i).get().value_records())
        .sum()
}

/// Counts the bytes written through it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// `sig.full_name().len()` without formatting the name: the base name
/// plus a space and the assertion suffix, measured as it is written.
fn full_name_len(sig: &Signal) -> usize {
    let suffix = sig.assertion.as_ref().map_or(0, |a| {
        let mut n = ByteCount(0);
        write!(n, " {a}").expect("counting cannot fail");
        n.0
    });
    sig.name.len() + suffix
}

impl fmt::Display for StorageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<22} {:>12} {:>8}", "STORAGE AREA", "BYTES", "PERCENT")?;
        for (name, bytes, pct) in self.rows() {
            writeln!(f, "{name:<22} {bytes:>12} {pct:>7.1}%")?;
        }
        writeln!(f, "{:<22} {:>12} {:>8}", "TOTAL", self.total(), "100.0%")?;
        write!(
            f,
            "value records per signal: {:.2}",
            self.value_records_per_signal()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_netlist::{Config, NetlistBuilder};

    /// The measured length equals the formatted name's, for every
    /// assertion shape: stable and clock kinds, several ranges, a
    /// `+ns` width, explicit skew and active-low clocks.
    #[test]
    fn full_name_len_matches_the_formatted_name() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        for name in [
            "PLAIN",
            "W DATA .S0-6",
            "CK .P2-3",
            "CKC .C2-3,5-6 L",
            "SK .P1-2 (-0.5,1.25)",
            "WIDE .S2+10.25",
            "ÄPFEL .S0-4",
        ] {
            b.signal(name).unwrap();
        }
        let netlist = b.finish().unwrap();
        for sig in netlist.signals() {
            assert_eq!(
                full_name_len(sig),
                sig.full_name().len(),
                "{}",
                sig.full_name()
            );
        }
    }
}
