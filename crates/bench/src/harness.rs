//! The bench harness (std only, no external crates): the wall-clock
//! loop the `cargo bench` targets share, the flag parser and record
//! writer of the `src/bin/` binaries, timing helpers, and the fixtures
//! more than one bench builds.
//!
//! `cargo bench` runs each `[[bench]]` target's `main()` with
//! `harness = false`; [`Bench`] supplies the measurement loop those
//! targets share. Each benchmark is auto-calibrated to a target batch
//! time, run for a fixed number of batches, and reported as
//! `min / median / mean` nanoseconds per iteration. Substring filters
//! passed on the command line (`cargo bench -- skew`) select benchmarks
//! by name.
//!
//! A binary reads its flags through [`flags`], naming each flag with
//! its default where it reads it, and writes its JSON record through
//! [`write_record`].

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

use scald_gen::s1::{s1_like_netlist, S1Options, S1Stats};
use scald_incr::{Delta, NetlistDelta, Session};
use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, SignalId};
use scald_trace::json::Json;
use scald_verifier::{Case, CaseResult, RunOptions, Verifier};
use scald_wave::{DelayRange, Time};

/// Re-export so bench targets don't need to name `std::hint` themselves.
pub use std::hint::black_box;

/// Target wall-clock time per measured batch.
const BATCH_TARGET: Duration = Duration::from_millis(40);
/// Measured batches per benchmark (excluding warm-up).
const BATCHES: usize = 7;

/// Bench runner: owns the name filter and prints one line per benchmark.
pub struct Bench {
    filters: Vec<String>,
}

impl Bench {
    /// Builds a runner from `std::env::args`, treating every non-flag
    /// argument as a substring filter on benchmark names. (`cargo bench`
    /// also passes `--bench`, which is ignored.)
    #[must_use]
    pub fn from_args() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Bench { filters }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// Benchmarks `routine`, timing the whole closure.
    pub fn bench<T>(&self, name: &str, mut routine: impl FnMut() -> T) {
        self.bench_with_setup(name, || (), |()| routine());
    }

    /// Benchmarks `routine` with a fresh, untimed `setup` product per
    /// iteration — the equivalent of batched benching for routines that
    /// consume their input (e.g. `Verifier::new(netlist)`).
    pub fn bench_with_setup<S, T>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        if !self.selected(name) {
            return;
        }

        // Calibrate: how many iterations fill one batch?
        let mut iters = 1u64;
        loop {
            let elapsed = run_batch(iters, &mut setup, &mut routine);
            if elapsed >= BATCH_TARGET || iters >= 1 << 20 {
                break;
            }
            // Grow geometrically toward the target, at least doubling.
            let scale = BATCH_TARGET.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            iters = (iters.saturating_mul(scale.ceil() as u64)).max(iters * 2);
        }

        let mut per_iter: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let elapsed = run_batch(iters, &mut setup, &mut routine);
                elapsed.as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        println!(
            "{name:<44} {:>12} /iter  (min {}, mean {}, {iters} iters x {BATCHES})",
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(mean),
        );
    }
}

/// Runs one timed batch: `iters` iterations, setup excluded from timing.
fn run_batch<S, T>(
    iters: u64,
    setup: &mut impl FnMut() -> S,
    routine: &mut impl FnMut(S) -> T,
) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let input = setup();
        let start = Instant::now();
        let out = routine(input);
        total += start.elapsed();
        black_box(out);
    }
    total
}

/// Formats nanoseconds with a human unit, e.g. `12.3 µs`.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The `--flag value` arguments of a bench binary, read by [`flags`].
pub struct Flags {
    args: Vec<String>,
    known: Vec<&'static str>,
    error: Option<String>,
}

impl Flags {
    /// The value of `flag`, or `default` when it is not given.
    pub fn get<T: FromStr>(&mut self, flag: &'static str, default: T) -> T
    where
        T::Err: Display,
    {
        self.parsed(flag, default, str::parse)
    }

    /// A comma-separated list flag, e.g. `--counts 10,100,1000`.
    pub fn list<T: FromStr>(&mut self, flag: &'static str, default: Vec<T>) -> Vec<T>
    where
        T::Err: Display,
    {
        self.parsed(flag, default, |v| {
            v.split(',').map(|s| s.trim().parse()).collect()
        })
    }

    fn parsed<T, E: Display>(
        &mut self,
        flag: &'static str,
        default: T,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> T {
        self.known.push(flag);
        let Some(at) = self.args.iter().position(|a| a == flag) else {
            return default;
        };
        let error = match self.args.get(at + 1).filter(|v| !v.starts_with("--")) {
            None => format!("{flag} needs a value"),
            Some(v) => match parse(v) {
                Ok(value) => return value,
                Err(e) => format!("{flag} {v:?}: {e}"),
            },
        };
        self.error.get_or_insert(error);
        default
    }

    /// The first error [`get`](Self::get) or [`list`](Self::list) met,
    /// else the first argument no read named.
    fn check(self) -> Result<(), String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut args = self.args.iter();
        while let Some(a) = args.next() {
            if !self.known.contains(&a.as_str()) {
                return Err(if a.starts_with("--") {
                    format!("unknown flag {a}")
                } else {
                    format!("unexpected argument {a:?}")
                });
            }
            // Its value, which the read already parsed.
            args.next();
        }
        Ok(())
    }
}

/// Reads a bench binary's flags from the command line: `read` names each
/// flag with its default. An unknown flag, a flag with no value or a
/// malformed value prints an error naming the flag and exits 2.
pub fn flags<T>(read: impl FnOnce(&mut Flags) -> T) -> T {
    parse_flags(std::env::args().skip(1), read).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`flags`] over `args`, returning the error instead of exiting.
fn parse_flags<T>(
    args: impl IntoIterator<Item = String>,
    read: impl FnOnce(&mut Flags) -> T,
) -> Result<T, String> {
    let mut flags = Flags {
        args: args.into_iter().collect(),
        known: Vec::new(),
        error: None,
    };
    let value = read(&mut flags);
    flags.check().map(|()| value)
}

/// A JSON object of `fields`, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The text [`write_record`] writes.
fn record<'a>(
    schema: &str,
    version: u64,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> String {
    let head = [
        ("schema", Json::str(schema)),
        ("version", Json::from(version)),
    ];
    obj(head.into_iter().chain(fields)).to_string_pretty()
}

/// Writes a bench record to `path` — `schema` and `version` first, then
/// `fields`, as pretty JSON ending in exactly one newline — and names
/// the file on stdout.
pub fn write_record<'a>(
    path: impl AsRef<Path>,
    schema: &str,
    version: u64,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) {
    let path = path.as_ref();
    std::fs::write(path, record(schema, version, fields))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("recorded {}", path.display());
}

/// Runs `f`, returning its value and wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// `d` in nanoseconds, saturating at `u64::MAX`.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The median of `samples` (the upper middle one of an even count),
/// sorting them in place.
#[must_use]
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by nearest rank; 0 when
/// there are no samples.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The S-1-like design at `chips` chips and the generator's default seed.
#[must_use]
pub fn s1_netlist(chips: usize) -> (Netlist, S1Stats) {
    s1_like_netlist(S1Options {
        chips,
        ..S1Options::default()
    })
}

/// One plain verification pass over `netlist` (no cases).
#[must_use]
pub fn verify(netlist: Netlist) -> CaseResult {
    let mut v = Verifier::new(netlist);
    v.run(&RunOptions::new()).expect("settles").into_sole()
}

/// Eight single-assignment cases over the S-1-like generator's global
/// controls: case `i` sets `CTL i` to 1 for even `i`, to 0 for odd.
#[must_use]
pub fn ctl_cases() -> Vec<Case> {
    (0..8)
        .map(|i| Case::new().assign(format!("CTL {i}"), i % 2 == 0))
        .collect()
}

/// The retime target of an S-1-like design: the name and delay of its
/// first datapath primitive (`…/LOGIC`).
#[must_use]
pub fn logic_prim(netlist: &Netlist) -> (String, DelayRange) {
    let prim = netlist
        .prims()
        .iter()
        .find(|p| p.name.ends_with("/LOGIC"))
        .expect("generated design has datapath slices");
    (prim.name.clone(), prim.delay)
}

/// Ten retimes of `target`, to 2.0–6.5 ns and back to `original` five
/// times, so every second edit replays a design state the session has
/// seen. Returns the summed wall clock and events of the ten applies.
pub fn retime_replay(session: &mut Session, target: &str, original: DelayRange) -> (Duration, u64) {
    (0..10).fold((Duration::ZERO, 0), |(wall, events), edit| {
        let delay = if edit % 2 == 0 {
            DelayRange::from_ns(2.0, 6.5)
        } else {
            original
        };
        let mut delta = NetlistDelta::new();
        delta.retime(target.to_owned(), delay);
        let stats = session
            .apply(Delta::Netlist(delta))
            .expect("retime applies");
        (wall + stats.wall, events + stats.events)
    })
}

/// A register bank fed by `n` mux-selected paths: each select input
/// doubles the number of distinct timing paths.
#[must_use]
pub fn muxed_paths_circuit(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let clk = b.signal("CK .P6-7 (0,0)").expect("valid");
    let z = |s: SignalId| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    for i in 0..n {
        let sel = b.signal(&format!("SEL{i}")).expect("valid");
        let fast = b.signal(&format!("FAST{i} .S0-1")).expect("valid");
        let slow_in = b.signal(&format!("SLOWIN{i} .S0-1")).expect("valid");
        let slow = b.signal(&format!("SLOW{i}")).expect("valid");
        let m = b.signal(&format!("M{i}")).expect("valid");
        let q = b.signal(&format!("Q{i}")).expect("valid");
        b.buf(
            format!("SLOWBUF{i}"),
            DelayRange::from_ns(33.0, 36.0),
            z(slow_in),
            slow,
        );
        b.mux2(
            format!("MUX{i}"),
            DelayRange::from_ns(1.2, 3.3),
            z(sel),
            z(fast),
            z(slow),
            m,
        );
        b.reg(
            format!("R{i}"),
            DelayRange::from_ns(1.5, 4.5),
            z(clk),
            z(m),
            q,
        );
        b.setup_hold(
            format!("R{i} CHK"),
            Time::from_ns(2.5),
            Time::from_ns(1.5),
            z(m),
            z(clk),
        );
    }
    b.finish().expect("circuit is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chips(args: &[&str], default: usize) -> Result<usize, String> {
        parse_flags(args.iter().map(|&a| a.to_owned()), |f| {
            f.get("--chips", default)
        })
    }

    #[test]
    fn formats_scale_units() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn an_unknown_flag_is_an_error_naming_it() {
        let e = chips(&["--chip", "40"], 400).unwrap_err();
        assert_eq!(e, "unknown flag --chip");
    }

    #[test]
    fn a_flag_with_no_value_is_an_error_naming_it() {
        for args in [&["--chips"][..], &["--chips", "--out", "x"]] {
            let e = chips(args, 400).unwrap_err();
            assert!(e.contains("--chips"), "{e}");
        }
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_the_flag() {
        let e = chips(&["--chips", "abc"], 400).unwrap_err();
        assert!(e.contains("--chips"), "{e}");
        let e = parse_flags(["--counts".to_owned(), "10,x".to_owned()], |f| {
            f.list("--counts", vec![10usize])
        })
        .unwrap_err();
        assert!(e.contains("--counts"), "{e}");
    }

    #[test]
    fn a_given_value_wins_even_when_it_is_another_default() {
        assert_eq!(chips(&["--chips", "6357"], 2000), Ok(6357));
        assert_eq!(chips(&[], 2000), Ok(2000));
        let counts = parse_flags(["--counts".to_owned(), "10, 1000".to_owned()], |f| {
            f.list("--counts", vec![5usize])
        });
        assert_eq!(counts, Ok(vec![10, 1000]));
    }

    #[test]
    fn a_record_leads_with_its_schema_and_ends_in_one_newline() {
        let text = record("scald-bench-test", 3, [("chips", Json::from(40u64))]);
        assert!(text.ends_with("}\n"), "{text:?}");
        let doc = scald_trace::json::parse(&text).expect("a record parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("a record is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["schema", "version", "chips"]);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("scald-bench-test")
        );
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(3));
    }
}
