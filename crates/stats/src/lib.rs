//! Probability-based timing analysis (§1.4.1.2 and §4.2.4 of McWilliams
//! 1980): the DIGSIM-style alternative to min/max analysis, sketched in
//! the thesis as future work and implemented here as an extension.
//!
//! Instead of a `[min, max]` pair, every delay is a normal distribution.
//! Delays in series add (means and variances sum); converging paths take
//! the distribution of the *maximum*, computed with Clark's classic
//! moment-matching approximation, including a correlation coefficient —
//! the thesis' §4.2.3 point that delays from one production run are
//! correlated and ignoring that skews the prediction.
//!
//! A probabilistic counterpart of the worst-case path search propagates
//! arrival distributions through the same netlists and reports, per
//! endpoint, the probability that the constraint is violated — showing
//! the §1.4.1.2 observation that "a real design usually could be made to
//! run faster than [the min/max] system will predict".
//!
//! ```
//! use scald_stats::DelayDist;
//! use scald_wave::DelayRange;
//!
//! // Interpret a 1.5/4.5 ns data-sheet range as mean 3, sigma 0.5 (3-sigma).
//! let d = DelayDist::from_range(DelayRange::from_ns(1.5, 4.5));
//! assert!((d.mean - 3.0).abs() < 1e-9);
//! assert!((d.sigma - 0.5).abs() < 1e-9);
//! // Two in series.
//! let path = d.then(d);
//! assert!((path.mean - 6.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

use scald_netlist::{Netlist, PrimKind, SignalId};
use scald_wave::DelayRange;
use std::collections::VecDeque;
use std::f64::consts::{PI, SQRT_2};
use std::fmt;

/// Standard normal probability density function.
#[must_use]
pub fn phi(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// Error function, via the Abramowitz & Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
#[must_use]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / SQRT_2))
}

/// A delay modelled as a normal distribution (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayDist {
    /// Mean delay in ns.
    pub mean: f64,
    /// Standard deviation in ns.
    pub sigma: f64,
}

impl DelayDist {
    /// A deterministic (zero-variance) delay.
    #[must_use]
    pub fn exact(mean: f64) -> DelayDist {
        DelayDist { mean, sigma: 0.0 }
    }

    /// Interprets a data-sheet `[min, max]` range as a normal distribution
    /// with the range covering ±3σ — the conventional conversion when
    /// manufacturers only publish worst-case numbers (§1.4.1.2 discusses
    /// why distribution data is hard to obtain directly).
    #[must_use]
    pub fn from_range(range: DelayRange) -> DelayDist {
        let min = range.min.as_ns();
        let max = range.max.as_ns();
        DelayDist {
            mean: 0.5 * (min + max),
            sigma: (max - min) / 6.0,
        }
    }

    /// Variance in ns².
    #[must_use]
    pub fn var(self) -> f64 {
        self.sigma * self.sigma
    }

    /// Series composition: delays add, so means and variances add.
    #[must_use]
    pub fn then(self, other: DelayDist) -> DelayDist {
        DelayDist {
            mean: self.mean + other.mean,
            sigma: (self.var() + other.var()).sqrt(),
        }
    }

    /// Clark's approximation to the distribution of `max(self, other)`
    /// for jointly normal delays with correlation `rho` (§4.2.3).
    ///
    /// The result is moment-matched to a normal, as DIGSIM assumes
    /// (§1.4.1.2).
    #[must_use]
    pub fn max(self, other: DelayDist, rho: f64) -> DelayDist {
        let (m1, m2) = (self.mean, other.mean);
        let (v1, v2) = (self.var(), other.var());
        let a2 = v1 + v2 - 2.0 * rho * self.sigma * other.sigma;
        if a2 <= 1e-18 {
            // Effectively the same random variable: the max is the larger
            // mean.
            return if m1 >= m2 { self } else { other };
        }
        let a = a2.sqrt();
        let alpha = (m1 - m2) / a;
        let c1 = norm_cdf(alpha);
        let c2 = norm_cdf(-alpha);
        let p = phi(alpha);
        let mean = m1 * c1 + m2 * c2 + a * p;
        let second = (m1 * m1 + v1) * c1 + (m2 * m2 + v2) * c2 + (m1 + m2) * a * p;
        let var = (second - mean * mean).max(0.0);
        DelayDist {
            mean,
            sigma: var.sqrt(),
        }
    }

    /// The quantile `mean + z * sigma`, e.g. `z = 3.0` for a 99.87%
    /// arrival bound.
    #[must_use]
    pub fn quantile(self, z: f64) -> f64 {
        self.mean + z * self.sigma
    }

    /// Probability that this delay exceeds `deadline` ns.
    #[must_use]
    pub fn prob_exceeds(self, deadline: f64) -> f64 {
        if self.sigma <= 1e-12 {
            return if self.mean > deadline { 1.0 } else { 0.0 };
        }
        1.0 - norm_cdf((deadline - self.mean) / self.sigma)
    }
}

impl fmt::Display for DelayDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N({:.3}, {:.3}²) ns", self.mean, self.sigma)
    }
}

/// Per-endpoint result of the probabilistic path analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbReport {
    /// Endpoint signal name.
    pub endpoint: String,
    /// The constraining checker/storage primitive.
    pub constraint_source: String,
    /// Arrival-time distribution at the endpoint.
    pub arrival: DelayDist,
    /// The min/max worst-case arrival, for comparison.
    pub worst_case_ns: f64,
    /// The latest acceptable arrival (period minus the endpoint's
    /// set-up requirement), against which the violation probability and
    /// slack distribution are measured.
    pub deadline_ns: f64,
    /// Probability the set-up constraint is violated.
    pub violation_probability: f64,
}

impl ProbReport {
    /// The slack as a distribution: `deadline - arrival`, so a negative
    /// mean is a probable violation and `sigma` carries the arrival
    /// uncertainty through unchanged.
    #[must_use]
    pub fn slack(&self) -> DelayDist {
        DelayDist {
            mean: self.deadline_ns - self.arrival.mean,
            sigma: self.arrival.sigma,
        }
    }
}

/// Probabilistic counterpart of the worst-case path search: propagates
/// normal arrival distributions through the combinational graph, using
/// Clark's max with correlation `rho` at reconvergence.
#[derive(Debug)]
pub struct ProbPathAnalysis {
    arrivals: Vec<Option<DelayDist>>,
    reports: Vec<ProbReport>,
}

impl ProbPathAnalysis {
    /// Analyzes `netlist` with inter-path correlation `rho` in `[0, 1]`
    /// (0 = independent components, 1 = same production run, §4.2.3).
    #[must_use]
    pub fn analyze(netlist: &Netlist, rho: f64) -> ProbPathAnalysis {
        let n = netlist.signal_count();
        let period = netlist.config().timing.period.as_ns();
        let mut arrivals: Vec<Option<DelayDist>> = vec![None; n];
        let mut worst: Vec<Option<f64>> = vec![None; n];

        let is_comb = |kind: PrimKind| {
            matches!(
                kind,
                PrimKind::And
                    | PrimKind::Or
                    | PrimKind::Nand
                    | PrimKind::Nor
                    | PrimKind::Xor
                    | PrimKind::Xnor
                    | PrimKind::Not
                    | PrimKind::Buf
                    | PrimKind::Chg
                    | PrimKind::Delay
                    | PrimKind::Mux { .. }
            )
        };

        for (sid, _) in netlist.iter_signals() {
            match netlist.driver(sid) {
                None => {
                    arrivals[sid.index()] = Some(DelayDist::exact(0.0));
                    worst[sid.index()] = Some(0.0);
                }
                Some(pid) => {
                    let p = netlist.prim(pid);
                    if p.kind().is_storage() {
                        arrivals[sid.index()] = Some(DelayDist::from_range(p.delay()));
                        worst[sid.index()] = Some(p.delay().max.as_ns());
                    } else if matches!(p.kind(), PrimKind::Const(_)) {
                        arrivals[sid.index()] = Some(DelayDist::exact(0.0));
                        worst[sid.index()] = Some(0.0);
                    }
                }
            }
        }

        // Topological propagation (identical structure to scald-paths).
        let mut indegree: Vec<usize> = vec![0; netlist.prim_count()];
        for (pid, p) in netlist.iter_prims() {
            if is_comb(p.kind()) {
                indegree[pid.index()] = p
                    .inputs()
                    .filter(|c| {
                        netlist
                            .driver(c.signal())
                            .is_some_and(|d| is_comb(netlist.prim(d).kind()))
                    })
                    .count();
            }
        }
        let mut ready: VecDeque<_> = netlist
            .iter_prims()
            .filter(|(pid, p)| is_comb(p.kind()) && indegree[pid.index()] == 0)
            .map(|(pid, _)| pid)
            .collect();
        let mut processed = vec![false; netlist.prim_count()];
        while let Some(pid) = ready.pop_front() {
            if processed[pid.index()] {
                continue;
            }
            processed[pid.index()] = true;
            let p = netlist.prim(pid);
            let out = p.output().expect("combinational prims drive outputs");
            let mut acc: Option<DelayDist> = None;
            let mut acc_worst: Option<f64> = None;
            for c in p.inputs() {
                let Some(a) = arrivals[c.signal().index()] else {
                    continue;
                };
                let total = netlist.wire_delay(c).then(p.delay());
                let cand = a.then(DelayDist::from_range(total));
                acc = Some(match acc {
                    None => cand,
                    Some(prev) => prev.max(cand, rho),
                });
                if let Some(w) = worst[c.signal().index()] {
                    let cw = w + total.max.as_ns();
                    acc_worst = Some(acc_worst.map_or(cw, |p: f64| p.max(cw)));
                }
            }
            if let Some(a) = acc {
                arrivals[out.index()] = Some(a);
                worst[out.index()] = acc_worst;
            }
            for &next in netlist.fanout(out) {
                if is_comb(netlist.prim(next).kind()) && !processed[next.index()] {
                    let deg = &mut indegree[next.index()];
                    *deg = deg.saturating_sub(1);
                    if *deg == 0 {
                        ready.push_back(next);
                    }
                }
            }
        }

        let mut reports = Vec::new();
        for (_, p) in netlist.iter_prims() {
            let (conn, setup) = match p.kind() {
                PrimKind::SetupHold { setup, .. } | PrimKind::SetupRiseHoldFall { setup, .. } => {
                    (p.input(0), setup.as_ns())
                }
                PrimKind::Reg { .. } | PrimKind::Latch { .. } => (p.input(1), 0.0),
                _ => continue,
            };
            let sid = conn.signal();
            let (Some(arrival), Some(w)) = (arrivals[sid.index()], worst[sid.index()]) else {
                continue;
            };
            let deadline = period - setup;
            reports.push(ProbReport {
                endpoint: netlist.signal(sid).name().to_owned(),
                constraint_source: p.name().to_owned(),
                arrival,
                worst_case_ns: w,
                deadline_ns: deadline,
                violation_probability: arrival.prob_exceeds(deadline),
            });
        }
        ProbPathAnalysis { arrivals, reports }
    }

    /// Arrival distribution of a signal, if reachable.
    #[must_use]
    pub fn arrival(&self, sid: SignalId) -> Option<DelayDist> {
        self.arrivals[sid.index()]
    }

    /// All endpoint reports.
    #[must_use]
    pub fn reports(&self) -> &[ProbReport] {
        &self.reports
    }

    /// Endpoints whose violation probability exceeds `threshold`.
    #[must_use]
    pub fn violations(&self, threshold: f64) -> Vec<&ProbReport> {
        self.reports
            .iter()
            .filter(|r| r.violation_probability > threshold)
            .collect()
    }

    /// Verifies every endpoint at a confidence level — §4.2.4's "checked
    /// to see that all of the paths in it are within their required limits
    /// with a specified level of probability".
    ///
    /// `confidence` is the required probability of meeting timing, e.g.
    /// `0.9987` for a 3σ design. Returns the endpoints that fail.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not within `(0, 1)`.
    #[must_use]
    pub fn verify_at_confidence(&self, confidence: f64) -> Vec<&ProbReport> {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1), got {confidence}"
        );
        self.violations(1.0 - confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_netlist::{Config, Conn, NetlistBuilder};
    use scald_rng::Rng;

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn series_composition() {
        let a = DelayDist {
            mean: 3.0,
            sigma: 0.4,
        };
        let b = DelayDist {
            mean: 2.0,
            sigma: 0.3,
        };
        let c = a.then(b);
        assert!((c.mean - 5.0).abs() < 1e-12);
        assert!((c.var() - 0.25).abs() < 1e-12);
    }

    /// Clark's max vs Monte Carlo with a Box-Muller sampler.
    #[test]
    fn clark_max_matches_monte_carlo() {
        let a = DelayDist {
            mean: 10.0,
            sigma: 1.0,
        };
        let b = DelayDist {
            mean: 10.5,
            sigma: 2.0,
        };
        let clark = a.max(b, 0.0);
        let mut rng = Rng::seed_from_u64(42);
        let mut normal = move || {
            let u1: f64 = rng.range_f64(1e-12, 1.0);
            let u2: f64 = rng.range_f64(0.0, 1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
        };
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = a.mean + a.sigma * normal();
            let y = b.mean + b.sigma * normal();
            let m = x.max(y);
            sum += m;
            sum2 += m * m;
        }
        let mc_mean = sum / f64::from(n);
        let mc_var = sum2 / f64::from(n) - mc_mean * mc_mean;
        assert!(
            (clark.mean - mc_mean).abs() < 0.02,
            "clark {} vs mc {}",
            clark.mean,
            mc_mean
        );
        assert!(
            (clark.var() - mc_var).abs() < 0.1,
            "clark var {} vs mc var {}",
            clark.var(),
            mc_var
        );
    }

    #[test]
    fn perfectly_correlated_max_degenerates() {
        let a = DelayDist {
            mean: 10.0,
            sigma: 1.0,
        };
        let b = DelayDist {
            mean: 12.0,
            sigma: 1.0,
        };
        // Same sigma, rho = 1: the max is simply the larger-mean branch.
        let m = a.max(b, 1.0);
        assert!((m.mean - 12.0).abs() < 1e-9);
    }

    #[test]
    fn prob_exceeds_monotone() {
        let d = DelayDist {
            mean: 10.0,
            sigma: 1.0,
        };
        assert!(d.prob_exceeds(8.0) > 0.97);
        assert!((d.prob_exceeds(10.0) - 0.5).abs() < 1e-6);
        assert!(d.prob_exceeds(13.0) < 0.01);
        let exact = DelayDist::exact(5.0);
        assert_eq!(exact.prob_exceeds(4.0), 1.0);
        assert_eq!(exact.prob_exceeds(6.0), 0.0);
    }

    /// The §1.4.1.2 claim: a chain of components rarely has every stage at
    /// its maximum, so the 3-sigma probabilistic bound is tighter than the
    /// min/max worst case.
    #[test]
    fn probabilistic_bound_tighter_than_worst_case_on_chain() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let clk = b.signal("CK .P0-1").unwrap();
        let d = b.signal("D").unwrap();
        let mut cur = b.signal("Q0").unwrap();
        b.reg(
            "R0",
            DelayRange::from_ns(1.5, 4.5),
            Conn::new(clk).with_wire_delay(DelayRange::ZERO),
            Conn::new(d).with_wire_delay(DelayRange::ZERO),
            cur,
        );
        for i in 0..8 {
            let next = b.signal(&format!("N{i}")).unwrap();
            b.buf(
                format!("B{i}"),
                DelayRange::from_ns(1.0, 4.0),
                Conn::new(cur).with_wire_delay(DelayRange::ZERO),
                next,
            );
            cur = next;
        }
        b.setup_hold(
            "END CHK",
            scald_wave::Time::from_ns(2.5),
            scald_wave::Time::from_ns(0.0),
            Conn::new(cur).with_wire_delay(DelayRange::ZERO),
            Conn::new(clk).with_wire_delay(DelayRange::ZERO),
        );
        let n = b.finish().unwrap();
        let an = ProbPathAnalysis::analyze(&n, 0.0);
        let r = an
            .reports()
            .iter()
            .find(|r| r.constraint_source == "END CHK")
            .unwrap();
        // Worst case: 4.5 + 8*4 = 36.5 ns. 3-sigma bound must be tighter.
        assert!((r.worst_case_ns - 36.5).abs() < 1e-9);
        assert!(
            r.arrival.quantile(3.0) < r.worst_case_ns,
            "3-sigma {} !< worst {}",
            r.arrival.quantile(3.0),
            r.worst_case_ns
        );
        // And the deadline (50 - 2.5) is comfortably met.
        assert!(r.violation_probability < 1e-6);
    }

    #[test]
    fn confidence_level_verification() {
        // A path that misses the deadline on average: tighten the period
        // by using a huge setup so the deadline sits below the mean.
        let mut b = NetlistBuilder::new(Config::s1_example());
        let clk = b.signal("CK .P0-1").unwrap();
        let d = b.signal("D").unwrap();
        let q = b.signal("Q").unwrap();
        let m = b.signal("M").unwrap();
        let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
        b.reg("R", DelayRange::from_ns(1.5, 4.5), z(clk), z(d), q);
        b.buf("SLOW", DelayRange::from_ns(30.0, 46.0), z(q), m);
        b.setup_hold(
            "CHK",
            scald_wave::Time::from_ns(10.0),
            scald_wave::Time::from_ns(0.0),
            z(m),
            z(clk),
        );
        let n = b.finish().unwrap();
        let an = ProbPathAnalysis::analyze(&n, 0.0);
        // Deadline 40 ns; mean arrival = 3 + 38 = 41 ns: fails at any
        // reasonable confidence.
        let failures = an.verify_at_confidence(0.9987);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].violation_probability > 0.5);
        // A lax 20% confidence bar passes it.
        assert!(an.verify_at_confidence(0.2).is_empty());
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn confidence_bounds_checked() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let a = b.signal("A").unwrap();
        let q = b.signal("Q").unwrap();
        b.buf("B", DelayRange::from_ns(1.0, 2.0), Conn::new(a), q);
        let an = ProbPathAnalysis::analyze(&b.finish().unwrap(), 0.0);
        let _ = an.verify_at_confidence(1.0);
    }

    /// With full correlation the reconvergent max degenerates; ignoring
    /// correlation overstates the mean (§4.2.4's warning).
    #[test]
    fn correlation_changes_the_answer() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let a = b.signal("A").unwrap();
        let x = b.signal("X").unwrap();
        let y = b.signal("Y").unwrap();
        let q = b.signal("Q").unwrap();
        let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
        b.buf("B1", DelayRange::from_ns(5.0, 11.0), z(a), x);
        b.buf("B2", DelayRange::from_ns(5.0, 11.0), z(a), y);
        b.and2("J", DelayRange::ZERO, z(x), z(y), q);
        let n = b.finish().unwrap();
        let independent = ProbPathAnalysis::analyze(&n, 0.0);
        let correlated = ProbPathAnalysis::analyze(&n, 1.0);
        let qi = independent.arrival(q).unwrap();
        let qc = correlated.arrival(q).unwrap();
        assert!(qi.mean > qc.mean);
    }
}
