//! Percentiles over raw samples, the per-op layer-conservation check, and
//! the regression gate the self-test drives.
//!
//! Every percentile here is computed from the sorted raw samples — never
//! from a bucketed histogram, whose bucket edges would make the same load
//! print different numbers from run to run.

use std::time::Instant;

/// The median of `values` (any order): the middle order statistic, or
/// the mean of the two middle ones for an even count — which stays put
/// when two ops of near-equal duration swap places across the middle.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The Harrell–Davis estimate of quantile `p` (0 < p < 1) of `sorted`
/// (ascending): a Beta-weighted mean of every order statistic centred on
/// rank `p·n`. A campaign pass is a few dozen ops of fixed, widely spread
/// durations, so a single order statistic jumps whenever two ops near the
/// rank trade places; this estimate moves smoothly instead.
pub fn hd_quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0 && p > 0.0 && p < 1.0, "quantile {p} of {n} samples");
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let mut prev = 0.0;
    let mut acc = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = inc_beta((i + 1) as f64 / n as f64, a, b);
        acc += (cdf - prev) * x;
        prev = cdf;
    }
    acc
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let sum = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + (i + 1) as f64));
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The regularized incomplete beta function I_x(a, b).
fn inc_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

/// The continued fraction of the incomplete beta function (modified
/// Lentz).
fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=1000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// The samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The Harrell–Davis estimate at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `sorted` (ascending) with at least
/// [`TAIL_BEYOND`] samples beyond it; `None` when the sample is too small
/// to have one.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p = (n - TAIL_BEYOND) as f64 / n as f64;
    Some(Tail {
        value: hd_quantile(sorted, p),
        percentile: 100.0 * p,
        samples: n,
    })
}

/// The cost of one clock read, calibrated at start-up: the unattributed
/// time a traced op may carry for every gap between its stage spans.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Median back-to-back `Instant::now()` delta, in ns (the read cost).
    pub read_ns: u64,
    /// Smallest non-zero back-to-back delta, in ns (the granularity).
    pub granularity_ns: u64,
}

impl Clock {
    /// Measures the clock over a few thousand back-to-back reads.
    pub fn calibrate() -> Clock {
        let mut deltas = Vec::with_capacity(4096);
        let mut last = Instant::now();
        for _ in 0..4096 {
            let now = Instant::now();
            deltas.push(now.duration_since(last).as_nanos() as u64);
            last = now;
        }
        deltas.sort_unstable();
        Clock {
            read_ns: deltas[deltas.len() / 2].max(1),
            granularity_ns: deltas.iter().copied().find(|&d| d > 0).unwrap_or(1),
        }
    }

    /// The unattributed time allowed for an op of `wall_ns` with `parts`
    /// stage spans: for each of its `parts + 1` gaps, a few clock reads
    /// (the read itself plus handing a stage's result to the next one)
    /// and one granule; plus [`COLD_GLUE`] of the op's wall time, since
    /// after a stage that swept megabytes the glue between spans runs
    /// with cold caches.
    pub fn tolerance_ns(&self, parts: usize, wall_ns: u64) -> u64 {
        (parts as u64 + 1) * (GAP_READS * self.read_ns + self.granularity_ns)
            + (wall_ns as f64 * COLD_GLUE) as u64
    }
}

/// Clock-read costs one gap between stage spans may take.
const GAP_READS: u64 = 16;
/// Share of an op's wall time its cold-cache glue may take.
const COLD_GLUE: f64 = 1e-3;

/// The outcome of the layer-conservation check over a traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Conservation {
    /// Ops checked.
    pub ops: u64,
    /// Ops whose stage spans left more than the clock tolerance of their
    /// wall time unattributed (or overran it).
    pub violations: u64,
    /// Summed op wall time, in ns.
    pub wall_ns: u64,
    /// Summed unattributed time (wall minus stage spans), in ns.
    pub unattributed_ns: u64,
}

/// At most this share of ops may break conservation (a timer interrupt
/// that lands between two stage spans is time no layer spent), and at
/// most this share of the summed op time may be unattributed.
pub const CONSERVATION_SLACK: f64 = 0.01;

impl Conservation {
    /// Checks one op: `wall_ns` against the stage spans `parts_ns`.
    pub fn check(&mut self, clock: &Clock, wall_ns: u64, parts_ns: &[u64]) {
        let attributed: u64 = parts_ns.iter().sum();
        let gap = wall_ns.abs_diff(attributed);
        self.ops += 1;
        self.wall_ns += wall_ns;
        self.unattributed_ns += gap;
        if attributed > wall_ns || gap > clock.tolerance_ns(parts_ns.len(), wall_ns) {
            self.violations += 1;
        }
    }

    /// Whether the stage spans add back up to the op wall times.
    pub fn holds(&self) -> bool {
        self.ops > 0
            && self.violations as f64 <= CONSERVATION_SLACK * self.ops as f64
            && self.unattributed_ns as f64 <= CONSERVATION_SLACK * self.wall_ns as f64
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, ratios of good outcomes).
    Higher,
}

/// The share of paired runs the candidate must lose before the gate
/// flags it.
#[cfg(test)]
pub const GATE_LOSSES: f64 = 0.75;
/// The smallest median paired worsening the gate flags.
#[cfg(test)]
pub const GATE_FLOOR: f64 = 0.10;

/// The regression gate over paired runs (`base[i]` and `candidate[i]`
/// measured back to back): `true` when the candidate is worse in at least
/// [`GATE_LOSSES`] of the pairs and by a median of more than
/// [`GATE_FLOOR`]. Pairing cancels the drift of a shared machine, which
/// moves both runs of a pair together. The self-test drives it;
/// `BENCHMARK.json`'s bounds are the coarser gate between two sets of
/// whole runs.
#[cfg(test)]
pub fn regressed(base: &[f64], candidate: &[f64], better: Better) -> bool {
    assert_eq!(base.len(), candidate.len(), "the gate compares pairs");
    let worse: Vec<f64> = base
        .iter()
        .zip(candidate)
        .map(|(&b, &c)| match better {
            Better::Lower => c / b - 1.0,
            Better::Higher => 1.0 - c / b,
        })
        .collect();
    let losses = worse.iter().filter(|&&w| w > 0.0).count();
    losses as f64 >= GATE_LOSSES * worse.len() as f64 && median(&worse) > GATE_FLOOR
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn medians_are_exact_on_raw_samples() {
        assert_eq!(median(&ramp(101)), 51.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(
            median(&[1.0, 2.0, 9.0, 10.0]),
            median(&[1.0, 9.0, 2.0, 10.0])
        );
        // Values a power-of-two histogram would merge stay distinct.
        assert_eq!(median(&[129.0, 130.0, 250.0]), 130.0);
    }

    #[test]
    fn harrell_davis_is_smooth_and_centred() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b.abs().max(1.0);
        assert!(close(inc_beta(0.5, 3.0, 3.0), 0.5));
        assert!(close(inc_beta(0.3, 1.0, 1.0), 0.3));
        assert!(close(ln_gamma(5.0), 24f64.ln()));
        assert!(close(hd_quantile(&[7.0; 9], 0.9), 7.0));
        // Symmetric weights centre the median of a ramp exactly.
        assert!(close(hd_quantile(&ramp(101), 0.5), 51.0));
        let v = ramp(60);
        let (lo, hi) = (hd_quantile(&v, 0.5), hd_quantile(&v, 0.9));
        assert!(lo < hi && (hi - 54.5).abs() < 1.0, "{lo} {hi}");
        // A gap between two neighbours near the rank moves the estimate
        // only partly, where an order statistic would jump all the way.
        let mut gap = ramp(60);
        for x in &mut gap[50..] {
            *x += 30.0;
        }
        let (a, b) = (
            hd_quantile(&gap, 49.0 / 60.0),
            hd_quantile(&gap, 51.0 / 60.0),
        );
        assert!(b - a < 30.0, "{a} {b}");
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!(t.samples, 11);
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert!((t.value - 90.5).abs() < 0.5, "{}", t.value);
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert!((t.value - 990.5).abs() < 0.5, "{}", t.value);
    }

    #[test]
    fn conservation_flags_unattributed_and_overlapping_time() {
        let clock = Clock {
            read_ns: 20,
            granularity_ns: 10,
        };
        assert_eq!(clock.tolerance_ns(3, 0), 1_320);
        assert_eq!(clock.tolerance_ns(3, 10_000_000), 11_320);
        let mut c = Conservation::default();
        c.check(&clock, 10_000, &[4_000, 3_000, 2_700]); // 300 ns of gaps: fine
        assert_eq!(c.violations, 0);
        c.check(&clock, 10_000, &[4_000, 3_000]); // 3 µs no layer owns
        assert_eq!(c.violations, 1);
        c.check(&clock, 10_000, &[6_000, 5_000]); // overlapping spans
        assert_eq!(c.violations, 2);
        assert_eq!(c.ops, 3);
        assert_eq!(c.unattributed_ns, 300 + 3_000 + 1_000);
        assert!(!c.holds());
        let mut ok = Conservation::default();
        for _ in 0..200 {
            ok.check(&clock, 10_000, &[5_000, 4_950]);
        }
        ok.check(&clock, 10_000, &[9_000]); // one interrupt-sized gap in 201 ops
        assert!(ok.holds());
        // Every op within tolerance, yet a steady unattributed share above
        // the slack: a missing layer, not interrupts.
        let mut thin = Conservation::default();
        for _ in 0..100 {
            thin.check(&clock, 1_000, &[500, 300]);
        }
        assert_eq!(thin.violations, 0);
        assert!(!thin.holds());
    }

    #[test]
    fn calibrated_clock_is_positive() {
        let c = Clock::calibrate();
        assert!(c.read_ns >= 1 && c.granularity_ns >= 1);
    }

    #[test]
    fn gate_needs_most_pairs_lost_and_the_floor() {
        let base = [100.0, 140.0, 90.0, 120.0, 100.0];
        let slow = base.map(|b| b * 1.2);
        assert!(regressed(&base, &slow, Better::Lower));
        assert!(!regressed(&base, &base.map(|b| b * 1.05), Better::Lower)); // under the floor
        assert!(!regressed(&base, &base.map(|b| b * 0.8), Better::Lower)); // an improvement
        assert!(regressed(&base, &base.map(|b| b * 0.8), Better::Higher));
        let mut mixed = slow;
        mixed[1] = 130.0; // two pairs won: 3 of 5 lost is under 75%
        mixed[3] = 110.0;
        assert!(!regressed(&base, &mixed, Better::Lower));
    }
}
