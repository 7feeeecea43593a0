//! Small statistics helpers: medians, the reportable tail percentile, and a
//! constant-space log histogram for per-call hook timings.

use libra_sim::metrics::percentile;

/// How many samples must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The highest percentile, up to `want`, that has at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it; `None` when even the median
/// lacks them. Percentiles step down in tenths, so `want = 99` with 1,000
/// samples gives 99.0 and with 600 samples gives 98.3.
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    let mut p10 = (want * 10.0).floor() as i64;
    while p10 >= 500 {
        let p = p10 as f64 / 10.0;
        let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
        if beyond >= TAIL_SAMPLES {
            return Some(p);
        }
        p10 -= 1;
    }
    None
}

/// Latency summary: median, reportable tail, and the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// Samples the summary is over.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile [`Tail::tail`] is at (see [`tail_percentile`]).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Tail {
    /// Summarise `samples`, reporting the tail at up to `want`.
    pub fn of(samples: &[f64], want: f64) -> Tail {
        let n = samples.len();
        let tail_p = tail_percentile(n, want).unwrap_or(50.0);
        let qs = libra_sim::metrics::percentiles(samples, &[50.0, tail_p]);
        Tail { n, p50: qs[0], tail_p, tail: qs[1] }
    }
}

/// Log-bucketed histogram of nanosecond durations (16 buckets per power of
/// two, so a reported percentile is within 6.25 % of the true value). Constant
/// space: hooks run millions of times per rep on the `huge` tier.
#[derive(Clone, Debug)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

const SUB: u32 = 16;

impl Default for LogHist {
    fn default() -> Self {
        LogHist { counts: vec![0; (64 * SUB) as usize], total: 0 }
    }
}

impl LogHist {
    fn bucket(ns: u64) -> usize {
        if ns < u64::from(SUB) {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // ≥ 4
        let frac = (ns >> (exp - 4)) & u64::from(SUB - 1);
        ((exp - 3) * SUB) as usize + frac as usize
    }

    /// Lower edge of a bucket, in ns.
    fn lower(b: usize) -> u64 {
        let b = b as u64;
        let sub = u64::from(SUB);
        if b < sub {
            return b;
        }
        let exp = b / sub + 3;
        (sub + b % sub) << (exp - 4)
    }

    /// Fold one duration in.
    pub fn push(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// The p-th percentile in ns (lower bucket edge; 0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(b);
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(600, 99.0), Some(98.3));
        assert_eq!(tail_percentile(999, 99.0), Some(98.9));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        for n in [20usize, 57, 300, 999, 1_000, 4_321] {
            let p = tail_percentile(n, 99.0).unwrap();
            let beyond = |p: f64| (n as f64 * (1.0 - p / 100.0)).floor() as usize;
            assert!(beyond(p) >= TAIL_SAMPLES, "n={n} p={p}");
            if p < 99.0 {
                assert!(beyond(p + 0.1) < TAIL_SAMPLES, "n={n}: {p} is not the highest");
            }
        }
    }

    #[test]
    fn tail_of_reports_count_and_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Tail::of(&v, 99.0);
        assert_eq!(t.n, 200);
        assert_eq!(t.tail_p, 95.0);
        assert!((t.p50 - 100.5).abs() < 1e-9);
    }

    #[test]
    fn log_hist_percentiles_are_close() {
        let mut h = LogHist::default();
        for ns in 1..=10_000u64 {
            h.push(ns);
        }
        assert_eq!(h.total, 10_000);
        let p99 = h.percentile(99.0) as f64;
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.07, "p99 {p99}");
        let p50 = h.percentile(50.0) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.07, "p50 {p50}");
        for b in 0..200 {
            assert_eq!(LogHist::bucket(LogHist::lower(b)), b);
        }
    }
}
