//! Aggregation combinators for sweep results.
//!
//! Everything here reduces in a **caller-chosen order** (typically job
//! order) with plain sequential floating-point arithmetic, so aggregates
//! inherit the executor's bit-reproducibility.

use crate::{Error, Result};

/// Welford one-pass accumulator: count, mean, variance, extrema.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan's parallel update). Merging in a
    /// fixed order is still deterministic; merging in scheduling order is
    /// not — the sweep layer always merges in job order.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (n−1 denominator; 0 below two samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Coefficient of variation σ/|µ| (0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest sample seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Five-number-plus summary of a sample, for report rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an empty sample or one
    /// containing non-finite values.
    pub fn from_samples(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(Error::InvalidParameter {
                name: "summary sample count",
                value: 0.0,
            });
        }
        if let Some(bad) = xs.iter().find(|x| !x.is_finite()) {
            return Err(Error::InvalidParameter {
                name: "summary sample (non-finite)",
                value: *bad,
            });
        }
        let mut stats = OnlineStats::new();
        for &x in xs {
            stats.push(x);
        }
        let ordered = order_statistics(xs, &Self::PERCENTILES);
        let [p05, p50, p95] = Self::PERCENTILES.map(|p| percentile_sorted(&ordered, p));
        Ok(Self {
            n: xs.len(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            p05,
            p50,
            p95,
            min: stats.min(),
            max: stats.max(),
        })
    }

    /// The percentiles a summary reports.
    const PERCENTILES: [f64; 3] = [5.0, 50.0, 95.0];
}

/// A copy of `xs` in which every rank [`percentile_sorted`] reads for
/// the percentiles `ps` holds the value a stable sort would put there.
///
/// Selection finds those ranks in ascending order on shrinking
/// sub-slices, O(n) instead of the sort's O(n log n). Finite values that
/// compare equal are bit-identical, except `-0.0` and `0.0`: a stable
/// sort keeps those in input order, selection by `total_cmp` puts `-0.0`
/// first. That never reaches a percentile. Between two zeros the
/// interpolation gives `0.0` whatever their signs, a zero next to a
/// non-zero value adds nothing to it, and a one-value sample is not
/// reordered.
fn order_statistics(xs: &[f64], ps: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    let mut ranks: Vec<usize> = ps
        .iter()
        .flat_map(|&p| {
            let (lo, hi, _) = rank_bounds(xs.len(), p);
            [lo, hi]
        })
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut done = 0;
    for &rank in &ranks {
        out[done..].select_nth_unstable_by(rank - done, f64::total_cmp);
        done = rank + 1;
    }
    out
}

/// The floor and ceil ranks of percentile `p` in a sorted sample of
/// `len ≥ 1` values, and the interpolation weight of the ceil rank.
fn rank_bounds(len: usize, p: f64) -> (usize, usize, f64) {
    let rank = p.clamp(0.0, 100.0) / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// Linear-interpolation percentile of an already **sorted** sample.
///
/// # Panics
///
/// Panics (debug) on an empty slice; clamps `p` into `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty(), "percentile of empty sample");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = rank_bounds(sorted.len(), p);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Fixed-bin histogram over `[lo, hi)` with explicit under/overflow
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// A histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for zero bins or a degenerate
    /// interval.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(Error::InvalidParameter {
                name: "histogram bins",
                value: 0.0,
            });
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(Error::InvalidParameter {
                name: "histogram interval",
                value: lo,
            });
        }
        Ok(Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let last = self.bins.len() - 1;
            self.bins[idx.min(last)] += 1;
        }
    }

    /// Merges another histogram with identical binning.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the binnings differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<()> {
        if self.lo != other.lo || self.hi != other.hi || self.bins.len() != other.bins.len() {
            return Err(Error::InvalidParameter {
                name: "histogram merge binning",
                value: other.bins.len() as f64,
            });
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        Ok(())
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// The center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.77).sin() * 5.0 + 2.0)
            .collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.count(), 100);
    }

    #[test]
    fn merge_matches_single_stream() {
        let xs: Vec<f64> = (0..57).map(|i| (i as f64).cos()).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let (left, right) = xs.split_at(20);
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        left.iter().for_each(|&x| a.push(x));
        right.iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging into/with empty is the identity.
        let mut empty = OnlineStats::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        whole.merge(&OnlineStats::new());
        assert_eq!(empty, whole);
    }

    #[test]
    fn summary_percentiles_ordered() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.0137).fract()).collect();
        let s = Summary::from_samples(&xs).unwrap();
        assert!(s.min <= s.p05 && s.p05 <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.n, 1000);
        assert!(Summary::from_samples(&[]).is_err());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_err());
    }

    /// The percentiles as `Summary` computed them with a full stable sort.
    fn sorted_percentiles(xs: &[f64]) -> [f64; 3] {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Summary::PERCENTILES.map(|p| percentile_sorted(&sorted, p))
    }

    #[test]
    fn selection_matches_the_stable_sort_bit_for_bit() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut samples: Vec<Vec<f64>> = Vec::new();
        for n in [1, 2, 3, 20, 10_000] {
            // Spread values, heavy duplicates, all equal.
            samples.push(
                (0..n)
                    .map(|_| next() as f64 / u64::MAX as f64 - 0.5)
                    .collect(),
            );
            samples.push((0..n).map(|_| (next() % 4) as f64 * 0.25).collect());
            samples.push(vec![1.5; n]);
            // Signed zeros mixed with other values, in several orders.
            let zeros: Vec<f64> = (0..n)
                .map(|i| match next() % 4 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => i as f64 - n as f64 / 2.0,
                })
                .collect();
            samples.push(zeros.iter().rev().copied().collect());
            samples.push(
                zeros
                    .iter()
                    .map(|&x| if x == 0.0 { -x } else { x })
                    .collect(),
            );
            samples.push(zeros);
            samples.push(
                (0..n)
                    .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            );
            samples.push(
                (0..n)
                    .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
                    .collect(),
            );
        }
        for xs in [
            &[-0.0][..],
            &[0.0, -0.0],
            &[-0.0, 0.0],
            &[0.0, -0.0, 1.0],
            &[-1.0, 0.0, -0.0],
            &[5e-324, 0.0, -0.0, -5e-324],
        ] {
            samples.push(xs.to_vec());
        }
        for xs in &samples {
            let s = Summary::from_samples(xs).unwrap();
            let want = sorted_percentiles(xs);
            for (got, want) in [s.p05, s.p50, s.p95].iter().zip(want) {
                assert_eq!(got.to_bits(), want.to_bits(), "n = {}", xs.len());
            }
        }
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 0.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 4.0);
        assert_eq!(percentile_sorted(&xs, 50.0), 2.0);
        assert!((percentile_sorted(&xs, 62.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 30.0), 7.0);
    }

    #[test]
    fn histogram_bins_and_merge() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 4);
        assert!((h.center(0) - 1.0).abs() < 1e-12);

        let mut other = Histogram::new(0.0, 10.0, 5).unwrap();
        other.push(5.0);
        h.merge(&other).unwrap();
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        let bad = Histogram::new(0.0, 9.0, 5).unwrap();
        assert!(h.merge(&bad).is_err());
        assert!(Histogram::new(0.0, 0.0, 5).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }
}
