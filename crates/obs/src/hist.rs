//! Log₂-bucketed histograms with percentile extraction.
//!
//! Latencies in the simulated network span six orders of magnitude (a
//! 12.5 ns character period to ~235 µs host round trips), so fixed-width
//! bins either blur the small end or explode in count. A [`LogHistogram`]
//! buckets by the value's bit length — 65 buckets cover all of `u64` — and
//! keeps per-bucket count/min/max, which makes nearest-rank quantile
//! extraction *exact* whenever the values inside the rank's bucket are a
//! single point or consecutive evenly spaced integers, and a tight
//! interpolation otherwise.

use std::fmt;

/// Per-bucket accounting.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: u64,
    min: u64,
    max: u64,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        count: 0,
        min: 0,
        max: 0,
    };
}

/// Number of buckets: value 0, plus one per bit length 1..=64.
const BUCKETS: usize = 65;

/// The standard percentile triple campaign reports quote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl fmt::Display for Percentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p50={} p95={} p99={}", self.p50, self.p95, self.p99)
    }
}

/// Exact nearest-rank percentiles over a raw sample set (sorts in place).
///
/// The log-bucketed [`LogHistogram`] is compact but interpolates between a
/// bucket's extremes; when the full sample set is small enough to hold —
/// per-threshold detection latencies, for example — sorting and indexing
/// is both exact and pure integer arithmetic, so reports built from it are
/// byte-stable with no rounding mode in sight.
pub fn exact_percentiles(samples: &mut [u64]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles::default();
    }
    samples.sort_unstable();
    let n = samples.len();
    let pick = |p: usize| samples[(n * p).div_ceil(100).clamp(1, n) - 1];
    Percentiles {
        p50: pick(50),
        p95: pick(95),
        p99: pick(99),
    }
}

/// A log₂-bucketed histogram of `u64` samples.
///
/// # Example
///
/// ```
/// use netfi_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// // Consecutive integers interpolate exactly.
/// assert_eq!(h.quantile(0.50), 50);
/// assert_eq!(h.quantile(0.95), 95);
/// assert_eq!(h.quantile(0.99), 99);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [Bucket; BUCKETS],
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index: 0 for the value 0, otherwise the value's bit length.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [Bucket::EMPTY; BUCKETS],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = &mut self.buckets[bucket_index(value)];
        if bucket.count == 0 {
            bucket.min = value;
            bucket.max = value;
        } else {
            bucket.min = bucket.min.min(value);
            bucket.max = bucket.max.max(value);
        }
        bucket.count += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.buckets
            .iter()
            .find(|b| b.count > 0)
            .map_or(0, |b| b.min)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rev()
            .find(|b| b.count > 0)
            .map_or(0, |b| b.max)
    }

    /// Nearest-rank quantile with in-bucket linear interpolation.
    ///
    /// The rank `ceil(q · n)` is located in its bucket; if the bucket holds
    /// a single distinct value that value is returned exactly, otherwise
    /// the result interpolates linearly between the bucket's recorded min
    /// and max by rank position — exact for consecutive evenly spaced
    /// integers, a tight bound otherwise.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        let rank = ((clamped * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for bucket in &self.buckets {
            if bucket.count == 0 {
                continue;
            }
            if rank <= cumulative + bucket.count {
                if bucket.min == bucket.max || bucket.count == 1 {
                    return bucket.min;
                }
                let position = rank - cumulative; // 1..=bucket.count
                let fraction = (position - 1) as f64 / (bucket.count - 1) as f64;
                let spread = (bucket.max - bucket.min) as f64;
                return bucket.min + (fraction * spread + 0.5) as u64;
            }
            cumulative += bucket.count;
        }
        self.max()
    }

    /// The p50/p95/p99 triple.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn percentiles_exact_on_consecutive_integers() {
        // 1..=1000: every bucket holds a run of consecutive integers, so
        // the in-bucket interpolation reproduces nearest-rank exactly.
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.50, 500), (0.95, 950), (0.99, 990), (1.0, 1000)] {
            assert_eq!(h.quantile(q), expect, "q={q}");
        }
        assert_eq!(h.quantile(0.001), 1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn percentiles_exact_on_point_masses() {
        // 90 samples of 100 ns, 9 of 1000 ns, 1 of 10_000 ns: each bucket
        // is a single point, so every quantile is exact.
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(1_000);
        }
        h.record(10_000);
        let p = h.percentiles();
        assert_eq!(p, Percentiles { p50: 100, p95: 1_000, p99: 1_000 });
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.quantile(0.999), 10_000);
    }

    #[test]
    fn exact_on_evenly_spaced_values_within_a_bucket() {
        // 40, 44, 48, … 60 all share bucket 6 and are evenly spaced: the
        // interpolation lands on the recorded values exactly.
        let mut h = LogHistogram::new();
        for v in (40..=60u64).step_by(4) {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 48);
        assert_eq!(h.quantile(1.0), 60);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.total, 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.percentiles(), Percentiles::default());
    }

    #[test]
    fn zero_values_have_their_own_bucket() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(0);
        h.record(8);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 8);
        let buckets: Vec<(usize, u64)> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.count > 0)
            .map(|(i, b)| (i, b.count))
            .collect();
        assert_eq!(buckets, vec![(0, 2), (4, 1)]);
    }

    #[test]
    fn exact_percentiles_are_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        let p = exact_percentiles(&mut samples);
        assert_eq!(p, Percentiles { p50: 50, p95: 95, p99: 99 });
        // Sorted in place.
        assert_eq!(samples[0], 1);
        // Small sets: nearest rank, never out of bounds.
        let mut one = [7u64];
        assert_eq!(
            exact_percentiles(&mut one),
            Percentiles { p50: 7, p95: 7, p99: 7 }
        );
        let mut two = [10u64, 20];
        let p = exact_percentiles(&mut two);
        assert_eq!(p, Percentiles { p50: 10, p95: 20, p99: 20 });
        assert_eq!(exact_percentiles(&mut []), Percentiles::default());
    }

    #[test]
    fn display_of_percentiles() {
        let p = Percentiles { p50: 1, p95: 2, p99: 3 };
        assert_eq!(p.to_string(), "p50=1 p95=2 p99=3");
    }
}
