//! Measurement primitives for experiment harnesses.
//!
//! [`Summary`] is the Welford accumulator behind a host's round-trip
//! statistics.

use std::fmt;

/// Streaming mean/variance/extrema (Welford's algorithm).
///
/// # Example
///
/// ```
/// use netfi_sim::metrics::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let total = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.n as f64 * other.n as f64) / total as f64;
        self.n = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
                self.n,
                self.mean,
                self.stddev(),
                self.min,
                self.max
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_and_variance() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn summary_merge_matches_pooled() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut pooled = Summary::new();
        for i in 0..50 {
            let v = (i * 37 % 11) as f64;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            pooled.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), pooled.count());
        assert!((a.mean() - pooled.mean()).abs() < 1e-9);
        assert!((a.variance() - pooled.variance()).abs() < 1e-9);
        assert_eq!(a.min(), pooled.min());
        assert_eq!(a.max(), pooled.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(3.0);
        let b = Summary::new();
        let mut a2 = a;
        a2.merge(&b);
        assert_eq!(a2, a);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
    }
}
