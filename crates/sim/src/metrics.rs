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
    pub(crate) fn variance(&self) -> f64 {
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
}
