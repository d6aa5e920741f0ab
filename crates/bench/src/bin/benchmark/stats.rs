//! Medians, quartiles and the percentile rule the benchmark reports by.
//!
//! Quartiles use the exclusive method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread computed here is the
//! same number the acceptance driver computes from the same values.

/// The median of `values` (mean of the middle pair for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` by the exclusive method (`statistics.quantiles`, n = 4).
/// Needs at least two values; fewer yield the single value three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on the 1-based sorted sample, clamped so the
        // interpolation pair stays inside it.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The run-to-run spread the acceptance rule uses: the distance between
/// the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest percentile (as a fraction) that still has at least ten
/// samples beyond it, or `None` when even the median's upper half is
/// thinner than that — in which case only the median is reported.
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    (samples >= 20).then(|| 1.0 - 10.0 / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q2, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // Nine reps support the median only.
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        let p = highest_supported_percentile(10_000_000).unwrap();
        assert!((p - 0.999_999).abs() < 1e-12);
    }
}
