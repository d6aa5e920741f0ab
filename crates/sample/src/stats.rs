//! Coverage statistics: Wilson score intervals and the rendered report.
//!
//! A sampled campaign estimates each outcome class's share of the fault
//! space from `k` hits in `n` draws. The naive ±z·√(p̂(1-p̂)/n) interval
//! collapses to zero width at k = 0 or k = n — exactly the cells a
//! coverage argument cares about (nothing hung in 2048 draws ≠ nothing
//! can hang). The Wilson score interval inverts the normal test instead
//! of linearising around p̂, stays inside [0, 1] by construction, and
//! keeps honest width at the extremes, so it is what the report prints.

use crate::classify::OutcomeClass;

/// z-score for the two-sided 95% interval the reports use.
pub(crate) const Z95: f64 = 1.96;

/// The Wilson score interval for `k` successes in `n` trials at
/// confidence `z` (e.g. [`Z95`]). Returns `(low, high)` clamped to
/// [0, 1]; an empty sample is total ignorance, `(0, 1)`.
pub(crate) fn wilson_interval(k: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let nf = n as f64;
    let p = k as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// One row of the coverage report: a class, its draw count, and the
/// Wilson 95% interval on its share of the sampled space.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageRow {
    /// The outcome class this row covers.
    pub class: OutcomeClass,
    /// Runs classified into this class.
    pub count: u64,
    /// Point estimate `count / n` (0 when the campaign is empty).
    pub share: f64,
    /// Wilson 95% lower bound on the class share.
    pub low: f64,
    /// Wilson 95% upper bound on the class share.
    pub high: f64,
}

/// The campaign's coverage report: every class of the taxonomy — always
/// all five, zero-draw classes included — with interval estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Campaign size the shares are estimated from.
    pub n: u64,
    /// One row per [`OutcomeClass::ALL`] entry, in that order.
    pub rows: Vec<CoverageRow>,
}

impl CoverageReport {
    /// Builds the report from a class histogram (indexed as
    /// [`OutcomeClass::index`]).
    pub(crate) fn from_histogram(histogram: [u64; 5]) -> CoverageReport {
        let n: u64 = histogram.iter().sum();
        let rows = OutcomeClass::ALL
            .into_iter()
            .map(|class| {
                let count = histogram[class.index()];
                let (low, high) = wilson_interval(count, n, Z95);
                CoverageRow {
                    class,
                    count,
                    share: if n == 0 { 0.0 } else { count as f64 / n as f64 },
                    low,
                    high,
                }
            })
            .collect();
        CoverageReport { n, rows }
    }

    /// Deterministic fixed-width text rendering — every formatting
    /// decision is byte-stable, so this string participates in the
    /// campaign fingerprint the worker-invariance tests compare.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("coverage over {} sampled injections\n", self.n));
        out.push_str("class                 count   share   wilson95\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<20} {:>6}  {:>6.4}  [{:.4}, {:.4}]\n",
                row.class.label(),
                row.count,
                row.share,
                row.low,
                row.high
            ));
        }
        out
    }
}

/// One cell of a per-dimension breakdown: a stable key naming the cell
/// (e.g. `dir_a`, `gap_to_idle`) and its outcome histogram, indexed by
/// [`OutcomeClass::index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakdownRow {
    /// Stable snake_case cell key — `tests/determinism.rs` looks cells
    /// up by it, so it may never change spelling.
    pub key: String,
    /// Outcome counts for draws landing in this cell.
    pub histogram: [u64; 5],
}

/// A coverage breakdown along one drawn axis: the outcome histogram
/// split per cell (per direction, per control-swap row, ...). Cells are
/// fixed by the dimension, not by the draw — zero-draw cells render too,
/// same argument as the zero-draw classes in [`CoverageReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breakdown {
    /// Human-readable dimension name for the table header.
    pub dimension: &'static str,
    /// One row per cell, in the dimension's fixed order.
    pub rows: Vec<BreakdownRow>,
}

impl Breakdown {
    /// Deterministic fixed-width text table: one line per cell, one
    /// column per outcome class (counts right-aligned under the class
    /// labels), plus a per-cell total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} breakdown\n", self.dimension));
        out.push_str("cell                  total");
        for class in OutcomeClass::ALL {
            out.push_str(&format!("  {}", class.label()));
        }
        out.push('\n');
        for row in &self.rows {
            let total: u64 = row.histogram.iter().sum();
            out.push_str(&format!("{:<20} {:>6}", row.key, total));
            for class in OutcomeClass::ALL {
                out.push_str(&format!(
                    "  {:>width$}",
                    row.histogram[class.index()],
                    width = class.label().len()
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_matches_hand_computed_values() {
        // k=3, n=10, z=1.96: p̂=0.3, center=0.49208/1.38416, half from
        // √(0.021 + 0.009604) — worked by hand to 5 decimal places.
        let (low, high) = wilson_interval(3, 10, Z95);
        assert!((low - 0.10779).abs() < 1e-5, "low = {low}");
        assert!((high - 0.60323).abs() < 1e-5, "high = {high}");
    }

    #[test]
    fn wilson_extremes_keep_honest_width() {
        // k=0: the lower bound is exactly 0, but the upper bound is not —
        // zero observed hangs do not prove hangs impossible.
        let (low, high) = wilson_interval(0, 100, Z95);
        assert_eq!(low, 0.0);
        assert!(high > 0.03 && high < 0.05, "high = {high}");
        // k=n mirrors it (the bound is 1 up to rounding of the clamp).
        let (low, high) = wilson_interval(100, 100, Z95);
        assert!(low > 0.95 && low < 0.97, "low = {low}");
        assert!(high > 0.9999, "high = {high}");
        // No sample: total ignorance.
        assert_eq!(wilson_interval(0, 0, Z95), (0.0, 1.0));
    }

    #[test]
    fn wilson_is_monotone_in_k() {
        let mut prev = wilson_interval(0, 50, Z95);
        for k in 1..=50 {
            let cur = wilson_interval(k, 50, Z95);
            assert!(cur.0 >= prev.0 && cur.1 >= prev.1, "k={k}");
            prev = cur;
        }
    }

    #[test]
    fn report_always_renders_all_five_classes() {
        let report = CoverageReport::from_histogram([10, 0, 5, 1, 0]);
        assert_eq!(report.n, 16);
        assert_eq!(report.rows.len(), 5);
        assert_eq!(report.rows[OutcomeClass::Masked.index()].count, 10);
        assert_eq!(report.rows[OutcomeClass::Hang.index()].count, 0);
        let text = report.render();
        for class in OutcomeClass::ALL {
            assert!(text.contains(class.label()), "missing {}", class.label());
        }
        // Zero-count rows still carry a non-degenerate upper bound.
        let hang = &report.rows[OutcomeClass::Hang.index()];
        assert_eq!(hang.count, 0);
        assert!(hang.high > 0.0);
    }

    #[test]
    fn render_is_reproducible() {
        let a = CoverageReport::from_histogram([7, 1, 3, 2, 0]).render();
        let b = CoverageReport::from_histogram([7, 1, 3, 2, 0]).render();
        assert_eq!(a, b);
    }

    #[test]
    fn breakdown_renders_every_cell_and_class_column() {
        let breakdown = Breakdown {
            dimension: "outcome x direction",
            rows: vec![
                BreakdownRow {
                    key: "dir_a".to_string(),
                    histogram: [3, 0, 2, 1, 0],
                },
                BreakdownRow {
                    key: "dir_b".to_string(),
                    histogram: [0, 0, 0, 0, 0],
                },
            ],
        };
        let text = breakdown.render();
        assert!(text.starts_with("outcome x direction breakdown\n"));
        for class in OutcomeClass::ALL {
            assert!(text.contains(class.label()), "missing {}", class.label());
        }
        // Zero-draw cells still render, with a zero total.
        let dir_b = text.lines().find(|l| l.starts_with("dir_b")).unwrap();
        assert!(dir_b.contains(" 0"));
        // The per-cell total is the histogram sum.
        let dir_a = text.lines().find(|l| l.starts_with("dir_a")).unwrap();
        assert!(dir_a.contains(" 6"), "line: {dir_a}");
        // Byte-stable: two renders agree.
        assert_eq!(text, breakdown.render());
    }
}
