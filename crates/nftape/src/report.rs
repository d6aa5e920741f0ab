//! ASCII table rendering for campaign reports.
//!
//! Every experiment regenerator prints its table in the layout of the
//! corresponding paper table, via this small formatter.

use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders an obs [`Registry`] as campaign-report tables: a
/// `metric / value` table of the per-layer detection counters and gauges,
/// and — when any histograms were collected — a latency-percentile table.
///
/// Registry iteration is sorted, so for a fixed registry the rendered
/// tables are byte-identical across runs.
///
/// [`Registry`]: netfi_obs::Registry
pub(crate) fn registry_tables(title: &str, registry: &netfi_obs::Registry) -> Vec<Table> {
    let mut out = Vec::new();
    let mut counts = Table::new(title, &["metric", "value"]);
    for (name, value) in registry.counters() {
        counts.row(&[name.to_string(), value.to_string()]);
    }
    for (name, value) in registry.gauges() {
        counts.row(&[name.to_string(), value.to_string()]);
    }
    if !counts.is_empty() {
        out.push(counts);
    }
    let mut latency = Table::new(
        format!("{title} (latency percentiles)"),
        &["histogram", "count", "p50", "p95", "p99"],
    );
    for (name, hist) in registry.histograms() {
        let p = hist.percentiles();
        latency.row(&[
            name.to_string(),
            hist.count().to_string(),
            p.p50.to_string(),
            p.p95.to_string(),
            p.p99.to_string(),
        ]);
    }
    if !latency.is_empty() {
        out.push(latency);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Results", &["Mask", "Replacement", "Loss rate"]);
        t.row(&["STOP", "IDLE", "8%"].map(String::from));
        t.row(&["GAP", "GO", "11%"].map(String::from));
        let text = t.render();
        assert!(text.starts_with("Results\n"));
        assert!(text.contains("Mask  Replacement  Loss rate"));
        assert!(text.contains("STOP  IDLE         8%"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn no_title_table() {
        let mut t = Table::new("", &["a"]);
        t.row(&["1"].map(String::from));
        assert!(t.render().starts_with("a\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one"].map(String::from));
    }
}
