//! `benchmark compare <a.json…> -- <b.json…>`: two sets of result files,
//! one row per (metric, workload), judged by the metric's own bound.

use crate::json::Json;
use crate::registry::{Better, END_TO_END};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

/// One set of result files, grouped.
#[derive(Default)]
struct Set {
    /// `(workload, metric)` → values, one per file.
    metrics: BTreeMap<(String, String), Vec<f64>>,
    /// workload → (attempted, failed).
    operations: BTreeMap<String, (f64, f64)>,
}

impl Set {
    /// Adds one result document; `path` only labels errors.
    fn add(&mut self, path: &str, doc: &Json) -> Result<(), String> {
        if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path}: a --smoke result measures nothing and cannot be compared"
            ));
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no workload"))?
            .to_string();
        let result = doc
            .get("result")
            .ok_or_else(|| format!("{path}: no result"))?;
        let number = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: no {key}"))
        };
        let ops = self.operations.entry(workload.clone()).or_default();
        ops.0 += number("attempted")?;
        ops.1 += number("failed")?;
        for (name, m) in result.get("metrics").map_or(&[][..], Json::as_obj) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: metric {name} has no value"))?;
            self.metrics
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
        Ok(())
    }
}

fn load(paths: &[String]) -> Result<Set, String> {
    let mut set = Set::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        set.add(path, &doc)?;
    }
    Ok(set)
}

/// How `b` stands against `a` for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap: the benchmark cannot tell.
    Unresolved,
}

/// Judges set `b` against base `a`. `bound` is the share of `a`'s median
/// by which the metric may get worse; `None` (per-layer rows) judges by
/// direction alone.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let (am, bm) = (median(a), median(b));
    if am == 0.0 {
        return if bm == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Signed change, positive = worse.
    let worse_by = match better {
        Better::Higher => (am - bm) / am.abs(),
        Better::Lower => (bm - am) / am.abs(),
    };
    let bound = bound.unwrap_or(0.0);
    let spread = spread(a).max(spread(b));
    let every_b_beats_every_a = match better {
        Better::Higher => min(b) > max(a),
        Better::Lower => max(b) < min(a),
    };
    let every_a_beats_every_b = match better {
        Better::Higher => min(a) > max(b),
        Better::Lower => max(a) < min(b),
    };
    if spread > bound && !every_b_beats_every_a && !every_a_beats_every_b {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `v` to five significant digits, without an exponent.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Prints the comparison; `Ok(true)` when nothing got worse.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare <a.json…> -- <b.json…>")?;
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.metrics.is_empty() || b.metrics.is_empty() {
        return Err("each side needs at least one result file".to_string());
    }

    let mut ok = true;
    println!(
        "{:<15} {:<34} {:>40} {:>40} {:>18}  verdict",
        "workload", "metric", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "b/a"
    );
    for ((workload, name), sa) in &a.metrics {
        let Some(sb) = b.metrics.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (better, bound) = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) => (m.better, Some(m.bound)),
            None => match crate::registry::layer(name) {
                Some(l) => (l.better, None),
                None => continue,
            },
        };
        let v = verdict(sa, sb, better, bound);
        // Only a bounded (end-to-end) metric can fail the comparison.
        if v == Verdict::Worse && bound.is_some() {
            ok = false;
        }
        let side = |values: &[f64]| {
            let (q1, m, q3) = quartiles(values);
            format!("{} [{}, {}] ({})", sig(m), sig(q1), sig(q3), values.len())
        };
        let (am, bm) = (median(sa), median(sb));
        let ratio = if am == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4} of {}", bm / am, sig(am))
        };
        let label = match (v, bound) {
            (Verdict::Better, _) => "better".to_string(),
            (Verdict::Same, _) => "same".to_string(),
            (Verdict::Worse, Some(bound)) => format!("WORSE by more than {bound}"),
            (Verdict::Worse, None) => "worse (no bound)".to_string(),
            (Verdict::Unresolved, _) => "unresolved (spread exceeds the bound)".to_string(),
        };
        println!(
            "{workload:<15} {name:<34} {:>40} {:>40} {ratio:>18}  {label}",
            side(sa),
            side(sb)
        );
    }
    for (workload, &(attempted_a, failed_a)) in &a.operations {
        let Some(&(attempted_b, failed_b)) = b.operations.get(workload) else {
            continue;
        };
        let (share_a, share_b) = (
            failed_a / attempted_a.max(1.0),
            failed_b / attempted_b.max(1.0),
        );
        println!(
            "{workload:<15} failed operations: a {failed_a} of {attempted_a}, b {failed_b} of {attempted_b}"
        );
        if share_b > share_a {
            println!("{workload:<15} the share of failed operations ROSE");
            ok = false;
        }
    }
    Ok(ok)
}

/// Whether `doc` may enter a comparison, and if not, why not.
#[cfg(test)]
pub fn refusal(doc: &Json) -> Option<String> {
    Set::default().add("result", doc).err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| base.map(|v| v * by);
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(&base, &shift(1.02), Higher, Some(0.1)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &shift(0.8), Higher, Some(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &shift(1.3), Higher, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &shift(1.3), Lower, Some(0.1)),
            Verdict::Worse
        );
        // Spread wider than the bound and overlapping sets: cannot tell.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &shift(0.95), Higher, Some(0.1)),
            Verdict::Unresolved
        );
        // ... unless every run of one side beats every run of the other.
        assert_eq!(
            verdict(&noisy, &shift(2.0), Higher, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(sig(9_315_704.21), "9315704");
        assert_eq!(sig(0.000_012_84), "0.000012840");
        assert_eq!(sig(26.833_984), "26.834");
        // Exact (simulated) values compare exactly.
        assert_eq!(
            verdict(&[14.0, 14.0], &[14.0, 14.0], Lower, None),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[14.0, 14.0], &[16.0, 16.0], Lower, None),
            Verdict::Worse
        );
    }
}
