//! The metrics registry: named counters, gauges and histograms.
//!
//! The registry is a *collection-time* structure: harnesses fill it from
//! component statistics after (or between phases of) a run, then hand it
//! to the exporters. Keys are sorted (`BTreeMap`), so iteration — and
//! therefore every export — is deterministic. Nothing here runs on the
//! simulation hot path; in-run observation goes through
//! [`crate::record::Recorder`] and [`crate::hist::LogHistogram`] owned by
//! the components themselves.

use std::collections::BTreeMap;

use crate::hist::LogHistogram;

/// Named counters, gauges and log-bucketed histograms.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the named histogram (created empty).
    pub fn record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = LogHistogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named counter's value (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauges in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histograms in sorted name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.add("switch.drops", 2);
        r.add("switch.drops", 3);
        assert_eq!(r.counter("switch.drops"), 5);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.set_gauge("sbuf.occupancy", 10);
        r.set_gauge("sbuf.occupancy", -3);
        assert_eq!(r.gauge("sbuf.occupancy"), Some(-3));
        assert_eq!(r.gauge("never"), None);
    }

    #[test]
    fn histograms_record_and_extract() {
        let mut r = Registry::new();
        for v in 1..=100u64 {
            r.record("rtt_ns", v);
        }
        let h = r.histogram("rtt_ns").unwrap();
        assert_eq!(h.quantile(0.95), 95);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = Registry::new();
        r.add("zeta", 1);
        r.add("alpha", 1);
        r.add("mid", 1);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
