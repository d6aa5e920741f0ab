//! Deterministic exporters: Chrome `trace_event` JSON and text tables.
//!
//! Both exporters are pure functions of their input — no wall clocks, no
//! map-order dependence, no locale-dependent float formatting — so the
//! same campaign exports byte-identical artifacts on every run. That is a
//! load-bearing property: the determinism suite pins golden hashes over
//! these strings.
//!
//! The JSON exporter targets the Chrome `trace_event` format (load the
//! output in `chrome://tracing` or Perfetto). Each distinct scope becomes
//! a track (`tid`); span edges map to `"B"`/`"E"`, instants to `"i"`, and
//! samples to counter (`"C"`) events.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::event::{EventKind, ObsEvent, Stamped};
use crate::registry::Registry;

/// Appends `s` to `out`, escaped for embedding in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats picoseconds as the microsecond timestamp Chrome expects,
/// without going through floating point: `ps = 1_234_567` → `"1.234567"`.
fn ts_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Renders events as a Chrome `trace_event` JSON document.
///
/// Events should be sorted first (see [`crate::event::sort_bundle`]);
/// the exporter preserves input order. Each unique scope is assigned a
/// thread id by sorted order, so track layout is stable across runs.
pub fn chrome_trace(events: &[Stamped<ObsEvent>]) -> String {
    let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
    for e in events {
        let next = tids.len();
        tids.entry(e.value.scope).or_insert(next);
    }
    // BTreeMap iteration is sorted by scope, not insertion order; reassign
    // ids so tid 0 is the lexicographically first scope.
    for (i, (_, tid)) in tids.iter_mut().enumerate() {
        *tid = i;
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    // Thread-name metadata records label each track.
    for (i, (scope, tid)) in tids.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\""
        );
        escape_json(scope, &mut out);
        out.push_str("\"}}");
    }
    for e in events {
        let tid = e.value.tid(&tids);
        if !out.ends_with('[') {
            out.push_str(",\n");
        }
        let _ = write!(out, "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":\"{}\",\"name\":\"", e.value.kind.chrome_ph(), ts_us(e.time.as_ps()));
        escape_json(e.value.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(e.value.scope, &mut out);
        out.push('"');
        match e.value.kind {
            EventKind::Instant => {
                // Thread-scoped instant marker.
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"value\":{}}}", e.value.value);
            }
            EventKind::Sample => {
                let _ = write!(out, ",\"args\":{{\"value\":{}}}", e.value.value);
            }
            EventKind::Begin | EventKind::End => {
                if e.value.value != 0 {
                    let _ = write!(out, ",\"args\":{{\"value\":{}}}", e.value.value);
                }
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

impl ObsEvent {
    fn tid(&self, tids: &BTreeMap<&str, usize>) -> usize {
        tids.get(self.scope).copied().unwrap_or(0)
    }
}

impl EventKind {
    /// The Chrome `trace_event` phase character for this kind.
    pub(crate) fn chrome_ph(self) -> char {
        match self {
            EventKind::Instant => 'i',
            EventKind::Begin => 'B',
            EventKind::End => 'E',
            EventKind::Sample => 'C',
        }
    }
}

fn rule(out: &mut String, width: usize) {
    for _ in 0..width {
        out.push('-');
    }
    out.push('\n');
}

/// Renders a registry as a deterministic fixed-width text table.
///
/// Counters, gauges and histogram percentile rows, each section sorted by
/// name. The output is byte-stable: identical registries render identical
/// strings, which lets reports embed it and tests hash it.
pub fn text_table(title: &str, registry: &Registry) -> String {
    const NAME_W: usize = 40;
    const VAL_W: usize = 12;
    let mut out = String::new();
    let total_w = NAME_W + 4 * (VAL_W + 1);
    let _ = writeln!(out, "== {title} ==");

    let counters: Vec<(&str, u64)> = registry.counters().collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "{:<NAME_W$} {:>VAL_W$}", "counter", "value");
        rule(&mut out, NAME_W + 1 + VAL_W);
        for (name, value) in counters {
            let _ = writeln!(out, "{name:<NAME_W$} {value:>VAL_W$}");
        }
    }

    let gauges: Vec<(&str, i64)> = registry.gauges().collect();
    if !gauges.is_empty() {
        let _ = writeln!(out, "{:<NAME_W$} {:>VAL_W$}", "gauge", "value");
        rule(&mut out, NAME_W + 1 + VAL_W);
        for (name, value) in gauges {
            let _ = writeln!(out, "{name:<NAME_W$} {value:>VAL_W$}");
        }
    }

    let hists: Vec<(&str, &crate::hist::LogHistogram)> = registry.histograms().collect();
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "{:<NAME_W$} {:>VAL_W$} {:>VAL_W$} {:>VAL_W$} {:>VAL_W$}",
            "histogram", "count", "p50", "p95", "p99"
        );
        rule(&mut out, total_w);
        for (name, h) in hists {
            let p = h.percentiles();
            let _ = writeln!(
                out,
                "{:<NAME_W$} {:>VAL_W$} {:>VAL_W$} {:>VAL_W$} {:>VAL_W$}",
                name,
                h.count(),
                p.p50,
                p.p95,
                p.p99
            );
        }
    }

    if registry.is_empty() {
        out.push_str("(empty)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_sim::SimTime;

    fn bundle() -> Vec<Stamped<ObsEvent>> {
        vec![
            Stamped {
                time: SimTime::from_ns(1),
                value: ObsEvent::begin("campaign", "measure", 0),
            },
            Stamped {
                time: SimTime::from_ns(2),
                value: ObsEvent::instant("switch", "overflow_drop", 3),
            },
            Stamped {
                time: SimTime::from_ns(3),
                value: ObsEvent::sample("host", "rtt_ns", 125),
            },
            Stamped {
                time: SimTime::from_ns(4),
                value: ObsEvent::end("campaign", "measure", 7),
            },
        ]
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&bundle());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        // Scopes sorted: campaign=0, host=1, switch=2.
        assert!(json.contains("\"tid\":2,\"ts\":\"0.002000\",\"name\":\"overflow_drop\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"args\":{\"value\":125}"));
        // Track labels present.
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn chrome_trace_is_reproducible() {
        let a = chrome_trace(&bundle());
        let b = chrome_trace(&bundle());
        assert_eq!(a, b);
    }

    #[test]
    fn chrome_trace_empty() {
        let json = chrome_trace(&[]);
        assert_eq!(json, "{\"traceEvents\":[\n\n]}\n");
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        assert_eq!(ts_us(0), "0.000000");
        assert_eq!(ts_us(1_234_567), "1.234567");
        assert_eq!(ts_us(12_500), "0.012500");
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn text_table_sections() {
        let mut r = Registry::new();
        r.add("switch.overflow_drops", 4);
        r.set_gauge("sbuf.peak", 96);
        for v in 1..=100u64 {
            r.record("host.rtt_ns", v);
        }
        let table = text_table("campaign", &r);
        assert!(table.starts_with("== campaign ==\n"));
        assert!(table.contains("switch.overflow_drops"));
        assert!(table.contains("sbuf.peak"));
        assert!(table.contains("host.rtt_ns"));
        // Reproducible.
        assert_eq!(table, text_table("campaign", &r));
    }

    #[test]
    fn text_table_empty() {
        let table = text_table("nothing", &Registry::new());
        assert_eq!(table, "== nothing ==\n(empty)\n");
    }
}
