//! `benchmark self-check`: `BENCHMARK.json`, the registry and the README
//! must name the same workloads and metrics, the same way.

use crate::json::Json;
use crate::registry::{END_TO_END, PER_LAYER, WORKLOADS};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every disagreement between `manifest` (the text of `BENCHMARK.json`),
/// `readme` and the registry; empty when they agree both ways.
pub fn problems(manifest: &str, readme: &str) -> Vec<String> {
    let mut out = Vec::new();
    let doc = match Json::parse(manifest) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let section = |key: &str| doc.get(key).map_or(&[][..], Json::as_arr);
    let text = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };

    // Both ways: each side's list, as comparable lines.
    let mut check = |what: &str, declared: Vec<String>, registered: Vec<String>| {
        for line in &registered {
            if !declared.contains(line) {
                out.push(format!(
                    "{what}: BENCHMARK.json lacks or differs on [{line}]"
                ));
            }
        }
        for line in &declared {
            if !registered.contains(line) {
                out.push(format!("{what}: the registry lacks or differs on [{line}]"));
            }
        }
    };
    check(
        "workload",
        section("workloads")
            .iter()
            .map(|w| format!("{} | {}", text(w, "name"), text(w, "why")))
            .collect(),
        WORKLOADS
            .iter()
            .map(|w| format!("{} | {}", w.name, w.why))
            .collect(),
    );
    check(
        "end_to_end",
        section("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
                format!(
                    "{} | {} | {} | {bound}",
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better")
                )
            })
            .collect(),
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{} | {} | {} | {}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    check(
        "per_layer",
        section("per_layer")
            .iter()
            .map(|m| {
                format!(
                    "{} | {} | {}",
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better")
                )
            })
            .collect(),
        PER_LAYER
            .iter()
            .map(|m| format!("{} | {} | {}", m.name, m.unit, m.better.as_str()))
            .collect(),
    );

    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for (i, name) in names.iter().enumerate() {
        if !valid_name(name) {
            out.push(format!(
                "name {name:?} is not made of [A-Za-z0-9_.-], at most 64"
            ));
        }
        if names[..i].contains(name) {
            out.push(format!("name {name:?} is used twice"));
        }
        // The README is the glossary: every name appears in it, as code.
        if !readme.contains(&format!("`{name}`")) {
            out.push(format!("the README never mentions `{name}`"));
        }
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            out.push(format!(
                "workload {}: `why` must be one line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in &PER_LAYER {
        if m.moves.is_empty() {
            out.push(format!(
                "per-layer metric {} names nothing it should move",
                m.name
            ));
        }
    }
    for (what, count, range) in [
        ("workloads", WORKLOADS.len(), 2..=8),
        ("end-to-end metrics", END_TO_END.len(), 1..=16),
        ("per-layer metrics", PER_LAYER.len(), 1..=128),
    ] {
        if !range.contains(&count) {
            out.push(format!("{count} {what}: outside {range:?}"));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s")
    {
        out.push("no setup_s metric in seconds".to_string());
    }
    if END_TO_END.iter().any(|m| !(0.0..=0.25).contains(&m.bound)) {
        out.push("a bound lies outside 0 to 0.25".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        assert!(valid_name("sim.fork_us.fabric1000") && valid_name("work_per_s_w2"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn a_drifted_manifest_is_reported_both_ways() {
        let manifest = r#"{"workloads": [{"name": "testbed3", "why": "other"}],
            "end_to_end": [], "per_layer": [{"name": "new.row", "unit": "ns", "better": "lower"}]}"#;
        let found = problems(manifest, "");
        assert!(found
            .iter()
            .any(|p| p.contains("registry lacks") && p.contains("new.row")));
        assert!(found
            .iter()
            .any(|p| p.contains("BENCHMARK.json lacks") && p.contains("fabric1000")));
        assert!(found
            .iter()
            .any(|p| p.contains("README never mentions `setup_s`")));
    }
}
