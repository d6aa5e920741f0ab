//! The workspace walker: finds library sources, applies per-crate policy,
//! aggregates diagnostics.
//!
//! Scope is deliberate: `src/` of the root package and of every crate
//! under `crates/`. Integration tests (`tests/`), examples and benches are
//! *not* scanned — they are allowed to unwrap, that is what the
//! `#[cfg(test)]` exemption means at directory granularity. Files are
//! visited in sorted path order so diagnostics are stable across runs and
//! machines.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::policy::policy_for;
use crate::rules::scan_source;

/// One diagnostic with its location, machine-consumable (see
/// [`WorkspaceReport::to_json`]) and renderable as the classic
/// `path:line: rule: message` text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Root-relative file label (`/`-separated on every host OS).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The text form: `path:line: rule: message`.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Aggregated result of scanning a workspace.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Crate names that contributed scanned files, unique, in scan order
    /// (crate directories lexicographically, then the root package as
    /// `netfi`). Lets gates assert a crate is actually inside the scan
    /// surface, not just named in the policy table.
    pub crates: Vec<String>,
    /// Total allow-comment suppressions exercised.
    pub suppressions: usize,
    /// All diagnostics, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl WorkspaceReport {
    /// Renders every diagnostic in the classic text form, in order.
    pub fn render_lines(&self) -> Vec<String> {
        self.diagnostics.iter().map(Diagnostic::render).collect()
    }

    /// Serializes the report as a JSON object:
    /// `{"files": N, "suppressions": N, "violations": [{"file", "line",
    /// "rule", "message"}, ...]}`. Hand-rolled — the checker stays
    /// dependency-free — with full string escaping.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"files\": {},\n", self.files));
        out.push_str(&format!("  \"suppressions\": {},\n", self.suppressions));
        if self.diagnostics.is_empty() {
            out.push_str("  \"violations\": []\n");
        } else {
            out.push_str("  \"violations\": [\n");
            for (i, d) in self.diagnostics.iter().enumerate() {
                let comma = if i + 1 == self.diagnostics.len() { "" } else { "," };
                out.push_str(&format!(
                    "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{comma}\n",
                    json_escape(&d.file),
                    d.line,
                    json_escape(d.rule),
                    json_escape(&d.message)
                ));
            }
            out.push_str("  ]\n");
        }
        out.push('}');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Scans `root/src` and `root/crates/*/src` under each file's crate
/// policy, returning one report.
///
/// # Errors
///
/// Propagates I/O errors from directory listing and file reads; a missing
/// `src/` or `crates/` directory is not an error, just an empty scope.
pub fn scan_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path();
            if dir.is_dir() {
                collect_rs(&dir.join("src"), &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = WorkspaceReport::default();
    for (label, path) in &files {
        let crate_name = crate_of(label);
        let source = fs::read_to_string(path)?;
        let file = scan_source(&source, policy_for(crate_name));
        report.files += 1;
        if report.crates.last().map_or(true, |last| last != crate_name) {
            report.crates.push(crate_name.to_string());
        }
        report.suppressions += file.suppressions_used;
        for v in file.violations {
            report.diagnostics.push(Diagnostic {
                file: label.clone(),
                line: v.line,
                rule: v.rule,
                message: v.message,
            });
        }
    }
    Ok(report)
}

/// Extracts the crate name from a root-relative label:
/// `crates/<name>/src/...` gives `<name>`, anything else scans as the
/// root package `netfi`.
pub fn crate_of(label: &str) -> &str {
    let mut parts = label.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "netfi",
    }
}

/// Recursively collects `.rs` files under `dir` as (root-relative label,
/// absolute path) pairs. Labels use `/` separators regardless of host OS.
fn collect_rs(dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((label_of(&path), path));
        }
    }
    Ok(())
}

/// A stable, root-relative display label: the path's components from the
/// last `src`-or-`crates` anchor outward.
fn label_of(path: &Path) -> String {
    let parts: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let anchor = parts
        .iter()
        .rposition(|p| p == "crates")
        .or_else(|| parts.iter().rposition(|p| p == "src"))
        .unwrap_or(0);
    parts.get(anchor..).unwrap_or_default().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_names_from_labels() {
        assert_eq!(crate_of("crates/sim/src/engine.rs"), "sim");
        assert_eq!(crate_of("crates/lint/src/main.rs"), "lint");
        assert_eq!(crate_of("src/lib.rs"), "netfi");
    }

    #[test]
    fn labels_anchor_at_crates_or_src() {
        assert_eq!(
            label_of(Path::new("/work/repo/crates/sim/src/time.rs")),
            "crates/sim/src/time.rs"
        );
        assert_eq!(label_of(Path::new("/work/repo/src/lib.rs")), "src/lib.rs");
    }

    #[test]
    fn missing_directories_scan_empty() {
        let report = scan_workspace(Path::new("/definitely/not/a/workspace"));
        assert!(report.is_ok_and(|r| r.files == 0 && r.diagnostics.is_empty()));
    }

    #[test]
    fn json_report_escapes_and_shapes() {
        let report = WorkspaceReport {
            files: 2,
            crates: vec!["sim".to_string()],
            suppressions: 1,
            diagnostics: vec![Diagnostic {
                file: "crates/sim/src/a.rs".to_string(),
                line: 7,
                rule: "unwrap",
                message: "a \"quoted\" reason\nwith a newline".to_string(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"files\": 2"));
        assert!(json.contains("\"suppressions\": 1"));
        assert!(json.contains(r#""file": "crates/sim/src/a.rs""#));
        assert!(json.contains(r#""line": 7"#));
        assert!(json.contains(r#"a \"quoted\" reason\nwith a newline"#));

        let empty = WorkspaceReport::default();
        assert!(empty.to_json().contains("\"violations\": []"));
    }

    #[test]
    fn diagnostics_render_the_classic_text_form() {
        let d = Diagnostic {
            file: "src/lib.rs".to_string(),
            line: 3,
            rule: "panic",
            message: "boom".to_string(),
        };
        assert_eq!(d.render(), "src/lib.rs:3: panic: boom");
    }
}
