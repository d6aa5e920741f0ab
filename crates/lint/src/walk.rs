//! The workspace walker: finds library sources and aggregates diagnostics.
//!
//! Scope is deliberate: `src/` of the root package and of every crate
//! under `crates/` except `bench`, whose binaries time themselves and may
//! allocate where they like. Integration tests (`tests/`), examples and
//! benches are *not* scanned. Files are visited in sorted path order so
//! diagnostics are stable across runs and machines.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::scan_source;

/// One diagnostic with its location.
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
    /// `netfi`). Lets a gate assert the walker reached every crate.
    pub crates: Vec<String>,
    /// Total waivers: allow-comment suppressions exercised plus lint
    /// attributes outside test code (see [`crate::FileReport`]).
    pub suppressions: usize,
    /// All diagnostics, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl WorkspaceReport {
    /// Renders every diagnostic in the classic text form, in order.
    pub fn render_lines(&self) -> Vec<String> {
        self.diagnostics.iter().map(Diagnostic::render).collect()
    }
}

/// Scans `root/src` and `root/crates/*/src` (all but `crates/bench`),
/// returning one report.
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
            if dir.is_dir() && !dir.ends_with("bench") {
                collect_rs(&dir.join("src"), &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = WorkspaceReport::default();
    for (label, path) in &files {
        let file = scan_source(&fs::read_to_string(path)?);
        report.files += 1;
        let crate_name = label
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("netfi");
        if report.crates.last().map(String::as_str) != Some(crate_name) {
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
    fn diagnostics_render_the_classic_text_form() {
        let d = Diagnostic {
            file: "src/lib.rs".to_string(),
            line: 3,
            rule: "relaxed-atomic",
            message: "boom".to_string(),
        };
        assert_eq!(d.render(), "src/lib.rs:3: relaxed-atomic: boom");
    }
}
