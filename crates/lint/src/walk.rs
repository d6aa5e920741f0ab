//! The workspace walker: reads every `.rs` file and aggregates diagnostics.
//!
//! Every `.rs` file under the root is read (`target/` and dot-directories
//! aside). The per-file rules run on the library sources: `src/` of the
//! root package and of every crate under `crates/` except `bench`, whose
//! binaries time themselves and may allocate where they like. The other
//! files — `tests/`, `examples/`, all of `crates/bench` — only feed the
//! name index of `unused-pub`. Files are visited in sorted path order so
//! diagnostics are stable across runs and machines.

use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, Line};
use crate::rules::scan_lines;
use crate::unused_pub::{library_crate, unused_pub};

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

/// Every `.rs` file under `root` as (root-relative `/`-separated label,
/// source), sorted by label.
///
/// # Errors
///
/// Propagates I/O errors from directory listing and file reads.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(root, "", &mut files)?;
    files.sort();
    Ok(files)
}

/// Scans every `.rs` file under `root`; see [`scan_sources`].
///
/// # Errors
///
/// Propagates I/O errors from directory listing and file reads; a missing
/// directory is not an error, just an empty scope.
pub fn scan_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    Ok(scan_sources(&workspace_sources(root)?))
}

/// Runs every rule over (label, source) pairs as
/// [`workspace_sources`] returns them: the per-file rules on the library
/// files, `unused-pub` on their `pub` items against all of them.
pub fn scan_sources(files: &[(String, String)]) -> WorkspaceReport {
    let lexed: Vec<(&str, Vec<Line>)> = files.iter().map(|(label, src)| (label.as_str(), lex(src))).collect();
    let unused = unused_pub(&lexed);
    let mut report = WorkspaceReport::default();
    for (f, (label, lines)) in lexed.iter().enumerate() {
        let Some(crate_name) = library_crate(label) else {
            continue;
        };
        let mine: Vec<(usize, String)> = unused.iter().filter(|u| u.0 == f).map(|u| (u.1, u.2.clone())).collect();
        let file = scan_lines(lines, Some(&mine));
        report.files += 1;
        if report.crates.last().map(String::as_str) != Some(crate_name) {
            report.crates.push(crate_name.to_string());
        }
        report.suppressions += file.suppressions_used;
        for v in file.violations {
            report.diagnostics.push(Diagnostic {
                file: label.to_string(),
                line: v.line,
                rule: v.rule,
                message: v.message,
            });
        }
    }
    report
}

/// Recursively collects `.rs` files under `dir` (labelled `prefix` + name),
/// skipping `target/` and dot-directories.
fn collect_rs(dir: &Path, prefix: &str, out: &mut Vec<(String, String)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            collect_rs(&path, &format!("{prefix}{name}/"), out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((format!("{prefix}{name}"), fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
