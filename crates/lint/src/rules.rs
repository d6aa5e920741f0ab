//! The rule engine: scans one file's classified lines for violations.
//!
//! Rules match on the *code* part of each line (strings blanked, comments
//! stripped by the lexer), at identifier boundaries, so `clone`
//! never matches `clone_from` and `vec!` never matches `my_vec!`.
//!
//! Escape hatches, all spelled in comments so they survive refactors and
//! show up in diffs:
//!
//! - an allow-comment (`lint: allow(<rule>) <reason>`, written after `//`)
//!   suppresses `<rule>` on its own line and the line immediately below;
//!   the reason is mandatory and suppressions are counted in the report;
//! - a file containing the deny-marker comment (`netfi-lint:
//!   deny(hot-path-alloc)` after `//`) opts into the allocation rule for
//!   every line of that file;
//! - `#[cfg(test)]`-gated items are exempt from everything.

use crate::lexer::{lex, Line};

/// The rule identifiers an allow-comment may name, as in diagnostics.
/// `unused-pub` needs the workspace: only [`crate::scan_sources`] runs it.
pub const RULE_IDS: [&str; 4] =
    ["hot-path-alloc", "relaxed-atomic", "fork-not-clone", "unused-pub"];

/// The rule id reported for malformed allow-comments, including one that
/// names a rule not in [`RULE_IDS`] (not suppressible).
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// The rule id for allow-comments that no longer suppress anything (not
/// itself suppressible — delete the dead comment instead).
pub const DEAD_SUPPRESSION: &str = "dead-suppression";

/// One finding: a rule fired at a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULE_IDS`], [`ALLOW_SYNTAX`] or
    /// [`DEAD_SUPPRESSION`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// The result of scanning one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Violations, in line order.
    pub violations: Vec<Violation>,
    /// Waivers outside test code: findings an allow-comment suppressed,
    /// plus `#[allow(…)]` / `#[expect(…)]` lint attributes (clippy's
    /// waivers, counted here so the workspace has one suppression budget).
    pub suppressions_used: usize,
}

/// Scans one file's source with the per-file rules.
pub fn scan_source(source: &str) -> FileReport {
    scan_lines(&lex(source), None)
}

/// Scans one lexed file. `unused` lists the file's `unused-pub` findings
/// as (line, name) when the workspace index was built; without it an
/// `unused-pub` allow-comment is not judged dead.
pub(crate) fn scan_lines(lines: &[Line], unused: Option<&[(usize, String)]>) -> FileReport {
    let mut report = FileReport::default();

    // Pass 1: comment directives — deny-marker, allow-comments.
    let mut alloc_active = false;
    let mut allows: Vec<(usize, String, bool)> = Vec::new();
    for line in lines {
        let trimmed = line.comment.trim();
        if trimmed.starts_with("netfi-lint: deny(hot-path-alloc)") {
            alloc_active = true;
        }
        if let Some(rest) = trimmed.strip_prefix("lint: allow") {
            match parse_allow(rest) {
                Ok(rule) => allows.push((line.number, rule, false)),
                Err(message) => report.violations.push(Violation {
                    line: line.number,
                    rule: ALLOW_SYNTAX,
                    message,
                }),
            }
        }
    }

    // Pass 2: the rules themselves.
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.trim_start();
        if ["#[allow(", "#[expect(", "#![allow(", "#![expect("]
            .iter()
            .any(|attr| code.starts_with(attr))
        {
            report.suppressions_used += 1;
        }
        let mut findings: Vec<(&'static str, String)> = Vec::new();
        line_findings(&line.code, alloc_active, &mut findings);
        if find_bounded(&line.code, "fork") && fork_is_hand_written(lines, idx) {
            findings.push((
                "fork-not-clone",
                "Component::fork must be `Box::new(self.clone())` on a type that takes its \
                 Clone from #[derive(Clone)] or `netfi_sim::clone_in_place!`, so a field added \
                 later cannot be left out of a snapshot"
                    .to_string(),
            ));
        }
        if find_bounded(&line.code, "fork_onto") && fork_onto_is_hand_written(lines, idx) {
            findings.push((
                "fork-not-clone",
                "Component::fork_onto must be `netfi_sim::clone_onto(self, dst)` on a type that \
                 takes its Clone from `netfi_sim::clone_in_place!` or #[derive(Clone)], so a \
                 field added later cannot be left out of a resident fork"
                    .to_string(),
            ));
        }
        for (_, name) in unused.unwrap_or_default().iter().filter(|u| u.0 == line.number) {
            let message = format!("no other crate, test, example or doc example names `{name}`");
            findings.push(("unused-pub", message));
        }
        for (rule, message) in findings {
            let suppressed = allows.iter_mut().find_map(|(at, r, used)| {
                (r.as_str() == rule && (line.number == *at || line.number == *at + 1))
                    .then_some(used)
            });
            if let Some(used) = suppressed {
                *used = true;
                report.suppressions_used += 1;
            } else {
                report.violations.push(Violation {
                    line: line.number,
                    rule,
                    message,
                });
            }
        }
    }

    // Pass 3: dead suppressions. An allow-comment that suppressed nothing
    // is stale armor — the construct it waived moved or was fixed — and
    // every stale waiver widens the hole the next refactor can fall into.
    for (at, rule, used) in &allows {
        if !used && (rule != "unused-pub" || unused.is_some()) {
            report.violations.push(Violation {
                line: *at,
                rule: DEAD_SUPPRESSION,
                message: format!(
                    "allow({rule}) suppresses nothing on its line or the line below; delete it"
                ),
            });
        }
    }
    report.violations.sort_by_key(|v| v.line);
    report
}

/// Parses the tail of `lint: allow`, returning the rule id.
fn parse_allow(rest: &str) -> Result<String, String> {
    let Some((rule, reason)) = rest
        .strip_prefix('(')
        .and_then(|r| r.split_once(')'))
    else {
        return Err(
            "malformed allow-comment: expected `lint: allow(<rule>) <reason>`".to_string(),
        );
    };
    let rule = rule.trim();
    if !RULE_IDS.contains(&rule) {
        return Err(format!("allow-comment names unknown rule `{rule}`"));
    }
    if reason.trim().is_empty() {
        return Err(format!(
            "allow-comment for `{rule}` must state a reason after the closing paren"
        ));
    }
    Ok(rule.to_string())
}

/// Is line `idx` the head of a `Component::fork` implementation whose
/// body is anything but `Box::new(self.clone())`?
fn fork_is_hand_written(lines: &[Line], idx: usize) -> bool {
    method_body(lines, idx, "fnfork(&self)->")
        .is_some_and(|body| body != "Box::new(self.clone())")
}

/// Is line `idx` the head of a `Component::fork_onto` implementation
/// whose body is anything but `netfi_sim::clone_onto(self, dst)`? The
/// trait's provided default, `*dst = self.fork();`, is the one other body
/// it admits: it copies nothing field by field either.
fn fork_onto_is_hand_written(lines: &[Line], idx: usize) -> bool {
    method_body(lines, idx, "fnfork_onto(&self,").is_some_and(|body| {
        !["netfi_sim::clone_onto(self,dst)", "*dst=self.fork();"].contains(&body.as_str())
    })
}

/// If line `idx` is the head of a method whose compacted signature
/// contains `head` and a `Box<dyn …Component…>` after it, the method's
/// body with all whitespace removed: the rest of that line or, if that
/// is blank, the next line with code, without a closing `}`. `None` for
/// any other line, and for a declaration (`…;`), which has no body.
fn method_body(lines: &[Line], idx: usize, head: &str) -> Option<String> {
    let compact = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
    let line = compact(&lines.get(idx)?.code);
    let (_, tail) = line.split_once(head)?;
    let (signature, same_line) = tail.split_once('{')?;
    let (_, boxed) = signature.split_once("Box<dyn")?;
    if !find_bounded(boxed, "Component") {
        return None;
    }
    let body = if same_line.is_empty() {
        lines
            .get(idx + 1..)
            .unwrap_or_default()
            .iter()
            .map(|l| compact(&l.code))
            .find(|code| !code.is_empty())
            .unwrap_or_default()
    } else {
        same_line.to_string()
    };
    Some(body.strip_suffix('}').unwrap_or(&body).to_string())
}

/// Appends every (rule, message) that fires on one code line.
fn line_findings(code: &str, alloc_active: bool, out: &mut Vec<(&'static str, String)>) {
    if find_bounded(code, "Ordering::Relaxed") {
        out.push((
            "relaxed-atomic",
            "Ordering::Relaxed in deterministic code: cross-thread state that reaches \
             an output byte needs acquire/release edges (use Acquire/Release/AcqRel)"
                .to_string(),
        ));
    }
    if alloc_active {
        for path in ["Vec::new", "Box::new"] {
            if find_bounded(code, path) {
                out.push(("hot-path-alloc", format!("{path} allocates on the hot path")));
            }
        }
        for mac in ["vec", "format"] {
            if find_macro(code, mac) {
                out.push(("hot-path-alloc", format!("{mac}! allocates on the hot path")));
            }
        }
        for method in ["to_vec", "clone"] {
            if find_method_call(code, method) {
                out.push((
                    "hot-path-alloc",
                    format!(".{method}() allocates on the hot path"),
                ));
            }
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `needle` in `hay` with non-identifier characters (or the string
/// edge) on both sides. The needle may contain `::`.
fn find_bounded(hay: &str, needle: &str) -> bool {
    let h = hay.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() || h.len() < n.len() {
        return false;
    }
    let mut i = 0usize;
    while i + n.len() <= h.len() {
        if h.get(i..i + n.len()) == Some(n) {
            let before = i == 0 || !h.get(i - 1).copied().is_some_and(is_ident_byte);
            let after = !h.get(i + n.len()).copied().is_some_and(is_ident_byte);
            if before && after {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Finds `.name(` (whitespace allowed before the paren), rejecting longer
/// identifiers such as `.clone_from(`.
fn find_method_call(hay: &str, name: &str) -> bool {
    let h = hay.as_bytes();
    let n = name.as_bytes();
    let mut i = 0usize;
    while i + 1 + n.len() <= h.len() {
        let mut start = i + 1;
        while h.get(start).copied() == Some(b' ') || h.get(start).copied() == Some(b'\t') {
            start += 1;
        }
        if h.get(i).copied() == Some(b'.') && h.get(start..start + n.len()) == Some(n) {
            let mut j = start + n.len();
            if !h.get(j).copied().is_some_and(is_ident_byte) {
                while h.get(j).copied() == Some(b' ') || h.get(j).copied() == Some(b'\t') {
                    j += 1;
                }
                if h.get(j).copied() == Some(b'(') {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

/// Finds the macro invocation `name!` at an identifier boundary.
fn find_macro(hay: &str, name: &str) -> bool {
    let h = hay.as_bytes();
    let n = name.as_bytes();
    let mut i = 0usize;
    while i + n.len() < h.len() {
        if h.get(i..i + n.len()) == Some(n) && h.get(i + n.len()).copied() == Some(b'!') {
            let before = i == 0 || !h.get(i - 1).copied().is_some_and(is_ident_byte);
            if before {
                return true;
            }
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_reject_longer_idents() {
        assert!(find_method_call(".clone()", "clone"));
        assert!(find_method_call("x . clone ()", "clone"));
        assert!(!find_method_call(".clone_from(&y)", "clone"));
        assert!(!find_method_call("Arc::clone(&x)", "clone"));
        assert!(find_macro("vec![0; 4]", "vec"));
        assert!(!find_macro("smallvec![0; 4]", "vec"));
        assert!(!find_macro("vector!", "vec"));
        assert!(find_bounded("let v = Vec::new();", "Vec::new"));
        assert!(!find_bounded("SmallVec::new()", "Vec::new"));
    }

    #[test]
    fn allow_comment_parses_rule_and_reason() {
        assert_eq!(
            parse_allow("(relaxed-atomic) a statistic"),
            Ok("relaxed-atomic".to_string())
        );
        assert!(parse_allow("(relaxed-atomic)").is_err());
        assert!(parse_allow("(relaxed-atomic)   ").is_err());
        assert!(parse_allow("(expect) clippy's rule now").is_err());
        assert!(parse_allow(" relaxed-atomic reason").is_err());
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "\
fn f(a: &AtomicU8) -> u8 {
    // lint: allow(relaxed-atomic) a statistic no output byte reads
    a.load(Ordering::Relaxed)
}
";
        let r = scan_source(src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressions_used, 1);
    }

    #[test]
    fn suppression_does_not_leak_to_later_lines() {
        let src = "\
// lint: allow(relaxed-atomic) only the next line
fn f(a: &AtomicU8) -> u8 {
    a.load(Ordering::Relaxed)
}
";
        let r = scan_source(src);
        // The load escapes the two-line window; the out-of-range allow is
        // itself flagged as a dead suppression.
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.violations[0].rule, DEAD_SUPPRESSION);
        assert_eq!(r.violations[0].line, 1);
        assert_eq!(r.violations[1].rule, "relaxed-atomic");
        assert_eq!(r.violations[1].line, 3);
    }

    #[test]
    fn alloc_rule_needs_the_marker() {
        let src = "fn f() -> Vec<u8> { Vec::new() }\n";
        assert!(scan_source(src).violations.is_empty());
        let marked = format!("// netfi-lint: deny(hot-path-alloc)\n{src}");
        let r = scan_source(&marked);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "hot-path-alloc");
    }

    #[test]
    fn lint_attributes_count_outside_test_code() {
        let src = "\
#[expect(clippy::expect_used, reason = \"bounded\")]
fn f() {}
#[cfg(test)]
mod tests {
    #[allow(clippy::unwrap_used)]
    fn t() {}
}
";
        assert_eq!(scan_source(src).suppressions_used, 1);
    }

    #[test]
    fn doc_comments_do_not_trigger_directives() {
        // A doc comment *describing* the syntax starts with `/`, so the
        // directive parser (which anchors at the comment start) skips it.
        let src = "/// Write `// lint: allow(relaxed-atomic) reason` to suppress.\nfn f() {}\n";
        let r = scan_source(src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
