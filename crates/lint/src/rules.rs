//! The rule engine: scans one file's classified lines for violations.
//!
//! Rules match on the *code* part of each line (strings blanked, comments
//! stripped — see [`crate::lexer`]), at identifier boundaries, so `unwrap`
//! never matches `unwrap_or` and `panic!` never matches `should_panic`.
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
//! - `#[cfg(test)]`-gated items are exempt from everything — tests may
//!   unwrap.

use crate::lexer::{lex, Line};
use crate::policy::Policy;

/// All per-line rule identifiers, as they appear in diagnostics and
/// allow-comments.
pub const RULE_IDS: [&str; 11] = [
    "wall-clock",
    "unordered-collection",
    "env-access",
    "thread-spawn",
    "relaxed-atomic",
    "fork-not-clone",
    "unwrap",
    "expect",
    "panic",
    "hot-path-alloc",
    "unsafe-safety",
];

/// The rule id reported for malformed allow-comments (not suppressible).
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// The rule id for allow-comments that no longer suppress anything (not
/// itself suppressible — delete the dead comment instead).
pub const DEAD_SUPPRESSION: &str = "dead-suppression";

/// One finding: a rule fired at a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULE_IDS`] or [`ALLOW_SYNTAX`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// The result of scanning one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Violations, in line order.
    pub violations: Vec<Violation>,
    /// How many findings an allow-comment suppressed.
    pub suppressions_used: usize,
}

/// Scans one file's source under a policy.
pub fn scan_source(source: &str, policy: Policy) -> FileReport {
    let lines = lex(source);
    let mut report = FileReport::default();

    // Pass 1: comment directives — deny-marker, allow-comments.
    let mut alloc_active = false;
    let mut allows: Vec<(usize, String, bool)> = Vec::new();
    for line in &lines {
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
        let mut findings: Vec<(&'static str, String)> = Vec::new();
        line_findings(&line.code, policy, alloc_active, &mut findings);
        if policy.unsafe_audit
            && find_bounded(&line.code, "unsafe")
            && !safety_comment_nearby(&lines, idx)
        {
            findings.push((
                "unsafe-safety",
                "unsafe without an adjacent `SAFETY:` comment".to_string(),
            ));
        }
        if policy.determinism
            && find_bounded(&line.code, "fork")
            && fork_is_hand_written(&lines, idx)
        {
            findings.push((
                "fork-not-clone",
                "Component::fork must be `Box::new(self.clone())` on a #[derive(Clone)] type, \
                 so a field added later cannot be left out of a snapshot"
                    .to_string(),
            ));
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
        if !used {
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

/// Is there a `SAFETY:` comment on this line or within the 3 lines above?
fn safety_comment_nearby(lines: &[Line], idx: usize) -> bool {
    let from = idx.saturating_sub(3);
    lines
        .get(from..=idx)
        .unwrap_or_default()
        .iter()
        .any(|l| l.comment.contains("SAFETY:"))
}

/// Is line `idx` the head of a `Component::fork` implementation whose
/// body — the rest of that line or, if that is blank, the next line with
/// code — is anything but `Box::new(self.clone())`?
fn fork_is_hand_written(lines: &[Line], idx: usize) -> bool {
    let compact = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
    let Some(head) = lines.get(idx).map(|l| compact(&l.code)) else {
        return false;
    };
    let Some((_, tail)) = head.split_once("fnfork(&self)->Box<dyn") else {
        return false;
    };
    // A declaration (`…;`) has no body to hold to the rule.
    let Some((ret, same_line)) = tail.split_once('{') else {
        return false;
    };
    if !find_bounded(ret, "Component") {
        return false;
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
    body.strip_suffix('}').unwrap_or(&body) != "Box::new(self.clone())"
}

/// Appends every (rule, message) that fires on one code line.
fn line_findings(
    code: &str,
    policy: Policy,
    alloc_active: bool,
    out: &mut Vec<(&'static str, String)>,
) {
    if policy.determinism {
        if find_bounded(code, "Instant::now") || find_bounded(code, "SystemTime") {
            out.push((
                "wall-clock",
                "wall-clock time source in deterministic code (use SimTime)".to_string(),
            ));
        }
        for name in ["HashMap", "HashSet"] {
            if find_bounded(code, name) {
                out.push((
                    "unordered-collection",
                    format!("{name} iterates in nondeterministic order (use BTreeMap/BTreeSet)"),
                ));
            }
        }
        if find_path_root(code, "env") {
            out.push((
                "env-access",
                "process environment read in deterministic code".to_string(),
            ));
        }
        for call in ["thread::spawn", "thread::scope", "thread::Builder"] {
            if find_bounded(code, call) {
                out.push((
                    "thread-spawn",
                    format!("{call} introduces scheduling nondeterminism"),
                ));
            }
        }
        if find_bounded(code, "Ordering::Relaxed") {
            out.push((
                "relaxed-atomic",
                "Ordering::Relaxed in deterministic code: cross-thread state that reaches \
                 an output byte needs acquire/release edges (use Acquire/Release/AcqRel)"
                    .to_string(),
            ));
        }
    }
    if policy.panic_free {
        if find_method_call(code, "unwrap") {
            out.push((
                "unwrap",
                ".unwrap() can panic in library code; return a typed error".to_string(),
            ));
        }
        if find_method_call(code, "expect") {
            out.push((
                "expect",
                ".expect() can panic in library code; return a typed error or justify with an allow-comment"
                    .to_string(),
            ));
        }
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            if find_macro(code, mac) {
                out.push(("panic", format!("{mac}! panics in library code")));
            }
        }
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

/// Finds the identifier `root` immediately followed by `::` (so `env::var`
/// matches but `envelope::var` and `my_env` do not).
fn find_path_root(hay: &str, root: &str) -> bool {
    let h = hay.as_bytes();
    let n = root.as_bytes();
    let mut i = 0usize;
    while i + n.len() + 2 <= h.len() {
        if h.get(i..i + n.len()) == Some(n)
            && h.get(i + n.len()..i + n.len() + 2) == Some(b"::".as_slice())
        {
            let before = i == 0 || !h.get(i - 1).copied().is_some_and(is_ident_byte);
            if before {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Finds `.name(` (whitespace allowed before the paren), rejecting longer
/// identifiers such as `.unwrap_or(`.
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
        assert!(find_method_call(".unwrap()", "unwrap"));
        assert!(find_method_call("x . unwrap ()", "unwrap"));
        assert!(!find_method_call(".unwrap_or(0)", "unwrap"));
        assert!(!find_method_call(".unwrap_or_default()", "unwrap"));
        assert!(find_macro("panic!(\"x\")", "panic"));
        assert!(!find_macro("should_panic!", "panic"));
        assert!(!find_macro("panicky!", "panic"));
        assert!(find_bounded("let m: HashMap<u8, u8>", "HashMap"));
        assert!(!find_bounded("MyHashMapLike", "HashMap"));
        assert!(find_path_root("std::env::var(\"X\")", "env"));
        assert!(!find_path_root("crate::envelope::var()", "env"));
    }

    #[test]
    fn allow_comment_parses_rule_and_reason() {
        assert_eq!(parse_allow("(expect) bounded above"), Ok("expect".to_string()));
        assert!(parse_allow("(expect)").is_err());
        assert!(parse_allow("(expect)   ").is_err());
        assert!(parse_allow("(not-a-rule) why").is_err());
        assert!(parse_allow(" expect reason").is_err());
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "\
fn f(o: Option<u8>) -> u8 {
    // lint: allow(unwrap) proven Some by the caller
    o.unwrap()
}
";
        let r = scan_source(src, Policy::STRICT);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressions_used, 1);
    }

    #[test]
    fn suppression_does_not_leak_to_later_lines() {
        let src = "\
// lint: allow(unwrap) only the next line
fn f(o: Option<u8>) -> u8 {
    o.unwrap()
}
";
        let r = scan_source(src, Policy::STRICT);
        // The unwrap escapes the two-line window; the out-of-range allow is
        // itself flagged as a dead suppression.
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.violations[0].rule, DEAD_SUPPRESSION);
        assert_eq!(r.violations[0].line, 1);
        assert_eq!(r.violations[1].rule, "unwrap");
        assert_eq!(r.violations[1].line, 3);
    }

    #[test]
    fn alloc_rule_needs_the_marker() {
        let src = "fn f() -> Vec<u8> { Vec::new() }\n";
        assert!(scan_source(src, Policy::STRICT).violations.is_empty());
        let marked = format!("// netfi-lint: deny(hot-path-alloc)\n{src}");
        let r = scan_source(&marked, Policy::STRICT);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "hot-path-alloc");
    }

    #[test]
    fn safety_comment_window() {
        let with = "// SAFETY: len checked above\nlet x = unsafe { *p };\n";
        assert!(scan_source(with, Policy::STRICT).violations.is_empty());
        let far = "// SAFETY: too far away\n\n\n\n\nlet x = unsafe { *p };\n";
        let r = scan_source(far, Policy::STRICT);
        assert_eq!(r.violations[0].rule, "unsafe-safety");
    }

    #[test]
    fn doc_comments_do_not_trigger_directives() {
        // A doc comment *describing* the syntax starts with `/`, so the
        // directive parser (which anchors at the comment start) skips it.
        let src = "/// Write `// lint: allow(unwrap) reason` to suppress.\nfn f() {}\n";
        let r = scan_source(src, Policy::STRICT);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
