//! Fixture-driven rule tests: each fixture seeds known violations at
//! known lines, and the scan must report exactly those — rule id, line
//! number, nothing else. Fixtures live in `tests/fixtures/` (a
//! subdirectory, so cargo does not compile them as test targets).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi_lint::{scan_source, scan_sources, FileReport, RULE_IDS};

/// Asserts the report holds exactly `expected` as (line, rule) pairs.
fn assert_findings(report: &FileReport, expected: &[(usize, &str)]) {
    let got: Vec<(usize, &str)> = report
        .violations
        .iter()
        .map(|v| (v.line, v.rule))
        .collect();
    assert_eq!(got, expected, "full report: {:#?}", report.violations);
}

#[test]
fn the_rules_are_the_four_clippy_cannot_check() {
    assert_eq!(RULE_IDS, ["hot-path-alloc", "relaxed-atomic", "fork-not-clone", "unused-pub"]);
}

#[test]
fn alloc_fixture_with_marker() {
    let r = scan_source(include_str!("fixtures/alloc.rs"));
    assert_findings(
        &r,
        &[
            (6, "hot-path-alloc"),
            (7, "hot-path-alloc"),
            (8, "hot-path-alloc"),
        ],
    );
}

#[test]
fn alloc_fixture_without_marker_is_clean() {
    // Strip the marker line: the same allocations stop being violations,
    // because the rule is strictly opt-in per file.
    let src = include_str!("fixtures/alloc.rs");
    let without_marker: String = src
        .lines()
        .filter(|l| !l.contains("deny(hot-path-alloc)"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_findings(&scan_source(&without_marker), &[]);
}

#[test]
fn allowlist_suppresses_with_reason() {
    let r = scan_source(include_str!("fixtures/allow_ok.rs"));
    assert_findings(&r, &[]);
    assert_eq!(r.suppressions_used, 3);
}

/// A reasonless allow and an allow naming a rule clippy owns (a leftover
/// `lint: allow(expect)`) are both `allow-syntax`, and neither suppresses.
#[test]
fn malformed_allowlist_is_itself_a_violation() {
    let r = scan_source(include_str!("fixtures/allow_bad.rs"));
    assert_findings(
        &r,
        &[
            (5, "allow-syntax"),
            (6, "relaxed-atomic"),
            (7, "allow-syntax"),
            (8, "relaxed-atomic"),
        ],
    );
    assert!(r.violations[2].message.contains("`expect`"));
    assert_eq!(r.suppressions_used, 0);
}

#[test]
fn relaxed_atomic_fixture() {
    let r = scan_source(include_str!("fixtures/relaxed_atomic.rs"));
    assert_findings(&r, &[(6, "relaxed-atomic"), (11, "relaxed-atomic")]);
    // Acquire/Release on the lines between are not flagged — the rule
    // targets the ordering, not atomics in general.
}

#[test]
fn fork_not_clone_fixture() {
    let r = scan_source(include_str!("fixtures/fork_not_clone.rs"));
    assert_findings(
        &r,
        &[
            (41, "fork-not-clone"),
            (44, "fork-not-clone"),
            (61, "fork-not-clone"),
        ],
    );
    // Each message names both ways a type may take its `Clone`.
    for v in &r.violations {
        for name in ["#[derive(Clone)]", "netfi_sim::clone_in_place!"] {
            assert!(v.message.contains(name), "{}: {}", v.line, v.message);
        }
    }
    assert!(r.violations[0].message.starts_with("Component::fork must"));
    assert!(r.violations[1].message.contains("netfi_sim::clone_onto(self, dst)"));
}

#[test]
fn dead_allow_fixture() {
    let r = scan_source(include_str!("fixtures/dead_allow.rs"));
    assert_findings(&r, &[(11, "dead-suppression"), (15, "dead-suppression")]);
    // The live allow still suppresses its load; only it counts.
    assert_eq!(r.suppressions_used, 1);
}

/// Hazards that historically desync line or brace tracking — raw strings
/// holding quotes and braces, char literals holding `"` `{` `}`, nested
/// block comments, a backslash-newline string continuation — must not
/// shift the reported line of a violation planted after all of them.
#[test]
fn lexer_edges_fixture() {
    let r = scan_source(include_str!("fixtures/lexer_edges.rs"));
    assert_findings(&r, &[(33, "relaxed-atomic")]);
}

/// `unused-pub` needs a workspace: the fixture is crate `a`'s library,
/// crate `b` names `FixtureCalled` and `a`'s own integration test names
/// `FixtureCalled2`. Reported: a name only a `text` block shows, a
/// caller-less `fn`, an enum nothing names, a type named only by its own
/// constructor's signature, a type only a private field holds, that
/// constructor, and both names of a `pub use`. Not reported: what another
/// file names, what a doc example calls, what another `pub` item's
/// signature, variant or `pub` field holds, and test code. The waiver
/// suppresses its item; the one over an item a test names is dead.
#[test]
fn unused_pub_fixture() {
    let fixture = include_str!("fixtures/unused_pub.rs");
    let files = [
        ("crates/a/src/lib.rs", fixture),
        ("crates/a/tests/t.rs", "fn t() { let _ = a::FixtureCalled2; }\n"),
        ("crates/b/src/lib.rs", "fn b() { let _ = a::FixtureCalled; }\n"),
    ]
    .map(|(label, src)| (label.to_string(), src.to_string()));
    let report = scan_sources(&files);
    let got: Vec<(&str, usize, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    let a = "crates/a/src/lib.rs";
    let unused = [14, 17, 20, 24, 29, 31, 35, 35].map(|line| (a, line, "unused-pub"));
    assert_eq!(got, [&unused[..], &[(a, 38, "dead-suppression")]].concat());
    assert!(report.diagnostics[6].message.contains("`fixture_reexported`"));
    assert!(report.diagnostics[7].message.contains("`FixtureAlias`"));
    assert_eq!(report.suppressions, 1);
    assert_eq!(report.crates, ["a", "b"]);
    // One file alone has no name index: nothing is reported or judged.
    assert_findings(&scan_source(fixture), &[]);
}

#[test]
fn clean_fixture_reports_nothing() {
    let r = scan_source(include_str!("fixtures/clean.rs"));
    assert_findings(&r, &[]);
    assert_eq!(r.suppressions_used, 0);
}
