//! Fixture-driven rule tests: each fixture seeds known violations at
//! known lines, and the scan must report exactly those — rule id, line
//! number, nothing else. Fixtures live in `tests/fixtures/` (a
//! subdirectory, so cargo does not compile them as test targets).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi_lint::{scan_source, FileReport, RULE_IDS};

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
fn the_rules_are_the_three_clippy_cannot_check() {
    assert_eq!(RULE_IDS, ["hot-path-alloc", "relaxed-atomic", "fork-not-clone"]);
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
    assert_findings(&r, &[(33, "fork-not-clone")]);
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

#[test]
fn clean_fixture_reports_nothing() {
    let r = scan_source(include_str!("fixtures/clean.rs"));
    assert_findings(&r, &[]);
    assert_eq!(r.suppressions_used, 0);
}
