//! Fixture-driven rule tests: each fixture seeds known violations at
//! known lines, and the scan must report exactly those — rule id, line
//! number, nothing else. Fixtures live in `tests/fixtures/` (a
//! subdirectory, so cargo does not compile them as test targets).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi_lint::{scan_source, FileReport, Policy};

/// Scans a fixture under the full (strict) policy.
fn scan(source: &str) -> FileReport {
    scan_source(source, Policy::STRICT)
}

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
fn wall_clock_fixture() {
    let r = scan(include_str!("fixtures/wall_clock.rs"));
    assert_findings(&r, &[(5, "wall-clock")]);
}

#[test]
fn unordered_collection_fixture() {
    let r = scan(include_str!("fixtures/unordered.rs"));
    assert_findings(
        &r,
        &[(4, "unordered-collection"), (6, "unordered-collection")],
    );
    assert!(r.violations[0].message.contains("HashMap"));
}

/// The snapshot/fork seam added with the chaos grid lives in the strict
/// determinism scope like everything else in `sim`: a fork must replay
/// bit-identically, so a capture path that reads the wall clock or holds
/// state in a hash-ordered collection is a lint violation, not a style
/// choice. The fixture plants both inside a `Snapshot` impl and the scan
/// must report exactly them.
#[test]
fn snapshot_fork_fixture() {
    let r = scan(include_str!("fixtures/snapshot_fork.rs"));
    assert_findings(
        &r,
        &[(7, "unordered-collection"), (12, "wall-clock")],
    );
    assert!(r.violations[1].message.contains("SimTime"));
}

#[test]
fn env_access_fixture() {
    let r = scan(include_str!("fixtures/env_access.rs"));
    assert_findings(&r, &[(4, "env-access")]);
}

#[test]
fn thread_spawn_fixture() {
    let r = scan(include_str!("fixtures/thread_spawn.rs"));
    assert_findings(&r, &[(3, "thread-spawn")]);
}

#[test]
fn unwrap_fixture() {
    let r = scan(include_str!("fixtures/unwrap.rs"));
    assert_findings(&r, &[(5, "unwrap")]);
}

#[test]
fn expect_fixture() {
    let r = scan(include_str!("fixtures/expect.rs"));
    assert_findings(&r, &[(4, "expect")]);
}

#[test]
fn panic_fixture() {
    let r = scan(include_str!("fixtures/panic.rs"));
    assert_findings(&r, &[(5, "panic"), (13, "panic")]);
    assert!(r.violations[1].message.contains("todo!"));
}

#[test]
fn alloc_fixture_with_marker() {
    let r = scan(include_str!("fixtures/alloc.rs"));
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
    let r = scan(&without_marker);
    assert_findings(&r, &[]);
}

#[test]
fn unsafe_fixture() {
    let r = scan(include_str!("fixtures/unsafe_block.rs"));
    assert_findings(&r, &[(4, "unsafe-safety")]);
}

#[test]
fn allowlist_suppresses_with_reason() {
    let r = scan(include_str!("fixtures/allow_ok.rs"));
    assert_findings(&r, &[]);
    assert_eq!(r.suppressions_used, 3);
}

#[test]
fn malformed_allowlist_is_itself_a_violation() {
    let r = scan(include_str!("fixtures/allow_bad.rs"));
    assert_findings(
        &r,
        &[
            (5, "allow-syntax"),
            (6, "unwrap"),
            (7, "allow-syntax"),
            (8, "unwrap"),
        ],
    );
    assert_eq!(r.suppressions_used, 0);
}

#[test]
fn relaxed_atomic_fixture() {
    let r = scan(include_str!("fixtures/relaxed_atomic.rs"));
    assert_findings(&r, &[(6, "relaxed-atomic"), (11, "relaxed-atomic")]);
    // Acquire/Release on the lines between are not flagged — the rule
    // targets the ordering, not atomics in general.
}

#[test]
fn fork_not_clone_fixture() {
    let r = scan(include_str!("fixtures/fork_not_clone.rs"));
    assert_findings(&r, &[(33, "fork-not-clone")]);
    // Out of the determinism scope (how `bench` is scanned) it is silent.
    let bench_like = Policy {
        determinism: false,
        ..Policy::STRICT
    };
    let r = scan_source(include_str!("fixtures/fork_not_clone.rs"), bench_like);
    assert_findings(&r, &[]);
}

#[test]
fn dead_allow_fixture() {
    let r = scan(include_str!("fixtures/dead_allow.rs"));
    assert_findings(&r, &[(11, "dead-suppression"), (15, "dead-suppression")]);
    // The live allow still suppresses its unwrap; only it counts.
    assert_eq!(r.suppressions_used, 1);
}

/// Hazards that historically desync line or brace tracking — raw strings
/// holding quotes and braces, char literals holding `"` `{` `}`, nested
/// block comments, a backslash-newline string continuation — must not
/// shift the reported line of a violation planted after all of them.
#[test]
fn lexer_edges_fixture() {
    let r = scan(include_str!("fixtures/lexer_edges.rs"));
    assert_findings(&r, &[(33, "unwrap")]);
}

#[test]
fn clean_fixture_reports_nothing() {
    let r = scan(include_str!("fixtures/clean.rs"));
    assert_findings(&r, &[]);
    assert_eq!(r.suppressions_used, 0);
}

#[test]
fn policy_disables_rule_families() {
    // The same panic fixture is clean under a policy that waives
    // panic-freedom (this is how `bench` is scanned).
    let bench_like = Policy {
        determinism: false,
        panic_free: false,
        unsafe_audit: true,
    };
    let r = scan_source(include_str!("fixtures/panic.rs"), bench_like);
    assert_findings(&r, &[]);
    // And the wall-clock fixture is clean without the determinism family.
    let r = scan_source(include_str!("fixtures/wall_clock.rs"), bench_like);
    assert_findings(&r, &[]);
}
