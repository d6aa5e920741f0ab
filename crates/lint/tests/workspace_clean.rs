//! The dogfood gate: the real workspace must scan clean.
//!
//! This is the same scan `scripts/check.sh` runs via the `netfi-lint`
//! binary, wired into `cargo test` so a violation fails CI even if the
//! check script is skipped. It also pins the scan surface: if crates are
//! added, the file count here reminds the author to classify them in the
//! policy table.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;

#[test]
fn workspace_has_no_lint_violations() {
    // crates/lint/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let report = netfi_lint::scan_workspace(root).expect("workspace scan");
    assert!(
        report.diagnostics.is_empty(),
        "netfi-lint found violations in the workspace:\n{}",
        report.render_lines().join("\n")
    );
    // The walker saw the whole workspace, not an empty directory.
    assert!(
        report.files >= 80,
        "suspiciously few files scanned: {}",
        report.files
    );
    // Every workspace crate is inside the scan surface. In particular the
    // observability subsystem: `obs` is in the strict (determinism +
    // panic-freedom) scope of the policy table, and this pins that the
    // scope is real — the walker actually visits its sources.
    for name in [
        "bench", "core", "detect", "fc", "lint", "myrinet", "netstack", "nftape", "obs", "phy",
        "sample", "sim", "netfi",
    ] {
        assert!(
            report.crates.iter().any(|c| c == name),
            "crate `{name}` missing from the scan surface: {:?}",
            report.crates
        );
    }
    // The flight recorder opted into `deny(hot-path-alloc)`; it must scan
    // clean under the obs policy, and the deny marker must be live —
    // planting an allocation in the same file has to be caught.
    let flight = std::fs::read_to_string(root.join("crates/obs/src/flight.rs"))
        .expect("read crates/obs/src/flight.rs");
    let file = netfi_lint::scan_source(&flight, netfi_lint::policy_for("obs"));
    assert!(
        file.violations.is_empty(),
        "obs flight recorder must scan clean: {:#?}",
        file.violations
    );
    let planted = flight.replace(
        "self.slots.clear();",
        "self.slots.clear(); let _: Vec<u8> = Vec::new();",
    );
    assert_ne!(planted, flight, "plant site missing from flight.rs");
    let bad = netfi_lint::scan_source(&planted, netfi_lint::policy_for("obs"));
    assert!(
        bad.violations.iter().any(|v| v.rule == "hot-path-alloc"),
        "deny(hot-path-alloc) marker in flight.rs is not live"
    );
    // The snapshot/fork seam is inside the determinism scope: the capture
    // code in `sim` scans clean under the strict policy, and the rules are
    // live there — planting a wall-clock read or a hash-ordered collection
    // beside `EngineSnapshot` must fire. A fork that consulted either
    // could not be bit-identical to a fresh run.
    let engine = std::fs::read_to_string(root.join("crates/sim/src/engine.rs"))
        .expect("read crates/sim/src/engine.rs");
    let file = netfi_lint::scan_source(&engine, netfi_lint::policy_for("sim"));
    assert!(
        file.violations.is_empty(),
        "the snapshot/fork seam must scan clean: {:#?}",
        file.violations
    );
    let planted = engine.replace(
        "pub struct EngineSnapshot<",
        "fn stamp() -> std::time::SystemTime { std::time::SystemTime::now() }\nfn table() -> std::collections::HashMap<u8, u8> { std::collections::HashMap::new() }\npub struct EngineSnapshot<",
    );
    assert_ne!(planted, engine, "plant site missing from engine.rs");
    let bad = netfi_lint::scan_source(&planted, netfi_lint::policy_for("sim"));
    for rule in ["wall-clock", "unordered-collection"] {
        assert!(
            bad.violations.iter().any(|v| v.rule == rule),
            "{rule} is not live in crates/sim/src/engine.rs"
        );
    }

    // Suppressions are budgeted: every one is a reviewed escape hatch, and
    // this ceiling keeps the count from silently creeping. The floor pins
    // that the thread-spawn allowlist entries are actually being counted
    // here, not waived by policy.
    assert!(
        report.suppressions >= 4,
        "nftape's allowlist entries vanished from the budget: {}",
        report.suppressions
    );
    // 25 is the measured count: 13 expect, 10 hot-path-alloc (setup
    // paths; `snapshot` and `fork` share the one on `Engine::snapshot`'s
    // core clone) and 2 thread-spawn (`sim::shard`'s window fan-out and
    // `nftape::runner::fan_out`, the one campaign fan-out). No library
    // crate reads the environment. The ceiling sits exactly on it; it can
    // only move down, or up in the same commit that adds a justified (and
    // exercised) allow.
    assert!(
        report.suppressions <= 25,
        "allow-comment suppressions grew to {} — review before raising the budget",
        report.suppressions
    );
}

/// The rules that guard the determinism argument itself are live against
/// the real workspace, not just fixtures: rewrite the switch's fork as a
/// field-by-field copy, downgrade an ordering in the sharded executor to
/// `Relaxed`, plant a dead allow-comment, and each rule must fire at the
/// planted site.
#[test]
fn fork_atomic_and_suppression_rules_are_live_in_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");

    // fork-not-clone: a hand-written `Switch::fork` would drop any field
    // added to `Switch` later from every snapshot. The diagnostic anchors
    // at the `fn fork` line.
    let myrinet = netfi_lint::policy_for("myrinet");
    let switch = std::fs::read_to_string(root.join("crates/myrinet/src/switch.rs"))
        .expect("read crates/myrinet/src/switch.rs");
    let fork_line = switch
        .lines()
        .position(|l| l.contains("fn fork(&self) -> Box<dyn Component<Ev>> {"))
        .map(|i| i + 1)
        .expect("Switch fork fn in switch.rs");
    let planted = switch.replacen(
        "Box::new(self.clone())",
        "Box::new(Switch { ports: self.ports.clone(), stats: self.stats })",
        1,
    );
    assert_ne!(planted, switch, "plant site missing from switch.rs");
    let bad = netfi_lint::scan_source(&planted, myrinet);
    let got: Vec<(usize, &str)> = bad.violations.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(got, [(fork_line, "fork-not-clone")]);
    assert!(
        netfi_lint::scan_source(&switch, myrinet).violations.is_empty(),
        "switch.rs should scan clean before the plant"
    );

    // relaxed-atomic: downgrade one of the sharded executor's exit-flag
    // loads back to `Relaxed` — the determinism policy must reject it.
    let shard = std::fs::read_to_string(root.join("crates/sim/src/shard.rs"))
        .expect("read crates/sim/src/shard.rs");
    let planted = shard.replace("exit.load(Ordering::Acquire)", "exit.load(Ordering::Relaxed)");
    assert_ne!(planted, shard, "plant site missing from shard.rs");
    let bad = netfi_lint::scan_source(&planted, netfi_lint::policy_for("sim"));
    assert!(
        bad.violations.iter().any(|v| v.rule == "relaxed-atomic"),
        "relaxed-atomic is not live in crates/sim/src/shard.rs"
    );
    assert!(
        netfi_lint::scan_source(&shard, netfi_lint::policy_for("sim"))
            .violations
            .is_empty(),
        "shard.rs should scan clean before the plant"
    );

    // dead-suppression: an allow-comment with nothing to suppress is
    // itself a violation, wherever it lands.
    let planted = format!("{shard}\n// lint: allow(unwrap) nothing here needs this\n");
    let bad = netfi_lint::scan_source(&planted, netfi_lint::policy_for("sim"));
    assert!(
        bad.violations
            .iter()
            .any(|v| v.rule == netfi_lint::DEAD_SUPPRESSION),
        "dead-suppression is not live against a planted dead allow"
    );
}

/// nftape is in the strict determinism scope; its one scoped fan-out
/// (`runner::fan_out`) survives only through a per-site allow-comment.
/// This test pins all three sides of that arrangement: the file scans
/// clean, the allow-comment is live (removing it makes the rule fire),
/// and the same construct has no escape hatch in engine-scope crates.
#[test]
fn nftape_allowlist_is_live_not_a_policy_hole() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let nftape = netfi_lint::policy_for("nftape");
    assert!(nftape.determinism, "nftape left the determinism scope");

    let (rel, rule) = ("crates/nftape/src/runner.rs", "thread-spawn");
    let src = std::fs::read_to_string(root.join(rel)).expect(rel);
    let file = netfi_lint::scan_source(&src, nftape);
    assert!(
        file.violations.is_empty(),
        "{rel} must scan clean under the strict nftape policy: {:#?}",
        file.violations
    );
    assert!(
        file.suppressions_used >= 1,
        "{rel} exercised no allow-comment — did the {rule} site move?"
    );
    // Strip the allow-comments: the rule must fire, proving the scan
    // still sees the construct and only the comment stands between it
    // and a diagnostic.
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains(&format!("lint: allow({rule})")))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(stripped, src, "no allow({rule}) comment found in {rel}");
    let bad = netfi_lint::scan_source(&stripped, nftape);
    assert!(
        bad.violations.iter().any(|v| v.rule == rule),
        "{rule} did not fire in {rel} once its allow-comment was removed"
    );

    // Engine-scope crates get no such comments today, so the rule must
    // still bite there: the fixture fires under every strict policy.
    let fixture = include_str!("fixtures/thread_spawn.rs");
    for name in ["sim", "core", "netstack", "obs"] {
        let r = netfi_lint::scan_source(fixture, netfi_lint::policy_for(name));
        assert!(
            r.violations.iter().any(|v| v.rule == "thread-spawn"),
            "thread-spawn must fire under the `{name}` policy"
        );
    }
}
