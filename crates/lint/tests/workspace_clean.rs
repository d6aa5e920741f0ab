//! The dogfood gate: the real workspace must scan clean, each rule must
//! be live against the real sources, and every crate but `bench` must stay
//! inside the clippy gate that owns the generic rules. This is the one
//! place the scan runs; `cargo test --workspace` runs it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};

/// crates/lint/ -> workspace root.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The directories under `crates/` except `bench`, sorted.
fn crates_but_bench() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("list crates/")
        .map(|e| e.expect("crates/ entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name != "bench")
        .collect();
    names.sort();
    assert!(names.len() >= 10, "too few crates found: {names:?}");
    names
}

#[test]
fn workspace_has_no_lint_violations() {
    let report = netfi_lint::scan_workspace(&root()).expect("workspace scan");
    assert!(
        report.diagnostics.is_empty(),
        "netfi-lint found violations in the workspace:\n{}",
        report.render_lines().join("\n")
    );
    // The walker saw the whole workspace, not an empty directory: the
    // sources of every crate but `bench`, then the root package.
    assert!(
        report.files >= 80,
        "suspiciously few files scanned: {}",
        report.files
    );
    let mut surface = crates_but_bench();
    surface.push("netfi".to_string());
    assert_eq!(report.crates, surface, "the walker's crates are not the workspace's");

    // One budget for every waiver in library code: the allow-comments
    // netfi-lint honoured plus clippy's `#[allow]` / `#[expect]`
    // attributes. 23 is the measured count: 10 hot-path-alloc comments
    // (setup paths; `snapshot` and `fork` share the one on
    // `Engine::snapshot`'s core clone), 10 `expect_used` (the `SimTime` /
    // `SimDuration` operators and documented panics, `add_component`,
    // `SharedBytes::from`, `MapMsg::encode`), 2 `disallowed_methods`
    // (`sim::shard`'s window fan-out and `nftape::runner::fan_out`, the
    // one campaign fan-out) and 1 `should_implement_trait`
    // (`ResourceEstimate::add`). The ceiling sits exactly on it; it can
    // only move down, or up in the same commit that adds a justified
    // waiver. The floor keeps the counter itself live: the ten
    // hot-path-alloc comments alone reach it.
    assert!(
        report.suppressions >= 10,
        "suppressions fell to {}: is the counter still counting?",
        report.suppressions
    );
    assert!(
        report.suppressions <= 23,
        "suppressions grew to {} — review before raising the budget",
        report.suppressions
    );
}

/// Each rule fires at a site planted in a live workspace file: an
/// allocation in the flight recorder (opted into `deny(hot-path-alloc)`),
/// the switch's `fork` and `fork_onto` copied field by field, an ordering
/// in the sharded executor downgraded to `Relaxed`, a caller-less `pub fn`
/// in the flight recorder, a stranded allow-comment, and a leftover
/// allow-comment for a rule clippy now owns.
#[test]
fn every_rule_is_live_in_the_workspace() {
    let flight = read("crates/obs/src/flight.rs");
    assert!(netfi_lint::scan_source(&flight).violations.is_empty());
    let planted = flight.replace(
        "self.slots.push(record);",
        "self.slots.push(record); let _: Vec<u8> = Vec::new();",
    );
    assert_ne!(planted, flight, "plant site missing from flight.rs");
    let bad = netfi_lint::scan_source(&planted);
    assert!(
        bad.violations.iter().any(|v| v.rule == "hot-path-alloc"),
        "deny(hot-path-alloc) marker in flight.rs is not live"
    );

    // fork-not-clone: a hand-written `Switch::fork` would drop any field
    // added to `Switch` later from every snapshot. The diagnostic anchors
    // at the `fn fork` line.
    let switch = read("crates/myrinet/src/switch.rs");
    assert!(netfi_lint::scan_source(&switch).violations.is_empty());
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
    let got: Vec<(usize, &str)> = netfi_lint::scan_source(&planted)
        .violations
        .iter()
        .map(|v| (v.line, v.rule))
        .collect();
    assert_eq!(got, [(fork_line, "fork-not-clone")]);
    // The same rule holds `Switch::fork_onto` to its one helper call.
    let fork_onto_line = switch
        .lines()
        .position(|l| l.contains("fn fork_onto(&self, dst: &mut Box<dyn Component<Ev>>) {"))
        .map(|i| i + 1)
        .expect("Switch fork_onto fn in switch.rs");
    let planted = switch.replacen(
        "netfi_sim::clone_onto(self, dst)",
        "*dst = Box::new(Switch { ports: self.ports.clone(), stats: self.stats })",
        1,
    );
    assert_ne!(planted, switch, "fork_onto plant site missing from switch.rs");
    let got: Vec<(usize, &str)> = netfi_lint::scan_source(&planted)
        .violations
        .iter()
        .map(|v| (v.line, v.rule))
        .collect();
    assert_eq!(got, [(fork_onto_line, "fork-not-clone")]);

    // relaxed-atomic: downgrade one of the sharded executor's exit-flag
    // loads back to `Relaxed`.
    let shard = read("crates/sim/src/shard.rs");
    assert!(netfi_lint::scan_source(&shard).violations.is_empty());
    let planted = shard.replace(
        "slot.halt.load(Ordering::Acquire)",
        "slot.halt.load(Ordering::Relaxed)",
    );
    assert_ne!(planted, shard, "plant site missing from shard.rs");
    let bad = netfi_lint::scan_source(&planted);
    assert!(
        bad.violations.iter().any(|v| v.rule == "relaxed-atomic"),
        "relaxed-atomic is not live in crates/sim/src/shard.rs"
    );

    // unused-pub: a caller-less `pub fn` in the flight recorder is
    // reported at its line, and the same name in a doc example clears it.
    let mut files = netfi_lint::workspace_sources(&root()).expect("workspace sources");
    let at = files
        .iter()
        .position(|(label, _)| label == "crates/obs/src/flight.rs")
        .expect("flight.rs among the workspace sources");
    files[at].1.push_str("pub fn planted_caller_less() {}\n");
    let line = files[at].1.lines().count();
    let got: Vec<(String, usize, &str)> = netfi_lint::scan_sources(&files)
        .diagnostics
        .into_iter()
        .map(|d| (d.file, d.line, d.rule))
        .collect();
    assert_eq!(got, [("crates/obs/src/flight.rs".to_string(), line, "unused-pub")]);
    files[at].1.push_str("/// ```\n/// netfi_obs::flight::planted_caller_less();\n/// ```\nfn f() {}\n");
    assert!(netfi_lint::scan_sources(&files).diagnostics.is_empty());

    // dead-suppression and allow-syntax: the escape hatch polices itself.
    for (comment, rule) in [
        ("lint: allow(relaxed-atomic) nothing here needs this", netfi_lint::DEAD_SUPPRESSION),
        ("lint: allow(expect) clippy owns this rule now", netfi_lint::ALLOW_SYNTAX),
    ] {
        let planted = format!("{shard}\n// {comment}\n");
        let bad = netfi_lint::scan_source(&planted);
        assert!(
            bad.violations.iter().any(|v| v.rule == rule),
            "{rule} is not live against a planted `{comment}`"
        );
    }
}

/// The generic rules live in clippy, which sees a crate only through its
/// `[lints] workspace = true` table and the root `clippy.toml`. A crate
/// that dropped the table, or a ban that left the file, would leave the
/// gate silently; this keeps either red.
#[test]
fn every_crate_but_bench_is_inside_the_clippy_gate() {
    let mut manifests = vec!["Cargo.toml".to_string()];
    manifests.extend(crates_but_bench().iter().map(|name| format!("crates/{name}/Cargo.toml")));
    for manifest in &manifests {
        assert!(
            read(manifest).contains("[lints]\nworkspace = true"),
            "{manifest} does not opt into the workspace lints"
        );
    }
    assert!(
        read("crates/bench/Cargo.toml")
            .contains("[lints.clippy]\nundocumented_unsafe_blocks = \"warn\""),
        "bench's `unsafe` left the audit"
    );

    let workspace = read("Cargo.toml");
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "undocumented_unsafe_blocks",
    ] {
        assert!(
            workspace.contains(&format!("\n{lint} = \"warn\"")),
            "the workspace lint table lost clippy::{lint}"
        );
    }
    let clippy = read("clippy.toml");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::time::SystemTime::elapsed",
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::env::vars_os",
        "std::env::args",
        "std::env::args_os",
        "std::env::current_dir",
        "std::env::set_current_dir",
        "std::env::current_exe",
        "std::env::temp_dir",
        "std::env::set_var",
        "std::env::remove_var",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::new",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ] {
        assert!(
            clippy.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer bans {path}"
        );
    }
}
