//! `netfi-lint` — a dependency-free invariant checker for the `netfi`
//! workspace.
//!
//! Clippy checks Rust; this checks *netfi*. Three workspace invariants are
//! load-bearing for the paper reproduction and invisible to generic
//! tooling:
//!
//! 1. **Determinism.** The simulation replays bit-identically (the golden
//!    hashes in `tests/determinism.rs` pin this), which is only true as
//!    long as no library crate on the replay path reads a wall clock, the
//!    process environment, an OS thread scheduler, or iterates a
//!    randomized-order collection. Rules: `wall-clock`,
//!    `unordered-collection`, `env-access`, `thread-spawn`.
//! 2. **Panic-freedom.** Fault-injection campaigns drive the stack with
//!    deliberately corrupted inputs; a library `.unwrap()` turns a
//!    modelled fault into a harness crash. Rules: `unwrap`, `expect`,
//!    `panic`.
//! 3. **Hot-path allocation discipline.** PR 1 made the per-event path
//!    allocation-free; the `hot-path-alloc` rule keeps it that way in the
//!    modules that opt in with a `netfi-lint: deny(hot-path-alloc)`
//!    comment after `//`.
//!
//! Plus an audit rule, `unsafe-safety`: any `unsafe` must carry an
//! adjacent `SAFETY:` comment (the workspace currently has none at all —
//! the rule keeps it honest if that changes).
//!
//! Beyond the per-line rules, the checker is structure-aware: the lexer
//! doubles as a brace/item-aware scanner ([`lexer::scan_items`]) that
//! recovers struct/enum field lists, derive lists and impl method bodies,
//! and a workspace-wide symbol index ([`index`]) relates them across
//! files. On top of that sit the **structural rules**:
//!
//! - `fork-completeness` — every type with a fork body (an `impl Fork`, a
//!   `fn fork` in an `impl Component`, or a `fork_via_clone!` listing)
//!   must read every declared field in the body that produces the fork
//!   (derived `Clone` counts as reading all of them; a hand-written
//!   `Clone` is held to the same per-field standard). The DESIGN.md §12
//!   capture inventory is machine-checked by this rule. Waive a field
//!   with `lint: allow(fork-skip) <field>: <reason>`.
//! - `dead-suppression` — an allow-comment (or fork-skip waiver) that no
//!   longer suppresses anything is itself a violation, so the suppression
//!   budget can only ratchet down.
//! - `relaxed-atomic` — `Ordering::Relaxed` in determinism-scope crates
//!   is flagged: where cross-thread state can reach an output byte, the
//!   byte-identity argument needs acquire/release edges.
//!
//! The checker is std-only Rust: a hand-rolled lexer + item scanner
//! ([`lexer`]), identifier-boundary pattern rules and structural rules
//! ([`rules`]), a symbol index ([`index`]), a per-crate policy table
//! ([`policy`]) and a workspace walker ([`walk`]). No `syn`, no rustc
//! plugins — it must build instantly, offline, before anything it checks.
//! Escape hatches are comments (`lint: allow(<rule>) <reason>` after
//! `//`), so every suppression is grep-able, reviewed in diffs, and
//! counted in the report.
//!
//! The binary (`netfi-lint [--format json] [ROOT]`) exits 0 when clean, 1
//! on violations, 2 on usage or I/O errors; `scripts/check.sh` runs it
//! between rustdoc and the benchmark compare stage.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod index;
pub mod lexer;
pub mod policy;
pub mod rules;
pub mod walk;

pub use index::{crate_of, ForkSite, ForkVia, SymbolIndex, TypeDef};
pub use policy::{policy_for, Policy};
pub use rules::{
    scan_source, scan_structural, FileReport, StructuralReport, Violation, ALLOW_SYNTAX,
    DEAD_SUPPRESSION, FORK_COMPLETENESS, RULE_IDS, WAIVER_IDS,
};
pub use walk::{scan_workspace, Diagnostic, WorkspaceReport};
