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
//!    randomized-order collection, and no cross-thread state reaches an
//!    output byte through `Ordering::Relaxed`. Rules: `wall-clock`,
//!    `unordered-collection`, `env-access`, `thread-spawn`,
//!    `relaxed-atomic` — and `fork-not-clone`: a `Component::fork` body
//!    must be `Box::new(self.clone())`, so the snapshot copy of every
//!    component is a `#[derive(Clone)]` the compiler keeps complete.
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
//! And one rule about the escape hatch itself, `dead-suppression`: an
//! allow-comment that no longer suppresses anything is a violation, so
//! the suppression budget can only ratchet down.
//!
//! The checker is std-only Rust: a hand-rolled line lexer ([`lexer`]),
//! identifier-boundary pattern rules ([`rules`]), a per-crate policy
//! table ([`policy`]) and a workspace walker ([`walk`]). No `syn`, no
//! rustc plugins — it must build instantly, offline, before anything it
//! checks. It reads lines, not items: what a type's fields are and
//! whether a copy covers them is the compiler's job (`#[derive(Clone)]`),
//! not this crate's.
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

pub mod lexer;
pub mod policy;
pub mod rules;
pub mod walk;

pub use policy::{policy_for, Policy};
pub use rules::{
    scan_source, FileReport, Violation, ALLOW_SYNTAX, DEAD_SUPPRESSION, RULE_IDS,
};
pub use walk::{crate_of, scan_workspace, Diagnostic, WorkspaceReport};
