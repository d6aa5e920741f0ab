//! `netfi-lint` — a dependency-free invariant checker for the `netfi`
//! workspace.
//!
//! Clippy checks the generic rules (panic-freedom, `// SAFETY:` on every
//! `unsafe` block, and the determinism bans on wall clocks, the process
//! environment, OS threads and hash-ordered collections; see the root
//! `Cargo.toml` and `clippy.toml`). This crate checks the three
//! invariants no generic tool can see:
//!
//! - `relaxed-atomic`: the simulation replays bit-identically (the golden
//!   hashes in `tests/determinism.rs` pin this), so no cross-thread state
//!   may reach an output byte through `Ordering::Relaxed`;
//! - `fork-not-clone`: a `Component::fork` body must be
//!   `Box::new(self.clone())`, so the snapshot copy of every component is
//!   a `#[derive(Clone)]` the compiler keeps complete;
//! - `hot-path-alloc`: the per-event path is allocation-free in the
//!   modules that opt in with a `netfi-lint: deny(hot-path-alloc)`
//!   comment after `//`.
//!
//! Plus two rules about its own escape hatch: `allow-syntax` (an
//! allow-comment without a reason, or naming a rule not listed above) and
//! `dead-suppression` (an allow-comment that no longer suppresses
//! anything), so the suppression budget can only ratchet down.
//!
//! The rules apply to the library sources of every crate but `bench`.
//! The checker is std-only Rust: a hand-rolled line lexer ([`lexer`]),
//! identifier-boundary pattern rules ([`rules`]) and a workspace walker
//! ([`walk`]). No `syn`, no rustc plugins. It reads lines, not items: what
//! a type's fields are and whether a copy covers them is the compiler's
//! job (`#[derive(Clone)]`), not this crate's.
//! Escape hatches are comments (`lint: allow(<rule>) <reason>` after
//! `//`), so every suppression is grep-able, reviewed in diffs, and
//! counted in the report.
//!
//! There is no binary: `tests/workspace_clean.rs` scans the workspace as
//! part of `cargo test --workspace`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{scan_source, FileReport, Violation, ALLOW_SYNTAX, DEAD_SUPPRESSION, RULE_IDS};
pub use walk::{scan_workspace, Diagnostic, WorkspaceReport};
