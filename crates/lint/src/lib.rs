//! `netfi-lint` — a dependency-free invariant checker for the `netfi`
//! workspace.
//!
//! Clippy checks the generic rules (panic-freedom, `// SAFETY:` on every
//! `unsafe` block, and the determinism bans on wall clocks, the process
//! environment, OS threads and hash-ordered collections; see the root
//! `Cargo.toml` and `clippy.toml`). This crate checks the four
//! invariants no generic tool can see:
//!
//! - `relaxed-atomic`: the simulation replays bit-identically (the golden
//!   hashes in `tests/determinism.rs` pin this), so no cross-thread state
//!   may reach an output byte through `Ordering::Relaxed`;
//! - `fork-not-clone`: a `Component::fork` body must be
//!   `Box::new(self.clone())` and a `Component::fork_onto` override's
//!   `netfi_sim::clone_onto(self, dst)`, so the snapshot copy of every
//!   component — fresh or over a resident one — is a `#[derive(Clone)]`
//!   or `netfi_sim::clone_in_place!` the compiler keeps complete;
//! - `hot-path-alloc`: the per-event path is allocation-free in the
//!   modules that opt in with a `netfi-lint: deny(hot-path-alloc)`
//!   comment after `//`;
//! - `unused-pub`: a `pub` item that no other crate names is not public
//!   API. Every `pub` item outside test code (`fn`, `struct`, `enum`,
//!   `trait`, `const`, `static`, `type`, and each name of a `pub use`) is
//!   reported unless its name occurs as an identifier (a) in a `.rs` file
//!   outside its own crate's `src/` — another crate, any `tests/` or
//!   `examples/`, all of `crates/bench`; (b) in a code block of a doc
//!   comment anywhere, since doc tests are external callers; or (c) in the
//!   signature of another `pub` item of the same crate, which rustc's
//!   `private_interfaces` lint keeps public. It matches names and does no
//!   name resolution. The fix is `pub(crate)`, private, or deletion.
//!
//! Plus two rules about its own escape hatch: `allow-syntax` (an
//! allow-comment without a reason, or naming a rule not listed above) and
//! `dead-suppression` (an allow-comment that no longer suppresses
//! anything), so the suppression budget can only ratchet down.
//!
//! The rules apply to the library sources of every crate but `bench`;
//! `unused-pub` reads every `.rs` file of the workspace for its name
//! index. The checker is std-only Rust: a hand-rolled line lexer,
//! identifier-boundary pattern rules ([`rules`]) and a workspace walker
//! ([`walk`]). No `syn`, no rustc plugins. It reads lines, not items: what
//! a type's fields are and whether a copy covers them is the compiler's
//! job (`#[derive(Clone)]`), not this crate's.
//! Escape hatches are comments (`lint: allow(<rule>) <reason>` after
//! `//`, e.g. `lint: allow(unused-pub)` naming the external user the item
//! is kept for), so every suppression is grep-able, reviewed in diffs, and
//! counted in the report.
//!
//! There is no binary: `tests/workspace_clean.rs` scans the workspace as
//! part of `cargo test --workspace`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod lexer;
pub mod rules;
mod unused_pub;
pub mod walk;

pub use rules::{scan_source, FileReport, Violation, ALLOW_SYNTAX, DEAD_SUPPRESSION, RULE_IDS};
pub use walk::{scan_sources, scan_workspace, workspace_sources, Diagnostic, WorkspaceReport};
