//! Per-crate rule policy.
//!
//! Not every crate owes every invariant. The simulation core and the
//! protocol crates must replay bit-identically, so they may not read wall
//! clocks, the process environment, or iterate unordered collections. The
//! campaign driver (`nftape`) is held to the same standard — its parallel
//! runner promises worker-count-independent output — with its one
//! sanctioned exception (scoped fan-out threads) justified by an
//! allow-comment at the call site rather than a blanket waiver here. The
//! bench harness exists to read the wall clock. The table below is the
//! single source of truth; unknown crates get the full rule set so new
//! code starts strict and opts out here, visibly, if it must.
//!
//! The `determinism` flag also covers `relaxed-atomic` (an
//! `Ordering::Relaxed` cannot justify a byte-identity argument across
//! threads) and `fork-not-clone` (a hand-written `Component::fork` can
//! drop a field from every snapshot taken after it). `dead-suppression`
//! runs regardless of policy: a suppression that suppresses nothing is
//! dead in any crate.

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// No wall clocks, unordered collections, environment reads, OS
    /// threads, relaxed atomics or hand-written component forks.
    pub determinism: bool,
    /// No `unwrap` / `expect` / panicking macros in library code.
    pub panic_free: bool,
    /// Every `unsafe` needs an adjacent `// SAFETY:` comment.
    pub unsafe_audit: bool,
}

impl Policy {
    /// The full rule set (what unknown crates get).
    pub const STRICT: Policy = Policy {
        determinism: true,
        panic_free: true,
        unsafe_audit: true,
    };
}

/// Looks up the policy for a workspace crate by directory name
/// (`crates/<name>`); the root package scans under the name `netfi`.
pub fn policy_for(crate_name: &str) -> Policy {
    match crate_name {
        // The replayable core: simulation kernel, codecs, protocol state
        // machines, device model, host stack — and the observability
        // subsystem, which must never perturb what it observes: no wall
        // clocks (SimTime only), no unordered iteration (exports are
        // byte-identical), no panics on the recording path.
        "sim" | "phy" | "myrinet" | "fc" | "core" | "netstack" | "obs" => Policy::STRICT,
        // nftape is in the determinism scope too: the parallel campaign
        // runner's whole contract is that worker count cannot change an
        // output byte, so wall clocks, unordered iteration and stray
        // threads are bugs there like anywhere on the replay path. Its one
        // deliberate exception — scoped fan-out workers — carries an
        // allow-comment at the call site, where the justification lives
        // next to the code and counts against the suppression budget.
        "nftape" => Policy::STRICT,
        // The statistical sampler makes the same promise one level up:
        // a sampled campaign's fingerprint is a pure function of
        // (seed, points), whatever the worker count. Its one deliberate
        // exception — the scoped fan-out workers in its campaign driver —
        // carries an allow-comment at the spawn site, same as nftape's.
        "sample" => Policy::STRICT,
        // The failure-analysis layer is the strictest customer of all:
        // φ-accrual suspicion is computed in SimTime fixed-point exactly
        // so that detection verdicts are byte-identical across worker
        // counts, and the SPOF analytics promise one deterministic report
        // per graph. A wall clock, a float-keyed ordering or an unordered
        // map anywhere in `detect` would dissolve that argument.
        "detect" => Policy::STRICT,
        // The lint binary reads argv and walks the filesystem; it stays
        // panic-free.
        "lint" => Policy {
            determinism: false,
            panic_free: true,
            unsafe_audit: true,
        },
        // Wall-clock timing is the bench harness's whole job, and its
        // binaries are allowed to die loudly on bad CLI input.
        "bench" => Policy {
            determinism: false,
            panic_free: false,
            unsafe_audit: true,
        },
        _ => Policy::STRICT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_crates_are_strict() {
        for name in ["sim", "phy", "myrinet", "fc", "core", "netstack", "obs"] {
            assert_eq!(policy_for(name), Policy::STRICT, "{name}");
        }
    }

    #[test]
    fn obs_is_in_the_determinism_and_panic_scopes() {
        let p = policy_for("obs");
        assert!(p.determinism, "obs exports must be byte-identical");
        assert!(p.panic_free, "the recording path must not panic");
        assert!(p.unsafe_audit);
    }

    #[test]
    fn bench_is_exempt_from_panics_and_determinism() {
        let p = policy_for("bench");
        assert!(!p.determinism && !p.panic_free && p.unsafe_audit);
    }

    #[test]
    fn nftape_is_fully_strict() {
        // The parallel campaign runner promises byte-identical output for
        // any worker count; that promise is hollow if the crate may read
        // clocks or the environment. Its one sanctioned escape (scoped
        // fan-out) is an allow-comment, not a policy hole.
        assert_eq!(policy_for("nftape"), Policy::STRICT);
    }

    #[test]
    fn sample_is_fully_strict() {
        // The sampler's fingerprint is a pure function of (seed, points);
        // its scoped fan-out is an allow-comment, not a policy hole.
        assert_eq!(policy_for("sample"), Policy::STRICT);
    }

    #[test]
    fn detect_is_fully_strict() {
        // Suspicion values order detection verdicts; if they were floats
        // or fed by a wall clock, the campaign fingerprint could not be a
        // pure function of the spec list. The policy table says so
        // explicitly rather than relying on the unknown-crate default.
        assert_eq!(policy_for("detect"), Policy::STRICT);
    }

    #[test]
    fn lint_keeps_panic_freedom_only() {
        let p = policy_for("lint");
        assert!(!p.determinism && p.panic_free && p.unsafe_audit);
    }

    #[test]
    fn unknown_crates_default_to_strict() {
        assert_eq!(policy_for("netfi"), Policy::STRICT);
        assert_eq!(policy_for("brand-new"), Policy::STRICT);
    }
}
