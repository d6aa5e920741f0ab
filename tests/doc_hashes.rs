//! Every fingerprint the prose quotes is one the tests pin.
//!
//! README.md, DESIGN.md and EXPERIMENTS.md quote campaign fingerprints
//! and golden hashes as `0x` literals of 16 hex digits. A behaviour
//! change re-pins them in `tests/determinism.rs`; this test keeps a
//! quote from outliving its pin. Digits are compared without underscores
//! and without regard to case, so `0xda8ecb1370328dad` in prose matches
//! `0xDA8E_CB13_7032_8DAD` in code.

use std::collections::BTreeSet;
use std::path::Path;

/// The hex digits of every `0x` literal in `text`, lowercased, with
/// underscores dropped.
fn hex_literals(text: &str) -> Vec<String> {
    text.match_indices("0x")
        .map(|(at, _)| {
            text[at + 2..]
                .chars()
                .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
                .filter(|c| *c != '_')
                .map(|c| c.to_ascii_lowercase())
                .collect()
        })
        .collect()
}

#[test]
fn every_quoted_fingerprint_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let pinned: BTreeSet<String> = hex_literals(&read("tests/determinism.rs"))
        .into_iter()
        .collect();
    let mut quoted = 0;
    let mut stale = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        for digits in hex_literals(&read(doc)) {
            if digits.len() != 16 {
                continue;
            }
            quoted += 1;
            if !pinned.contains(&digits) {
                stale.push(format!("{doc}: 0x{digits}"));
            }
        }
    }
    assert!(
        quoted > 0,
        "no fingerprint quoted in the docs: is the scan still reading them?"
    );
    assert!(
        stale.is_empty(),
        "quoted in the docs but pinned nowhere in tests/determinism.rs:\n{}",
        stale.join("\n")
    );
}
