// Fixture: malformed allow-comments. Line 5 has no reason, line 7 names a
// rule clippy owns, not netfi-lint — both are `allow-syntax` violations,
// and neither suppresses anything, so the relaxed loads still fire.
use std::sync::atomic::{AtomicU8, Ordering};
// lint: allow(relaxed-atomic)
pub fn bad(a: &AtomicU8, b: &AtomicU8) -> u8 { a.load(Ordering::Relaxed) ^ b.load(Ordering::Acquire) }
// lint: allow(expect) the bound is checked by the caller
pub fn worse(b: &AtomicU8) -> u8 { b.load(Ordering::Relaxed) }
