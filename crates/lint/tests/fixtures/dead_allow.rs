//! Fixture: allow-comments that suppress nothing are themselves flagged.
//! One live allow (covers the relaxed load below it), one dead allow
//! (nothing on its line or the next), and one dead allow at end-of-file.
use std::sync::atomic::{AtomicU8, Ordering};
pub fn live(a: &AtomicU8) -> u8 {
    // lint: allow(relaxed-atomic) a statistic no output byte reads
    a.load(Ordering::Relaxed)
}

pub fn stranded() -> u8 {
    // lint: allow(relaxed-atomic) the load this covered was refactored away
    7
}

// lint: allow(hot-path-alloc) nothing below this line
