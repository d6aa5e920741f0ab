// Fixture: every violation here is suppressed by a well-formed
// allow-comment with a reason — the scan must report zero violations and
// three suppressions.
use std::sync::atomic::{AtomicU64, Ordering};

pub fn tally(hits: &AtomicU64, misses: &AtomicU64) -> u64 {
    // lint: allow(relaxed-atomic) a statistic no output byte reads
    hits.fetch_add(1, Ordering::Relaxed);
    misses.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomic) the same statistic
    hits.load(Ordering::Acquire)
}

pub fn reset(hits: &AtomicU64) {
    // lint: allow(relaxed-atomic) written before any worker starts
    hits.store(0, Ordering::Relaxed)
}
