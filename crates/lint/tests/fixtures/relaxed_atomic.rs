//! Fixture: `Ordering::Relaxed`. The stop-flag load
//! and the counter bump are violations; the acquire/release pair is not.
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub fn poll(flag: &AtomicBool, hits: &AtomicU64) -> bool {
    hits.fetch_add(1, Ordering::Relaxed); // line 6: relaxed-atomic
    if flag.load(Ordering::Acquire) {
        flag.store(false, Ordering::Release);
        return true;
    }
    flag.load(Ordering::Relaxed) // line 11: relaxed-atomic
}
