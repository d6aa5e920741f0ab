//! What `fan_out` asks of the allocator for its results, pinned as counts.
//!
//! `fan_out` fills one index-ordered slot per item and hands back the
//! results in a vector. The slots' storage can become that vector in
//! place; copying the results into a second one holds every result twice
//! at the end of a campaign, and for the benchmark's 16,384-point
//! `sample` that copy set the process's peak RSS (9.1 MiB with it, 7.5
//! without). A counting allocator sees the difference exactly: the
//! requests large enough to hold the results number one.
//!
//! An integration test is its own binary, so the `#[global_allocator]`
//! below counts nothing but this file; it holds a single `#[test]`, so no
//! sibling test thread allocates while a region is being counted.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use netfi::nftape::runner::fan_out;

/// The system allocator, counting requests of at least `AT_LEAST` bytes
/// made while `COUNTING`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static AT_LEAST: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::SeqCst) && size >= AT_LEAST.load(Ordering::SeqCst) {
        LARGE.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Requests of at least the results' own size made by one fan-out of `n`
/// items over `workers` threads, and whether the results came back whole
/// and in index order.
fn large_requests(workers: usize, n: usize) -> (usize, bool) {
    AT_LEAST.store(n * std::mem::size_of::<u64>(), Ordering::SeqCst);
    LARGE.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = fan_out(workers, n, || |i| Ok::<u64, ()>(i as u64 * 3));
    COUNTING.store(false, Ordering::SeqCst);
    let whole = out.is_ok_and(|out| out.iter().copied().eq((0..n as u64).map(|i| i * 3)));
    (LARGE.load(Ordering::SeqCst), whole)
}

#[test]
fn a_fan_out_allocates_its_results_once() {
    for (workers, n) in [(1, 4_096), (2, 4_096), (1, 65_536)] {
        let (large, whole) = large_requests(workers, n);
        println!("fan_out workers={workers} n={n}: {large} request(s) of the results' size or more");
        assert!(whole, "workers={workers} n={n}: results lost or out of order");
        assert_eq!(large, 1, "workers={workers} n={n}: the results were copied");
    }
}
