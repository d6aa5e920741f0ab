//! The counting allocator of the allocation tests (`armed_alloc`,
//! `fan_out_alloc`, `fork_alloc`), shared as `mod common;`.
//!
//! An integration test is its own binary, so the `#[global_allocator]`
//! below counts nothing but the test file that includes it, and only on
//! the thread that opened the region, into that thread's own tally: the
//! test harness's own thread may allocate while a region runs, and two
//! tests of one binary may count at once. Counting every thread once made
//! `fork_alloc` fail 3 of 60 release runs by 4 requests from another
//! thread. A one-worker campaign runs its points on the calling thread,
//! and `fan_out` allocates its result slots there, so nothing a test means
//! to count is dropped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the requests the counting thread makes
/// while its `COUNTING` holds a threshold.
struct Counting;

const NOTHING: Asked = Asked {
    requests: 0,
    bytes: 0,
    largest: 0,
};

thread_local! {
    // The smallest request counted, while this thread counts, and what it
    // has counted. `const`-initialised and without a destructor: reading
    // them never allocates, so the allocator may.
    static COUNTING: Cell<Option<usize>> = const { Cell::new(None) };
    static TALLY: Cell<Asked> = const { Cell::new(NOTHING) };
}

fn note(size: usize) {
    if COUNTING
        .with(Cell::get)
        .is_some_and(|at_least| size >= at_least)
    {
        TALLY.with(|tally| {
            let Asked {
                requests,
                bytes,
                largest,
            } = tally.get();
            tally.set(Asked {
                requests: requests + 1,
                bytes: bytes + size,
                largest: largest.max(size),
            });
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the threshold and the tally are
// const thread-locals of `Copy` values, and never allocate.
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

/// What one region asked for: requests, bytes, and the largest request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Asked {
    pub requests: usize,
    pub bytes: usize,
    pub largest: usize,
}

/// Runs `region` and counts the allocator requests of at least `at_least`
/// bytes that this thread makes while it runs (`0`: every request).
pub fn counted<T>(at_least: usize, region: impl FnOnce() -> T) -> (T, Asked) {
    TALLY.with(|tally| tally.set(NOTHING));
    COUNTING.with(|c| c.set(Some(at_least)));
    let out = region();
    COUNTING.with(|c| c.set(None));
    (out, TALLY.with(Cell::get))
}
