//! What a fork asks of the allocator, pinned as counts.
//!
//! `EngineSnapshot::fork_into` exists so that forking a warm donor costs
//! what the donor *holds*, and so that a worker running point after point
//! on one resident engine stops rebuilding it: the wheel's 1,024 slot
//! headers (32,768 bytes in one request) and the dispatch probe's
//! 512-record ring (28,672 bytes) are overwritten where they are, and
//! buckets, heaps and counter vectors keep the capacity they have grown.
//! A timing cannot guard that on a shared box; a counting allocator can,
//! because the requests of a seeded run repeat exactly. At the parent of
//! this guard one fork of the same donor made 47 requests for 79,853
//! bytes, and a sampled point 256 for 115 KB. A sampled point now forks
//! the worker's healthy prefix at its arming instant and runs only what
//! follows it: 171 requests for 28.1 KB when it was forked at the end of
//! the map phase and run whole, 115.8 for 25.3 KB forked at its arming
//! instant. It is now 85.0 for 18.0 KB: the sampler's engines carry no
//! dispatch probe, the donor's hosts no arrival log (only the two
//! stream sinks arm theirs, on the sampler's own fork), the program is
//! rendered into one buffer, and the device decodes each line in place.
//! The resident fork below, of the same donor, went from 40 requests for
//! 18,357 bytes to 38 for 14,357 with the arrival logs gone.
//!
//! An integration test is its own binary, so the `#[global_allocator]`
//! below counts nothing but this file; it holds a single `#[test]`, so no
//! sibling test thread allocates while a region is being counted.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use netfi::nftape::grid::warm_campaign;
use netfi::sample::{sample_warmed, SampleOptions};
use netfi::sim::SimDuration;

/// The system allocator, counting every request made while `COUNTING`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::SeqCst) {
        REQUESTS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(size, Ordering::SeqCst);
        LARGEST.fetch_max(size, Ordering::SeqCst);
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

/// What one region asked for: requests, bytes, and the largest request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Asked {
    requests: usize,
    bytes: usize,
    largest: usize,
}

fn counted<T>(region: impl FnOnce() -> T) -> (T, Asked) {
    for counter in [&REQUESTS, &BYTES, &LARGEST] {
        counter.store(0, Ordering::SeqCst);
    }
    COUNTING.store(true, Ordering::SeqCst);
    let out = region();
    COUNTING.store(false, Ordering::SeqCst);
    let asked = Asked {
        requests: REQUESTS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
        largest: LARGEST.load(Ordering::SeqCst),
    };
    (out, asked)
}

#[test]
fn a_resident_fork_asks_for_what_the_donor_holds() {
    let warm = warm_campaign(7).unwrap();

    // A resident engine in steady state: it has been forked into and has
    // run a point's worth of simulated time, twice.
    let mut engine = warm.fork_engine();
    let mut settle = || {
        warm.fork_into(&mut engine);
        engine.run_for(SimDuration::from_ms(120));
    };
    settle();
    settle();
    let ((), fork) = counted(|| warm.fork_into(&mut engine));
    let ((), again) = counted(|| warm.fork_into(&mut engine));
    println!("fork_into: {fork:?}; straight after another: {again:?}");
    assert_eq!(fork, again, "a fork's requests repeat exactly");
    // What is left is the components, re-made through `Component::fork`.
    assert!(fork.bytes < 16 * 1024, "{fork:?}");
    // Neither the wheel's slot headers nor the probe's ring is rebuilt.
    assert!(fork.largest < 28 * 1024, "{fork:?}");
    println!("fork: {:?}", counted(|| warm.fork_engine()).1);

    // A sampled point on a resident engine: the difference between two
    // one-worker campaigns on the same donor takes the baseline run, the
    // worker's engine and the fixed overheads out.
    let campaign = |points| {
        let opts = SampleOptions {
            seed: 7,
            points,
            workers: 1,
        };
        counted(|| sample_warmed(&warm, &opts).unwrap()).1
    };
    let (short, long) = (campaign(64), campaign(192));
    assert_eq!(long, campaign(192), "a campaign's requests repeat exactly");
    let requests = (long.requests - short.requests) as f64 / 128.0;
    let bytes = (long.bytes - short.bytes) as f64 / 128.0;
    println!("sampled point: {requests:.1} requests, {bytes:.0} bytes");
    assert!(requests < 95.0 && bytes < 20_000.0);
}
