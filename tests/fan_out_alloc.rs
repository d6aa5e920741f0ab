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
//! The counts come from the counting allocator in `tests/common/`, which
//! counts only the thread that opened the region: `fan_out` allocates the
//! slots on the calling thread.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;

use common::counted;
use netfi::nftape::runner::fan_out;

/// Requests of at least the results' own size made by one fan-out of `n`
/// items over `workers` threads, and whether the results came back whole
/// and in index order.
fn large_requests(workers: usize, n: usize) -> (usize, bool) {
    let (out, large) = counted(n * std::mem::size_of::<u64>(), || {
        fan_out(workers, n, || |i| Ok::<u64, ()>(i as u64 * 3))
    });
    let whole = out.is_ok_and(|out| out.iter().copied().eq((0..n as u64).map(|i| i * 3)));
    (large.requests, whole)
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
