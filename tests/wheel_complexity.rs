//! The timing wheel's draining-bucket cost guard: a pop followed by a
//! push into the bucket under the cursor must cost O(log n) in the
//! bucket's population, not O(n).
//!
//! A 1,000-host fabric keeps ~1,000 events in the slot being drained and
//! nearly every `Context::send` lands in that same slot; when the push
//! was a sorted `Vec::insert`, that memmove was most of the run. The
//! order of the pops is pinned by `crates/sim/tests/props.rs`; this pins
//! what they cost — as a *ratio* of two timings taken in one process, so
//! a slow minute of a shared box moves both sides alike. Two shapes:
//! pushes spread over the bucket, which its rung takes as appends, and
//! every push at one instant, which falls through to the fallback heap.
//! Between 4,096 and 65,536 resident entries the spread shape reads 1.3
//! to 1.7 and the one-instant shape 1.1 to 2.2 (debug and release, 2-vCPU
//! VM); the sorted insert read 14.
//!
//! Its own integration-test binary, so no sibling test thread competes
//! for the core while it times.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![expect(
    clippy::disallowed_methods,
    reason = "a cost guard times itself: the wall clock is the measurement"
)]

use std::time::Instant;

use netfi::sim::queue::SLOT_PS;
use netfi::sim::{DetRng, SimTime, TimingWheel};

/// Nanoseconds per pop + same-bucket push with `resident` entries in the
/// bucket the cursor is draining. A new wheel's cursor sits on bucket 0,
/// so the fill is same-bucket pushes too, as on the fabric.
fn ns_per_op(resident: u64, ops: u64) -> f64 {
    let mut rng = DetRng::new(resident);
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    for seq in 0..resident {
        wheel.push(SimTime::from_ps(rng.gen_range(0..SLOT_PS)), seq, 0);
    }
    let began = Instant::now();
    for seq in resident..resident + ops {
        let (time, _, item) = wheel.pop().expect("the bucket stays full");
        let at = rng.gen_range(time.as_ps()..SLOT_PS);
        wheel.push(SimTime::from_ps(at), seq, item);
    }
    let ns = began.elapsed().as_nanos() as f64 / ops as f64;
    assert_eq!(wheel.len() as u64, resident);
    ns
}

/// Nanoseconds per pop + push with `resident` entries at the one instant
/// under the cursor, every push at that instant too, under keys drawn in
/// no order: the rung has nothing to split, so all but a short run of
/// them sit in the fallback heap.
fn ns_per_op_one_instant(resident: u64, ops: u64) -> f64 {
    let mut rng = DetRng::new(resident);
    let at = SimTime::from_ps(SLOT_PS / 2);
    let mut key = |seq: u64| (rng.gen_range(0..1 << 32) << 24) | seq;
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    for seq in 0..resident {
        wheel.push(at, key(seq), 0);
    }
    let began = Instant::now();
    for seq in resident..resident + ops {
        let (time, _, item) = wheel.pop().expect("the instant stays full");
        assert_eq!(time, at);
        wheel.push(at, key(seq), item);
    }
    let ns = began.elapsed().as_nanos() as f64 / ops as f64;
    assert_eq!(wheel.len() as u64, resident);
    ns
}

#[test]
fn draining_bucket_push_is_logarithmic() {
    const OPS: u64 = 16_384;
    for (shape, run) in [
        ("spread over the bucket", ns_per_op as fn(u64, u64) -> f64),
        ("all at one instant", ns_per_op_one_instant),
    ] {
        let best = |resident| (0..3).map(|_| run(resident, OPS)).fold(f64::MAX, f64::min);
        let (small, large) = (best(4_096), best(65_536));
        let ratio = large / small;
        println!("pop + push, {shape}: {small:.0} ns at 4,096 resident, {large:.0} ns at 65,536");
        assert!(
            ratio < 4.0,
            "{shape}: ratio {ratio:.1}: O(log n) reads under 2, O(n) about 14"
        );
    }
}
