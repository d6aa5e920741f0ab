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
//! instant, 85.0 for 18.0 KB once the sampler's engines carried no
//! dispatch probe and only the two stream sinks an arrival log. The
//! resident fork below, of the same donor, made 38 requests for 14,357
//! bytes while each component was dropped and re-made through
//! `Component::fork`. Now every component is copied over the one the
//! resident engine holds (`Component::fork_onto`, with the field-wise
//! `clone_from` of `netfi_sim::clone_in_place!`): the resident fork makes
//! 0 requests, and a sampled point 26.7 for 1,162 bytes — what is left is
//! the point's own program, events and evidence.
//!
//!
//! A wheel whose bucket under the cursor has spawned its rung holds that
//! bucket's later instants in the rung's slab. A resident fork of such an
//! engine copies the slab into the slab the target already has: 0
//! requests, as for the test bed.
//!
//! The counts come from the counting allocator in `tests/common/`, which
//! counts only the thread that opened the region.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;

use common::counted;
use netfi::nftape::grid::warm_campaign;
use netfi::sample::{sample_warmed, SampleOptions};
use netfi::sim::{Component, Context, Engine, SimDuration, SimTime};

#[test]
fn a_resident_fork_asks_for_what_the_donor_holds() {
    let warm = warm_campaign(7).unwrap();

    // A resident engine in steady state: it has been forked into and has
    // run a point's worth of simulated time, twice.
    let mut engine = warm.fork_engine();
    let mut settle = || {
        warm.warm().fork_into(&mut engine);
        engine.run_for(SimDuration::from_ms(120));
    };
    settle();
    settle();
    let ((), fork) = counted(0, || warm.warm().fork_into(&mut engine));
    let ((), again) = counted(0, || warm.warm().fork_into(&mut engine));
    println!("fork_into: {fork:?}; straight after another: {again:?}");
    assert_eq!(fork, again, "a fork's requests repeat exactly");
    // Nothing is re-made: not the wheel's slot headers, not the probe's
    // ring, not a component (38 requests, 14,357 bytes when they were).
    assert!(fork.requests <= 10 && fork.bytes < 2 * 1024, "{fork:?}");
    println!("fork: {:?}", counted(0, || warm.fork_engine()).1);

    // A sampled point on a resident engine: the difference between two
    // one-worker campaigns on the same donor takes the baseline run, the
    // worker's engine and the fixed overheads out.
    let campaign = |points| {
        let opts = SampleOptions {
            seed: 7,
            points,
            workers: 1,
        };
        counted(0, || sample_warmed(&warm, &opts).unwrap()).1
    };
    let (short, long) = (campaign(64), campaign(192));
    assert_eq!(long, campaign(192), "a campaign's requests repeat exactly");
    let requests = (long.requests - short.requests) as f64 / 128.0;
    let bytes = (long.bytes - short.bytes) as f64 / 128.0;
    println!("sampled point: {requests:.1} requests, {bytes:.0} bytes");
    assert!(requests <= 45.0 && bytes < 4_000.0);
}

/// A component that takes whatever it is sent.
#[derive(Clone)]
struct Sink;

impl Component<u64> for Sink {
    fn on_event(&mut self, _ctx: &mut Context<'_, u64>, _payload: u64) {}
    fn fork(&self) -> Box<dyn Component<u64>> {
        Box::new(self.clone())
    }
}

#[test]
fn a_resident_fork_of_a_spawned_rung_asks_for_nothing() {
    // 1,000 events at each of four instants 500 ns apart, scheduled into
    // the wheel bucket under the cursor: past a short run the bucket
    // spawns its rung, which files the later instants. The donor then
    // delivers the first instant, so the rung holds the other three.
    let mut donor: Engine<u64> = Engine::new();
    let sink = donor.add_component(Box::new(Sink));
    for k in 0..4_000u64 {
        donor.schedule(SimTime::from_ns(500 * (1 + k % 4)), sink, k);
    }
    donor.run_until(SimTime::from_ns(500));
    assert_eq!(donor.pending_events(), 3_000);
    let snapshot = donor.snapshot();

    // A resident engine in steady state: forked into and run, twice.
    let mut engine = snapshot.fork();
    let mut settle = || {
        snapshot.fork_into(&mut engine);
        engine.run_until(SimTime::from_ns(1_500));
    };
    settle();
    settle();
    let ((), fork) = counted(0, || snapshot.fork_into(&mut engine));
    println!("fork_into with a spawned rung: {fork:?}");
    assert_eq!(fork.requests, 0, "{fork:?}");
    assert_eq!(engine.pending_events(), 3_000);
    engine.run();
    assert_eq!(engine.events_processed(), 4_000);
}
