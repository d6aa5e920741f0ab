//! Randomized property tests for the simulation kernel, driven by seeded
//! loops over [`DetRng`] so they run with zero external dependencies and
//! are bit-for-bit reproducible.

// Test components may unwrap: a panic here is a failed property.
#![allow(clippy::unwrap_used)]

use netfi_sim::queue::{SLOT_PS, WHEEL_SPAN};
use netfi_sim::engine::Probe;
use netfi_sim::{
    Component, ComponentId, Context, DetRng, Engine, Fnv1a, NullProbe, RunBudget, ShardSpec,
    ShardedEngine, SimDuration, SimTime, Simulation, TimingWheel,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const CASES: usize = 256;

/// Time arithmetic: (t + a) + b == t + (a + b); subtraction inverts.
#[test]
fn time_arithmetic() {
    let mut rng = DetRng::new(0x7157_0001);
    for _ in 0..CASES {
        let t0 = SimTime::from_ps(rng.gen_range(0..1 << 40));
        let da = SimDuration::from_ps(rng.gen_range(0..1 << 40));
        let db = SimDuration::from_ps(rng.gen_range(0..1 << 40));
        assert_eq!((t0 + da) + db, t0 + (da + db));
        assert_eq!((t0 + da) - da, t0);
        assert_eq!((t0 + da).duration_since(t0), da);
    }
}

/// from_bits is monotone in bits and antitone in rate.
#[test]
fn from_bits_monotone() {
    let mut rng = DetRng::new(0x7157_0002);
    for _ in 0..CASES {
        let bits = rng.gen_range(1..1 << 20);
        let rate = rng.gen_range(1..1 << 34);
        let d1 = SimDuration::from_bits(bits, rate);
        let d2 = SimDuration::from_bits(bits + 1, rate);
        assert!(d2 >= d1);
        let d3 = SimDuration::from_bits(bits, rate + 1);
        assert!(d3 <= d1);
    }
}

/// gen_range stays in bounds for arbitrary non-empty ranges.
#[test]
fn rng_range_bounds() {
    let mut meta = DetRng::new(0x7157_0003);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let lo = meta.gen_range(0..1 << 60);
        let span = meta.gen_range(1..1 << 50);
        let mut rng = DetRng::new(seed);
        for _ in 0..32 {
            let v = rng.gen_range(lo..lo + span);
            assert!((lo..lo + span).contains(&v));
        }
    }
}

/// Forked streams are deterministic functions of (parent state, key).
#[test]
fn rng_fork_determinism() {
    let mut meta = DetRng::new(0x7157_0004);
    for _ in 0..CASES {
        let parent = DetRng::new(meta.next_u64());
        let key = meta.next_u64();
        let mut a = parent.fork(key);
        let mut b = parent.fork(key);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// Engine-shaped wheel keys: `(source << 40) | that source's counter`.
/// Unique, but — like the engine's per-component sub-tick keys and the
/// shard mailbox merge — *not* increasing in push order, so at one
/// timestamp a later push can sort ahead of an earlier one.
#[derive(Default)]
struct Keys([u64; 16]);

impl Keys {
    fn next(&mut self, rng: &mut DetRng) -> u64 {
        let src = rng.gen_index(self.0.len());
        self.0[src] += 1;
        ((src as u64 + 1) << 40) | self.0[src]
    }
}

/// The timing wheel agrees with a reference `BinaryHeap` on every
/// operation of a randomized interleaved push/pop/pop_due stream.
///
/// The stream generator is adversarial on purpose: offsets of zero (pushes
/// at exactly the cursor time), sub-bucket offsets (ties inside one slot),
/// exact duplicates of the previous timestamp (order decided by the key
/// alone), offsets across the wheel span (forcing overflow parking and
/// cascade), and `pop_due` deadlines that land before, on and after the
/// queue minimum. The one invariant the generator honours is the
/// engine's: never push earlier than the last popped time.
///
/// One case in sixteen is the *dense draining bucket* of a 1,000-host
/// fabric: at least 1,024 entries resident in one bucket — filled ahead
/// of the cursor, or under it — then 2,048 operations whose pushes stay
/// inside that bucket while it is popped, so the next event alternates
/// between the bucket's sorted run and its late arrivals, with `pop_due`
/// deadlines a few entry spacings past the last pop, landing between the
/// two structures' minima.
///
/// One case in sixteen more is the fabric's *instants*: at least 1,000
/// keys at three to six instants 262 ns–2 µs apart in the bucket under
/// the cursor, which spawns its rung, then 4,096 operations, pops as
/// many as pushes, so the instants drain one after another. A push lands
/// at the instant being drained (into the sub-bucket the run drains, past
/// its short run: the fallback heap), at an instant ahead or 262 ns–2 µs
/// ahead (the rung's lists); a `pop_due` deadline falls up to 1 µs past
/// the last pop, so once an instant has drained it often falls before
/// the next one, inside the rung. The resident copy is made in the first
/// quarter of the stream, while the rung holds the later instants.
///
/// One case in sixteen more *rotates*: pushes and pops in equal measure,
/// pushes up to 128 buckets ahead, for at least two full turns of the
/// wheel, so bucket after bucket fills, drains and hands its storage to
/// the next one to fill.
///
/// Every case also overwrites, at a random point of its stream, a wheel
/// that lives across cases — a worker's resident engine — with
/// `clone_from`, and from then on drives it in step with the original:
/// both must pop exactly what the reference pops.
#[test]
fn wheel_matches_reference_heap() {
    let mut rng = DetRng::new(0x7157_0009);
    let mut resident: TimingWheel<u32> = TimingWheel::new();
    for case in 0..CASES {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        let mut now = SimTime::ZERO; // last popped time; pushes stay >= now
        let mut last_pushed = now;
        let mut keys = Keys::default();
        // `Some(last picosecond of the bucket)` in the dense regime.
        let dense = (case % 16 == 0).then(|| {
            let first = rng.gen_range(0..3) * SLOT_PS;
            for _ in 0..1_024 + rng.gen_index(512) {
                let time = SimTime::from_ps(first + rng.gen_range(0..SLOT_PS));
                let key = keys.next(&mut rng);
                wheel.push(time, key, key as u32);
                reference.push(Reverse((time, key, key as u32)));
            }
            first + SLOT_PS - 1
        });
        // The instants of the rung regime, in the cursor's bucket.
        let instants = (case % 16 == 4).then(|| {
            let mut at = rng.gen_range(0..SLOT_PS / 4);
            let mut instants = Vec::new();
            for _ in 0..3 + rng.gen_index(4) {
                instants.push(SimTime::from_ps(at));
                at += rng.gen_range(262_000..2_000_001);
            }
            for _ in 0..1_000 + rng.gen_index(512) {
                let time = instants[rng.gen_index(instants.len())];
                let key = keys.next(&mut rng);
                wheel.push(time, key, key as u32);
                reference.push(Reverse((time, key, key as u32)));
            }
            instants
        });
        let rotating = case % 16 == 8;
        let ops = match (dense, rotating) {
            (Some(_), _) => 2_048,
            _ if instants.is_some() => 4_096,
            (None, true) => 6_144,
            (None, false) => 64 + rng.gen_index(192),
        };
        let copy_at = rng.gen_index(if instants.is_some() { ops / 4 } else { ops });
        let mut copied = false;
        for op in 0..ops {
            if op == copy_at {
                resident.clone_from(&wheel);
                copied = true;
                if instants.is_some() {
                    assert!(
                        rung_len(&resident) > 0,
                        "copied before the rung spawned or after it drained"
                    );
                }
            }
            // A rotating stream pops as often as it pushes, and so does
            // one of instants, which drains them one after another.
            let kind = match rng.gen_index(8) {
                4 if rotating || instants.is_some() => 5,
                kind => kind,
            };
            match kind {
                // Push (biased: the queue must mostly grow or pops see
                // nothing but empties).
                0..=4 => {
                    let time = match (rng.gen_index(5), dense) {
                        (0, _) => now,
                        (1, _) => last_pushed.max(now),
                        (_, None) if instants.is_some() => match &instants {
                            Some(instants) if rng.gen_index(2) == 0 => {
                                instants[rng.gen_index(instants.len())].max(now)
                            }
                            _ => now + SimDuration::from_ps(rng.gen_range(262_000..2_000_001)),
                        },
                        (_, Some(last)) => {
                            SimTime::from_ps(rng.gen_range(now.as_ps().min(last)..last + 1))
                        }
                        (_, None) if rotating => {
                            now + SimDuration::from_ps(rng.gen_range(0..128 * SLOT_PS))
                        }
                        (2, _) => now + SimDuration::from_ps(rng.gen_range(0..1 << 10)),
                        (3, _) => now + SimDuration::from_ps(rng.gen_range(0..1 << 30)),
                        // Beyond the wheel span (2^34 ps): overflow path.
                        _ => now + SimDuration::from_ps(rng.gen_range(1 << 34..1 << 36)),
                    };
                    let key = keys.next(&mut rng);
                    wheel.push(time, key, key as u32);
                    if copied {
                        resident.push(time, key, key as u32);
                    }
                    reference.push(Reverse((time, key, key as u32)));
                    last_pushed = time;
                }
                // Pop the minimum.
                5..=6 => {
                    let got = wheel.pop();
                    let want = reference.pop().map(|Reverse((t, s, v))| (t, s, v));
                    assert_eq!(got, want, "pop diverged");
                    if copied {
                        assert_eq!(resident.pop(), want, "the resident copy's pop diverged");
                    }
                    if let Some((t, _, _)) = got {
                        now = t;
                    }
                }
                // Pop against a deadline that may or may not be reached.
                _ => {
                    let reach = match (dense, &instants) {
                        (Some(_), _) => 1 << 15,
                        (None, Some(_)) => 1_000_000,
                        (None, None) => 1 << 35,
                    };
                    let deadline = now + SimDuration::from_ps(rng.gen_range(0..reach));
                    let due = reference
                        .peek()
                        .is_some_and(|Reverse((t, _, _))| *t <= deadline);
                    let got = wheel.pop_due(deadline);
                    let want = if due {
                        reference.pop().map(|Reverse((t, s, v))| (t, s, v))
                    } else {
                        None
                    };
                    assert_eq!(got, want, "pop_due({deadline:?}) diverged");
                    if copied {
                        assert_eq!(resident.pop_due(deadline), want, "the resident copy diverged");
                    }
                    if let Some((t, _, _)) = got {
                        now = t;
                    }
                }
            }
            let peek = reference.peek().map(|Reverse((t, _, _))| *t);
            assert_eq!(wheel.len(), reference.len(), "len diverged");
            assert_eq!(wheel.peek_time(), peek, "peek diverged");
            if copied {
                assert_eq!(resident.len(), reference.len(), "the resident copy's len diverged");
                assert_eq!(resident.peek_time(), peek, "the resident copy's peek diverged");
            }
        }
        if rotating {
            assert!(now.as_ps() >= 2 * WHEEL_SPAN, "the cursor turned less than twice");
        }
        // Drain: the full remaining order must match exactly.
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(wheel.pop(), Some(want), "drain diverged");
            assert_eq!(resident.pop(), Some(want), "the resident copy's drain diverged");
        }
        assert!(wheel.is_empty() && resident.is_empty());
        assert_eq!(wheel.pop(), None);
    }
}

/// The entries a wheel's rung holds, as its `Debug` form reports them.
fn rung_len(wheel: &TimingWheel<u32>) -> usize {
    let debug = format!("{wheel:?}");
    let field = debug.split("rung: ").nth(1).unwrap_or_default();
    let value = field.split(',').next().unwrap_or_default();
    value.parse().unwrap_or(0)
}

/// Drives `wheel` through `ops` steps of the adversarial push/pop stream
/// of [`wheel_matches_reference_heap`] — cursor-time pushes, sub-bucket
/// ties, offsets across a few buckets, overflow-spanning offsets — from
/// the last popped time `now` and the next unused key `seq`, both updated.
fn churn(rng: &mut DetRng, wheel: &mut TimingWheel<u32>, now: &mut SimTime, seq: &mut u64, ops: usize) {
    for _ in 0..ops {
        match rng.gen_index(4) {
            0..=2 => {
                let time = match rng.gen_index(4) {
                    0 => *now,
                    1 => *now + SimDuration::from_ps(rng.gen_range(0..1 << 10)),
                    2 => *now + SimDuration::from_ps(rng.gen_range(0..1 << 30)),
                    // Beyond the wheel span (2^34 ps): overflow path.
                    _ => *now + SimDuration::from_ps(rng.gen_range(1 << 34..1 << 36)),
                };
                wheel.push(time, *seq, *seq as u32);
                *seq += 1;
            }
            _ => {
                if let Some((t, _, _)) = wheel.pop() {
                    *now = t;
                }
            }
        }
    }
}

/// The cursor's bucket is always sorted and takes only a short run's
/// worth of pushes in place: 64 more at the cursor time leave the late
/// heap non-empty.
fn fill_late(wheel: &mut TimingWheel<u32>, now: SimTime, seq: &mut u64) {
    for _ in 0..64 {
        wheel.push(now, *seq, *seq as u32);
        *seq += 1;
    }
}

/// Snapshot round-trip: forking a wheel at an arbitrary point in an
/// adversarial push/pop stream preserves the exact remaining pop order.
///
/// The wheel is forked mid-stream (after some slots have gone through the
/// lazy-sort path, some overflow entries have cascaded and the draining
/// bucket has taken late arrivals) and both are drained. The fork must pop
/// the identical `(time, seq, item)` sequence, and further pushes into the
/// fork must not disturb the original.
#[test]
fn wheel_fork_round_trip_matches_original() {
    let mut rng = DetRng::new(0x7157_000B);
    for _ in 0..CASES {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let (mut now, mut seq) = (SimTime::ZERO, 0u64);
        let ops = 32 + rng.gen_index(128);
        churn(&mut rng, &mut wheel, &mut now, &mut seq, ops);
        fill_late(&mut wheel, now, &mut seq);
        let mut fork = wheel.clone();
        assert_eq!(fork.len(), wheel.len());
        assert_eq!(fork.peek_time(), wheel.peek_time());
        // Mutating the fork leaves the original untouched.
        let before = wheel.len();
        fork.push(now + SimDuration::from_ps(1), seq, u32::MAX);
        assert_eq!(fork.len(), before + 1);
        assert_eq!(wheel.len(), before);
        // Take a clean fork and drain both fully: identical
        // (time, seq, item) sequences.
        let mut fork = wheel.clone();
        loop {
            let want = wheel.pop();
            let got = fork.pop();
            assert_eq!(got, want, "forked drain diverged");
            if want.is_none() {
                break;
            }
        }
        assert!(fork.is_empty());
    }
}

/// `clone_from` onto a *dirty* wheel equals `clone()`: whatever the
/// destination held — another cursor position, late arrivals, overflow
/// entries, buckets occupied where the source's are empty and the reverse,
/// sorted flags left over from buckets it drained — the overwritten wheel
/// pops, peeks and counts exactly like a fresh clone of the source, also
/// when both take the same further pushes (which land in buckets the copy
/// never visited).
///
/// Source and destination come from independent streams of different
/// lengths, so their cursors and occupancy differ; one case in four makes
/// the source empty or nearly so (every destination bucket must be
/// cleared), one in four the destination (the `clone()` case).
#[test]
fn wheel_clone_from_onto_a_dirty_wheel_matches_clone() {
    let mut rng = DetRng::new(0x7157_000C);
    let random_wheel = |rng: &mut DetRng, ops: usize, late: bool| {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let (mut now, mut seq) = (SimTime::ZERO, 1u64 << 32);
        churn(rng, &mut wheel, &mut now, &mut seq, ops);
        if late {
            fill_late(&mut wheel, now, &mut seq);
        }
        (wheel, now, seq)
    };
    for case in 0..CASES {
        let src_ops = if case % 4 == 0 { rng.gen_index(3) } else { 32 + rng.gen_index(256) };
        let dst_ops = if case % 4 == 1 { rng.gen_index(3) } else { 32 + rng.gen_index(256) };
        let (src, now, mut seq) = random_wheel(&mut rng, src_ops, case % 2 == 0);
        let (mut dirty, ..) = random_wheel(&mut rng, dst_ops, case % 3 != 0);
        let mut fresh = src.clone();
        dirty.clone_from(&src);
        assert_eq!(dirty.len(), src.len());
        assert_eq!(dirty.len(), fresh.len());
        assert_eq!(dirty.peek_time(), fresh.peek_time());
        // Pop a little, push the same entries into both, drain both.
        let mut at = now;
        for step in 0..rng.gen_index(24) {
            if step % 3 == 0 {
                let (want, got) = (fresh.pop(), dirty.pop());
                assert_eq!(got, want, "pop diverged");
                at = want.map_or(at, |(t, _, _)| t);
            } else {
                let time = at + SimDuration::from_ps(rng.gen_range(0..1 << (10 + 6 * (step % 5))));
                fresh.push(time, seq, 7);
                dirty.push(time, seq, 7);
                seq += 1;
            }
            assert_eq!(dirty.peek_time(), fresh.peek_time(), "peek diverged");
            assert_eq!(dirty.len(), fresh.len(), "len diverged");
        }
        loop {
            let want = fresh.pop();
            assert_eq!(dirty.pop(), want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
        assert!(dirty.is_empty());
        assert_eq!(dirty.peek_time(), None);
    }
}

/// A component that records delivery order.
#[derive(Clone)]
struct Recorder {
    seen: Vec<(SimTime, u64)>,
}

impl Component<u64> for Recorder {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, payload: u64) {
        self.seen.push((ctx.now(), payload));
    }
    fn fork(&self) -> Box<dyn Component<u64>> {
        Box::new(self.clone())
    }
}

/// Events always deliver in (time, scheduling-order) order, for any
/// scheduling pattern.
#[test]
fn engine_delivery_order() {
    let mut rng = DetRng::new(0x7157_0008);
    for _ in 0..CASES {
        let n = 1 + rng.gen_index(99);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        let mut engine: Engine<u64> = Engine::new();
        let r = engine.add_component(Box::new(Recorder { seen: Vec::new() }));
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimTime::from_ns(t), r, i as u64);
        }
        engine.run();
        let rec = engine.component_as::<Recorder>(r).unwrap();
        assert_eq!(rec.seen.len(), times.len());
        for pair in rec.seen.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "same-time FIFO violated");
            }
        }
        assert_eq!(engine.events_processed(), times.len() as u64);
    }
}

/// A relay on a fixed successor edge of a random permutation. Each hop
/// forwards the (decremented) token with a private-RNG jitter on top of
/// the lookahead, keeping its own emission arrival times strictly
/// increasing. In-degree one plus monotone emissions means no two events
/// ever share a (delivery time, destination), so the serial tie-break
/// never has to choose between sources and *any* affinity partition is a
/// valid shard map with zero merge collisions.
#[derive(Clone)]
struct Relay {
    next: Option<ComponentId>,
    rng: DetRng,
    lookahead: SimDuration,
    last_arrival: SimTime,
    seen: Vec<(SimTime, u64)>,
}

impl Relay {
    /// An unwired relay with its own jitter stream.
    fn boxed(seed: u64, lookahead: SimDuration) -> Box<Relay> {
        Box::new(Relay {
            next: None,
            rng: DetRng::new(seed),
            lookahead,
            last_arrival: SimTime::ZERO,
            seen: Vec::new(),
        })
    }
}

impl Component<u64> for Relay {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, payload: u64) {
        self.seen.push((ctx.now(), payload));
        if payload == 0 {
            return;
        }
        let jitter = SimDuration::from_ps(self.rng.gen_range(0..1 << 20));
        let mut arrival = ctx.now() + self.lookahead + jitter;
        if arrival <= self.last_arrival {
            arrival = self.last_arrival + SimDuration::from_ps(1);
        }
        self.last_arrival = arrival;
        let delay = arrival.duration_since(ctx.now());
        // A relay left unwired is a mistake in the test topology.
        ctx.send(self.next.unwrap(), delay, payload - 1);
    }
    fn fork(&self) -> Box<dyn Component<u64>> {
        Box::new(self.clone())
    }
}

/// Differential test: the sharded engine is a drop-in replacement for the
/// serial engine. On randomized permutation topologies with random
/// affinity partitions, per-component delivery logs, event counts and
/// clocks are identical for workers 1, 2 and 4, and the tie-free
/// construction yields zero cross-shard merge collisions.
#[test]
fn sharded_engine_matches_serial_on_random_topologies() {
    let mut rng = DetRng::new(0x7157_000A);
    // 64 cases, each running one serial and three sharded engines.
    for _ in 0..64 {
        let n = 2 + rng.gen_index(15); // 2..=16 components
        let mut succ: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_index(i + 1);
            succ.swap(i, j);
        }
        // Initial tokens land at t < 64 ps, strictly before any relayed
        // arrival, so they can never tie with one.
        let lookahead = SimDuration::from_ps(64 + rng.gen_range(0..1 << 16));
        let seeds: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let tokens = 1 + rng.gen_index(n);
        let hops = 1 + rng.gen_range(0..64);
        let build = |seeds: &[u64], succ: &[usize]| {
            let mut engine: Engine<u64> = Engine::new();
            let ids: Vec<ComponentId> = seeds
                .iter()
                .map(|&s| engine.add_component(Relay::boxed(s, lookahead)))
                .collect();
            for (i, id) in ids.iter().enumerate() {
                engine.component_as_mut::<Relay>(*id).unwrap().next = Some(ids[succ[i]]);
            }
            for (k, &id) in ids.iter().enumerate().take(tokens) {
                engine.schedule(SimTime::from_ps(k as u64), id, hops);
            }
            (engine, ids)
        };
        // ~1k events with ~1.1 us worst-case steps drain well before 4 ms.
        let deadline = SimTime::from_ms(4);
        let (mut serial, ids) = build(&seeds, &succ);
        serial.run_until(deadline);
        let want: Vec<Vec<(SimTime, u64)>> = ids
            .iter()
            .map(|&id| serial.component_as::<Relay>(id).unwrap().seen.clone())
            .collect();
        assert_eq!(
            serial.events_processed(),
            (tokens as u64) * (hops + 1),
            "every token must drain its hops"
        );
        for workers in [1usize, 2, 4] {
            let nshards = 1 + rng.gen_index(4);
            let affinity: Vec<u16> = (0..n).map(|_| rng.gen_index(nshards) as u16).collect();
            let (engine, ids) = build(&seeds, &succ);
            let mut sharded: ShardedEngine<u64, NullProbe> = ShardedEngine::from_engine(
                engine,
                ShardSpec {
                    affinity,
                    lookahead,
                    workers,
                },
                |_| NullProbe,
            );
            sharded.run_until(deadline);
            assert_eq!(sharded.events_processed(), serial.events_processed());
            assert_eq!(sharded.now(), serial.now());
            assert_eq!(sharded.pending_events(), 0);
            for (i, id) in ids.iter().enumerate() {
                let got = &sharded.component_as::<Relay>(*id).unwrap().seen;
                assert_eq!(
                    got, &want[i],
                    "component {i} delivery log diverged at workers={workers}"
                );
            }
            // The serial engine is the one-core case: with every component
            // in shard 0 the event cap is exact, so a budgeted run ends on
            // the very event the serial engine ends on.
            let cap = rng.gen_range(0..serial.events_processed());
            let budget = RunBudget::until(deadline).with_max_events(cap);
            let (mut cut, _) = build(&seeds, &succ);
            let (engine, _) = build(&seeds, &succ);
            let spec = ShardSpec {
                affinity: vec![0; n],
                lookahead,
                workers,
            };
            let mut one = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            assert_eq!(
                (one.run_budgeted(budget), one.events_processed(), one.now(), one.pending_events()),
                (cut.run_budgeted(budget), cut.events_processed(), cut.now(), cut.pending_events()),
                "one shard diverged at workers={workers}, max_events={cap}"
            );
        }
    }
}

/// A probe with growable state, so an in-place copy has something to get
/// wrong: per-component dispatch counts, a total, and a running hash of
/// every `(time, destination, emitted)` — the event trace.
#[derive(Debug, Clone)]
struct TraceProbe {
    per_component: Vec<u64>,
    total: u64,
    trace: Fnv1a,
}

impl Probe for TraceProbe {
    fn on_dispatch(&mut self, _now: SimTime, dst: ComponentId, _events: u64) {
        if self.per_component.len() <= dst.index() {
            self.per_component.resize(dst.index() + 1, 0);
        }
        self.per_component[dst.index()] += 1;
        self.total += 1;
    }
    fn on_deliver(&mut self, now: SimTime, dst: ComponentId, emitted: usize) {
        self.trace.write_u64(now.as_ps());
        self.trace.write_u64(dst.index() as u64);
        self.trace.write_u64(emitted as u64);
    }
}

/// Everything a replay can be told apart by.
fn replay_state(engine: &Engine<u64, TraceProbe>) -> (u64, u64, SimTime, usize, Vec<u64>, u64) {
    let probe = engine.probe();
    (
        probe.trace.finish(),
        engine.events_processed(),
        engine.now(),
        engine.pending_events(),
        probe.per_component.clone(),
        probe.total,
    )
}

/// `fork_into` overwrites *everything*: onto an engine that already ran a
/// different perturbation to a different clock, onto one with more
/// components and onto one with none, the replay of a perturbation has the
/// event-trace hash, event count, clock, pending count, probe totals and
/// per-component logs of a fresh `fork()` — and an unperturbed fork still
/// equals the donor running on.
#[test]
fn fork_into_a_used_engine_replays_like_a_fresh_fork() {
    let mut rng = DetRng::new(0x7157_000D);
    let probe = || TraceProbe { per_component: Vec::new(), total: 0, trace: Fnv1a::new() };
    let ring = |rng: &mut DetRng, n: usize| {
        let mut engine = Engine::with_probe(probe());
        let ids: Vec<ComponentId> = (0..n)
            .map(|_| {
                let lookahead = SimDuration::from_ps(64 + rng.gen_range(0..1 << 16));
                engine.add_component(Relay::boxed(rng.next_u64(), lookahead))
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            engine.component_as_mut::<Relay>(*id).unwrap().next = Some(ids[(i + 1) % n]);
        }
        (engine, ids)
    };
    for _ in 0..64 {
        let n = 2 + rng.gen_index(7);
        let (mut donor, ids) = ring(&mut rng, n);
        for (k, &id) in ids.iter().enumerate().take(1 + rng.gen_index(n)) {
            donor.schedule(SimTime::from_ps(k as u64), id, 64 + rng.gen_range(0..64));
        }
        // Far enough ahead to sit in the overflow heap at the capture.
        donor.schedule(SimTime::from_ms(30), ids[0], 5);
        donor.run_until(SimTime::from_us(1 + rng.gen_range(0..8)));
        let snap = donor.snapshot();
        let deadline = SimTime::from_ms(40);

        // (c) An unperturbed fork is the donor.
        let mut plain = snap.fork();
        plain.run_until(deadline);
        donor.run_until(deadline);
        assert_eq!(replay_state(&plain), replay_state(&donor));

        // The perturbation every replay below applies.
        let extra = (snap.now() + SimDuration::from_ps(rng.gen_range(0..1 << 22)), ids[rng.gen_index(n)]);
        let replay = |engine: &mut Engine<u64, TraceProbe>| {
            engine.schedule(extra.0, extra.1, 17);
            engine.run_until(deadline);
            let logs: Vec<_> = ids
                .iter()
                .map(|&id| engine.component_as::<Relay>(id).unwrap().seen.clone())
                .collect();
            (replay_state(engine), logs)
        };
        let want = replay(&mut snap.fork());
        assert_ne!(want.0, replay_state(&donor), "the perturbation must show");

        // Onto a fork that ran another perturbation to another clock.
        let mut used = snap.fork();
        used.schedule(snap.now(), ids[0], 9);
        used.schedule(SimTime::from_ms(90), ids[n - 1], 3);
        used.run_until(SimTime::from_ms(50 + rng.gen_range(0..50)));
        // Onto an engine of another campaign with more components, mid-run.
        let more = n + 1 + rng.gen_index(4);
        let (mut bigger, other) = ring(&mut rng, more);
        bigger.schedule(SimTime::ZERO, other[0], 40);
        bigger.run_until(SimTime::from_ns(200));
        // Onto an engine with no components at all.
        let empty = Engine::with_probe(probe());
        for mut target in [used, bigger, empty] {
            snap.fork_into(&mut target);
            assert_eq!(target.component_count(), n);
            assert_eq!(replay(&mut target), want);
            // And again on the same engine: a worker's second item.
            snap.fork_into(&mut target);
            assert_eq!(replay(&mut target), want);
        }
    }
}
