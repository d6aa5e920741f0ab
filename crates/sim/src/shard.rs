//! Component-affinity sharding: parallelism *inside* one engine run.
//!
//! A [`ShardedEngine`] partitions an engine's components into affinity
//! groups ("shards") and executes them with conservative-window
//! synchronization — the classic conservative parallel-DES recipe, shaped
//! to this workspace's determinism contract. The model is one executor
//! `Core` per affinity group; the serial engine is the one-core case of
//! the same dispatch loop (`engine::Core::run_window`):
//!
//! 1. **Affinity partition.** Every component belongs to exactly one shard
//!    (the paper's per-direction pipelines are the natural grouping: each
//!    host-side pipeline is independent between link crossings). A shard
//!    is a `Core` — its components and a private `TimingWheel` — so
//!    within a shard execution *is* the serial engine's loop: `(time,
//!    key)` order, keys assigned at emission time.
//! 2. **Conservative windows.** Each round, the engine takes the global
//!    minimum due time `s` and lets every shard deliver all events in
//!    `[s, s + lookahead)`. The lookahead is the minimum cross-shard
//!    latency (for linked components, serialization + propagation), so no
//!    event delivered in the window can cause a *cross-shard* event inside
//!    it — shards cannot affect each other mid-window. An `assert!` in
//!    `Context::send` enforces the bound on every cross-shard send.
//! 3. **Key-preserving mailbox merge.** Every send carries a *sub-tick
//!    key* assigned at emission: `(source slot, per-source emission
//!    index)` — see `engine::tick_key`. Cross-shard sends are captured in
//!    per-shard outboxes with their keys and pushed into the destination
//!    shard's wheel at the window barrier, key intact. No sequence
//!    numbers are re-assigned anywhere, so the merge is pure placement
//!    and its order is irrelevant.
//! 4. **One round driver.** The calling thread is the first worker: it
//!    runs the first chunk of shards inside each window and owns every
//!    shard between windows, where it merges the mailboxes and opens the
//!    next window. `workers = 1` spawns nothing and runs that same
//!    function alone, so it is literally the reference for `workers = N`.
//!
//! Equality with the serial engine holds for *every* delivery, ties
//! included. The argument is two short inductions. Per-source keys match:
//! a component's emission counter is carried through decomposition and
//! advanced only when the component handles an event, and by induction on
//! delivery order each component handles the same event sequence in both
//! executors, so its `k`-th emission gets the same key. Per-destination
//! order matches: a destination wheel pops `(time, key)` ascending, the
//! conservative windows guarantee every event due in a window is in the
//! destination wheel before the window executes (cross-shard sends must
//! land strictly beyond the emitting window, and are merged at the next
//! barrier), and both executors therefore sort the same key set the same
//! way. Same-instant ties that the old global-sequence scheme resolved by
//! emission interleave — unreproducible shard-locally, and counted as
//! `cross_collisions` through PR 6 — are now ordered by the key, a pure
//! function of simulation state, so the tie classes are structurally
//! impossible rather than merely counted. DESIGN.md §11 has the full
//! argument, including the designs that lost.
//!
//! # Example
//!
//! Build serially, then shard — the component ids, pending events and
//! clock carry over, so the same harness code drives either executor:
//!
//! ```
//! use netfi_sim::shard::{ShardSpec, ShardedEngine};
//! use netfi_sim::{Component, ComponentId, Context, Engine, NullProbe};
//! use netfi_sim::{SimDuration, SimTime, Simulation};
//!
//! struct Counter { peer: Option<ComponentId>, heard: u64 }
//!
//! impl Component<u64> for Counter {
//!     fn on_event(&mut self, ctx: &mut Context<'_, u64>, payload: u64) {
//!         self.heard += 1;
//!         if payload > 0 {
//!             if let Some(peer) = self.peer {
//!                 // 10 ns >= the lookahead below: legal across shards.
//!                 ctx.send(peer, SimDuration::from_ns(10), payload - 1);
//!             }
//!         }
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//!     fn fork(&self) -> Box<dyn Component<u64>> {
//!         Box::new(Counter { peer: self.peer, heard: self.heard })
//!     }
//! }
//!
//! fn build() -> (Engine<u64>, ComponentId, ComponentId) {
//!     let mut e = Engine::new();
//!     let a = e.add_component(Box::new(Counter { peer: None, heard: 0 }));
//!     let b = e.add_component(Box::new(Counter { peer: Some(a), heard: 0 }));
//!     e.component_as_mut::<Counter>(a).unwrap().peer = Some(b);
//!     e.schedule(SimTime::ZERO, a, 40);
//!     (e, a, b)
//! }
//!
//! // Serial reference run …
//! let (mut serial, a, b) = build();
//! serial.run_until(SimTime::from_ms(1));
//!
//! // … and the same simulation, sharded one component per shard.
//! let (engine, _, _) = build();
//! let spec = ShardSpec {
//!     affinity: vec![0, 1],
//!     lookahead: SimDuration::from_ns(10),
//!     workers: 2,
//! };
//! let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
//! sharded.run_until(SimTime::from_ms(1));
//!
//! assert_eq!(sharded.events_processed(), serial.events_processed());
//! assert_eq!(
//!     sharded.component_as::<Counter>(a).unwrap().heard,
//!     serial.component_as::<Counter>(a).unwrap().heard,
//! );
//! assert_eq!(sharded.component_as::<Counter>(b).unwrap().heard, 20);
//! assert_eq!(sharded.cross_events(), 40);
//! ```

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use crate::engine::{
    run_outcome, tick_key, ComponentId, Core, CrossSend, Engine, NullProbe, Placement, Probe,
    RunBudget, RunOutcome, ShardRoute, Simulation,
};
use crate::time::{SimDuration, SimTime};

/// How to shard an engine: the partition, the time bound, the fan-out.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Shard id per component index ([`ComponentId::index`]). Shard count
    /// is `max + 1`; every component must be covered.
    pub affinity: Vec<u16>,
    /// The conservative window length: a lower bound on the delay of any
    /// cross-shard send. For components linked by a physical link this is
    /// the link's propagation delay (serialization only adds to it).
    pub lookahead: SimDuration,
    /// Threads to execute window batches on, the calling thread included:
    /// `1` runs every round on the caller and spawns nothing. The output
    /// is byte-identical for any value.
    pub workers: usize,
}

/// A shard's [`Placement`]: components sit at `locs[index]` of the
/// shard's own arena, and sends leaving `home` are captured in `outbox`.
struct Part<'a, M> {
    affinity: &'a [u16],
    locs: &'a [u32],
    home: u16,
    outbox: &'a mut Vec<CrossSend<M>>,
}

impl<M> Placement<M> for Part<'_, M> {
    #[inline(always)]
    fn slot(&self, dst: ComponentId) -> usize {
        self.locs[dst.index()] as usize
    }
    #[inline(always)]
    fn route(&mut self, window_last: SimTime) -> Option<ShardRoute<'_, M>> {
        Some(ShardRoute {
            affinity: self.affinity,
            home: self.home,
            window_last,
            outbox: self.outbox,
        })
    }
}

/// One affinity group: a [`Core`] holding the group's slice of the donor's
/// slot table (each slot re-homed with its emission counter intact, so
/// the sub-tick keys minted here continue the serial sequences), plus
/// the cross-shard sends of the window it last ran.
struct Shard<M, P: Probe> {
    core: Core<M, P>,
    home: u16,
    outbox: Vec<CrossSend<M>>,
}

impl<M: 'static, P: Probe> Shard<M, P> {
    /// Delivers at most `cap` of the events due in the window ending at
    /// `window_last` (inclusive): the serial loop, under [`Part`].
    fn run_window(&mut self, window_last: SimTime, cap: u64, affinity: &[u16], locs: &[u32]) {
        let mut part = Part {
            affinity,
            locs,
            home: self.home,
            outbox: &mut self.outbox,
        };
        self.core
            .run_window(window_last, cap, affinity.len() as u32, &mut part);
    }
}

/// Shard `sid` of the chunked table, between windows: the first chunk
/// is the caller's own, the rest are the lent chunks it holds.
fn shard_at<'s, M, P: Probe>(
    mine: &'s mut [Shard<M, P>],
    held: &'s mut [MutexGuard<'_, &mut [Shard<M, P>]>],
    sid: usize,
) -> &'s mut Shard<M, P> {
    match sid.checked_sub(mine.len()) {
        None => &mut mine[sid],
        Some(rest) => &mut held[rest / mine.len()][rest % mine.len()],
    }
}

/// The sharded engine: affinity groups of an [`crate::Engine`], run under
/// conservative-window scheduling with a deterministic mailbox merge.
///
/// Construct one with [`ShardedEngine::from_engine`] (see the
/// [module docs](self) for the model and a compiled example). Drive it
/// through the same [`Simulation`] surface the serial engine implements.
pub struct ShardedEngine<M, P: Probe = NullProbe> {
    shards: Vec<Shard<M, P>>,
    affinity: Vec<u16>,
    /// Component index → index within its shard's component table.
    locs: Vec<u32>,
    lookahead: SimDuration,
    workers: usize,
    now: SimTime,
    /// Events the donor engine had already delivered at conversion.
    base_events: u64,
    /// The donor's engine-level schedule counter (sub-tick source slot
    /// 0), continued by [`Simulation::schedule`] on this engine.
    external_seq: u64,
    rounds: u64,
    cross_events: u64,
}

impl<M, P: Probe> fmt::Debug for ShardedEngine<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("components", &self.affinity.len())
            .field("workers", &self.workers)
            .field("lookahead", &self.lookahead)
            .field("now", &self.now)
            .field("rounds", &self.rounds)
            .field("cross_events", &self.cross_events)
            .finish()
    }
}

impl<M: Send + 'static, P: Probe + Send> ShardedEngine<M, P> {
    /// Decomposes a serially-built engine into shards.
    ///
    /// Component ids, pending events, emission counters and the clock all
    /// carry over: events are re-routed to their destination shard with
    /// their sub-tick keys intact, which preserves every per-destination
    /// delivery order. The donor's probe is dropped; `probe_for` supplies
    /// one probe per shard (merge them afterwards with e.g. `netfi-obs`'s
    /// merged dispatch probe).
    ///
    /// # Panics
    ///
    /// Panics if the affinity table does not cover every component, the
    /// lookahead is zero, or `workers` is zero.
    pub fn from_engine<P0: Probe>(
        engine: Engine<M, P0>,
        spec: ShardSpec,
        mut probe_for: impl FnMut(usize) -> P,
    ) -> ShardedEngine<M, P> {
        let Engine {
            core: donor,
            external_seq,
        } = engine;
        let n = donor.arena.len();
        assert!(
            spec.affinity.len() == n,
            "affinity table must cover every component"
        );
        assert!(spec.lookahead.as_ps() > 0, "lookahead must be positive");
        assert!(spec.workers > 0, "worker count must be non-zero");
        let nshards = spec
            .affinity
            .iter()
            .map(|&s| s as usize + 1)
            .max()
            .unwrap_or(1);
        let mut shards: Vec<Shard<M, P>> = (0..nshards)
            .map(|i| Shard {
                core: Core::new(donor.now, probe_for(i)),
                home: i as u16,
                outbox: Vec::new(),
            })
            .collect();
        let mut locs = vec![0u32; n];
        for (idx, slot) in donor.arena.into_slots().into_iter().enumerate() {
            let arena = &mut shards[spec.affinity[idx] as usize].core.arena;
            locs[idx] = arena.len() as u32;
            // Slots move whole: each component keeps its emission counter.
            arena.push_slot(slot);
        }
        // Pending events keep the sub-tick keys they were emitted with;
        // re-routing is pure placement, so each destination wheel holds
        // exactly the ordered set the serial wheel would pop for it.
        let mut queue = donor.wheel;
        while let Some((time, key, (dst, payload))) = queue.pop() {
            let shard = &mut shards[spec.affinity[dst.index()] as usize];
            shard.core.wheel.push(time, key, (dst, payload));
        }
        ShardedEngine {
            shards,
            affinity: spec.affinity,
            locs,
            lookahead: spec.lookahead,
            workers: spec.workers,
            now: donor.now,
            base_events: donor.events,
            external_seq,
            rounds: 0,
            cross_events: 0,
        }
    }

    /// Number of affinity groups.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The worker-thread count this engine executes windows on.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The conservative window length.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Synchronization rounds (windows) executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Events that crossed a shard boundary through the mailbox.
    pub fn cross_events(&self) -> u64 {
        self.cross_events
    }

    /// The shard a component is assigned to.
    pub fn shard_of(&self, id: ComponentId) -> Option<usize> {
        self.affinity.get(id.index()).map(|&s| s as usize)
    }

    /// Borrows one shard's observation probe.
    pub fn probe(&self, shard: usize) -> Option<&P> {
        self.shards.get(shard).map(|s| &s.core.probe)
    }

    /// Iterates over every shard's probe, in shard order.
    pub fn probes(&self) -> impl Iterator<Item = &P> + '_ {
        self.shards.iter().map(|s| &s.core.probe)
    }

    /// Events delivered by one shard.
    pub fn shard_events(&self, shard: usize) -> u64 {
        self.shards.get(shard).map_or(0, |s| s.core.events)
    }

    /// The round driver; returns whether the event budget ended the run.
    ///
    /// Shards are statically chunked over at most `workers` threads
    /// (ceil-div chunking may need fewer). The calling thread is the
    /// first of them: it runs chunk 0 inside each window and, between
    /// windows, owns every shard — it pushes each outbox straight into
    /// the destination wheels (keys intact, so the order is irrelevant)
    /// and opens the next window from what it reads there. Chunks 1.. are
    /// each lent to one scoped thread; with one chunk nothing is spawned
    /// and the same code runs on the caller alone. Every decision is a
    /// function of simulation state read between windows, so the worker
    /// count cannot reach an output byte.
    fn run_rounds(&mut self, deadline: SimTime, max_events: u64) -> bool {
        let nshards = self.shards.len();
        let chunk = nshards.div_ceil(self.workers.min(nshards));
        let (affinity, locs): (&[u16], &[u32]) = (&self.affinity, &self.locs);
        let (lookahead, rounds, cross_events) =
            (self.lookahead, &mut self.rounds, &mut self.cross_events);
        let start_events: u64 = self.shards.iter().map(|s| s.core.events).sum();
        let (mine, rest) = self.shards.split_at_mut(chunk);
        // Each further chunk is lent to one worker thread: the worker holds
        // its lock while a window runs, the caller holds it between windows.
        // The barriers order the hand-over, so no lock is ever contended.
        let lent: Vec<Mutex<&mut [Shard<M, P>]>> = rest.chunks_mut(chunk).map(Mutex::new).collect();

        // Round state. The barrier orders every access: the caller writes
        // the window, its cap and the exit order before barrier A and the
        // workers read them after it; shard state changes hands under the
        // lend locks. The atomics additionally carry their own
        // acquire/release edge so the byte-identity argument never leans
        // on barrier internals (the workspace lint rejects
        // `Ordering::Relaxed` in determinism-scope crates for this reason).
        let barrier = Barrier::new(lent.len() + 1);
        // `Barrier::wait` wakes its condvar — a system call — even as the
        // only party, so with no chunk lent there is nothing to wait for.
        let solo = lent.is_empty();
        let sync = || {
            if !solo {
                barrier.wait();
            }
        };
        let window_ps = AtomicU64::new(0);
        let window_cap = AtomicU64::new(0);
        let exit = AtomicBool::new(false);
        // A component panic (e.g. the conservative-window assert) must
        // not strand the other threads at a barrier: whoever ran the
        // chunk traps the payload here and still reaches barrier B; the
        // caller then orders the exit and re-raises it after the join.
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let run_chunk = |shards: &mut [Shard<M, P>]| {
            let window_last = SimTime::from_ps(window_ps.load(Ordering::Acquire));
            let cap = window_cap.load(Ordering::Acquire);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                for shard in shards {
                    shard.run_window(window_last, cap, affinity, locs);
                }
            }));
            if let Err(payload) = ran {
                panic_slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
        };

        let mut budget_hit = false;
        // lint: allow(thread-spawn) conservative-window fan-out: workers only execute pre-determined per-shard batches between barriers; merge order is a pure function of simulation state, so the schedule cannot reach any output byte
        std::thread::scope(|scope| {
            for lend in &lent {
                let (barrier, exit, run_chunk) = (&barrier, &exit, &run_chunk);
                scope.spawn(move || loop {
                    barrier.wait(); // A: window opened (or exit).
                    if exit.load(Ordering::Acquire) {
                        break;
                    }
                    run_chunk(&mut lend.lock().unwrap_or_else(PoisonError::into_inner));
                    barrier.wait(); // B: window drained, chunk handed back.
                });
            }

            let mut held = Vec::with_capacity(lent.len());
            let mut mailbox = Vec::new();
            loop {
                held.extend(
                    lent.iter()
                        .map(|l| l.lock().unwrap_or_else(PoisonError::into_inner)),
                );
                let open = 'decide: {
                    // After a panic shard state is suspect: touch none of it.
                    if panic_slot
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .is_some()
                    {
                        break 'decide false;
                    }
                    for sid in 0..nshards {
                        std::mem::swap(&mut shard_at(mine, &mut held, sid).outbox, &mut mailbox);
                        *cross_events += mailbox.len() as u64;
                        for CrossSend { time, key, dst, payload } in mailbox.drain(..) {
                            let to = shard_at(mine, &mut held, affinity[dst.index()] as usize);
                            to.core.wheel.push(time, key, (dst, payload));
                        }
                    }
                    let (mut next_ps, mut events, mut stopped) = (u64::MAX, 0u64, false);
                    for sid in 0..nshards {
                        let core = &mut shard_at(mine, &mut held, sid).core;
                        next_ps =
                            next_ps.min(core.wheel.peek_time().map_or(u64::MAX, |t| t.as_ps()));
                        events += core.events;
                        stopped |= core.stop;
                    }
                    // The budget is spent at round boundaries, and each
                    // window runs under what is left of it, so the
                    // decision is a pure function of simulation state.
                    let delivered = events - start_events;
                    budget_hit = delivered >= max_events;
                    if stopped || budget_hit || next_ps == u64::MAX || next_ps > deadline.as_ps() {
                        break 'decide false;
                    }
                    let last = next_ps.saturating_add(lookahead.as_ps() - 1);
                    window_ps.store(last.min(deadline.as_ps()), Ordering::Release);
                    window_cap.store(max_events - delivered, Ordering::Release);
                    *rounds += 1;
                    true
                };
                exit.store(!open, Ordering::Release);
                held.clear();
                sync(); // A: open the window, or release workers into their exit.
                if !open {
                    break;
                }
                run_chunk(mine);
                sync(); // B: wait for the batch.
            }
        });

        if let Some(payload) = panic_slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            // The first component panic (its message intact) becomes
            // this call's panic, whichever thread it happened on.
            resume_unwind(payload);
        }
        budget_hit
    }
}

impl<M: Send + 'static, P: Probe + Send> Simulation<M> for ShardedEngine<M, P> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn events_processed(&self) -> u64 {
        self.base_events + self.shards.iter().map(|s| s.core.events).sum::<u64>()
    }

    fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.core.wheel.len()).sum()
    }

    fn component_count(&self) -> usize {
        self.affinity.len()
    }

    fn schedule(&mut self, time: SimTime, dst: ComponentId, payload: M) {
        assert!(time >= self.now, "cannot schedule into the past");
        assert!(dst.index() < self.affinity.len(), "unknown component {dst}");
        // Continue the donor engine's slot-0 schedule stream, so the
        // serial engine's keys for the same stimulus are reproduced.
        let key = tick_key(0, self.external_seq);
        self.external_seq += 1;
        let shard = &mut self.shards[self.affinity[dst.index()] as usize];
        shard.core.wheel.push(time, key, (dst, payload));
    }

    fn run_until(&mut self, deadline: SimTime) {
        let _ = self.run_budgeted(RunBudget::until(deadline));
    }

    fn run_budgeted(&mut self, budget: RunBudget) -> RunOutcome {
        for shard in &mut self.shards {
            shard.core.stop = false;
        }
        let budget_hit = self.run_rounds(budget.deadline, budget.max_events);
        let mut stopped = false;
        for shard in &self.shards {
            self.now = self.now.max(shard.core.now);
            stopped |= shard.core.stop;
        }
        let pending = self.pending_events();
        run_outcome(&mut self.now, stopped, budget_hit, budget.deadline, pending)
    }

    fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        let shard = *self.affinity.get(id.index())? as usize;
        let loc = *self.locs.get(id.index())? as usize;
        self.shards
            .get(shard)?
            .core
            .arena
            .get(loc)?
            .as_any()
            .downcast_ref::<T>()
    }

    fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        let shard = *self.affinity.get(id.index())? as usize;
        let loc = *self.locs.get(id.index())? as usize;
        self.shards
            .get_mut(shard)?
            .core
            .arena
            .get_mut(loc)?
            .as_any_mut()
            .downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullProbe;
    use crate::{Component, Context, Engine};
    use std::any::Any;

    /// Relays a countdown to its peer with a fixed delay, recording every
    /// delivery.
    #[derive(Debug, Clone)]
    struct Relay {
        peer: Option<ComponentId>,
        delay: SimDuration,
        log: Vec<(SimTime, u64)>,
    }

    impl Component<u64> for Relay {
        fn on_event(&mut self, ctx: &mut Context<'_, u64>, payload: u64) {
            self.log.push((ctx.now(), payload));
            if payload > 0 {
                if let Some(peer) = self.peer {
                    ctx.send(peer, self.delay, payload - 1);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn fork(&self) -> Box<dyn Component<u64>> {
            Box::new(self.clone())
        }
    }

    fn ring(n: usize, delay: SimDuration, hops: u64) -> (Engine<u64>, Vec<ComponentId>) {
        let mut e = Engine::new();
        let ids: Vec<ComponentId> = (0..n)
            .map(|_| {
                e.add_component(Box::new(Relay {
                    peer: None,
                    delay,
                    log: Vec::new(),
                }))
            })
            .collect();
        for i in 0..n {
            e.component_as_mut::<Relay>(ids[i]).unwrap().peer = Some(ids[(i + 1) % n]);
        }
        e.schedule(SimTime::ZERO, ids[0], hops);
        (e, ids)
    }

    fn logs(ids: &[ComponentId], sim: &impl Simulation<u64>) -> Vec<Vec<(SimTime, u64)>> {
        ids.iter()
            .map(|&id| sim.component_as::<Relay>(id).unwrap().log.clone())
            .collect()
    }

    #[test]
    fn sharded_ring_matches_serial_for_every_worker_count() {
        let delay = SimDuration::from_ns(25);
        let deadline = SimTime::from_ms(1);
        let (mut serial, ids) = ring(4, delay, 100);
        serial.run_until(deadline);
        let want = logs(&ids, &serial);
        for workers in [1, 2, 4] {
            let (engine, ids) = ring(4, delay, 100);
            let spec = ShardSpec {
                affinity: vec![0, 1, 2, 3],
                lookahead: delay,
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            sharded.run_until(deadline);
            assert_eq!(logs(&ids, &sharded), want, "workers={workers}");
            assert_eq!(sharded.events_processed(), serial.events_processed());
            assert_eq!(sharded.now(), serial.now());
            assert_eq!(sharded.cross_events(), 100);
            assert!(sharded.rounds() > 0);
        }
    }

    #[test]
    fn intra_shard_sends_may_undercut_the_lookahead() {
        // Ring of 4 in 2 shards of 2: neighbours within a shard talk at
        // 1 ns while the lookahead is 25 ns — legal, because only
        // cross-shard sends carry the bound.
        #[derive(Debug)]
        struct Hub;
        impl Component<u64> for Hub {
            fn on_event(&mut self, _ctx: &mut Context<'_, u64>, _p: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn fork(&self) -> Box<dyn Component<u64>> {
                Box::new(Hub)
            }
        }
        let build = || {
            let mut e = Engine::new();
            let a = e.add_component(Box::new(Relay {
                peer: None,
                delay: SimDuration::from_ns(1),
                log: Vec::new(),
            }));
            let b = e.add_component(Box::new(Relay {
                peer: None,
                delay: SimDuration::from_ns(25),
                log: Vec::new(),
            }));
            let c = e.add_component(Box::new(Relay {
                peer: None,
                delay: SimDuration::from_ns(1),
                log: Vec::new(),
            }));
            let d = e.add_component(Box::new(Relay {
                peer: None,
                delay: SimDuration::from_ns(25),
                log: Vec::new(),
            }));
            let _ = e.add_component(Box::new(Hub));
            e.component_as_mut::<Relay>(a).unwrap().peer = Some(b);
            e.component_as_mut::<Relay>(b).unwrap().peer = Some(c);
            e.component_as_mut::<Relay>(c).unwrap().peer = Some(d);
            e.component_as_mut::<Relay>(d).unwrap().peer = Some(a);
            e.schedule(SimTime::ZERO, a, 64);
            (e, vec![a, b, c, d])
        };
        let (mut serial, ids) = build();
        serial.run_until(SimTime::from_ms(1));
        let want = logs(&ids, &serial);
        for workers in [1, 3] {
            let (engine, ids) = build();
            let spec = ShardSpec {
                affinity: vec![0, 0, 1, 1, 0],
                lookahead: SimDuration::from_ns(25),
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            sharded.run_until(SimTime::from_ms(1));
            assert_eq!(logs(&ids, &sharded), want, "workers={workers}");
            // Half the hops are intra-shard.
            assert_eq!(sharded.cross_events(), 32);
        }
    }

    #[test]
    fn schedule_between_runs_routes_to_the_right_shard() {
        let (engine, ids) = ring(2, SimDuration::from_ns(10), 0);
        let spec = ShardSpec {
            affinity: vec![0, 1],
            lookahead: SimDuration::from_ns(10),
            workers: 2,
        };
        let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
        sharded.run_until(SimTime::from_us(1));
        sharded.schedule(SimTime::from_us(2), ids[1], 0);
        assert_eq!(sharded.pending_events(), 1);
        sharded.run_until(SimTime::from_us(3));
        assert_eq!(sharded.pending_events(), 0);
        assert_eq!(sharded.component_as::<Relay>(ids[1]).unwrap().log.len(), 1);
        assert_eq!(sharded.now(), SimTime::from_us(3));
    }

    #[test]
    fn uneven_shard_to_worker_chunking_terminates_and_matches_serial() {
        // 5 shards over 4 workers: ceil-div chunking (chunks of 2) spawns
        // 3 threads, fewer than `workers` — the barrier-sizing regression
        // case that used to deadlock. Workers=3 chunks evenly and rides
        // along as the control.
        let delay = SimDuration::from_ns(25);
        let deadline = SimTime::from_ms(1);
        let (mut serial, ids) = ring(5, delay, 100);
        serial.run_until(deadline);
        let want = logs(&ids, &serial);
        for workers in [3, 4] {
            let (engine, ids) = ring(5, delay, 100);
            let spec = ShardSpec {
                affinity: vec![0, 1, 2, 3, 4],
                lookahead: delay,
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            sharded.run_until(deadline);
            assert_eq!(logs(&ids, &sharded), want, "workers={workers}");
            assert_eq!(sharded.events_processed(), serial.events_processed());
            assert_eq!(sharded.now(), serial.now());
        }
    }

    #[test]
    fn same_window_local_and_cross_tie_matches_serial() {
        // a (shard 0) and c (shard 1) both fire at t = 0 and send to
        // b (shard 1) with the same 100 ns delay: a's arrival crosses
        // shards, c's stays local, and the two tie on (time, dst). This
        // was the residual tie class the pre-key merge could invert
        // (local seqs were assigned mid-window, merged seqs after it).
        // With sub-tick keys the pair orders by (source slot, emission
        // index) in both executors: a registered before c, so a's event
        // delivers first — serially and at every worker count.
        let relay = |delay| {
            Box::new(Relay {
                peer: None,
                delay,
                log: Vec::new(),
            })
        };
        let build = || {
            let mut e = Engine::new();
            let a = e.add_component(relay(SimDuration::from_ns(100)));
            let b = e.add_component(relay(SimDuration::from_ns(100)));
            let c = e.add_component(relay(SimDuration::from_ns(100)));
            e.component_as_mut::<Relay>(a).unwrap().peer = Some(b);
            e.component_as_mut::<Relay>(c).unwrap().peer = Some(b);
            e.schedule(SimTime::ZERO, a, 5);
            e.schedule(SimTime::ZERO, c, 9);
            (e, vec![a, b, c])
        };
        let (mut serial, ids) = build();
        serial.run_until(SimTime::from_ms(1));
        let t = SimTime::from_ns(100);
        assert_eq!(
            serial.component_as::<Relay>(ids[1]).unwrap().log,
            vec![(t, 4), (t, 8)],
            "serial tie order is source order: a's event first"
        );
        let want = logs(&ids, &serial);
        for workers in [1, 2] {
            let (engine, ids) = build();
            let spec = ShardSpec {
                affinity: vec![0, 1, 1],
                lookahead: SimDuration::from_ns(100),
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            sharded.run_until(SimTime::from_ms(1));
            assert_eq!(sharded.cross_events(), 1, "workers={workers}");
            assert_eq!(logs(&ids, &sharded), want, "workers={workers}");
        }
    }

    #[test]
    fn budgeted_run_is_worker_invariant_and_terminates() {
        // A tight ring running far past the budget: every executor must
        // report BudgetExhausted with the identical delivery count, since
        // the budget is evaluated at deterministic round boundaries.
        let delay = SimDuration::from_ns(25);
        let deadline = SimTime::from_ms(10);
        let budget = RunBudget::until(deadline).with_max_events(57);
        let mut counts = Vec::new();
        for workers in [1, 2, 4] {
            let (engine, _) = ring(4, delay, 1_000_000);
            let spec = ShardSpec {
                affinity: vec![0, 1, 2, 3],
                lookahead: delay,
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            assert_eq!(
                sharded.run_budgeted(budget),
                RunOutcome::BudgetExhausted,
                "workers={workers}"
            );
            assert!(sharded.events_processed() >= 57, "workers={workers}");
            counts.push((sharded.events_processed(), sharded.now(), sharded.rounds()));
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);

        // Under the deadline with a generous budget, outcomes match the
        // serial engine's.
        let (engine, _) = ring(4, delay, 10);
        let spec = ShardSpec {
            affinity: vec![0, 1, 2, 3],
            lookahead: delay,
            workers: 2,
        };
        let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
        assert_eq!(
            sharded.run_budgeted(RunBudget::until(deadline).with_max_events(1_000)),
            RunOutcome::Drained
        );
        assert_eq!(sharded.now(), deadline);
    }

    #[test]
    fn budgeted_run_terminates_a_same_instant_livelock_inside_a_window() {
        /// Re-arms itself at the same instant forever: it never leaves
        /// the window it starts in, so only the window's cap can end it.
        #[derive(Debug)]
        struct Livelock;
        impl Component<u64> for Livelock {
            fn on_event(&mut self, ctx: &mut Context<'_, u64>, payload: u64) {
                ctx.send_self(SimDuration::ZERO, payload);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn fork(&self) -> Box<dyn Component<u64>> {
                Box::new(Livelock)
            }
        }
        for workers in [1, 2] {
            let mut e = Engine::new();
            let a = e.add_component(Box::new(Livelock));
            let _idle = e.add_component(Box::new(Livelock));
            e.schedule(SimTime::from_ns(10), a, 1);
            let spec = ShardSpec {
                affinity: vec![0, 1],
                lookahead: SimDuration::from_ns(100),
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(e, spec, |_| NullProbe);
            let budget = RunBudget::until(SimTime::from_ms(1)).with_max_events(10_000);
            assert_eq!(
                sharded.run_budgeted(budget),
                RunOutcome::BudgetExhausted,
                "workers={workers}"
            );
            // Exactly the serial engine's answer (`budgeted_run_terminates_a_livelock`).
            assert_eq!(sharded.events_processed(), 10_000, "workers={workers}");
            assert_eq!(sharded.now(), SimTime::from_ns(10), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "inside the conservative window")]
    fn cross_shard_send_below_lookahead_is_rejected() {
        let (engine, _) = ring(2, SimDuration::from_ns(1), 5);
        let spec = ShardSpec {
            affinity: vec![0, 1],
            lookahead: SimDuration::from_ns(100),
            workers: 1,
        };
        let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
        sharded.run_until(SimTime::from_ms(1));
    }

    #[test]
    #[should_panic(expected = "inside the conservative window")]
    fn cross_shard_send_below_lookahead_is_rejected_threaded() {
        // Same violation under the threaded executor: the worker's panic
        // must propagate out of `run_until` (with its message intact)
        // instead of stranding the coordinator at a barrier.
        let (engine, _) = ring(2, SimDuration::from_ns(1), 5);
        let spec = ShardSpec {
            affinity: vec![0, 1],
            lookahead: SimDuration::from_ns(100),
            workers: 2,
        };
        let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
        sharded.run_until(SimTime::from_ms(1));
    }

    #[test]
    fn per_shard_probes_sum_to_the_serial_dispatch_count() {
        #[derive(Debug, Default)]
        struct CountProbe {
            dispatches: u64,
            emitted: u64,
        }
        impl Probe for CountProbe {
            fn on_dispatch(&mut self, _now: SimTime, _dst: ComponentId, _n: u64) {
                self.dispatches += 1;
            }
            fn on_deliver(&mut self, _now: SimTime, _dst: ComponentId, emitted: usize) {
                self.emitted += emitted as u64;
            }
        }
        let (mut serial, _) = ring(3, SimDuration::from_ns(10), 30);
        serial.run_until(SimTime::from_ms(1));
        let (engine, _) = ring(3, SimDuration::from_ns(10), 30);
        let spec = ShardSpec {
            affinity: vec![0, 1, 2],
            lookahead: SimDuration::from_ns(10),
            workers: 2,
        };
        let mut sharded = ShardedEngine::from_engine(engine, spec, |_| CountProbe::default());
        sharded.run_until(SimTime::from_ms(1));
        let dispatches: u64 = sharded.probes().map(|p| p.dispatches).sum();
        let emitted: u64 = sharded.probes().map(|p| p.emitted).sum();
        assert_eq!(dispatches, serial.events_processed());
        assert_eq!(emitted, 30);
    }
}
