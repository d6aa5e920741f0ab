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
//! 4. **One round driver.** Shard `s` runs on thread `s mod T` for the
//!    whole run, and the calling thread is thread 0. Each thread does its
//!    own between-window work: it files its shards' outboxes into
//!    per-(source, destination) thread mailboxes, merges the mail
//!    addressed to it into its own wheels, and publishes its next due
//!    time, deliveries and stop flag; every thread then takes the same
//!    window decision from what all of them published. The threads meet
//!    twice a round at one spin-then-block phase barrier. `workers = 1`
//!    spawns nothing and runs that same function alone, with no barrier
//!    and no lock, so it is literally the reference for `workers = N`.
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
//! #[derive(Clone)]
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
//!     fn fork(&self) -> Box<dyn Component<u64>> { Box::new(self.clone()) }
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

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
struct Shard<M: 'static, P: Probe> {
    core: Core<M, P>,
    home: u16,
    outbox: Vec<CrossSend<M>>,
}

impl<M: 'static, P: Probe> Shard<M, P> {
    /// Delivers at most `cap` of the events due in the window ending at
    /// `window_last` (inclusive): the serial loop, under [`Part`]. Returns
    /// how many it delivered.
    fn run_window(
        &mut self,
        window_last: SimTime,
        cap: u64,
        affinity: &[u16],
        locs: &[u32],
    ) -> u64 {
        let mut part = Part {
            affinity,
            locs,
            home: self.home,
            outbox: &mut self.outbox,
        };
        self.core
            .run_window(window_last, cap, affinity.len() as u32, &mut part)
    }
}

/// Iterations a waiter spins on the barrier's generation before it
/// blocks. A round of the 1,000-host fabric at two threads is, per
/// thread, 81 deliveries and the merge of ~14 cross-shard sends, 20–25 µs
/// of work, and a sleeper is back on its core only ~100 µs after the
/// release (futex wake, inter-processor interrupt, a halted vCPU), so the
/// wait is worth spinning through; the bound is in iterations, not time,
/// because this crate reads no wall clock. It must outlast that wake-up: a thread that
/// blocked once comes late to the next phase, and a peer whose budget is
/// shorter than the delay blocks in turn, which makes *it* late — the two
/// then take turns sleeping. 8,192 iterations (~170 µs on a 2-vCPU box)
/// is the middle of the level range 4,096–16,384; 1,024 is slower
/// than never spinning and 65,536 burns 1.4 ms whenever the peer really
/// lost its core. DESIGN.md §11 has the sweep.
const SPIN_BUDGET: u32 = 1 << 13;

/// Locks a mutex whose data every critical section leaves valid, so a
/// panic elsewhere while it was held is no reason to stop.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The round barrier: sense-reversing on a generation counter, waiters
/// spin for a bounded iteration budget and then block.
///
/// Edges: every arrival is an `AcqRel` increment of `arrived`, so the
/// last arriver has acquired what all the others released; it publishes
/// the next `generation` with `Release`, and a waiter leaves on an
/// `Acquire` load of it — whatever any thread wrote before `wait` is
/// visible to every thread after it. A blocked waiter re-checks the
/// generation under `parked`, and the releaser takes `parked` after the
/// bump, so a wake-up cannot be lost; it notifies only when a sleeper is
/// registered, because a condvar notify is a system call even with
/// nobody waiting.
struct PhaseBarrier {
    parties: usize,
    /// Spin iterations before blocking; 0 blocks at once.
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    parked: Mutex<Parked>,
    wake: Condvar,
}

#[derive(Default)]
struct Parked {
    /// Waiters asleep (or about to be) on `wake`.
    sleeping: usize,
    /// Waits that took the block path, ever.
    blocked: u64,
}

impl PhaseBarrier {
    fn new(parties: usize, spin: u32) -> PhaseBarrier {
        PhaseBarrier {
            parties,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parked: Mutex::default(),
            wake: Condvar::new(),
        }
    }

    /// Returns once all `parties` threads have called it this phase.
    fn wait(&self) {
        // A lone party has nobody to wait for, and no system call to pay.
        if self.parties == 1 {
            return;
        }
        // Nobody can end this phase before this thread arrives, so the
        // generation read here is the phase's own.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Re-arm before publishing: the next phase's arrivals start
            // only after they have seen the new generation.
            self.arrived.store(0, Ordering::Release);
            self.generation.store(generation + 1, Ordering::Release);
            if lock(&self.parked).sleeping > 0 {
                self.wake.notify_all();
            }
            return;
        }
        for _ in 0..self.spin {
            if self.generation.load(Ordering::Acquire) != generation {
                return;
            }
            std::hint::spin_loop();
        }
        let mut parked = lock(&self.parked);
        parked.blocked += 1;
        parked.sleeping += 1;
        while self.generation.load(Ordering::Acquire) == generation {
            parked = self
                .wake
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
        }
        parked.sleeping -= 1;
    }

    /// `(spin_waits, blocked_waits)` so far: each phase has one last
    /// arriver and `parties − 1` waiters, every one of which either saw
    /// the release while spinning or took the block path.
    fn waits(&self) -> (u64, u64) {
        let phases = self.generation.load(Ordering::Acquire);
        let blocked = lock(&self.parked).blocked;
        (phases * (self.parties as u64 - 1) - blocked, blocked)
    }
}

/// What one thread publishes once its mail is merged: its earliest due
/// time (`u64::MAX` if none), the events and cross-shard sends of its
/// last window, and whether a handler asked to stop or it trapped a
/// panic. Written only between barriers B and A, so every thread reads
/// the same values after A; one writer, many readers: a line of its own.
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    next_ps: AtomicU64,
    delivered: AtomicU64,
    filed: AtomicU64,
    halt: AtomicBool,
}

/// A `run_rounds` call's account, summed from the slots by every thread.
#[derive(Default)]
struct Tally {
    rounds: u64,
    cross: u64,
    critical: u64,
    budget_hit: bool,
}

/// Placement and timing facts of the round protocol, for a person
/// reading a slow run — see [`ShardedEngine::sync_stats`].
///
/// None of this is simulation state. Which thread ran a shard never
/// reaches an output byte, and `spin_waits` / `blocked_waits` depend on
/// the operating system's scheduler, so they differ from run to run:
/// never fold any of it into a digest, an export or a report row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Barrier waits that ended while the waiter was still spinning.
    pub spin_waits: u64,
    /// Barrier waits that took the mutex + condvar path.
    pub blocked_waits: u64,
    /// Events delivered by each thread, the caller first.
    pub worker_events: Vec<u64>,
    /// The round-critical delivery count: the sum over rounds of the
    /// busiest thread's deliveries in that round. At `T` threads it is
    /// `Σ worker_events / T` when every round splits evenly, and the
    /// whole sum when one thread does all the work of every round. A
    /// placement fact: it depends on the worker count, not on timing.
    pub critical_events: u64,
}

/// The sharded engine: affinity groups of an [`crate::Engine`], run under
/// conservative-window scheduling with a deterministic mailbox merge.
///
/// Construct one with [`ShardedEngine::from_engine`] (see the
/// [module docs](self) for the model and a compiled example). Drive it
/// through the same [`Simulation`] surface the serial engine implements.
pub struct ShardedEngine<M: 'static, P: Probe = NullProbe> {
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
    /// The round barrier's spin budget: [`SPIN_BUDGET`] while every
    /// thread of a round can have a core of its own, else 0.
    spin: u32,
    /// Barrier waits of every run so far, `(spun, blocked)`.
    waits: (u64, u64),
    /// [`SyncStats::critical_events`] of every run so far.
    critical_events: u64,
}

impl<M: 'static, P: Probe> ShardedEngine<M, P> {
    /// Threads a round runs on: one per worker, but never more than
    /// there are shards.
    fn threads(&self) -> usize {
        self.workers.min(self.shards.len())
    }

    /// Where the round protocol's time and work went so far: barrier
    /// waits by kind and events per thread. Placement and timing facts
    /// only — see [`SyncStats`] for why they must stay out of every
    /// digest, export and report row.
    pub fn sync_stats(&self) -> SyncStats {
        let threads = self.threads();
        let events = |me| self.shards.iter().skip(me).step_by(threads).map(|s| s.core.events).sum();
        SyncStats {
            spin_waits: self.waits.0,
            blocked_waits: self.waits.1,
            worker_events: (0..threads).map(events).collect(),
            critical_events: self.critical_events,
        }
    }
}

impl<M: 'static, P: Probe> fmt::Debug for ShardedEngine<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sync = self.sync_stats();
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("components", &self.affinity.len())
            .field("workers", &self.workers)
            .field("lookahead", &self.lookahead)
            .field("now", &self.now)
            .field("rounds", &self.rounds)
            .field("cross_events", &self.cross_events)
            .field("spin_waits", &sync.spin_waits)
            .field("blocked_waits", &sync.blocked_waits)
            .field("worker_events", &sync.worker_events)
            .field("critical_events", &sync.critical_events)
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
        // Spinning pays only while every thread of a round has a core of
        // its own; oversubscribed, a spinner burns the time slice the
        // thread it waits for needs, so waiters block at once. Asked once,
        // and only when there will be threads: the answer costs a system
        // call and some file reads (~100 µs).
        let threads = spec.workers.min(nshards);
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let spin = if threads > 1 && threads <= cores() { SPIN_BUDGET } else { 0 };
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
            spin,
            waits: (0, 0),
            critical_events: 0,
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

    /// Synchronization rounds (windows) executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Events that crossed a shard boundary through the mailbox.
    pub fn cross_events(&self) -> u64 {
        self.cross_events
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
    /// Shard `s` belongs to thread `s mod T` for the whole call, the caller
    /// being thread 0. Each thread loops over its own shards: run the
    /// window, file the outboxes by destination thread, barrier B, merge
    /// its mail (keys intact, so order is irrelevant), publish its
    /// [`Slot`], barrier A, and take the same decision as every thread
    /// from all the slots. One thread spawns nothing and takes no barrier
    /// or lock.
    fn run_rounds(&mut self, deadline: SimTime, max_events: u64) -> bool {
        let threads = self.threads();
        let (affinity, locs, lookahead) = (&self.affinity[..], &self.locs[..], self.lookahead);
        // Shard `s` sits at `seat[s]`: thread `s % threads`, index
        // `s / threads` of its list (a table: sends must not divide).
        let seat: Vec<(usize, usize)> =
            (0..self.shards.len()).map(|s| (s % threads, s / threads)).collect();
        let mut owned: Vec<Vec<&mut Shard<M, P>>> = (0..threads).map(|_| Vec::new()).collect();
        for (sid, shard) in self.shards.iter_mut().enumerate() {
            owned[seat[sid].0].push(shard);
        }
        let barrier = PhaseBarrier::new(threads, self.spin);
        let slots: Vec<Slot> = (0..threads).map(|_| Slot::default()).collect();
        // `mail[from * threads + to]`: filed by `from` before barrier B,
        // merged by `to` after it, so no lock is ever contended.
        let mail: Vec<Mutex<Vec<CrossSend<M>>>> =
            (0..threads * threads).map(|_| Mutex::default()).collect();
        let trap: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

        let drive = |me: usize, mine: &mut [&mut Shard<M, P>]| {
            let mut tally = Tally::default();
            // `post[to]`: this thread's sends for thread `to`'s shards.
            let mut post: Vec<Vec<CrossSend<M>>> = (0..threads).map(|_| Vec::new()).collect();
            let (mut ran, mut filed, mut delivered, mut failed) = (0, 0, 0, false);
            loop {
                // Own sends first; `post[me]` is then empty to take each
                // peer's mailbox in turn.
                for from in (me..threads).chain(0..me) {
                    if from != me {
                        std::mem::swap(&mut *lock(&mail[from * threads + me]), &mut post[me]);
                    }
                    for CrossSend { time, key, dst, payload } in post[me].drain(..) {
                        let to = &mut mine[seat[affinity[dst.index()] as usize].1];
                        to.core.wheel.push(time, key, (dst, payload));
                    }
                }
                let due = mine.iter_mut().filter_map(|s| s.core.wheel.peek_time());
                let next_ps = due.min().map_or(u64::MAX, SimTime::as_ps);
                slots[me].next_ps.store(next_ps, Ordering::Release);
                slots[me].delivered.store(ran, Ordering::Release);
                slots[me].filed.store(filed, Ordering::Release);
                let stopped = mine.iter().any(|s| s.core.stop);
                slots[me].halt.store(failed || stopped, Ordering::Release);
                barrier.wait(); // A: every thread's mail merged and its slot published.
                let (mut next_ps, mut busiest, mut halt) = (u64::MAX, 0, false);
                for slot in &slots {
                    next_ps = next_ps.min(slot.next_ps.load(Ordering::Acquire));
                    let ran = slot.delivered.load(Ordering::Acquire);
                    (delivered, busiest) = (delivered + ran, busiest.max(ran));
                    tally.cross += slot.filed.load(Ordering::Acquire);
                    halt |= slot.halt.load(Ordering::Acquire);
                }
                tally.critical += busiest;
                // The budget is spent at round boundaries, and each window
                // runs under what is left of it, so the decision is a pure
                // function of simulation state.
                tally.budget_hit = delivered >= max_events;
                if halt || tally.budget_hit || next_ps == u64::MAX || next_ps > deadline.as_ps() {
                    break;
                }
                let last = next_ps.saturating_add(lookahead.as_ps() - 1);
                let window_last = SimTime::from_ps(last.min(deadline.as_ps()));
                let cap = max_events - delivered;
                tally.rounds += 1;
                // Handlers, the only code that can panic mid-round, run
                // trapped: this thread must still reach barrier B, or its
                // peers would wait there forever. The first panic wins.
                let window = |s: &mut &mut Shard<M, P>| {
                    s.run_window(window_last, cap, affinity, locs)
                };
                match catch_unwind(AssertUnwindSafe(|| mine.iter_mut().map(window).sum())) {
                    Err(payload) => {
                        lock(&trap).get_or_insert(payload);
                        failed = true;
                    }
                    Ok(count) => {
                        (ran, filed) = (count, 0);
                        for shard in mine.iter_mut() {
                            filed += shard.outbox.len() as u64;
                            for send in shard.outbox.drain(..) {
                                post[seat[affinity[send.dst.index()] as usize].0].push(send);
                            }
                        }
                        for to in (0..threads).filter(|&to| to != me) {
                            std::mem::swap(&mut *lock(&mail[me * threads + to]), &mut post[to]);
                        }
                    }
                }
                barrier.wait(); // B: every window drained and its sends filed.
            }
            tally
        };

        let (first, peers) = owned.split_at_mut(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "conservative-window fan-out: each thread runs a fixed shard set between barriers and every decision is a pure function of simulation state, so the schedule cannot reach any output byte"
        )]
        let tally = std::thread::scope(|scope| {
            for (me, part) in (1..).zip(peers) {
                let drive = &drive;
                scope.spawn(move || drive(me, part));
            }
            drive(0, &mut first[0])
        });

        let (spun, blocked) = barrier.waits();
        self.waits = (self.waits.0 + spun, self.waits.1 + blocked);
        self.rounds += tally.rounds;
        self.cross_events += tally.cross;
        self.critical_events += tally.critical;
        if let Some(payload) = trap.into_inner().unwrap_or_else(PoisonError::into_inner) {
            // The first component panic (its message intact) becomes
            // this call's panic, whichever thread it happened on.
            resume_unwind(payload);
        }
        tally.budget_hit
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

    /// A probe that knows which shard it was made for.
    #[derive(Debug)]
    struct ShardTag(usize);

    impl Probe for ShardTag {}

    #[test]
    fn strided_ownership_matches_the_serial_ring() {
        // 5 shards: thread `s % T` owns shard `s`, so 2 and 3 workers own
        // unequal sets, 4 leaves one thread a single shard, and 8 is
        // capped at 5 threads of one shard each.
        let delay = SimDuration::from_ns(25);
        let deadline = SimTime::from_ms(1);
        let (mut serial, ids) = ring(5, delay, 100);
        serial.run_until(deadline);
        let want = logs(&ids, &serial);
        for workers in [2, 3, 4, 8] {
            let (engine, ids) = ring(5, delay, 100);
            let spec = ShardSpec {
                affinity: vec![0, 1, 2, 3, 4],
                lookahead: delay,
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, ShardTag);
            sharded.run_until(deadline);
            assert_eq!(logs(&ids, &sharded), want, "workers={workers}");
            assert_eq!(sharded.events_processed(), serial.events_processed());
            assert_eq!(sharded.now(), serial.now());
            // Shard-id order, whichever thread ran a shard.
            assert!(sharded.probes().map(|tag| tag.0).eq(0..5), "workers={workers}");
            for (shard, &id) in ids.iter().enumerate() {
                let heard = sharded.component_as::<Relay>(id).unwrap().log.len() as u64;
                assert_eq!(sharded.shard_events(shard), heard, "workers={workers}");
            }
            let threads = workers.min(5);
            let per_thread: Vec<u64> = (0..threads)
                .map(|me| (me..5).step_by(threads).map(|s| sharded.shard_events(s)).sum())
                .collect();
            assert_eq!(sharded.sync_stats().worker_events, per_thread, "workers={workers}");
        }
    }

    /// Runs `threads` threads through `phases` barrier phases. Before each
    /// wait a thread publishes the phase it finished; after it, every
    /// thread must have published that phase and none can be more than
    /// one ahead. Returns whether that held, and the barrier's wait split.
    #[expect(
        clippy::disallowed_methods,
        reason = "a barrier is tested on real threads"
    )]
    fn drive_barrier(threads: usize, phases: u64, spin: u32) -> (bool, (u64, u64)) {
        let barrier = PhaseBarrier::new(threads, spin);
        let done: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        // Recorded, not asserted in place: a panicking thread would leave
        // the others waiting for it forever.
        let early = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for me in 0..threads {
                let (barrier, done, early) = (&barrier, &done, &early);
                scope.spawn(move || {
                    for phase in 1..=phases {
                        done[me].store(phase, Ordering::Release);
                        barrier.wait();
                        for other in done {
                            let seen = other.load(Ordering::Acquire);
                            if seen != phase && seen != phase + 1 {
                                early.store(true, Ordering::Release);
                            }
                        }
                    }
                });
            }
        });
        (!early.load(Ordering::Acquire), barrier.waits())
    }

    #[test]
    fn barrier_block_path_holds_every_phase() {
        let (held, waits) = drive_barrier(8, 10_000, 0);
        assert!(held, "a thread passed the barrier before all had arrived");
        assert_eq!(waits, (0, 7 * 10_000));
    }

    #[test]
    fn barrier_spin_path_holds_every_phase() {
        // Pure spinning needs a core per thread to make progress.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = cores.min(8);
        let (held, waits) = drive_barrier(threads, 10_000, u32::MAX);
        assert!(held, "a thread passed the barrier before all had arrived");
        assert_eq!(waits, ((threads as u64 - 1) * 10_000, 0));
    }

    #[test]
    fn any_ownership_matches_the_serial_ring() {
        let delay = SimDuration::from_ns(25);
        let deadline = SimTime::from_ms(1);
        let hops = 500;
        let mut lopsided = vec![0u16; 18];
        lopsided.extend([1, 2]);
        for (case, affinity, workers) in [
            ("workers > shards", vec![0, 1, 2, 3], 8),
            ("5 shards / 4 workers", vec![0, 1, 2, 3, 4], 4),
            ("one shard holds 90 % of the events", lopsided, 3),
        ] {
            let (mut serial, ids) = ring(affinity.len(), delay, hops);
            serial.run_until(deadline);
            let (engine, _) = ring(affinity.len(), delay, hops);
            let spec = ShardSpec {
                affinity,
                lookahead: delay,
                workers,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            sharded.run_until(deadline);
            assert_eq!(logs(&ids, &sharded), logs(&ids, &serial), "{case}");
            // Every event ran on exactly one thread, and every wait of
            // every thread but the round's last arriver was counted.
            let stats = sharded.sync_stats();
            let threads = stats.worker_events.len() as u64;
            assert!(threads > 1 && threads <= workers as u64, "{case}");
            assert_eq!(stats.worker_events.iter().sum::<u64>(), hops + 1, "{case}");
            assert_eq!(
                stats.spin_waits + stats.blocked_waits,
                (2 * sharded.rounds() + 1) * (threads - 1),
                "{case}"
            );
            // One token: every round delivers one event, on one thread.
            assert_eq!(stats.critical_events, hops + 1, "{case}");
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
    #[should_panic(expected = "inside the conservative window")]
    fn cross_shard_send_below_lookahead_is_rejected_with_blocked_waiters() {
        // Sixteen threads outnumber the cores of any box this runs on,
        // so the waiters the panic must release are asleep, not spinning.
        let (engine, _) = ring(16, SimDuration::from_ns(1), 5);
        let spec = ShardSpec {
            affinity: (0..16).collect(),
            lookahead: SimDuration::from_ns(100),
            workers: 16,
        };
        let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
        sharded.run_until(SimTime::from_ms(1));
    }

    #[test]
    fn a_panic_on_a_peer_thread_is_re_raised_with_no_waiter_stranded() {
        // Component 0 sits in the last shard, owned by the last thread,
        // and breaks the lookahead on its first send. Two threads wait
        // for it spinning; sixteen outnumber the cores, so theirs block.
        for components in [2, 16] {
            let (engine, _) = ring(components, SimDuration::from_ns(1), 5);
            let spec = ShardSpec {
                affinity: (0..components as u16).rev().collect(),
                lookahead: SimDuration::from_ns(100),
                workers: components,
            };
            let mut sharded = ShardedEngine::from_engine(engine, spec, |_| NullProbe);
            let raised = catch_unwind(AssertUnwindSafe(|| {
                sharded.run_until(SimTime::from_ms(1));
            }));
            let payload = raised.expect_err("the peer's panic was swallowed");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("inside the conservative window"),
                "threads={components}: {message:?}"
            );
        }
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
