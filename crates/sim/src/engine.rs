//! The discrete-event engine.
//!
//! An [`Engine`] owns a set of components (network hosts, switches, the fault
//! injector, traffic sources, …) and a time-ordered event queue. Events carry
//! a domain-defined payload type `M`; delivery order is `(time, key)` where
//! the sub-tick key encodes *(source slot, per-source emission index)* — see
//! `tick_key` — so same-time events order by who emitted them and in what
//! order, a pure function of simulation state. Runs are fully deterministic,
//! and the order is reproducible shard-locally by a
//! [`crate::shard::ShardedEngine`] with no global coordination.

// netfi-lint: deny(hot-path-alloc)
//
// The event loop (`Core::run_window`) is the simulator's innermost loop. The only
// allocations permitted here are one-time constructor ones (allowlisted
// below); the timing-wheel queue and component table amortise to zero
// allocations at steady state.

use std::any::Any;
use std::fmt;

use crate::arena::ComponentArena;
use crate::queue::TimingWheel;
use crate::time::{SimDuration, SimTime};

/// Bits reserved for the per-source emission counter in a sub-tick key;
/// the source slot occupies the bits above.
pub(crate) const EMIT_BITS: u32 = 40;

/// Packs a sub-tick ordering key from a source slot and that source's
/// emission counter.
///
/// Slot `0` is the engine-level [`Engine::schedule`] stream; slot
/// `id + 1` is component `id`'s [`Context::send`] stream. Counters
/// strictly increase per source, so keys are globally unique, and the
/// key of an emission depends only on *which component emitted it and
/// how many it had emitted before* — not on how emissions from other
/// sources interleave. That locality is what lets the sharded engine
/// reproduce the serial same-instant delivery order without seeing the
/// global emission sequence (see [`crate::shard`]).
pub(crate) fn tick_key(src_slot: u64, counter: u64) -> u64 {
    debug_assert!(
        counter < (1u64 << EMIT_BITS),
        "per-source emission counter overflow"
    );
    (src_slot << EMIT_BITS) | counter
}

/// Identifies a component registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// The raw index of this component within its engine.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A simulated entity that reacts to events.
///
/// Implementors write [`Component::on_event`] and [`Component::fork`]; the
/// `as_any` upcasts that let experiment harnesses downcast a component
/// back to its concrete type after a run (see [`Engine::component_as`])
/// are provided.
///
/// `Send` is a supertrait so any engine can be decomposed into a
/// [`crate::shard::ShardedEngine`], whose affinity groups execute on scoped
/// worker threads. `Sync` is a supertrait so an [`EngineSnapshot`] can be
/// shared by reference: every campaign worker forks the one donor on the
/// thread that runs the fork. Component state is plain owned data
/// everywhere in this workspace, so the bounds cost nothing; `Send` rules
/// out `Rc` and `Sync` rules out `Cell`/`RefCell` state, either of which
/// would also defeat the determinism story.
pub trait Component<M>: 'static + Send + Sync + sealed::Upcast {
    /// Called when an event addressed to this component becomes due.
    fn on_event(&mut self, ctx: &mut Context<'_, M>, payload: M);

    /// Upcast for downcasting by harnesses.
    fn as_any(&self) -> &dyn Any {
        self.upcast()
    }

    /// Mutable upcast for downcasting by harnesses.
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.upcast_mut()
    }

    /// Deep-copies the component for an [`EngineSnapshot`].
    ///
    /// The copy must carry *all* state that can influence future event
    /// processing — queues, RNG positions, counters, generation numbers,
    /// flow-control flags — so a forked engine replays bit-identically to
    /// the original (see [`EngineSnapshot`]). This is the object-safe seam
    /// under `Clone`: put `#[derive(Clone)]` on the component — or
    /// [`clone_in_place!`](crate::clone_in_place), which also copies in
    /// place (see [`fork_onto`](Component::fork_onto)) — so a field added
    /// later is copied without anyone remembering to, and write the body
    /// as `Box::new(self.clone())` — `netfi-lint`'s `fork-not-clone` rule
    /// rejects anything else outside test code.
    fn fork(&self) -> Box<dyn Component<M>>;

    /// Overwrites `dst` with a fork of `self`: what a resident fork
    /// ([`Engine::fork_into`], [`EngineSnapshot::fork_into`]) calls for
    /// every slot of the engine it writes over, `dst` being what that
    /// engine held in the same slot.
    ///
    /// The default drops `dst` and re-makes the component through
    /// [`fork`](Component::fork). A component whose state owns heap
    /// storage overrides it with the one body
    /// [`crate::clone_onto`]`(self, dst)`, which copies into `dst` in
    /// place when it holds the same type — its queues, maps and rings
    /// keep the storage they have grown — with the `clone_from` that
    /// [`clone_in_place!`](crate::clone_in_place) writes. `netfi-lint`'s
    /// `fork-not-clone` rule rejects any other override outside test code.
    fn fork_onto(&self, dst: &mut Box<dyn Component<M>>) {
        *dst = self.fork();
    }
}

mod sealed {
    use std::any::Any;

    /// The one body behind [`super::Component::as_any`]: a default method
    /// cannot coerce `&Self` to `&dyn Any` itself, since `Self` may be
    /// unsized there. The blanket impl covers every type, and the private
    /// module keeps anyone from writing another.
    pub trait Upcast {
        fn upcast(&self) -> &dyn Any;
        fn upcast_mut(&mut self) -> &mut dyn Any;
    }

    impl<T: Any> Upcast for T {
        fn upcast(&self) -> &dyn Any {
            self
        }
        fn upcast_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
}

/// What the component table's and the executor core's copies are built
/// from: a fresh copy through [`Component::fork`], a copy over what a
/// resident engine holds through [`Component::fork_onto`].
impl<M: 'static> Clone for Box<dyn Component<M>> {
    fn clone(&self) -> Self {
        (**self).fork()
    }

    fn clone_from(&mut self, src: &Self) {
        (**src).fork_onto(self);
    }
}

/// What the queue stores per event: destination and payload. Time and
/// sequence number are the wheel's ordering key.
pub(crate) type Queued<M> = (ComponentId, M);

/// A send that crossed a shard boundary during a conservative window.
/// Captured in the emitting shard's outbox and merged into the destination
/// shard's wheel at the window barrier (see [`crate::shard`]). It carries
/// the sub-tick key assigned at emission, so the destination wheel orders
/// it exactly as the serial engine's single wheel would.
pub(crate) struct CrossSend<M> {
    pub(crate) time: SimTime,
    pub(crate) key: u64,
    pub(crate) dst: ComponentId,
    pub(crate) payload: M,
}

/// Sharded-execution routing state threaded through a [`Context`].
///
/// Present only under a shard's `Part` placement; the serial engine's
/// [`Whole`] placement always yields `route: None`, so its dispatch loop
/// pays one always-false branch per send.
pub(crate) struct ShardRoute<'a, M> {
    /// Component index → shard id, for the whole engine.
    pub(crate) affinity: &'a [u16],
    /// The shard this context is executing in.
    pub(crate) home: u16,
    /// Last instant (inclusive) of the current conservative window.
    /// Cross-shard sends must land strictly after it.
    pub(crate) window_last: SimTime,
    /// Captures cross-shard sends for the barrier merge.
    pub(crate) outbox: &'a mut Vec<CrossSend<M>>,
}

/// Scheduling context handed to a component while it handles an event.
///
/// All side effects a component can have on the simulation — scheduling
/// future events, stopping the run — go through the context. Events are
/// pushed straight into the engine's timing wheel (no intermediate
/// outbox), so an emitted event is handled exactly once.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: ComponentId,
    /// The handling component's own emission counter — the low half of
    /// every sub-tick key it mints (see [`tick_key`]).
    emit: &'a mut u64,
    queue: &'a mut TimingWheel<Queued<M>>,
    components: u32,
    stop_requested: &'a mut bool,
    route: Option<ShardRoute<'a, M>>,
}

impl<M> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .finish_non_exhaustive()
    }
}

impl<M> Context<'_, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently handling an event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `payload` for delivery to `dst` after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a registered component.
    pub fn send(&mut self, dst: ComponentId, delay: SimDuration, payload: M) {
        assert!(
            dst.0 < self.components,
            "event addressed to unknown component {dst}"
        );
        let time = self.now + delay;
        let counter = *self.emit;
        *self.emit += 1;
        let key = tick_key(u64::from(self.self_id.0) + 1, counter);
        if let Some(route) = self.route.as_mut() {
            if route.affinity[dst.index()] != route.home {
                // The conservative-window invariant: a cross-shard send may
                // not land inside the window the shards are executing, or
                // the destination shard could already have run past it.
                assert!(
                    time > route.window_last,
                    "cross-shard send to {dst} lands inside the conservative \
                     window; the affinity partition violates the lookahead bound"
                );
                route.outbox.push(CrossSend { time, key, dst, payload });
                return;
            }
        }
        self.queue.push(time, key, (dst, payload));
    }

    /// Schedules `payload` for delivery back to the current component.
    pub fn send_self(&mut self, delay: SimDuration, payload: M) {
        self.send(self.self_id, delay, payload);
    }

    /// Schedules `payload` for immediate (same-time) delivery to `dst`.
    ///
    /// Same-time events are delivered in scheduling order.
    pub fn send_now(&mut self, dst: ComponentId, payload: M) {
        self.send(dst, SimDuration::ZERO, payload);
    }

    /// Asks the engine to stop after the current event completes.
    ///
    /// Under a [`crate::shard::ShardedEngine`] the request takes effect at
    /// the current window barrier: the stopping shard delivers no further
    /// events, other shards finish their window batch, and the run ends at
    /// the round boundary (see the module docs of [`crate::shard`]).
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// An observation seam on the engine's dispatch loop.
///
/// The probe is a *type parameter* of [`Engine`], so the choice of probe is
/// made at compile time and dispatch is static. The default, [`NullProbe`],
/// has empty `#[inline(always)]` hooks: an unprobed engine compiles to the
/// same dispatch loop it had before the seam existed. A real probe (e.g.
/// `netfi-obs`'s `DispatchProbe`) sees every delivery without the engine
/// paying for observation when it is off.
///
/// `Debug` is a supertrait so harness structs generic over their probe can
/// keep `#[derive(Debug)]`.
pub trait Probe: fmt::Debug + 'static {
    /// Called when an event is popped, immediately before delivery.
    ///
    /// `events_processed` is the running delivery count *including* this
    /// event.
    #[inline(always)]
    fn on_dispatch(&mut self, now: SimTime, dst: ComponentId, events_processed: u64) {
        let _ = (now, dst, events_processed);
    }

    /// Called after the component handled the event. `emitted` is how
    /// many events the handler scheduled.
    #[inline(always)]
    fn on_deliver(&mut self, now: SimTime, dst: ComponentId, emitted: usize) {
        let _ = (now, dst, emitted);
    }
}

/// The no-op probe: both hooks inline to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Bounds for a budgeted run (see [`Engine::run_budgeted`]): a simulated
/// deadline *and* a cap on delivered events. Both are pure functions of
/// simulation state, so a budgeted run returns the same [`RunOutcome`] on
/// the serial engine and on a [`crate::shard::ShardedEngine`] at any
/// worker count. The sharded engine hands every shard the events still
/// allowed as its cap for the window, so with one shard the cap is exact,
/// and otherwise the overrun is below `shards × remaining` at the last
/// window's start — deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Latest simulated instant to deliver events at (inclusive).
    pub deadline: SimTime,
    /// Maximum events to deliver in this call.
    pub max_events: u64,
}

impl RunBudget {
    /// A pure time bound: run to `deadline` with no event cap.
    pub fn until(deadline: SimTime) -> RunBudget {
        RunBudget {
            deadline,
            max_events: u64::MAX,
        }
    }

    /// Caps the number of events delivered by this run.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> RunBudget {
        self.max_events = max_events;
        self
    }
}

/// Why a budgeted run returned (see [`Engine::run_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained: nothing left to deliver anywhere.
    Drained,
    /// A component called [`Context::stop`].
    Stopped,
    /// Events remain, but none due at or before the deadline.
    DeadlineReached,
    /// The event cap ran out with the deadline not yet reached — the
    /// signature of a livelock when the cap was sized generously.
    BudgetExhausted,
}

/// Where a [`Core`] finds a destination's slot and what its handlers'
/// sends are routed through — the whole difference between the serial
/// engine and a shard. Statically dispatched: each placement gets its own
/// monomorphized [`Core::run_window`].
pub(crate) trait Placement<M> {
    /// The slot of component `dst` in the core's arena.
    fn slot(&self, dst: ComponentId) -> usize;
    /// The routing state for one delivery in the window ending at
    /// `window_last`.
    fn route(&mut self, window_last: SimTime) -> Option<ShardRoute<'_, M>>;
}

/// The serial placement: the core holds every component at its own index
/// and nothing is routed.
pub(crate) struct Whole;

impl<M> Placement<M> for Whole {
    #[inline(always)]
    fn slot(&self, dst: ComponentId) -> usize {
        dst.index()
    }
    #[inline(always)]
    fn route(&mut self, _window_last: SimTime) -> Option<ShardRoute<'_, M>> {
        None
    }
}

/// One executor: a component table, the wheel that feeds it, a clock and
/// a probe. The serial [`Engine`] is one core holding every component; a
/// [`crate::shard::ShardedEngine`] is one core per affinity group.
/// `Core::copy_state_from` is the one copy behind [`Engine::snapshot`],
/// [`EngineSnapshot::fork`], [`EngineSnapshot::fork_into`] and the
/// probe-less [`Engine::fork_without_probe`]; a copied `stop` is harmless,
/// since every run entry clears it before reading it.
pub(crate) struct Core<M: 'static, P: Probe> {
    /// One dense slot per component co-locating the component with its
    /// emission counter (the low half of the sub-tick keys it mints), so
    /// a delivery's counter read-modify-write and its vtable jump share a
    /// cache line (see [`crate::arena`]). Counters are carried through
    /// snapshots and shard decomposition: resetting one would re-issue
    /// keys already spent on queued events.
    pub(crate) arena: ComponentArena<M>,
    /// A bucketed timing wheel (see [`crate::queue`]): exact `(time, key)`
    /// delivery order at O(1) push/pop.
    pub(crate) wheel: TimingWheel<Queued<M>>,
    pub(crate) now: SimTime,
    pub(crate) events: u64,
    pub(crate) stop: bool,
    pub(crate) probe: P,
}

impl<M: Clone + 'static, P: Probe> Core<M, P> {
    /// Overwrites every field of `self` but the probe with `src`'s, in
    /// place: the arena and the wheel keep the storage they have grown
    /// (a fork that keeps the probe clones it with `clone_from` after).
    /// `src` may carry another probe type, which is how a probed donor
    /// forks into an engine that observes nothing. (A core is not
    /// `Clone`: nothing copies one except into an engine that already has
    /// one.)
    fn copy_state_from<Q: Probe>(&mut self, src: &Core<M, Q>) {
        let Core { arena, wheel, now, events, stop, probe: _ } = src;
        self.arena.clone_from(arena);
        self.wheel.clone_from(wheel);
        self.now = *now;
        self.events = *events;
        self.stop = *stop;
    }
}

impl<M: 'static, P: Probe> Core<M, P> {
    /// An empty core at `now`.
    pub(crate) fn new(now: SimTime, probe: P) -> Self {
        Core {
            arena: ComponentArena::new(),
            wheel: TimingWheel::new(),
            now,
            events: 0,
            stop: false,
            probe,
        }
    }

    /// Delivers events due at or before `window_last` until none is left,
    /// a handler asks to stop, or `max_events` have been delivered;
    /// returns how many were. `total` is the component count sends are
    /// checked against. The only place in the crate that pops a wheel and
    /// calls a handler; one wheel walk covers the due check and the pop.
    #[inline]
    pub(crate) fn run_window(
        &mut self,
        window_last: SimTime,
        max_events: u64,
        total: u32,
        place: &mut impl Placement<M>,
    ) -> u64 {
        let mut delivered = 0;
        while !self.stop && delivered < max_events {
            let Some((time, _key, (dst, payload))) = self.wheel.pop_due(window_last) else {
                break;
            };
            debug_assert!(time >= self.now);
            self.now = time;
            self.events += 1;
            delivered += 1;
            self.probe.on_dispatch(time, dst, self.events);
            // One slot borrow covers the counter and the component: the
            // context takes `&mut slot.emit`, the handler call takes
            // `&mut slot.component` — disjoint fields of one dense record.
            let emitted = {
                let slot = self.arena.slot_mut(place.slot(dst));
                let emit_before = slot.emit;
                let mut ctx = Context {
                    now: time,
                    self_id: dst,
                    emit: &mut slot.emit,
                    queue: &mut self.wheel,
                    components: total,
                    stop_requested: &mut self.stop,
                    route: place.route(window_last),
                };
                slot.component.on_event(&mut ctx, payload);
                // Every send a handler makes goes through its own counter,
                // so the delta is exactly what this delivery emitted.
                (slot.emit - emit_before) as usize
            };
            self.probe.on_deliver(time, dst, emitted);
        }
        delivered
    }
}

/// The tail of every budgeted run: classifies how it ended and, unless it
/// was cut short, advances `now` to the deadline.
pub(crate) fn run_outcome(
    now: &mut SimTime,
    stopped: bool,
    budget_hit: bool,
    deadline: SimTime,
    pending: usize,
) -> RunOutcome {
    if stopped {
        return RunOutcome::Stopped;
    }
    if budget_hit {
        return RunOutcome::BudgetExhausted;
    }
    if *now < deadline {
        *now = deadline;
    }
    if pending == 0 {
        RunOutcome::Drained
    } else {
        RunOutcome::DeadlineReached
    }
}

/// The event-driven simulation engine.
///
/// See the [crate-level documentation](crate) for a complete example. The
/// `P` parameter selects the observation [`Probe`]; it defaults to
/// [`NullProbe`] (no observation, no overhead), so existing
/// `Engine<M>`-typed code is unaffected.
pub struct Engine<M: 'static, P: Probe = NullProbe> {
    pub(crate) core: Core<M, P>,
    /// Emission counter for the engine-level [`Engine::schedule`] stream
    /// (sub-tick source slot 0).
    pub(crate) external_seq: u64,
}

impl<M: 'static, P: Probe> fmt::Debug for Engine<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("components", &self.core.arena.len())
            .field("queued", &self.core.wheel.len())
            .field("now", &self.core.now)
            .field("events_processed", &self.core.events)
            .finish()
    }
}

impl<M: 'static> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: 'static> Engine<M> {
    /// Creates an empty engine at time zero with no observation probe.
    pub fn new() -> Self {
        Engine::with_probe(NullProbe)
    }
}

impl<M: 'static, P: Probe> Engine<M, P> {
    /// Creates an empty engine at time zero observed by `probe`.
    pub fn with_probe(probe: P) -> Self {
        Engine {
            core: Core::new(SimTime::ZERO, probe),
            external_seq: 0,
        }
    }

    /// Borrows the observation probe.
    pub fn probe(&self) -> &P {
        &self.core.probe
    }

    /// Mutably borrows the observation probe (e.g. to arm or drain it).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.core.probe
    }

    /// Registers a component and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the component table would exceed the sub-tick key
    /// scheme's source-slot capacity (2²⁴ − 2 components).
    #[expect(
        clippy::expect_used,
        reason = "the slot-capacity assert above already bounds the table"
    )]
    pub fn add_component(&mut self, component: Box<dyn Component<M>>) -> ComponentId {
        // Slot `id + 1` must fit the 24 bits above the emission counter.
        assert!(
            self.core.arena.len() < (1usize << (64 - EMIT_BITS)) - 1,
            "too many components for the sub-tick key scheme"
        );
        let id = ComponentId(u32::try_from(self.core.arena.len()).expect("too many components"));
        self.core.arena.push(component);
        id
    }

    /// The current simulated time (the time of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events
    }

    /// The number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.core.wheel.len()
    }

    /// Schedules `payload` for delivery to `dst` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past or `dst` is not registered.
    pub fn schedule(&mut self, time: SimTime, dst: ComponentId, payload: M) {
        assert!(time >= self.core.now, "cannot schedule into the past");
        assert!(dst.index() < self.core.arena.len(), "unknown component {dst}");
        let key = tick_key(0, self.external_seq);
        self.external_seq += 1;
        self.core.wheel.push(time, key, (dst, payload));
    }

    /// Clears any earlier stop request and delivers at most `max_events`
    /// events due at or before `deadline`: the core holding every
    /// component, under the [`Whole`] placement.
    fn deliver(&mut self, deadline: SimTime, max_events: u64) -> u64 {
        self.core.stop = false;
        let total = u32::try_from(self.core.arena.len()).unwrap_or(u32::MAX);
        self.core.run_window(deadline, max_events, total, &mut Whole)
    }

    /// Delivers the next event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.deliver(SimTime::MAX, 1) == 1
    }

    /// Runs until the queue drains or a component calls [`Context::stop`].
    pub fn run(&mut self) {
        self.deliver(SimTime::MAX, u64::MAX);
    }

    /// Runs until simulated time would exceed `deadline`, the queue drains,
    /// or a component requests a stop. Events at exactly `deadline` are
    /// delivered; the engine clock never passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let _ = self.run_budgeted(RunBudget::until(deadline));
    }

    /// Runs under both a time bound and an event-count bound, and reports
    /// which condition ended the run.
    ///
    /// The event budget is what makes fault-injection campaigns total: a
    /// fault that livelocks the simulated system (e.g. a corrupted
    /// control loop re-arming itself at the same instant forever) cannot
    /// spin the host — the run returns [`RunOutcome::BudgetExhausted`]
    /// after exactly `max_events` deliveries, a pure function of
    /// simulation state. On the deadline/drain/stop paths the clock
    /// behaves exactly like [`Engine::run_until`]; on budget exhaustion
    /// the clock stays at the last delivered event.
    pub fn run_budgeted(&mut self, budget: RunBudget) -> RunOutcome {
        let budget_hit = self.deliver(budget.deadline, budget.max_events) >= budget.max_events;
        let core = &mut self.core;
        run_outcome(&mut core.now, core.stop, budget_hit, budget.deadline, core.wheel.len())
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.core.now + span;
        self.run_until(deadline);
    }

    /// Downcasts a component to its concrete type.
    ///
    /// # Example
    ///
    /// See the [crate-level documentation](crate).
    pub fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.core
            .arena
            .get(id.index())
            .and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// Mutably downcasts a component to its concrete type.
    pub fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.core
            .arena
            .get_mut(id.index())
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.core.arena.len()
    }
}

impl<M: Clone + 'static, P: Probe + Clone> Engine<M, P> {
    /// Captures the engine's full deterministic state — components, the
    /// timing wheel, clock, sequence counter, delivery count and probe —
    /// into an immutable [`EngineSnapshot`].
    ///
    /// The canonical use is amortising campaign warm-up: run one engine
    /// to a warmed state, snapshot it once, then
    /// [`fork`](EngineSnapshot::fork) the snapshot into an independent
    /// runnable engine per failure scenario — or
    /// [`fork_into`](EngineSnapshot::fork_into) one engine scenario after
    /// scenario — with no re-simulation. The copy costs what the engine
    /// holds (components, queued events, the probe), not what an engine
    /// is: empty wheel buckets are not visited. Each fork replays
    /// bit-identically to a fresh run that reached the same state (pinned
    /// end-to-end by the golden export hashes in `tests/determinism.rs`).
    pub fn snapshot(&self) -> EngineSnapshot<M, P> {
        // lint: allow(hot-path-alloc) snapshot capture and fork construction are campaign setup, not the event loop
        let mut copy = Engine::with_probe(self.core.probe.clone());
        self.fork_into(&mut copy);
        EngineSnapshot(copy)
    }

    /// Overwrites `target` with a fork of this live engine, reusing the
    /// storage `target` has grown, exactly as
    /// [`EngineSnapshot::fork_into`] does from a capture: the one engine
    /// copy, every field of `self` written over `target`'s. `self` is
    /// left as it was and may run on; `target` then replays what `self`
    /// would from here on. This is how a driver forks a run that is
    /// still advancing — the sampler's per-worker healthy prefix, forked
    /// at each point's arming instant — without capturing a snapshot
    /// per fork.
    pub fn fork_into(&self, target: &mut Engine<M, P>) {
        self.fork_without_probe(target);
        target.core.probe.clone_from(&self.core.probe);
    }
}

impl<M: Clone + 'static, P: Probe> Engine<M, P> {
    /// [`fork_into`](Engine::fork_into) with `target`'s own probe left as
    /// it is: the components, the wheel, the clock and the counters are
    /// copied, this engine's probe is neither copied nor read. `target`
    /// replays the same trajectory as a probed fork would, event for
    /// event. A driver that never reads the probe forks a probed donor
    /// into an `Engine<M, NullProbe>` this way and pays neither for the
    /// probe's copy nor for its bookkeeping on every delivery that
    /// follows (the sampler's per-point engines).
    pub fn fork_without_probe<Q: Probe>(&self, target: &mut Engine<M, Q>) {
        let Engine { core, external_seq } = self;
        target.core.copy_state_from(core);
        target.external_seq = *external_seq;
    }
}

/// An immutable capture of a warmed [`Engine`], forkable into independent
/// runnable engines (see [`Engine::snapshot`]).
///
/// The snapshot is a frozen engine: its own deep copy of every component,
/// the full timing-wheel state (every field of [`TimingWheel`]), the
/// clock, the sequence counter, the delivery count, and the probe. It
/// holds *no* reference back to the donor engine: the donor may
/// keep running — or be dropped — without affecting any fork taken later.
///
/// The correctness claim — a fork is bit-identical to a fresh run that
/// reached the same state — rests on the copy carrying *all* state that
/// can influence future event processing (queues, RNGs, counters, timers,
/// flow-control flags). The compiler keeps that inventory: every
/// component, payload and queue entry derives `Clone`, so growing a
/// struct grows its copy, and the few containers that copy by hand so
/// they can copy *in place* (the wheel, the component table, the core,
/// the engine, the flight ring and the dispatch probe) each destructure
/// their source exhaustively, so a field one of them forgets is a compile
/// error. `SharedBytes`
/// clones by reference-count bump, which is a correct fork because the
/// buffers are copy-on-write; any other shared handle (`Arc` around
/// interior mutability) would leak state across forks, so component and
/// payload state stays plain owned data. The golden export hashes in
/// `tests/determinism.rs` pin the claim end to end.
pub struct EngineSnapshot<M: 'static, P: Probe = NullProbe>(Engine<M, P>);

impl<M: 'static, P: Probe> fmt::Debug for EngineSnapshot<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("EngineSnapshot").field(&self.0).finish()
    }
}

impl<M: Clone + 'static, P: Probe + Clone> EngineSnapshot<M, P> {
    /// Builds an independent runnable [`Engine`] from the captured state.
    ///
    /// Forking is O(occupied state): components, queued events and the
    /// probe are deep-copied, empty wheel buckets are not visited, nothing
    /// is re-simulated. The fork resumes at the capture's clock
    /// and sequence counter, so its event trajectory is exactly the
    /// donor's from the capture instant on — until the caller perturbs it
    /// (a failure spec, new stimulus). A stop the donor had requested does
    /// not carry over: every run clears it on entry.
    pub fn fork(&self) -> Engine<M, P> {
        // A snapshot of the frozen engine, thawed: the same copy.
        self.0.snapshot().0
    }

    /// [`fork`](EngineSnapshot::fork) into an engine that already exists,
    /// reusing the storage it has grown: the wheel's bucket storage
    /// (through its spare stack), both heaps, the component table and the
    /// probe's vectors, so a worker that runs one scenario after another
    /// on the same engine stops allocating for them.
    ///
    /// *All* prior state of `target` is overwritten — its components
    /// (however many it had), every queued event, clock, counters, probe —
    /// so the result equals a fresh fork whatever `target` ran before,
    /// including a scenario that failed or panicked half-way.
    pub fn fork_into(&self, target: &mut Engine<M, P>) {
        self.0.fork_into(target);
    }
}

impl<M: Clone + 'static, P: Probe> EngineSnapshot<M, P> {
    /// [`fork_into`](EngineSnapshot::fork_into) with `target`'s own probe
    /// left as it is (see [`Engine::fork_without_probe`]).
    pub fn fork_without_probe<Q: Probe>(&self, target: &mut Engine<M, Q>) {
        self.0.fork_without_probe(target);
    }
}

impl<M: 'static, P: Probe> EngineSnapshot<M, P> {
    /// The simulated time the capture was taken at.
    pub fn now(&self) -> SimTime {
        self.0.core.now
    }

    /// Events that were pending when the capture was taken.
    pub fn pending_events(&self) -> usize {
        self.0.core.wheel.len()
    }
}

/// The control surface shared by the serial [`Engine`] and the
/// [`crate::shard::ShardedEngine`].
///
/// Harness code written against this trait (building scripts, scheduling
/// stimulus, running phases, downcasting components afterwards) runs
/// unchanged on either executor — which is how `nftape`'s observed
/// campaign pins the sharded engine against the serial golden hashes.
/// The trait has generic methods, so it is meant for `impl Simulation<M>`
/// bounds rather than trait objects.
pub trait Simulation<M> {
    /// The current simulated time (see [`Engine::now`]).
    fn now(&self) -> SimTime;

    /// Total events delivered so far.
    fn events_processed(&self) -> u64;

    /// Events still queued.
    fn pending_events(&self) -> usize;

    /// Number of registered components.
    fn component_count(&self) -> usize;

    /// Schedules `payload` for delivery to `dst` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past or `dst` is not registered.
    fn schedule(&mut self, time: SimTime, dst: ComponentId, payload: M);

    /// Runs until `deadline` (events at exactly `deadline` are delivered;
    /// the clock never passes it), the queue drains, or a stop request.
    fn run_until(&mut self, deadline: SimTime);

    /// Runs under a time bound *and* an event-count bound, reporting
    /// which ended the run (see [`Engine::run_budgeted`]). Campaign
    /// drivers use this instead of open-ended runs so a fault that
    /// livelocks the simulated system terminates deterministically as
    /// [`RunOutcome::BudgetExhausted`].
    fn run_budgeted(&mut self, budget: RunBudget) -> RunOutcome;

    /// Schedules `payload` for delivery to `dst` after `delay` from now.
    fn schedule_after(&mut self, delay: SimDuration, dst: ComponentId, payload: M) {
        let time = self.now() + delay;
        self.schedule(time, dst, payload);
    }

    /// Runs for `span` of simulated time from now.
    fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Downcasts a component to its concrete type.
    fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T>;

    /// Mutably downcasts a component to its concrete type.
    fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T>;
}

impl<M: 'static, P: Probe> Simulation<M> for Engine<M, P> {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }
    fn events_processed(&self) -> u64 {
        Engine::events_processed(self)
    }
    fn pending_events(&self) -> usize {
        Engine::pending_events(self)
    }
    fn component_count(&self) -> usize {
        Engine::component_count(self)
    }
    fn schedule(&mut self, time: SimTime, dst: ComponentId, payload: M) {
        Engine::schedule(self, time, dst, payload);
    }
    fn run_until(&mut self, deadline: SimTime) {
        Engine::run_until(self, deadline);
    }
    fn run_budgeted(&mut self, budget: RunBudget) -> RunOutcome {
        Engine::run_budgeted(self, budget)
    }
    fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        Engine::component_as(self, id)
    }
    fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        Engine::component_as_mut(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>, // (time in ns, value)
    }

    impl Component<u32> for Recorder {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, payload: u32) {
            self.seen.push((ctx.now().as_ps() / 1000, payload));
        }
        fn fork(&self) -> Box<dyn Component<u32>> {
            Box::new(self.clone())
        }
    }

    #[derive(Debug, Clone)]
    struct PingPong {
        peer: Option<ComponentId>,
        remaining: u32,
        bounces: u32,
    }

    impl Component<u32> for PingPong {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, payload: u32) {
            self.bounces += 1;
            if payload > 0 {
                if let Some(peer) = self.peer {
                    ctx.send(peer, SimDuration::from_ns(5), payload - 1);
                }
            } else {
                ctx.stop();
            }
            self.remaining = payload;
        }
        fn fork(&self) -> Box<dyn Component<u32>> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::from_ns(30), r, 3);
        e.schedule(SimTime::from_ns(10), r, 1);
        e.schedule(SimTime::from_ns(20), r, 2);
        e.run();
        let rec = e.component_as::<Recorder>(r).unwrap();
        assert_eq!(rec.seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_events_deliver_in_schedule_order() {
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        for v in 0..10 {
            e.schedule(SimTime::from_ns(5), r, v);
        }
        e.run();
        let rec = e.component_as::<Recorder>(r).unwrap();
        let values: Vec<u32> = rec.seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let mut e = Engine::new();
        let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        let b = e.add_component(Box::new(PingPong { peer: Some(a), remaining: 0, bounces: 0 }));
        e.component_as_mut::<PingPong>(a).unwrap().peer = Some(b);
        e.schedule(SimTime::ZERO, a, 10);
        e.run();
        let ta = e.component_as::<PingPong>(a).unwrap().bounces;
        let tb = e.component_as::<PingPong>(b).unwrap().bounces;
        assert_eq!(ta + tb, 11);
        assert_eq!(e.now(), SimTime::from_ns(50));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::from_ns(10), r, 1);
        e.schedule(SimTime::from_ns(100), r, 2);
        e.run_until(SimTime::from_ns(50));
        assert_eq!(e.now(), SimTime::from_ns(50));
        assert_eq!(e.pending_events(), 1);
        let rec = e.component_as::<Recorder>(r).unwrap();
        assert_eq!(rec.seen.len(), 1);
    }

    #[test]
    fn run_until_delivers_events_at_exact_deadline() {
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::from_ns(50), r, 1);
        e.run_until(SimTime::from_ns(50));
        assert_eq!(e.component_as::<Recorder>(r).unwrap().seen.len(), 1);
    }

    #[test]
    fn run_for_advances_clock_even_when_idle() {
        let mut e: Engine<u32> = Engine::new();
        let _ = e.add_component(Box::new(Recorder::default()));
        e.run_for(SimDuration::from_ms(5));
        assert_eq!(e.now(), SimTime::from_ms(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn schedule_in_the_past_panics() {
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::from_ns(10), r, 1);
        e.run();
        e.schedule(SimTime::from_ns(5), r, 2);
    }

    #[test]
    #[should_panic(expected = "unknown component")]
    fn schedule_to_unknown_component_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::ZERO, ComponentId(7), 1);
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut e: Engine<u32> = Engine::new();
        assert!(!e.step());
        assert_eq!(e.events_processed(), 0);
    }

    #[derive(Debug, Clone, Default)]
    struct CountingProbe {
        dispatches: u64,
        emitted: u64,
    }

    impl Probe for CountingProbe {
        fn on_dispatch(&mut self, _now: SimTime, _dst: ComponentId, _n: u64) {
            self.dispatches += 1;
        }
        fn on_deliver(&mut self, _now: SimTime, _dst: ComponentId, emitted: usize) {
            self.emitted += emitted as u64;
        }
    }

    #[test]
    fn probe_sees_every_dispatch_and_emission() {
        let mut e = Engine::with_probe(CountingProbe::default());
        let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        e.component_as_mut::<PingPong>(a).unwrap().peer = Some(a);
        e.schedule(SimTime::ZERO, a, 3);
        e.run();
        // Payload counts down 3→0: four deliveries, three of which emit.
        assert_eq!(e.probe().dispatches, 4);
        assert_eq!(e.probe().emitted, 3);
        e.probe_mut().dispatches = 0;
        assert_eq!(e.probe().dispatches, 0);
    }

    #[test]
    fn null_probe_engine_matches_probed_run() {
        fn run<P: Probe>(mut e: Engine<u32, P>) -> (SimTime, u64) {
            let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
            e.component_as_mut::<PingPong>(a).unwrap().peer = Some(a);
            e.schedule(SimTime::ZERO, a, 5);
            e.run();
            (e.now(), e.events_processed())
        }
        assert_eq!(run(Engine::new()), run(Engine::with_probe(CountingProbe::default())));
    }

    #[test]
    fn fork_replays_identically_to_the_donor() {
        // Warm an engine partway through a ping-pong, snapshot, then let
        // the donor and a fork finish independently: identical state.
        let mut e = Engine::new();
        let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        let b = e.add_component(Box::new(PingPong { peer: Some(a), remaining: 0, bounces: 0 }));
        e.component_as_mut::<PingPong>(a).unwrap().peer = Some(b);
        e.schedule(SimTime::ZERO, a, 10);
        e.run_until(SimTime::from_ns(22));

        let snap = e.snapshot();
        assert_eq!(snap.now(), e.now());
        assert_eq!(snap.pending_events(), e.pending_events());
        assert_eq!(snap.0.component_count(), 2);
        assert!(format!("{snap:?}").contains("EngineSnapshot"));

        let mut f = snap.fork();
        e.run();
        f.run();
        assert_eq!(f.now(), e.now());
        assert_eq!(f.events_processed(), e.events_processed());
        for id in [a, b] {
            assert_eq!(
                f.component_as::<PingPong>(id).unwrap().bounces,
                e.component_as::<PingPong>(id).unwrap().bounces
            );
        }
    }

    #[test]
    fn forks_are_mutually_independent() {
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::from_ns(10), r, 1);
        e.schedule(SimTime::from_ns(20), r, 2);
        let snap = e.snapshot();
        // Perturb one fork; the other and the donor must not see it.
        let mut f1 = snap.fork();
        let mut f2 = snap.fork();
        f1.schedule(SimTime::from_ns(15), r, 99);
        f1.run();
        f2.run();
        e.run();
        assert_eq!(
            f1.component_as::<Recorder>(r).unwrap().seen,
            vec![(10, 1), (15, 99), (20, 2)]
        );
        assert_eq!(f2.component_as::<Recorder>(r).unwrap().seen, vec![(10, 1), (20, 2)]);
        assert_eq!(e.component_as::<Recorder>(r).unwrap().seen, vec![(10, 1), (20, 2)]);
    }

    #[test]
    fn snapshot_carries_the_probe_state() {
        let mut e = Engine::with_probe(CountingProbe::default());
        let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        e.component_as_mut::<PingPong>(a).unwrap().peer = Some(a);
        e.schedule(SimTime::ZERO, a, 5);
        e.run_until(SimTime::from_ns(7));
        let mid_dispatches = e.probe().dispatches;
        let snap = e.snapshot();
        let mut f = snap.fork();
        e.run();
        f.run();
        assert!(mid_dispatches > 0);
        assert_eq!(f.probe().dispatches, e.probe().dispatches);
        assert_eq!(f.probe().emitted, e.probe().emitted);
    }

    #[test]
    fn fork_of_a_stopped_donor_runs_on() {
        // The snapshot copies the donor's `stop` flag as it is; a fork must
        // still run, because every run entry clears the flag first.
        let mut e = Engine::new();
        let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::ZERO, a, 0); // payload 0: `a` stops the run
        e.schedule(SimTime::from_ns(10), r, 1);
        e.schedule(SimTime::from_ns(20), r, 2);
        let before = e.snapshot();
        let budget = RunBudget::until(SimTime::from_ns(50));
        assert_eq!(e.run_budgeted(budget), RunOutcome::Stopped);
        let after = e.snapshot();

        let mut late = after.fork();
        assert_eq!(late.run_budgeted(budget), RunOutcome::Drained);
        assert_eq!(late.component_as::<Recorder>(r).unwrap().seen, vec![(10, 1), (20, 2)]);

        let mut early = before.fork();
        assert_eq!(early.run_budgeted(budget), RunOutcome::Stopped);
        assert_eq!(early.run_budgeted(budget), RunOutcome::Drained);
        assert_eq!(late.now(), early.now());
        assert_eq!(late.events_processed(), early.events_processed());
        assert_eq!(
            late.component_as::<Recorder>(r).unwrap().seen,
            early.component_as::<Recorder>(r).unwrap().seen
        );
    }

    /// Records every dispatch: the event trace two runs are compared by.
    #[derive(Debug, Clone, Default)]
    struct TraceProbe {
        trace: Vec<(SimTime, ComponentId, u64)>,
    }

    impl Probe for TraceProbe {
        fn on_dispatch(&mut self, now: SimTime, dst: ComponentId, events_processed: u64) {
            self.trace.push((now, dst, events_processed));
        }
    }

    #[test]
    fn live_fork_into_a_dirty_engine_replays_like_a_snapshot_fork() {
        let mut live = Engine::with_probe(TraceProbe::default());
        let a = live.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        let b = live.add_component(Box::new(PingPong { peer: Some(a), remaining: 0, bounces: 0 }));
        let r = live.add_component(Box::new(Recorder::default()));
        live.component_as_mut::<PingPong>(a).unwrap().peer = Some(b);
        live.schedule(SimTime::ZERO, a, 40);
        for v in 0..8 {
            live.schedule(SimTime::from_ns(3 + 17 * u64::from(v)), r, v);
        }
        // Far enough ahead to sit in the wheel's overflow heap.
        live.schedule(SimTime::from_ms(30), r, 99);
        live.run_until(SimTime::from_ns(61));

        // A resident engine that ran something else: more components, a
        // later clock, a wheel with entries the fork must not keep.
        let mut resident = Engine::with_probe(TraceProbe::default());
        for _ in 0..5 {
            let id = resident.add_component(Box::new(Recorder::default()));
            resident.schedule(SimTime::from_ns(7), id, 1);
            resident.schedule(SimTime::from_ms(50), id, 2);
        }
        resident.run_until(SimTime::from_us(3));

        let mut want = live.snapshot().fork();
        live.fork_into(&mut resident);
        // The live engine runs on untouched by the fork.
        let mut donor_on = live.snapshot().fork();
        for engine in [&mut want, &mut resident, &mut donor_on] {
            engine.schedule(SimTime::from_ns(100), r, 7);
            // The ping-pong stops the first run when its count reaches 0.
            assert_eq!(engine.run_budgeted(RunBudget::until(SimTime::from_ms(40))), RunOutcome::Stopped);
            engine.run_until(SimTime::from_ms(40));
        }
        assert_eq!(resident.component_count(), 3);
        assert_eq!(resident.now(), want.now());
        assert_eq!(resident.events_processed(), want.events_processed());
        assert_eq!(resident.pending_events(), want.pending_events());
        assert_eq!(resident.probe().trace, want.probe().trace);
        assert_eq!(donor_on.probe().trace, want.probe().trace);
        assert_eq!(
            resident.component_as::<Recorder>(r).unwrap().seen,
            want.component_as::<Recorder>(r).unwrap().seen
        );
        assert!(want.component_as::<Recorder>(r).unwrap().seen.contains(&(30_000_000, 99)));
    }

    #[test]
    fn a_fork_without_the_probe_runs_the_probed_trajectory() {
        let mut live = Engine::with_probe(TraceProbe::default());
        let a = live.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        let b = live.add_component(Box::new(PingPong { peer: Some(a), remaining: 0, bounces: 0 }));
        let r = live.add_component(Box::new(Recorder::default()));
        live.component_as_mut::<PingPong>(a).unwrap().peer = Some(b);
        live.schedule(SimTime::ZERO, a, 30);
        for v in 0..6 {
            live.schedule(SimTime::from_ns(4 + 23 * u64::from(v)), r, v);
        }
        live.schedule(SimTime::from_ms(30), r, 99);
        live.run_until(SimTime::from_ns(47));
        assert!(!live.probe().trace.is_empty());

        let mut probed = live.snapshot().fork();
        let mut bare: Engine<u32> = Engine::new();
        live.fork_without_probe(&mut bare);
        // A target whose probe counted another run keeps its counts: the
        // copy neither writes nor resets it.
        let mut counted = Engine::with_probe(CountingProbe::default());
        let c = counted.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        counted.component_as_mut::<PingPong>(c).unwrap().peer = Some(c);
        counted.schedule(SimTime::ZERO, c, 3);
        counted.run();
        let seen = (counted.probe().dispatches, counted.probe().emitted);
        assert_eq!(seen, (4, 3));
        live.snapshot().fork_without_probe(&mut counted);
        assert_eq!((counted.probe().dispatches, counted.probe().emitted), seen);

        /// Runs `e` to 40 ms and returns what the three comparisons read.
        fn finish<P: Probe>(
            e: &mut Engine<u32, P>,
            ids: [ComponentId; 3],
        ) -> (SimTime, u64, usize, u32, u32, Vec<(u64, u32)>) {
            e.schedule(SimTime::from_ns(100), ids[2], 7);
            assert_eq!(e.run_budgeted(RunBudget::until(SimTime::from_ms(40))), RunOutcome::Stopped);
            e.run_until(SimTime::from_ms(40));
            (
                e.now(),
                e.events_processed(),
                e.pending_events(),
                e.component_as::<PingPong>(ids[0]).unwrap().bounces,
                e.component_as::<PingPong>(ids[1]).unwrap().bounces,
                e.component_as::<Recorder>(ids[2]).unwrap().seen.clone(),
            )
        }
        let want = finish(&mut probed, [a, b, r]);
        assert!(want.5.contains(&(30_000_000, 99)));
        assert_eq!(finish(&mut bare, [a, b, r]), want);
        assert_eq!(finish(&mut counted, [a, b, r]), want);
        // Only the probe the target brought saw the run on from the fork.
        assert_eq!(counted.probe().dispatches, seen.0 + want.1 - live.events_processed());
    }

    /// Re-arms itself at the same instant forever: the canonical
    /// livelock a budgeted run must terminate.
    #[derive(Debug, Clone)]
    struct Livelock;

    impl Component<u32> for Livelock {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, payload: u32) {
            ctx.send_self(SimDuration::ZERO, payload);
        }
        fn fork(&self) -> Box<dyn Component<u32>> {
            Box::new(Livelock)
        }
    }

    #[test]
    fn budgeted_run_terminates_a_livelock() {
        let mut e = Engine::new();
        let a = e.add_component(Box::new(Livelock));
        e.schedule(SimTime::from_ns(10), a, 1);
        let outcome =
            e.run_budgeted(RunBudget::until(SimTime::from_ms(1)).with_max_events(10_000));
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(e.events_processed(), 10_000);
        // The clock stays at the livelocked instant; it must not jump
        // to the deadline as if the window had completed healthily.
        assert_eq!(e.now(), SimTime::from_ns(10));
    }

    #[test]
    fn budgeted_outcomes_distinguish_drain_deadline_and_stop() {
        // Drained: the queue empties before the deadline.
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::from_ns(10), r, 1);
        let budget = RunBudget::until(SimTime::from_ms(1)).with_max_events(100);
        assert_eq!(e.run_budgeted(budget), RunOutcome::Drained);
        assert_eq!(e.now(), SimTime::from_ms(1), "drain still advances to the deadline");

        // DeadlineReached: an event remains beyond the deadline.
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        e.schedule(SimTime::from_ms(2), r, 1);
        assert_eq!(e.run_budgeted(budget), RunOutcome::DeadlineReached);
        assert_eq!(e.pending_events(), 1);

        // Stopped: a component requests a stop mid-run.
        let mut e = Engine::new();
        let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        e.component_as_mut::<PingPong>(a).unwrap().peer = Some(a);
        e.schedule(SimTime::ZERO, a, 3);
        assert_eq!(e.run_budgeted(budget), RunOutcome::Stopped);
    }

    #[test]
    fn same_time_events_order_by_source_then_emission() {
        // Two sources emit to the same destination at the same instant:
        // delivery orders by (source slot, per-source index), not by the
        // global interleave of the emissions.
        #[derive(Debug, Clone)]
        struct Burst {
            dst: Option<ComponentId>,
            base: u32,
        }
        impl Component<u32> for Burst {
            fn on_event(&mut self, ctx: &mut Context<'_, u32>, _p: u32) {
                if let Some(dst) = self.dst {
                    ctx.send(dst, SimDuration::from_ns(10), self.base);
                    ctx.send(dst, SimDuration::from_ns(10), self.base + 1);
                }
            }
            fn fork(&self) -> Box<dyn Component<u32>> {
                Box::new(self.clone())
            }
        }
        let mut e = Engine::new();
        let r = e.add_component(Box::new(Recorder::default()));
        let hi = e.add_component(Box::new(Burst { dst: Some(r), base: 100 }));
        let lo = e.add_component(Box::new(Burst { dst: Some(r), base: 200 }));
        // Deliver the later-registered source first: its emissions still
        // sort *after* the earlier-registered source's at the tied instant.
        e.schedule(SimTime::ZERO, lo, 0);
        e.schedule(SimTime::ZERO, hi, 0);
        e.run();
        let rec = e.component_as::<Recorder>(r).unwrap();
        let values: Vec<u32> = rec.seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![100, 101, 200, 201]);
    }

    #[test]
    fn stop_request_halts_run() {
        let mut e = Engine::new();
        let a = e.add_component(Box::new(PingPong { peer: None, remaining: 0, bounces: 0 }));
        // Self-loop would run 4 events then stop (payload counts down from 3).
        e.component_as_mut::<PingPong>(a).unwrap().peer = Some(a);
        e.schedule(SimTime::ZERO, a, 3);
        e.run();
        assert_eq!(e.events_processed(), 4);
    }
}
