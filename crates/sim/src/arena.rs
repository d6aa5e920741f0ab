//! Dense component storage for the dispatch hot path.
//!
//! The engine used to keep two parallel `Vec`s — `Vec<Box<dyn
//! Component<M>>>` and `Vec<u64>` emission counters — so every delivery
//! touched two unrelated heap tables. [`ComponentArena`] fuses them into
//! one slot table: each [`ArenaSlot`] co-locates a component's fat
//! pointer (16 bytes) with its emission counter (8 bytes) in a single
//! 24-byte record, so the dispatch loop's per-event metadata — the
//! counter it reads *and* writes, and the vtable pointer it jumps
//! through — lands on one cache line per component instead of two. At a
//! 1,000-host fabric (~1,020 slots ≈ 24 KiB) the whole table stays
//! resident in L1; the split layout needed twice the live lines.
//!
//! The arena is storage only: it never reorders slots, so a component's
//! index — and therefore its sub-tick key stream (see
//! `crate::engine::tick_key`) — is identical to the old twin-`Vec`
//! layout, byte for byte. Snapshots deep-copy slots via `Clone` (each
//! component through [`Component::fork`]); `clone_from` reuses the slot
//! table of a resident arena and copies each component over the one the
//! slot holds through [`Component::fork_onto`]; shard
//! decomposition consumes them via [`ComponentArena::into_slots`] and
//! rebuilds per-shard arenas with [`ComponentArena::push_slot`],
//! preserving each counter next to its component.

// netfi-lint: deny(hot-path-alloc)
//
// `slot_mut` sits inside the engine's and the sharded executor's
// innermost loops; the only allocations here are the constructor's empty
// table and the setup-path `push` growth, allowlisted below.

use crate::engine::Component;

/// One dense record of the component table: the component itself plus
/// its per-source emission counter (the low half of every sub-tick key
/// it mints). Keeping the counter inside the slot means a delivery's
/// read-modify-write of the counter and its indirect call through the
/// component share one cache line.
pub(crate) struct ArenaSlot<M: 'static> {
    /// The component occupying this slot.
    pub(crate) component: Box<dyn Component<M>>,
    /// The slot's emission counter. Carried through snapshots and shard
    /// decomposition: resetting one would re-issue sub-tick keys already
    /// spent on queued events.
    pub(crate) emit: u64,
}

impl<M: 'static> Clone for ArenaSlot<M> {
    fn clone(&self) -> Self {
        let ArenaSlot { component, emit } = self;
        ArenaSlot {
            component: component.fork(),
            emit: *emit,
        }
    }

    /// Copies `src`'s component over the one this slot holds through
    /// [`Component::fork_onto`] — in place when the component overrides
    /// it — where a derived `clone_from` would drop it and re-make it.
    fn clone_from(&mut self, src: &Self) {
        let ArenaSlot { component, emit } = src;
        component.fork_onto(&mut self.component);
        self.emit = *emit;
    }
}

/// The dense component table shared by the serial engine, snapshots and
/// shard decomposition (see the module docs).
pub(crate) struct ComponentArena<M: 'static> {
    slots: Vec<ArenaSlot<M>>,
}

impl<M: Clone + 'static> Clone for ComponentArena<M> {
    fn clone(&self) -> Self {
        let mut arena = ComponentArena::new();
        arena.clone_from(self);
        arena
    }

    /// Overwrites `self` with `src`, whatever `self` held — more slots,
    /// fewer, or other components. The slot table keeps its allocation;
    /// each slot that both hold is copied with [`ArenaSlot::clone_from`].
    fn clone_from(&mut self, src: &Self) {
        let ComponentArena { slots } = src;
        self.slots.clone_from(slots);
    }
}

impl<M: 'static> ComponentArena<M> {
    /// An empty arena.
    pub(crate) fn new() -> ComponentArena<M> {
        ComponentArena {
            // lint: allow(hot-path-alloc) one-time constructor; the slot table starts at capacity 0
            slots: Vec::new(),
        }
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Appends a fresh component with a zeroed emission counter and
    /// returns its slot index. Registration order is delivery-tie order,
    /// so the arena never reorders.
    pub(crate) fn push(&mut self, component: Box<dyn Component<M>>) -> usize {
        let idx = self.slots.len();
        self.slots.push(ArenaSlot { component, emit: 0 });
        idx
    }

    /// Appends an already-populated slot (shard decomposition re-homing
    /// a donor slot with its counter intact).
    pub(crate) fn push_slot(&mut self, slot: ArenaSlot<M>) {
        self.slots.push(slot);
    }

    /// Borrows a slot for one delivery. The caller splits the borrow
    /// across the slot's fields: `&mut slot.emit` feeds the context,
    /// `slot.component` handles the event.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds — the engine asserts destination
    /// validity at send time, so an out-of-range index here is a bug.
    #[inline]
    pub(crate) fn slot_mut(&mut self, idx: usize) -> &mut ArenaSlot<M> {
        &mut self.slots[idx]
    }

    /// Borrows a component immutably, if the slot exists.
    pub(crate) fn get(&self, idx: usize) -> Option<&dyn Component<M>> {
        self.slots.get(idx).map(|s| s.component.as_ref())
    }

    /// Borrows a component mutably, if the slot exists.
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut Box<dyn Component<M>>> {
        self.slots.get_mut(idx).map(|s| &mut s.component)
    }

    /// Consumes the arena into its slots, in index order, for shard
    /// decomposition.
    pub(crate) fn into_slots(self) -> Vec<ArenaSlot<M>> {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Context;

    #[derive(Debug, Clone, Default)]
    struct Tick(u32);

    impl Component<u32> for Tick {
        fn on_event(&mut self, _ctx: &mut Context<'_, u32>, payload: u32) {
            self.0 += payload;
        }
        fn fork(&self) -> Box<dyn Component<u32>> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn push_assigns_dense_indices_and_zeroed_counters() {
        let mut arena: ComponentArena<u32> = ComponentArena::new();
        assert_eq!(arena.push(Box::new(Tick::default())), 0);
        assert_eq!(arena.push(Box::new(Tick::default())), 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.slot_mut(0).emit, 0);
        assert_eq!(arena.slot_mut(1).emit, 0);
    }

    #[test]
    fn fork_deep_copies_components_and_counters() {
        let mut arena: ComponentArena<u32> = ComponentArena::new();
        arena.push(Box::new(Tick(7)));
        arena.slot_mut(0).emit = 42;

        let mut copy = arena.clone();
        assert_eq!(copy.slot_mut(0).emit, 42);

        // Mutating the copy must not touch the original.
        copy.slot_mut(0).emit = 99;
        if let Some(c) = copy.get_mut(0) {
            if let Some(t) = c.as_any_mut().downcast_mut::<Tick>() {
                t.0 = 1000;
            }
        }
        assert_eq!(arena.slot_mut(0).emit, 42);
        let orig = arena.get(0).and_then(|c| c.as_any().downcast_ref::<Tick>());
        assert_eq!(orig.map(|t| t.0), Some(7));
    }

    #[test]
    fn into_slots_preserves_order_and_counters() {
        let mut arena: ComponentArena<u32> = ComponentArena::new();
        arena.push(Box::new(Tick(1)));
        arena.push(Box::new(Tick(2)));
        arena.slot_mut(1).emit = 5;

        let slots = arena.into_slots();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].emit, 0);
        assert_eq!(slots[1].emit, 5);

        let mut rebuilt: ComponentArena<u32> = ComponentArena::new();
        for slot in slots {
            rebuilt.push_slot(slot);
        }
        assert_eq!(rebuilt.slot_mut(1).emit, 5);
        let t = rebuilt.get(1).and_then(|c| c.as_any().downcast_ref::<Tick>());
        assert_eq!(t.map(|t| t.0), Some(2));
    }
}
