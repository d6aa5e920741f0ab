//! The flight recorder: a bounded, allocation-free ring of stamped records.
//!
//! This is the software generalization of the paper's SDRAM capture
//! memory — "the FPGA can be programmed to keep the bytes surrounding the
//! fault injection event" (§3.2) — applied to every layer: the ring keeps
//! the most recent `capacity` records, so when an injection trigger fires
//! the recorder holds the events around it. The rings every component of
//! a kind would carry are armable: the [`Recorder`](crate::Recorder) a
//! component embeds and a host's arrival log are `None` until a reader
//! arms them, so an unobserved 1,000-host run keeps no records, nor the
//! wire images they would hold alive. Storage is reserved once at
//! construction; a steady-state `push` writes in place and never touches
//! the allocator, which is why this file opts into the allocation lint.
//! Copies keep that where it can be had for nothing: `clone_from`
//! overwrites a ring in place and keeps its reservation, so a ring that
//! lives in a resident engine (the dispatch probe's) is never rebuilt. A
//! ring made by `clone` reserves only the records it holds and grows back
//! towards `capacity` in `push`, a handful of doublings at most: reserving
//! `capacity` there would make every fork of a component with a large,
//! mostly empty ring (the injector's 4,096-record traffic log) request the
//! whole ring — measured, 17 KB → 541 KB per fork of the test bed.

// netfi-lint: deny(hot-path-alloc)
//
// `push` runs on instrumented hot paths (per-frame, per-drop). The only
// allocation is the one-time slot reservation in the constructor.

use netfi_sim::SimTime;

use crate::event::Stamped;

/// A bounded ring of timestamped records, oldest evicted first.
///
/// # Example
///
/// ```
/// use netfi_obs::FlightRecorder;
/// use netfi_sim::SimTime;
///
/// let mut ring = FlightRecorder::new(2);
/// ring.push(SimTime::from_ns(1), "a");
/// ring.push(SimTime::from_ns(2), "b");
/// ring.push(SimTime::from_ns(3), "c"); // evicts "a"
/// let values: Vec<_> = ring.iter().map(|r| r.value).collect();
/// assert_eq!(values, ["b", "c"]);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct FlightRecorder<T> {
    slots: Vec<Stamped<T>>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl<T: Clone> Clone for FlightRecorder<T> {
    /// A ring holding the same records, with room reserved for exactly
    /// those (see the module docs for why not for `capacity`).
    fn clone(&self) -> Self {
        let mut ring = FlightRecorder {
            slots: Vec::with_capacity(self.slots.len()),
            capacity: self.capacity,
            head: 0,
            dropped: 0,
        };
        ring.clone_from(self);
        ring
    }

    /// Overwrites `self` with `src` in place: the slot storage `self` has
    /// reserved is kept, so copying into a ring made by
    /// [`FlightRecorder::new`] with `src`'s capacity leaves `push`
    /// allocation-free.
    fn clone_from(&mut self, src: &Self) {
        let FlightRecorder {
            slots,
            capacity,
            head,
            dropped,
        } = src;
        self.slots.clone_from(slots);
        self.capacity = *capacity;
        self.head = *head;
        self.dropped = *dropped;
    }
}

impl<T> FlightRecorder<T> {
    /// Creates a recorder holding at most `capacity` records. The slot
    /// storage is reserved up front; `push` never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder<T> {
        assert!(capacity > 0, "flight recorder capacity must be non-zero");
        FlightRecorder {
            // One-time slot reservation; `Vec::with_capacity` is the
            // sanctioned construction-time allocation under the lint.
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, time: SimTime, value: T) {
        let record = Stamped { time, value };
        if self.slots.len() < self.capacity {
            self.slots.push(record);
        } else if let Some(slot) = self.slots.get_mut(self.head) {
            *slot = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no records are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum number of records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates oldest-to-newest.
    pub fn iter(&self) -> impl Iterator<Item = &Stamped<T>> {
        let (tail, front) = (
            self.slots.get(self.head..).unwrap_or_default(),
            self.slots.get(..self.head).unwrap_or_default(),
        );
        tail.iter().chain(front.iter())
    }

    /// The most recent record, if any.
    pub fn last(&self) -> Option<&Stamped<T>> {
        if self.slots.len() < self.capacity {
            self.slots.last()
        } else {
            let newest = (self.head + self.capacity - 1) % self.capacity;
            self.slots.get(newest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent_in_order() {
        let mut ring = FlightRecorder::new(3);
        for i in 0..5u32 {
            ring.push(SimTime::from_ns(u64::from(i)), i);
        }
        let vals: Vec<u32> = ring.iter().map(|r| r.value).collect();
        assert_eq!(vals, vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.last().unwrap().value, 4);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn partial_fill_iterates_in_push_order() {
        let mut ring = FlightRecorder::new(8);
        ring.push(SimTime::from_ns(1), "x");
        ring.push(SimTime::from_ns(2), "y");
        let vals: Vec<&str> = ring.iter().map(|r| r.value).collect();
        assert_eq!(vals, vec!["x", "y"]);
        assert_eq!(ring.last().unwrap().value, "y");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::<u8>::new(0);
    }

    #[test]
    fn push_never_reallocates() {
        let mut ring = FlightRecorder::new(4);
        let cap_before = ring.slots.capacity();
        for i in 0..100u64 {
            ring.push(SimTime::from_ns(i), i);
        }
        assert_eq!(ring.slots.capacity(), cap_before);
        assert_eq!(ring.dropped(), 96);
    }

    #[test]
    fn a_half_full_ring_copied_in_place_keeps_the_reservation() {
        let mut ring = FlightRecorder::new(8);
        for i in 0..4u64 {
            ring.push(SimTime::from_ns(i), i);
        }
        // The resident case: a ring of the same capacity that has been
        // filled, wrapped and is then overwritten.
        let mut resident = FlightRecorder::new(8);
        for i in 0..20u64 {
            resident.push(SimTime::from_ns(i), 100 + i);
        }
        let reserved = resident.slots.capacity();
        resident.clone_from(&ring);
        // The one-off case, and overwriting a ring that was smaller.
        let mut small = FlightRecorder::new(2);
        small.push(SimTime::ZERO, 9);
        small.clone_from(&ring);
        for (mut copy, in_place) in [(resident, true), (ring.clone(), false), (small, false)] {
            assert_eq!((copy.capacity(), copy.len(), copy.dropped()), (8, 4, 0));
            assert_eq!(copy.last().map(|r| r.value), Some(3));
            for i in 4..10u64 {
                copy.push(SimTime::from_ns(i), i);
            }
            if in_place {
                assert_eq!(copy.slots.capacity(), reserved, "push reallocated");
            }
            assert_eq!(copy.dropped(), 2);
            let values: Vec<u64> = copy.iter().map(|r| r.value).collect();
            assert_eq!(values, (2..10).collect::<Vec<_>>());
        }
    }
}
