//! The engine's event queue: a bucketed timing wheel with a far-future
//! overflow heap.
//!
//! A `BinaryHeap` keyed on `(time, seq)` pays two sifts per event, each
//! touching O(log n) scattered cache lines while moving 56-byte events
//! around; at the saturated testbed's steady-state depth (~30 events)
//! that was more than a quarter of the whole per-event budget. The wheel
//! files events by time instead, in one level of buckets:
//!
//! - **Near future** (within [`WHEEL_SPAN`] of the cursor): an event is
//!   appended, O(1), to one of [`SLOTS`] fixed time buckets of
//!   [`SLOT_PS`] picoseconds each. A bucket is sorted at most once,
//!   lazily, when the cursor reaches it, and then popped from the back of
//!   the sorted run, O(1); an occupancy bitmap (one bit per slot,
//!   [`WORDS`](self) `u64` words — two cache lines) finds the next
//!   occupied bucket in a few word operations. The whole index plus the
//!   slot headers stays small enough to live in L1/L2; the first wheel cut
//!   (8192 fine-grained slots) measured *slower* than this one purely from
//!   slot-header cache misses.
//! - **The bucket under the cursor**: a push into the bucket being
//!   drained is a sorted insert while the run is short (under
//!   [`SHORT_RUN`](self) entries — the 3-host test beds never leave this
//!   case); past that it leaves the run alone and goes to one min-heap of
//!   late arrivals, O(log n), and the bucket's next event is the smaller
//!   of the run's last entry and the heap's top. On a 1,000-host fabric
//!   ~1,000 events share a slot and nearly every send lands in the slot
//!   being drained: keeping a run that long sorted with `Vec::insert`
//!   shifts half of it per push, which was more than half of that
//!   fabric's wall time (`tests/wheel_complexity.rs` guards the bound).
//! - **Far future** (beyond the wheel's horizon): events overflow into a
//!   second min-heap and are re-cascaded into buckets as the cursor
//!   advances and the horizon moves past them.
//!
//! Ordering is *exactly* a heap's: ascending `(time, seq)`, so
//! same-instant events deliver in key order. `seq` is unique, so the
//! order is total, a bucket's unstable sort is deterministic, and which
//! structure holds an entry cannot show in the pop order. The property
//! test in `crates/sim/tests/props.rs` pits the wheel against a reference
//! `BinaryHeap` on randomized streams with duplicate timestamps and a
//! densely populated draining bucket, and the golden event-trace hashes
//! in `tests/determinism.rs` pin that nothing observable depends on the
//! queue's layout.

// netfi-lint: deny(hot-path-alloc)
//
// Push and pop run once per simulated event. The only allocations allowed
// here are the one-time constructor ones (allowlisted below); both heaps
// retain their high-water capacity, and bucket storage circulates: the
// bucket the cursor leaves, drained, hands its `Vec` to a stack of spares,
// and an empty bucket that receives an entry takes one back. The wheel so
// keeps one bucket `Vec` more than it has ever had buckets occupied at
// once — not one per slot, each as large as its busiest instant — and
// steady state performs no per-event allocation. The cursor's own bucket
// keeps its storage while it drains: on the 3-host test bed it empties on
// two events in three and the next handler refills it, so handing it on
// there would move a `Vec` out and back per event for nothing.
// `clone_from` draws from and returns to the same stack, so a worker that
// forks a donor into the same engine point after point reaches that
// steady state too; a fresh `clone()` starts from empty buckets and grows
// them once.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// log2 of the bucket granularity in picoseconds: 2^24 ps ≈ 16.8 µs.
///
/// Coarse enough that a wheel rotation spans ~17 ms of simulated time
/// from only [`SLOTS`] buckets, so the testbeds' 10 ms timers stay inside
/// the wheel instead of churning the overflow heap. The grain was tuned
/// against finer settings (2^21 × 8192 slots, 2^23 × 2048): fewer, fatter
/// buckets won because the slot-header array shrinks below cache size and
/// the extra in-bucket sorting is cheaper than the misses it replaces.
const SLOT_SHIFT: u32 = 24;
/// Bucket granularity in picoseconds.
pub const SLOT_PS: u64 = 1 << SLOT_SHIFT;
/// Number of buckets; must be a power of two (mask indexing) and a
/// multiple of 64 (whole bitmap words).
pub const SLOTS: usize = 1024;
/// The wheel's horizon: how far past the cursor a bucket can represent
/// (≈ 17.2 ms of simulated time). Events beyond it overflow into the heap.
pub const WHEEL_SPAN: u64 = SLOT_PS * SLOTS as u64;

const SLOT_MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;

/// A sorted run shorter than this takes a push into the draining bucket
/// as a sorted insert; a longer one leaves it to the `late` heap.
/// Measured, not derived: with the 4–15 entries a 3-host campaign keeps
/// in the draining bucket, shifting a few of them beats a heap push and
/// pop (`paper_eval` ran 12 % slower through the heap); with a 1,000-host
/// fabric's ~1,000 the heap wins 2.2×. 8, 16 and 32 read alike on both.
const SHORT_RUN: usize = 16;

/// One queued item: the ordering key plus the caller's payload.
#[derive(Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline(always)]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Wrapper that turns `BinaryHeap` into a min-heap on `(time, seq)`; used
/// by the overflow heap and by the draining bucket's late arrivals.
#[derive(Clone)]
struct FarEntry<T>(Entry<T>);

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry is on top.
        other.0.key().cmp(&self.0.key())
    }
}

/// One wheel bucket: events whose time falls in the same [`SLOT_PS`]
/// window, plus whether they are currently held in descending `(time,
/// seq)` order (so the next event to deliver is `items.last()`).
/// (Packing `sorted` into a side bitmap to shrink the slot to `Vec` size
/// was measured and did not beat this layout.)
#[derive(Clone)]
struct Slot<T> {
    items: Vec<Entry<T>>,
    sorted: bool,
}

/// A bucketed timing wheel ordered by ascending `(time, seq)`.
///
/// `push` keys an item by `(time, seq)`, `pop` returns items in exactly
/// the order a `BinaryHeap` on that key would — ascending time, ascending
/// `seq` within a time. The `seq` values pushed must be unique (the
/// engine's sub-tick keys are) but need not arrive in increasing order;
/// duplicate times are expected and welcome.
///
/// `peek_time` never commits the cursor: the minimum is located through
/// the occupancy bitmap without moving the wheel, so a caller that peeks,
/// declines (deadline reached) and later schedules *earlier* events —
/// still at or after the last popped time — stays correct.
///
/// `Clone` is the snapshot copy (see [`crate::engine::EngineSnapshot`]),
/// written by hand so that it costs what the wheel *holds*: `clone_from`
/// visits only the buckets occupied in the source or in the destination
/// (the union of the two occupancy bitmaps) and overwrites each in place,
/// keeping the destination's heap capacity and circulating its bucket
/// storage through the spare stack; `clone` is an empty wheel plus
/// `clone_from`. Either way the copy pops exactly what
/// the original pops.
pub struct TimingWheel<T> {
    /// Fixed-size (not a slice) so `idx & SLOT_MASK` provably fits and
    /// the per-event indexing compiles without bounds checks.
    slots: Box<[Slot<T>; SLOTS]>,
    /// One bit per slot index; set while the slot holds any event.
    occupied: [u64; WORDS],
    /// Absolute bucket number (`time_ps >> SLOT_SHIFT`) of the cursor.
    /// Every wheel-resident event's bucket is in `[base, base + SLOTS)`;
    /// every overflow event's bucket is `>= base + SLOTS`.
    base: u64,
    /// Events pushed into bucket `base` while its sorted run was not
    /// short. Every entry here belongs to bucket `base`, so the heap is
    /// empty whenever `base` moves; the bucket's next event is the smaller
    /// of its sorted run's `last()` and this heap's top.
    late: BinaryHeap<FarEntry<T>>,
    /// Far-future events, cascaded in as the horizon advances.
    overflow: BinaryHeap<FarEntry<T>>,
    len: usize,
    /// Storage of drained buckets, empty, last in first out. Every bucket
    /// `Vec` with capacity is in a slot or here, and one is only made for
    /// a slot that had none, so there are never more than [`SLOTS`]: the
    /// stack is reserved at that size and never reallocates.
    spare: Vec<Vec<Entry<T>>>,
}

impl<T> fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("base", &self.base)
            .field("late", &self.late.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Clone for TimingWheel<T> {
    fn clone(&self) -> Self {
        let mut wheel = TimingWheel::new();
        wheel.clone_from(self);
        wheel
    }

    /// Overwrites `self` with `src`, whatever `self` held. Leans on the
    /// occupancy invariant: a slot whose bit is clear has empty `items`
    /// (and its `sorted` flag is never read before `place` resets it), so
    /// the slots outside both bitmaps are already equal. Buckets `src`
    /// leaves empty hand their storage to the spare stack before buckets
    /// `src` fills take from it, so a resident wheel that has held this
    /// many buckets before makes no new one.
    fn clone_from(&mut self, src: &Self) {
        // Exhaustive on purpose: a field added to the wheel must fail to
        // compile here, not go missing from every snapshot. `spare` is
        // storage, not state: each wheel keeps its own.
        let TimingWheel { slots, occupied, base, late, overflow, len, spare: _ } = src;
        for fill in [false, true] {
            for (word, (&theirs, &ours)) in occupied.iter().zip(&self.occupied).enumerate() {
                let mut bits = if fill { theirs } else { ours & !theirs };
                while bits != 0 {
                    let idx = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = &mut self.slots[idx];
                    if fill {
                        Self::draw_storage(&mut self.spare, &mut slot.items);
                        slot.items.clone_from(&slots[idx].items);
                        slot.sorted = slots[idx].sorted;
                    } else {
                        slot.items.clear();
                        Self::return_storage(&mut self.spare, &mut slot.items);
                    }
                }
            }
        }
        self.occupied = *occupied;
        self.base = *base;
        self.late.clone_from(late);
        self.overflow.clone_from(overflow);
        self.len = *len;
        debug_assert_eq!(
            self.slots.iter().map(|s| s.items.len()).sum::<usize>()
                + self.late.len()
                + self.overflow.len(),
            self.len,
            "a slot outside both occupancy bitmaps held events"
        );
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            // lint: allow(hot-path-alloc) one-time constructor; every bucket Vec starts at capacity 0
            slots: Box::new(std::array::from_fn(|_| Slot { items: Vec::new(), sorted: true })),
            occupied: [0; WORDS],
            base: 0,
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            spare: Vec::with_capacity(SLOTS),
        }
    }

    /// Moves the storage of `items`, an emptied bucket, onto the spare
    /// stack.
    #[inline]
    fn return_storage(spare: &mut Vec<Vec<Entry<T>>>, items: &mut Vec<Entry<T>>) {
        if items.capacity() > 0 {
            spare.push(std::mem::take(items));
        }
    }

    /// Gives `items`, an empty bucket about to be filled, the most recently
    /// returned storage if it has none of its own.
    #[inline]
    fn draw_storage(spare: &mut Vec<Vec<Entry<T>>>, items: &mut Vec<Entry<T>>) {
        if items.capacity() == 0 {
            if let Some(storage) = spare.pop() {
                *items = storage;
            }
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` under the key `(time, seq)`.
    ///
    /// # Panics
    ///
    /// Panics if `time` falls in a bucket before the last popped event's:
    /// the wheel cannot represent it, and filing it anyway would deliver
    /// it a full rotation late and out of order.
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let bucket = time.as_ps() >> SLOT_SHIFT;
        assert!(bucket >= self.base, "push into the wheel's past");
        self.len += 1;
        if bucket < self.base + SLOTS as u64 {
            self.place(bucket, Entry { time, seq, item });
        } else {
            self.overflow.push(FarEntry(Entry { time, seq, item }));
        }
    }

    /// Puts an in-window entry into its bucket. An empty bucket takes
    /// storage from the spare stack; a bucket the cursor has not sorted
    /// yet takes an append; the bucket being drained takes it into its
    /// sorted run while that is short, else into the `late` heap.
    #[inline]
    fn place(&mut self, bucket: u64, entry: Entry<T>) {
        let idx = (bucket & SLOT_MASK) as usize;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        let slot = &mut self.slots[idx];
        if slot.items.is_empty() {
            Self::draw_storage(&mut self.spare, &mut slot.items);
            slot.items.push(entry);
            slot.sorted = true;
        } else if slot.sorted && bucket == self.base {
            // Inserting into the run shifts half of it per push: O(n),
            // with a 1,000-host fabric's ~1,000 events in this one slot.
            // Past a few entries the O(log n) heap takes the push.
            if slot.items.len() < SHORT_RUN {
                let key = entry.key();
                let at = slot.items.partition_point(|e| e.key() > key);
                slot.items.insert(at, entry);
            } else {
                self.late.push(FarEntry(entry));
            }
        } else {
            slot.items.push(entry);
            slot.sorted = false;
        }
    }

    /// The next event of the (sorted) bucket at `idx`: its time and
    /// whether it sits in the `late` heap rather than the bucket's run.
    /// `late` is non-empty only while `idx` is bucket `base`'s slot.
    #[inline]
    fn front(&self, idx: usize) -> Option<(SimTime, bool)> {
        match (self.slots[idx].items.last(), self.late.peek()) {
            (Some(run), Some(late)) if late.0.key() < run.key() => Some((late.0.time, true)),
            (Some(run), _) => Some((run.time, false)),
            (None, late) => late.map(|e| (e.0.time, true)),
        }
    }

    /// The `(time, seq)`-minimal queued event's time, without popping it
    /// and without advancing the cursor.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        match self.locate_min() {
            Some((_, idx)) => self.front(idx).map(|(time, _)| time),
            None => self.overflow.peek().map(|e| e.0.time),
        }
    }

    /// Removes and returns the `(time, seq)`-minimal event as
    /// `(time, seq, item)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the minimal event only if its time is at or
    /// before `deadline`; otherwise leaves the queue (and the cursor)
    /// untouched. This is `peek` + `pop` in one queue walk.
    #[inline]
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let (bucket, idx) = match self.locate_min() {
            Some(found) => found,
            None => {
                // Everything queued is beyond the horizon: jump the wheel
                // to the overflow's first bucket and refill.
                let first = self.overflow.peek().map(|e| e.0.time.as_ps())? >> SLOT_SHIFT;
                if (self.overflow.peek().map(|e| e.0.time)?) > deadline {
                    return None;
                }
                self.move_cursor(first);
                self.cascade();
                (first, (first & SLOT_MASK) as usize)
            }
        };
        let (time, in_late) = self.front(idx)?;
        if time > deadline {
            return None;
        }
        let slot = &mut self.slots[idx];
        let entry = if in_late { self.late.pop()?.0 } else { slot.items.pop()? };
        if slot.items.is_empty() && self.late.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.len -= 1;
        // Commit: the cursor moves to the popped event's bucket. Every
        // event the engine schedules from here on is at or after the
        // popped time, so nothing can land below the new base. Cascading
        // after the pop is safe: overflow events lie beyond the *old*
        // horizon, so none of them can precede the entry just popped.
        if bucket > self.base {
            self.move_cursor(bucket);
            if !self.overflow.is_empty() {
                self.cascade();
            }
        }
        Some((entry.time, entry.seq, entry.item))
    }

    /// Moves the cursor to `bucket`. Every event before it has popped, so
    /// the bucket the cursor leaves is empty; the storage it kept while the
    /// cursor drained it and handlers refilled it goes to the spare stack.
    #[inline]
    fn move_cursor(&mut self, bucket: u64) {
        let left = &mut self.slots[(self.base & SLOT_MASK) as usize].items;
        debug_assert!(left.is_empty(), "the cursor left events behind");
        Self::return_storage(&mut self.spare, left);
        self.base = bucket;
    }

    /// Finds the wheel bucket holding the minimal event, sorting it on
    /// first touch. Returns `None` when every queued event is in the
    /// overflow heap. Does not move `base`.
    #[inline]
    fn locate_min(&mut self) -> Option<(u64, usize)> {
        let from = (self.base & SLOT_MASK) as usize;
        let distance = self.next_occupied(from)?;
        let bucket = self.base + distance as u64;
        let idx = (bucket & SLOT_MASK) as usize;
        let slot = &mut self.slots[idx];
        if !slot.sorted {
            // Keys are unique, so the unstable sort is deterministic.
            slot.items.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            slot.sorted = true;
        }
        Some((bucket, idx))
    }

    /// Circular distance (in slots, `0..SLOTS`) from `from` to the first
    /// occupied slot, or `None` if the wheel is empty.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (word0, bit0) = (from / 64, from % 64);
        let first = self.occupied[word0] >> bit0;
        if first != 0 {
            return Some(first.trailing_zeros() as usize);
        }
        // Ring scan over the remaining words: the bitmap is WORDS (= 16)
        // words, two cache lines, so a straight loop beats a summary level.
        for step in 1..=WORDS {
            let w = (word0 + step) % WORDS;
            let mut bits = self.occupied[w];
            if step == WORDS {
                // Wrapped all the way around: only the bits below `from`
                // are left to inspect (the rest were covered by `first`).
                bits &= (1u64 << bit0) - 1;
            }
            if bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                return Some((idx + SLOTS - from) % SLOTS);
            }
        }
        None
    }

    /// Moves every overflow event that the advanced horizon now covers
    /// into its wheel bucket.
    fn cascade(&mut self) {
        let horizon = self.base + SLOTS as u64;
        while let Some(top) = self.overflow.peek() {
            let bucket = top.0.time.as_ps() >> SLOT_SHIFT;
            if bucket >= horizon {
                break;
            }
            if let Some(FarEntry(entry)) = self.overflow.pop() {
                self.place(bucket, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = wheel.pop() {
            out.push((t.as_ps(), s, v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ns(30), 0, 30);
        w.push(SimTime::from_ns(10), 1, 10);
        w.push(SimTime::from_ns(10), 2, 11);
        w.push(SimTime::from_ns(20), 3, 20);
        assert_eq!(w.len(), 4);
        assert_eq!(
            drain(&mut w),
            vec![(10_000, 1, 10), (10_000, 2, 11), (20_000, 3, 20), (30_000, 0, 30)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_events_cascade_back() {
        let mut w = TimingWheel::new();
        // Beyond the horizon (~17 ms): lives in the overflow heap first.
        w.push(SimTime::from_ms(50), 0, 1);
        w.push(SimTime::from_ms(100), 1, 2);
        w.push(SimTime::from_ns(5), 2, 0);
        assert_eq!(
            drain(&mut w),
            vec![
                (5_000, 2, 0),
                (SimTime::from_ms(50).as_ps(), 0, 1),
                (SimTime::from_ms(100).as_ps(), 1, 2),
            ]
        );
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ns(10), 0, 0);
        assert_eq!(w.pop().map(|(t, ..)| t), Some(SimTime::from_ns(10)));
        // Same-bucket, same-time push after a pop: delivered next, in seq
        // order, even though the bucket was already being drained.
        w.push(SimTime::from_ns(500), 1, 1);
        w.push(SimTime::from_ns(10), 2, 2);
        w.push(SimTime::from_ns(10), 3, 3);
        assert_eq!(
            drain(&mut w),
            vec![(10_000, 2, 2), (10_000, 3, 3), (500_000, 1, 1)]
        );
    }

    #[test]
    fn peek_does_not_commit_the_cursor() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ms(20), 0, 0);
        // Peeking at a far-future event must not advance the wheel …
        assert_eq!(w.peek_time(), Some(SimTime::from_ms(20)));
        // … so an earlier (but still future) event pushed afterwards is
        // still representable and pops first.
        w.push(SimTime::from_ms(4), 1, 1);
        w.push(SimTime::from_us(3), 2, 2);
        assert_eq!(w.peek_time(), Some(SimTime::from_us(3)));
        assert_eq!(
            drain(&mut w),
            vec![
                (SimTime::from_us(3).as_ps(), 2, 2),
                (SimTime::from_ms(4).as_ps(), 1, 1),
                (SimTime::from_ms(20).as_ps(), 0, 0),
            ]
        );
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ns(10), 0, 0);
        w.push(SimTime::from_ms(30), 1, 1);
        assert!(w.pop_due(SimTime::from_ns(5)).is_none());
        assert_eq!(w.pop_due(SimTime::from_ns(10)).map(|(.., v)| v), Some(0));
        // The far event sits in overflow; a deadline before it must not
        // jump the wheel forward.
        assert!(w.pop_due(SimTime::from_ms(29)).is_none());
        w.push(SimTime::from_ms(1), 2, 2);
        assert_eq!(w.pop_due(SimTime::from_ms(29)).map(|(.., v)| v), Some(2));
        assert_eq!(w.pop_due(SimTime::from_ms(30)).map(|(.., v)| v), Some(1));
        assert!(w.pop().is_none());
    }

    #[test]
    fn bucket_boundary_and_same_bucket_distinct_times() {
        let mut w = TimingWheel::new();
        // Two distinct times in one bucket, pushed out of order.
        w.push(SimTime::from_ps(SLOT_PS - 1), 0, 1);
        w.push(SimTime::from_ps(1), 1, 0);
        // Exactly on a bucket boundary.
        w.push(SimTime::from_ps(SLOT_PS), 2, 2);
        assert_eq!(
            drain(&mut w),
            vec![(1, 1, 0), (SLOT_PS - 1, 0, 1), (SLOT_PS, 2, 2)]
        );
    }

    #[test]
    fn full_rotation_reuses_slots() {
        let mut w = TimingWheel::new();
        // March the cursor through several full rotations, one event per
        // half-horizon, so slots are reused with new bucket numbers. The
        // sequence number is the event's index.
        let mut expect = Vec::new();
        for k in 0..40u64 {
            let t = SimTime::from_ps(k * (WHEEL_SPAN / 2 + 12_345));
            w.push(t, k, k as u32);
            expect.push((t.as_ps(), k, k as u32));
        }
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn fork_mid_drain_pops_identically() {
        // Build a wheel that exercises every state a fork must capture:
        // a partially drained sorted bucket with late arrivals beside it,
        // an unsorted bucket, and overflow entries awaiting a cascade.
        let mut w = TimingWheel::new();
        let mut seq = 0;
        for k in [5u64, 3, 9, 1, 7] {
            w.push(SimTime::from_ns(10 * k), seq, k as u32);
            seq += 1;
        }
        for k in [40u64, 25, 60] {
            w.push(SimTime::from_ms(k), seq, k as u32);
            seq += 1;
        }
        // Drain partway so the cursor sits inside a bucket.
        let _ = w.pop();
        let _ = w.pop();
        for k in 0..2 * SHORT_RUN as u64 {
            w.push(SimTime::from_ns(80 + k), seq, 8);
            seq += 1;
        }
        w.push(SimTime::from_us(20), seq, 20);
        w.push(SimTime::from_us(19), seq + 1, 19);
        assert!(!w.late.is_empty() && !w.slots[0].items.is_empty());
        assert!(!w.slots[1].sorted);

        let mut fork = w.clone();
        assert_eq!(fork.len(), w.len());
        assert_eq!(drain(&mut fork), drain(&mut w));
    }

    /// Bucket storage the wheel holds, in slots and on the spare stack:
    /// how many `Vec`s have any capacity, and their capacity in entries.
    fn retained(w: &TimingWheel<u32>) -> (usize, usize) {
        let storage = w.slots.iter().map(|s| &s.items).chain(&w.spare);
        storage
            .filter(|v| v.capacity() > 0)
            .fold((0, 0), |(n, cap), v| (n + 1, cap + v.capacity()))
    }

    #[test]
    fn drained_buckets_pass_their_storage_on() {
        // One rotation, every bucket in turn: a burst lands in the next
        // bucket while the current one drains, so at most two buckets are
        // ever occupied together.
        const BURST: u64 = 200;
        let mut w = TimingWheel::new();
        let mut seq = 0;
        let mut popped = 0;
        let (mut high_water, mut widest) = (0, 0);
        for bucket in 0..=SLOTS as u64 {
            if bucket < SLOTS as u64 {
                for k in 0..BURST {
                    w.push(SimTime::from_ps(bucket * SLOT_PS + k * 997), seq, 0);
                    seq += 1;
                }
            }
            let occupied = w.occupied.iter().map(|b| b.count_ones()).sum::<u32>();
            high_water = high_water.max(occupied as usize);
            widest = widest.max(w.slots.iter().map(|s| s.items.capacity()).max().unwrap_or(0));
            while w.peek_time().is_some_and(|t| t.as_ps() >> SLOT_SHIFT < bucket) {
                assert!(w.pop().is_some());
                popped += 1;
            }
        }
        assert_eq!(drain(&mut w).len() as u64 + popped, BURST * SLOTS as u64);
        assert_eq!(high_water, 2);
        // Every bucket was filled once, yet the wheel keeps storage for
        // the two that were occupied together, plus the cursor's own,
        // not for all 1,024.
        let (vecs, capacity) = retained(&w);
        assert!(vecs <= high_water + 1, "{vecs} bucket Vecs kept");
        assert!(capacity <= (high_water + 1) * widest, "{capacity} entries kept");
        assert_eq!(w.spare.len() + 1, vecs, "all but the cursor's are spare");
    }

    #[test]
    fn a_resident_copy_reuses_the_storage_it_holds() {
        let mut src = TimingWheel::new();
        let mut dst = TimingWheel::new();
        for (i, ms) in [1u64, 3, 5, 7].into_iter().enumerate() {
            src.push(SimTime::from_ms(ms), i as u64, i as u32);
        }
        for (i, ms) in [2u64, 4, 6, 8, 10].into_iter().enumerate() {
            dst.push(SimTime::from_ms(ms), i as u64, i as u32);
        }
        dst.clone_from(&src);
        // The copy's four buckets took from the five `dst` held: no new
        // storage, one spare left over.
        assert_eq!(retained(&dst).0, 5);
        assert_eq!(dst.spare.len(), 1);
        assert_eq!(drain(&mut dst), drain(&mut src));
        // Drained, the cursor's bucket keeps its storage; the other three
        // were handed on as the cursor left them.
        assert_eq!(dst.spare.len(), 4);
    }

    #[test]
    #[should_panic(expected = "push into the wheel's past")]
    fn push_before_the_cursor_is_refused() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ms(1), 0, 0);
        assert!(w.pop().is_some());
        w.push(SimTime::from_ns(1), 1, 1);
    }

    #[test]
    fn fork_is_independent_of_the_original() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ns(10), 0, 0);
        let mut fork = w.clone();
        fork.push(SimTime::from_ns(5), 1, 1);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut fork), vec![(5_000, 1, 1), (10_000, 0, 0)]);
        assert_eq!(drain(&mut w), vec![(10_000, 0, 0)]);
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        assert!(w.pop().is_none());
        assert!(w.pop_due(SimTime::MAX).is_none());
    }
}
