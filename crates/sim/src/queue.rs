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
//!   drained is a sorted insert while its run is short (under
//!   [`SHORT_RUN`](self) entries — the 3-host test beds never leave this
//!   case). A push that finds the run at that length *spawns* the bucket's
//!   rung, after the ladder queue of Tang, Goh & Thng (ACM TOMACS 2005):
//!   the bucket split into [`RUNG_SUBS`](self) sub-buckets of 2^14 ps
//!   ([`RUNG_SHIFT`](self)). The run keeps the entries of its first
//!   sub-bucket, the one under the rung's cursor; the rest move once into
//!   the rung, and a later push past that sub-bucket is an O(1) append to
//!   its own. When the run and the fallback heap below are empty, the
//!   rung's next occupied sub-bucket becomes the run, sorted once, as an
//!   outer bucket is. On a 1,000-host fabric ~1,000 events share an
//!   instant, a few instants share a bucket, and nearly every send lands
//!   in the bucket being drained, an instant or more ahead: those sends
//!   are appends. A push into the sub-bucket being drained while its run
//!   is long (same-instant sends) leaves the run alone and goes to one
//!   min-heap of late arrivals, O(log n); the bucket's next event is the
//!   smaller of the run's last entry and the heap's top, so the worst
//!   case — every entry at one instant — stays logarithmic
//!   (`tests/wheel_complexity.rs` guards it). Keeping a long run sorted
//!   with `Vec::insert` shifts half of it per push, which was more than
//!   half of that fabric's wall time; sending every push past a short run
//!   to the heap, as the wheel did before the rung, was most of its engine
//!   loop (traced `sim.engine.loop_ns` 84 ns, 29 with the rung, on a
//!   quiet 2-vCPU VM).
//! - **Far future** (beyond the wheel's horizon): events overflow into a
//!   second min-heap and are re-cascaded into buckets as the cursor
//!   advances and the horizon moves past them.
//!
//! Ordering is *exactly* a heap's: ascending `(time, seq)`, so
//! same-instant events deliver in key order. `seq` is unique, so the
//! order is total, a bucket's unstable sort is deterministic, and which
//! structure holds an entry cannot show in the pop order. The property
//! test in `crates/sim/tests/props.rs` pits the wheel against a reference
//! `BinaryHeap` on randomized streams with duplicate timestamps, a
//! densely populated draining bucket and a spawned rung, and the golden
//! event-trace hashes in `tests/determinism.rs` pin that nothing
//! observable depends on the queue's layout.

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
// there would move a `Vec` out and back per event for nothing. The rung
// owns no bucket `Vec`: its sub-buckets are lists threaded by `u32` index
// through one slab, made at the first spawn (with the lists' heads) and
// grown to the most entries the rung has held at once, so a wheel that
// never spawns allocates nothing for it. The runs it gathers land in the
// cursor's bucket `Vec`, which keeps the larger storage when the cursor
// moves, so that one `Vec`, not every one in circulation, grows to the
// longest run. `clone_from` draws from and returns to the same storage,
// so a worker that forks a donor into the same engine point after point
// reaches that steady state too; a fresh `clone()` starts from empty
// buckets and grows them once.

use std::cmp::{Ordering, Reverse};
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
/// as a sorted insert; at this length the bucket spawns its rung.
/// Measured, not derived: with the 4–15 entries a 3-host campaign keeps
/// in the draining bucket, shifting a few of them beats a heap push and
/// pop (`paper_eval` ran 12 % slower through the heap); with a 1,000-host
/// fabric's ~1,000 the heap won 2.2×. 8, 16 and 32 read alike on both.
const SHORT_RUN: usize = 16;

/// log2 of a rung sub-bucket's width in picoseconds: 2^14 ps ≈ 16.4 ns,
/// so a bucket's rung has 1,024 sub-buckets.
///
/// Swept on the 1,000-host fabric's serial 40 ms run (the median, over
/// eight alternations, of each build's best of seven; 2-vCPU Xeon VM):
/// 183.3 ms with no rung, 166.5 at 2^14, 174.0 at 2^15, 171.1 at 2^16.
/// A finer grain splits more of the instants a coarser sub-bucket would
/// share, so a gathered run is shorter and nearer sorted: replaying that
/// run's push/pop trace through the wheel alone, sorting the gathered
/// runs took 5–10 ms at 2^14, 10–15 at 2^15 and 10–17 at 2^16.
const RUNG_SHIFT: u32 = 14;
/// Sub-buckets in a rung: one wheel bucket at the rung's grain.
const RUNG_SUBS: usize = 1 << (SLOT_SHIFT - RUNG_SHIFT);
const RUNG_WORDS: usize = RUNG_SUBS / 64;
/// The end of a rung list, and of the free list.
const NIL: u32 = u32::MAX;

/// The sub-bucket `time` falls in, inside its wheel bucket.
#[inline(always)]
fn sub_bucket(time: SimTime) -> usize {
    (time.as_ps() >> RUNG_SHIFT) as usize & (RUNG_SUBS - 1)
}

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

/// The bucket under the cursor at a finer grain, once its run has grown
/// long: the bucket's entries past the rung's cursor, filed by sub-bucket.
///
/// The run and the `late` heap hold the bucket's entries up to and
/// including the sub-bucket under the rung's cursor, the lists everything
/// after it, so the run and the heap hold the bucket's minimum whenever
/// they hold anything. An empty rung (`len == 0`) has an empty slab, a
/// clear bitmap and no free list.
struct Rung<T> {
    /// `Some(the sub-bucket under the rung's cursor)` once the bucket
    /// under the wheel's cursor has spawned; `None` again when that cursor
    /// moves.
    cursor: Option<usize>,
    /// Entries the lists hold.
    len: usize,
    /// One bit per sub-bucket; set while its list holds an entry.
    occupied: [u64; RUNG_WORDS],
    /// The first cell of each sub-bucket's list, read only while its bit
    /// is set; empty until the rung first files an entry.
    heads: Vec<u32>,
    /// The slab: an entry filed in a list per cell, `None` while the cell
    /// is free.
    cells: Vec<Option<Entry<T>>>,
    /// The next cell of each cell's list, or of the free list from `free`.
    /// Apart from the cells, so a gather walks its list through 4 bytes
    /// a cell and the entries it moves load side by side.
    links: Vec<u32>,
    free: u32,
}

impl<T> Rung<T> {
    /// An empty rung that has allocated nothing.
    fn new() -> Self {
        Rung {
            cursor: None,
            len: 0,
            occupied: [0; RUNG_WORDS],
            heads: Vec::default(),
            cells: Vec::default(),
            links: Vec::default(),
            free: NIL,
        }
    }

    /// Makes the lists' heads, once: a wheel whose bucket never spawns
    /// never pays for them.
    #[inline]
    fn make_heads(&mut self) {
        if self.heads.is_empty() {
            self.heads.resize(RUNG_SUBS, NIL);
        }
    }

    /// Files `entry` at the head of sub-bucket `sub`'s list, O(1).
    #[inline]
    fn file(&mut self, sub: usize, entry: Entry<T>) {
        self.make_heads();
        let bit = 1 << (sub % 64);
        let word = &mut self.occupied[sub / 64];
        let next = if *word & bit != 0 {
            self.heads[sub]
        } else {
            NIL
        };
        *word |= bit;
        let at = self.free;
        match (
            self.cells.get_mut(at as usize),
            self.links.get_mut(at as usize),
        ) {
            (Some(cell), Some(link)) => {
                *cell = Some(entry);
                self.free = std::mem::replace(link, next);
                self.heads[sub] = at;
            }
            _ => {
                debug_assert!(self.cells.len() < NIL as usize, "the rung's slab is full");
                self.heads[sub] = self.cells.len() as u32;
                self.cells.push(Some(entry));
                self.links.push(next);
            }
        }
        self.len += 1;
    }

    /// Moves the first occupied sub-bucket after the rung's cursor into
    /// `run`, which is empty, sorts it descending and moves the cursor
    /// there. The emptied cells join the free list; the slab is cleared
    /// once the rung holds nothing.
    fn gather(&mut self, run: &mut Vec<Entry<T>>) {
        let from = self.cursor.map_or(0, |at| at + 1);
        let Some(sub) = self.next_occupied(from) else {
            return;
        };
        self.cursor = Some(sub);
        self.occupied[sub / 64] &= !(1 << (sub % 64));
        let mut at = self.heads[sub];
        while let (Some(cell), Some(link)) = (
            self.cells.get_mut(at as usize),
            self.links.get_mut(at as usize),
        ) {
            run.extend(cell.take());
            let next = std::mem::replace(link, self.free);
            self.free = at;
            at = next;
        }
        self.len -= run.len();
        if self.len == 0 {
            self.cells.clear();
            self.links.clear();
            self.free = NIL;
        }
        // Keys are unique, so the unstable sort is deterministic. A list
        // comes out newest first, which for the engine's sends of one
        // instant is already descending.
        run.sort_unstable_by_key(|e| Reverse(e.key()));
    }

    /// The first occupied sub-bucket at or after `from`.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occupied.get(word)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            bits = *self.occupied.get(word)?;
        }
    }
}

impl<T: Clone> Rung<T> {
    /// Overwrites `self` with `src`. Touches the lists only when either
    /// rung holds entries, and then copies `src`'s slab (at most the most
    /// entries it has held at once since it was last empty) and the heads
    /// of its occupied sub-buckets, into storage `self` keeps.
    fn copy_from(&mut self, src: &Self) {
        let Rung {
            cursor,
            len,
            occupied,
            heads,
            cells,
            links,
            free,
        } = src;
        self.cursor = *cursor;
        if *len == 0 && self.len == 0 {
            return;
        }
        self.len = *len;
        self.occupied = *occupied;
        self.cells.clone_from(cells);
        self.links.clone_from(links);
        self.free = *free;
        if *len > 0 {
            self.make_heads();
        }
        for (word, &bits) in occupied.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let sub = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.heads[sub] = heads[sub];
            }
        }
    }
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
/// still at or after the last popped time — stays correct. (Locating may
/// move the *rung's* cursor to the sub-bucket holding the minimum; a push
/// at or before that sub-bucket then joins the run, so that is safe too.)
///
/// `Clone` is the snapshot copy (see [`crate::engine::EngineSnapshot`]),
/// written by hand so that it costs what the wheel *holds*: `clone_from`
/// visits only the buckets occupied in the source or in the destination
/// (the union of the two occupancy bitmaps) and overwrites each in place,
/// keeping the destination's heap capacity and circulating its bucket
/// storage through the spare stack, and touches the rung only when one
/// of the two holds entries; `clone` is an empty wheel plus `clone_from`.
/// Either way the copy pops exactly what the original pops.
pub struct TimingWheel<T> {
    /// Fixed-size (not a slice) so `idx & SLOT_MASK` provably fits and
    /// the per-event indexing compiles without bounds checks.
    slots: Box<[Slot<T>; SLOTS]>,
    /// One bit per slot index; set while the slot holds any event
    /// (counting, for bucket `base`, its `late` heap and its rung).
    occupied: [u64; WORDS],
    /// Absolute bucket number (`time_ps >> SLOT_SHIFT`) of the cursor.
    /// Every wheel-resident event's bucket is in `[base, base + SLOTS)`;
    /// every overflow event's bucket is `>= base + SLOTS`.
    base: u64,
    /// Bucket `base`'s entries past its run's sub-bucket, once it spawned.
    rung: Rung<T>,
    /// Pushes into the sub-bucket that bucket `base`'s run drains while
    /// the run is long. Every entry here belongs to bucket `base`, so the
    /// heap is empty whenever `base` moves; the bucket's next event is the
    /// smaller of its sorted run's `last()` and this heap's top.
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
            .field("rung", &self.rung.len)
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
        let TimingWheel {
            slots,
            occupied,
            base,
            rung,
            late,
            overflow,
            len,
            spare: _,
        } = src;
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
        self.rung.copy_from(rung);
        self.late.clone_from(late);
        self.overflow.clone_from(overflow);
        self.len = *len;
        debug_assert_eq!(
            self.slots.iter().map(|s| s.items.len()).sum::<usize>()
                + self.rung.len
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
            rung: Rung::new(),
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
    /// storage from the spare stack, and a bucket the cursor has not
    /// reached takes an append; the bucket under the cursor is
    /// [`place_under_cursor`](Self::place_under_cursor)'s.
    #[inline]
    fn place(&mut self, bucket: u64, entry: Entry<T>) {
        let idx = (bucket & SLOT_MASK) as usize;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        if bucket == self.base {
            self.place_under_cursor(idx, entry);
            return;
        }
        let slot = &mut self.slots[idx];
        if slot.items.is_empty() {
            Self::draw_storage(&mut self.spare, &mut slot.items);
            slot.sorted = true;
        } else {
            slot.sorted = false;
        }
        slot.items.push(entry);
    }

    /// Puts an entry into the bucket under the cursor, slot `idx`: past
    /// the rung's cursor into the rung, else into the sorted run while it
    /// is short, else into the `late` heap. A long run spawns the rung
    /// first, if the bucket has none.
    #[inline]
    fn place_under_cursor(&mut self, idx: usize, entry: Entry<T>) {
        let cursor = match self.rung.cursor {
            Some(cursor) => cursor,
            None if self.slots[idx].items.len() < SHORT_RUN => {
                return self.insert_into_run(idx, entry);
            }
            None => self.spawn(idx),
        };
        let sub = sub_bucket(entry.time);
        if sub > cursor {
            self.rung.file(sub, entry);
        } else if self.slots[idx].items.len() < SHORT_RUN {
            self.insert_into_run(idx, entry);
        } else {
            self.late.push(FarEntry(entry));
        }
    }

    /// Inserts `entry` at its place in the short sorted run of the bucket
    /// under the cursor, slot `idx`.
    #[inline]
    fn insert_into_run(&mut self, idx: usize, entry: Entry<T>) {
        let slot = &mut self.slots[idx];
        debug_assert!(
            slot.sorted || slot.items.is_empty(),
            "the cursor's bucket is unsorted"
        );
        Self::draw_storage(&mut self.spare, &mut slot.items);
        let key = entry.key();
        let at = slot.items.partition_point(|e| e.key() > key);
        slot.items.insert(at, entry);
        slot.sorted = true;
    }

    /// Spawns the rung of the bucket under the cursor, slot `idx`, whose
    /// run is long, and returns the rung's cursor: the run keeps its first
    /// sub-bucket's entries, and the rest move into the rung's lists.
    #[cold]
    fn spawn(&mut self, idx: usize) -> usize {
        let run = &mut self.slots[idx].items;
        let cursor = run.last().map_or(0, |first| sub_bucket(first.time));
        self.rung.cursor = Some(cursor);
        // Descending: the later sub-buckets' entries are the run's front.
        let later = run.partition_point(|e| sub_bucket(e.time) > cursor);
        // Filed in ascending order, each list comes out descending.
        for entry in run.drain(..later).rev() {
            self.rung.file(sub_bucket(entry.time), entry);
        }
        cursor
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
        if slot.items.is_empty() && self.late.is_empty() && self.rung.len == 0 {
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
    /// the bucket the cursor leaves is empty, its rung too, and the new
    /// bucket starts without a rung. The storage the cursor leaves goes to
    /// the spare stack — unless the bucket had spawned and that storage is
    /// the larger: the runs a rung gathers grow it, and handing it on would
    /// grow every bucket `Vec` in circulation to the longest run, so it
    /// stays under the cursor (the new bucket's entries move into it) and
    /// the new bucket's goes instead.
    #[inline]
    fn move_cursor(&mut self, bucket: u64) {
        let (from, to) = (
            (self.base & SLOT_MASK) as usize,
            (bucket & SLOT_MASK) as usize,
        );
        debug_assert!(
            self.slots[from].items.is_empty(),
            "the cursor left events behind"
        );
        debug_assert!(self.rung.len == 0, "the cursor left a rung behind");
        if self.rung.cursor.is_some() {
            self.rung.cursor = None;
            if self.slots[from].items.capacity() > self.slots[to].items.capacity() {
                self.keep_larger_storage(from, to);
            }
        }
        Self::return_storage(&mut self.spare, &mut self.slots[from].items);
        self.base = bucket;
    }

    /// Moves the entries of slot `to` into the larger, empty storage of
    /// slot `from`, and swaps the two `Vec`s.
    #[cold]
    fn keep_larger_storage(&mut self, from: usize, to: usize) {
        let mut larger = std::mem::take(&mut self.slots[from].items);
        let arriving = &mut self.slots[to].items;
        larger.append(arriving);
        self.slots[from].items = std::mem::replace(arriving, larger);
    }

    /// Finds the wheel bucket holding the minimal event, sorting it on
    /// first touch — or, for the bucket under the cursor when its run and
    /// `late` heap are empty, gathering its rung's next sub-bucket into the
    /// run. Returns `None` when every queued event is in the overflow
    /// heap. Does not move `base`.
    #[inline]
    fn locate_min(&mut self) -> Option<(u64, usize)> {
        let from = (self.base & SLOT_MASK) as usize;
        let distance = self.next_occupied(from)?;
        let bucket = self.base + distance as u64;
        let idx = (bucket & SLOT_MASK) as usize;
        let slot = &mut self.slots[idx];
        if slot.items.is_empty() {
            // Only bucket `base` is occupied with an empty run: what is
            // left of it is in `late` or in the rung.
            if self.late.is_empty() {
                Self::draw_storage(&mut self.spare, &mut slot.items);
                self.rung.gather(&mut slot.items);
                slot.sorted = true;
            }
        } else if !slot.sorted {
            // Keys are unique, so the unstable sort is deterministic.
            slot.items.sort_unstable_by_key(|e| Reverse(e.key()));
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
        // the bucket under the cursor spawned, partly drained, with late
        // arrivals beside its run and entries in its rung; an unsorted
        // bucket; and overflow entries awaiting a cascade.
        let mut w = TimingWheel::new();
        let mut seq = 0;
        // Three instants 500 ns apart in bucket 0, the cursor's.
        for k in 0..120u64 {
            w.push(SimTime::from_ns(10 + 500 * (k % 3)), seq, k as u32);
            seq += 1;
        }
        for k in [40u64, 25, 60] {
            w.push(SimTime::from_ms(k), seq, k as u32);
            seq += 1;
        }
        // Drain partway, then send at the instant being drained.
        for _ in 0..5 {
            assert_eq!(w.pop().map(|(t, ..)| t), Some(SimTime::from_ns(10)));
        }
        for _ in 0..2 * SHORT_RUN {
            w.push(SimTime::from_ns(10), seq, 10);
            seq += 1;
        }
        w.push(SimTime::from_us(20), seq, 20);
        w.push(SimTime::from_us(19), seq + 1, 19);
        assert!(!w.late.is_empty() && !w.slots[0].items.is_empty());
        assert_eq!(w.rung.len, 80, "the two later instants are in the rung");
        assert!(!w.slots[1].sorted);

        let mut fork = w.clone();
        // A resident wheel with a rung of its own, at another cursor.
        let mut resident = TimingWheel::new();
        for k in 0..64u64 {
            resident.push(SimTime::from_us(40 + k % 4), k, 0);
        }
        assert!(resident.pop().is_some());
        resident.push(SimTime::from_us(41), 64, 0);
        assert!(resident.rung.len > 0);
        resident.clone_from(&w);
        assert_eq!(fork.len(), w.len());
        assert_eq!(resident.len(), w.len());
        let want = drain(&mut w);
        assert_eq!(drain(&mut fork), want);
        assert_eq!(drain(&mut resident), want);
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
        // ever occupied together. Bucket 0's burst lands under the cursor
        // and spawns its rung; the others drain without a push.
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
        // The rung kept its slab's capacity, no more than the burst it
        // held once (doubling aside), and holds nothing.
        assert!(w.rung.cells.capacity() <= 2 * BURST as usize);
        assert!(w.rung.len == 0 && w.rung.cells.is_empty());
    }

    #[test]
    fn sends_ahead_in_the_cursors_bucket_are_appends_to_the_rung() {
        // The 1,000-host fabric's shape: 1,000 events at an instant, each
        // sending one event 500 ns on, for 200 µs — a dozen buckets, each
        // spawning its rung. Past the first instant (pushed all at once,
        // so all but a short run went to the `late` heap) no send is at
        // the instant being drained, so none reaches the heap; the rung's
        // slab grows to what it holds at once (under two instants), not to
        // what it has filed.
        const FAN: u64 = 1_000;
        let hop = SimTime::from_ns(500).as_ps();
        let mut w = TimingWheel::new();
        for seq in 0..FAN {
            w.push(SimTime::from_ps(hop), seq, 0);
        }
        let (mut seq, mut held, mut last) = (FAN, 0, SimTime::ZERO);
        while let Some((time, _, hops)) = w.pop() {
            assert!(time >= last, "popped out of order");
            last = time;
            if hops < 400 {
                w.push(SimTime::from_ps(time.as_ps() + hop), seq, hops + 1);
                seq += 1;
            }
            held = held.max(w.rung.len);
            let ahead = time.as_ps() > hop;
            assert!(!ahead || w.late.is_empty(), "a send ahead went to the heap");
        }
        assert_eq!(seq, FAN * 401);
        let fan = FAN as usize;
        assert!((fan..2 * fan).contains(&held), "the rung held {held}");
        let cells = w.rung.cells.capacity();
        assert!(cells < 2 * held, "{cells} cells");
    }

    #[test]
    fn the_cursor_keeps_the_storage_its_runs_grew() {
        // Eight buckets filled ahead of the cursor, a few entries each;
        // each, once under the cursor, sends 1,000 entries to a later
        // instant of its own, which its rung gathers into one long run.
        const LONG: u64 = 1_000;
        let mut w = TimingWheel::new();
        let mut seq = 0;
        for bucket in 1..=8 {
            for k in 0..4 {
                w.push(SimTime::from_ps(bucket * SLOT_PS + k), seq, 0);
                seq += 1;
            }
        }
        for bucket in 1..=8 {
            assert_eq!(w.pop().map(|(t, ..)| t.as_ps() >> SLOT_SHIFT), Some(bucket));
            for _ in 0..LONG {
                w.push(SimTime::from_ps(bucket * SLOT_PS + SLOT_PS / 2), seq, 0);
                seq += 1;
            }
            let in_bucket = |t: SimTime| t.as_ps() >> SLOT_SHIFT == bucket;
            while w.peek_time().is_some_and(in_bucket) {
                assert!(w.pop().is_some());
            }
        }
        assert!(w.is_empty());
        // One `Vec` grew to the long runs and stayed under the cursor; the
        // buckets' own went to the spare stack as small as they came.
        let storage = w.slots.iter().map(|s| &s.items).chain(&w.spare);
        let long = storage.filter(|v| v.capacity() >= LONG as usize).count();
        assert_eq!(long, 1, "{long} bucket Vecs grew to a long run");
    }

    #[test]
    fn one_instant_falls_back_to_the_heap() {
        // Every entry at one instant: the rung spawns with nothing in its
        // lists, and the pushes past its short run go to the `late` heap.
        let mut w = TimingWheel::new();
        let at = SimTime::from_us(3);
        for seq in (0..100u64).rev() {
            w.push(at, seq, seq as u32);
        }
        assert_eq!(w.pop(), Some((at, 0, 0)));
        assert!(w.rung.cursor.is_some() && w.rung.len == 0);
        assert_eq!(w.late.len() + w.slots[0].items.len(), 99);
        assert!(w.late.len() >= 99 - SHORT_RUN);
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(order, (1..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_wheel_that_never_spawns_makes_no_rung() {
        // The test bed's shape: a few events queued, most in the bucket
        // under the cursor, which never holds a long run.
        let mut w = TimingWheel::new();
        for k in 0..4_096u64 {
            w.push(SimTime::from_ns(100 * k), k, 0);
            if w.len() > 8 {
                assert!(w.pop().is_some());
            }
        }
        let copy = w.clone();
        for wheel in [&w, &copy] {
            assert!(wheel.rung.cursor.is_none());
            let rung = &wheel.rung;
            let made = [&rung.heads, &rung.links].map(Vec::capacity);
            assert_eq!(made, [0; 2], "heads and links made");
            assert_eq!(rung.cells.capacity(), 0, "cells made");
        }
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
