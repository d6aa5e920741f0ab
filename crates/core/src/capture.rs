//! Data monitoring: capture of the injection environment.
//!
//! "The FPGA can be programmed to keep the bytes surrounding the fault
//! injection event, thus giving the user sufficient dynamic state
//! information about the environment in which the fault injection was
//! performed" (§3.2). The capture memory is backed by the board's SDRAM in
//! hardware; here a bounded ring plays that role.
//!
//! The memory keeps runs of consecutive offsets, not one record per
//! injection, and of each run only the bytes its records read: the
//! original image from the first window's context to the last's, and the
//! corrupted image up to the last window — one copy, when the injection
//! left those bytes as they were. A [`CaptureRecord`] is built from them
//! only when the memory is read. A match-everything compare fires at every
//! byte offset of a packet, one run, so recording a packet costs no more
//! than copying it, whatever the number of offsets it fired at.

// netfi-lint: deny(hot-path-alloc)
//
// `record` runs for every packet the device corrupts. Its ring of runs and
// its byte buffer grow with what the memory holds — never past `capacity`
// runs — to a steady state in which recording allocates nothing; the
// records are built on the stack when the memory is read.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

use netfi_sim::SimTime;

use crate::fifo::InjectedOffsets;

/// How many context bytes to keep on each side of an injection site.
pub(crate) const CONTEXT_BYTES: usize = 8;

/// The longest context: the 4-byte window and [`CONTEXT_BYTES`] each side.
const CONTEXT_LEN: usize = 2 * CONTEXT_BYTES + 4;

/// One captured injection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Byte offset of the corrupted window within the packet.
    pub offset: usize,
    /// The window before corruption.
    pub before: [u8; 4],
    /// The window after corruption.
    pub after: [u8; 4],
    /// Packet bytes surrounding the injection site, inline.
    context: [u8; CONTEXT_LEN],
    /// How many bytes of `context` are the packet's.
    context_len: usize,
}

impl CaptureRecord {
    /// Builds a record from the original and corrupted packet images.
    pub fn new(original: &[u8], corrupted: &[u8], offset: usize) -> CaptureRecord {
        let mut before = [0u8; 4];
        let mut after = [0u8; 4];
        for k in 0..4 {
            if let Some(&b) = original.get(offset + k) {
                before[k] = b;
            }
            if let Some(&b) = corrupted.get(offset + k) {
                after[k] = b;
            }
        }
        let start = offset.saturating_sub(CONTEXT_BYTES);
        let end = (offset + 4 + CONTEXT_BYTES).min(original.len());
        let bytes = original.get(start..end).unwrap_or_default();
        let mut context = [0u8; CONTEXT_LEN];
        context[..bytes.len()].copy_from_slice(bytes);
        CaptureRecord {
            offset,
            before,
            after,
            context,
            context_len: bytes.len(),
        }
    }

    /// Packet bytes surrounding the injection site (±[`CONTEXT_BYTES`],
    /// clamped at the packet's edges).
    pub(crate) fn context(&self) -> &[u8] {
        &self.context[..self.context_len]
    }
}

impl fmt::Display for CaptureRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{}: {:02X}{:02X}{:02X}{:02X} -> {:02X}{:02X}{:02X}{:02X} ctx[",
            self.offset,
            self.before[0],
            self.before[1],
            self.before[2],
            self.before[3],
            self.after[0],
            self.after[1],
            self.after[2],
            self.after[3],
        )?;
        for (i, b) in self.context().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{b:02X}")?;
        }
        write!(f, "]")
    }
}

/// `image[range]`, cut at the image's end.
fn clamped(image: &[u8], range: Range<usize>) -> &[u8] {
    let end = range.end.min(image.len()).max(range.start);
    image.get(range.start..end).unwrap_or_default()
}

/// A run of records of consecutive offsets of one packet, with where the
/// bytes they read sit in the memory.
#[derive(Debug, Clone)]
struct CapturedRun {
    /// When the packet crossed the device.
    time: SimTime,
    /// One record each.
    offsets: Range<usize>,
    /// The packet offset the run's bytes start at.
    base: usize,
    /// Where they start among every byte the memory has kept.
    at: usize,
    /// How many of the original image's bytes are kept: from the first
    /// window's context to the last's.
    original_len: usize,
    /// How many of the corrupted image's bytes: up to the last window.
    corrupted_len: usize,
    /// Whether those are the original's own, the injection having left
    /// them as they were; otherwise they are kept after the original's.
    unchanged: bool,
}

/// The capture memory for one direction: the last `capacity` injection
/// records, oldest evicted first.
#[derive(Debug)]
pub struct CaptureBuffer {
    /// The runs of the held records, oldest first.
    runs: VecDeque<CapturedRun>,
    /// The bytes the runs' records read, run after run; a prefix may
    /// belong to runs already evicted.
    bytes: Vec<u8>,
    /// The place of `bytes[0]` among every byte the memory has kept.
    origin: usize,
    capacity: usize,
    /// Records held: the runs' offsets.
    len: usize,
}

netfi_sim::clone_in_place!(CaptureBuffer {
    runs,
    bytes,
    origin,
    capacity,
    len,
});

impl CaptureBuffer {
    /// Creates a capture memory holding up to `capacity` records. It
    /// reserves nothing until it captures something.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> CaptureBuffer {
        assert!(capacity > 0, "capture memory capacity must be non-zero");
        CaptureBuffer {
            runs: VecDeque::new(),
            bytes: Vec::default(),
            origin: 0,
            capacity,
            len: 0,
        }
    }

    /// Records the injections applied at `offsets` to one packet that
    /// crossed the device at `time`, one record per offset, built from the
    /// `original` and `corrupted` images when the memory is read. The
    /// oldest records are evicted, so exactly the last `capacity` are kept.
    pub fn record(
        &mut self,
        time: SimTime,
        original: &[u8],
        corrupted: &[u8],
        offsets: &InjectedOffsets,
    ) {
        for run in offsets.runs() {
            // Of a run longer than the memory, its last `capacity` offsets.
            let run = run.start.max(run.end.saturating_sub(self.capacity))..run.end;
            self.evict((self.len + run.len()).saturating_sub(self.capacity));
            self.keep(time, original, corrupted, run);
        }
    }

    /// Appends a run and the bytes its records read: every window's
    /// context in the original, every window in the corrupted image.
    fn keep(&mut self, time: SimTime, original: &[u8], corrupted: &[u8], offsets: Range<usize>) {
        let base = offsets.start.saturating_sub(CONTEXT_BYTES);
        let last = offsets.end - 1;
        let original = clamped(original, base..last + 4 + CONTEXT_BYTES);
        let corrupted = clamped(corrupted, base..last + 4);
        let unchanged = original.starts_with(corrupted);
        let at = self.origin + self.bytes.len();
        self.bytes.extend_from_slice(original);
        if !unchanged {
            self.bytes.extend_from_slice(corrupted);
        }
        self.len += offsets.len();
        self.runs.push_back(CapturedRun {
            time,
            offsets,
            base,
            at,
            original_len: original.len(),
            corrupted_len: corrupted.len(),
            unchanged,
        });
    }

    /// Evicts the `n` oldest records.
    fn evict(&mut self, mut n: usize) {
        while n > 0 {
            let Some(oldest) = self.runs.front_mut() else {
                break;
            };
            let held = oldest.offsets.len();
            if held <= n {
                self.runs.pop_front();
                self.len -= held;
                n -= held;
            } else {
                oldest.offsets.start += n;
                self.len -= n;
                n = 0;
            }
        }
        // Drop the evicted runs' bytes once they are the larger part, so a
        // byte kept is moved once on average.
        let live = self
            .runs
            .front()
            .map_or(self.origin + self.bytes.len(), |r| r.at);
        let evicted = live - self.origin;
        if evicted > self.bytes.len() / 2 {
            self.bytes.drain(..evicted);
            self.origin = live;
        }
    }

    /// The record of the injection at `offset` in `run`.
    fn record_at(&self, run: &CapturedRun, offset: usize) -> CaptureRecord {
        let start = run.at - self.origin;
        let kept = self.bytes.get(start..).unwrap_or_default();
        let original = kept.get(..run.original_len).unwrap_or_default();
        let corrupted = if run.unchanged {
            original.get(..run.corrupted_len)
        } else {
            kept.get(run.original_len..run.original_len + run.corrupted_len)
        };
        CaptureRecord {
            offset,
            ..CaptureRecord::new(original, corrupted.unwrap_or_default(), offset - run.base)
        }
    }

    /// The records of `run`, in order.
    fn records<'a>(&'a self, run: &'a CapturedRun) -> impl Iterator<Item = CaptureRecord> + 'a {
        (run.offsets.start..run.offsets.end).map(move |offset| self.record_at(run, offset))
    }

    /// Records held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Iterates over captured records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = CaptureRecord> + '_ {
        self.runs.iter().flat_map(|run| self.records(run))
    }

    /// Renders all records as `[time] record` lines, oldest first.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for run in &self.runs {
            for record in self.records(run) {
                let _ = writeln!(out, "[{}] {}", run.time, record);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InjectorConfig;
    use crate::fifo::FifoInjector;
    use crate::trigger::MatchMode;

    #[test]
    fn record_extracts_windows_and_context() {
        let original: Vec<u8> = (0..32).collect();
        let mut corrupted = original.clone();
        corrupted[12] ^= 0xFF;
        let rec = CaptureRecord::new(&original, &corrupted, 12);
        assert_eq!(rec.before, [12, 13, 14, 15]);
        assert_eq!(rec.after, [12 ^ 0xFF, 13, 14, 15]);
        // context spans 4..24
        assert_eq!(rec.context(), (4..24).collect::<Vec<u8>>());
    }

    #[test]
    fn record_clamps_at_packet_edges() {
        let original = vec![1u8, 2, 3];
        let corrupted = vec![1u8, 2, 0xFF];
        let rec = CaptureRecord::new(&original, &corrupted, 2);
        assert_eq!(rec.before, [3, 0, 0, 0]);
        assert_eq!(rec.after, [0xFF, 0, 0, 0]);
        assert_eq!(rec.context(), [1, 2, 3]);
        // An empty packet (a forced injection at offset 0) has no context.
        assert_eq!(CaptureRecord::new(&[], &[], 0).context(), [0u8; 0]);
    }

    /// Pushes `len` bytes of value `fill` through a match-everything
    /// trigger in mode `On` and records what it fired at.
    fn capture_packet(cap: &mut CaptureBuffer, t: u64, fill: u8, len: usize) {
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .corrupt_toggle(0x8000_0000)
            .build();
        let original = vec![fill; len];
        let mut bytes = original.clone();
        let report = FifoInjector::new(config).process_packet(&mut bytes);
        assert_eq!(report.injected_offsets.len(), len - 3);
        cap.record(
            SimTime::from_ns(t),
            &original,
            &bytes,
            &report.injected_offsets,
        );
    }

    #[test]
    fn buffer_keeps_the_last_records_across_packets() {
        let mut cap = CaptureBuffer::new(7);
        capture_packet(&mut cap, 1, 0xA0, 8); // 5 records
        assert_eq!(cap.len(), 5);
        capture_packet(&mut cap, 2, 0xB0, 7); // 4 records: the first trimmed by 2
        assert_eq!(cap.len(), 7);
        let kept: Vec<(u8, usize)> = cap.iter().map(|r| (r.before[0], r.offset)).collect();
        assert_eq!(
            kept,
            [
                (0xA0, 2),
                (0xA0, 3),
                (0xA0, 4),
                (0xB0, 0),
                (0xB0, 1),
                (0xB0, 2),
                (0xB0, 3)
            ]
        );
        capture_packet(&mut cap, 3, 0xC0, 14); // 11 records: only its last 7 fit
        assert_eq!(cap.len(), 7);
        assert_eq!(
            cap.iter().next().map(|r| (r.before[0], r.offset)),
            Some((0xC0, 4))
        );
        let last = cap.iter().last().unwrap();
        assert_eq!(
            (last.offset, last.before[0], last.after[0]),
            (10, 0xC0, 0x40)
        );
        assert_eq!(cap.render().lines().count(), 7);
        assert!(cap
            .render()
            .starts_with("[3.000ns] @4: C0C0C0C0 -> 40404040 ctx["));
    }

    #[test]
    fn the_memory_keeps_only_the_bytes_its_records_read() {
        let mut cap = CaptureBuffer::new(4);
        let packet: Vec<u8> = (0..=255).collect();
        // A no-op at every offset: one run, of which the last 4 offsets are
        // kept, and one copy of the bytes they read (241..256), the
        // corrupted image's being the same.
        let mut config = InjectorConfig::control_swap(0x0F, 0x0C);
        let mut noop = FifoInjector::new(config);
        let mut bytes = packet.clone();
        let report = noop.process_packet(&mut bytes);
        assert_eq!(report.injected_offsets.len(), 253);
        cap.record(SimTime::ZERO, &packet, &bytes, &report.injected_offsets);
        assert_eq!((cap.len(), cap.runs.len(), cap.bytes.len()), (4, 1, 15));
        assert_eq!(cap.iter().next().map(|r| r.offset), Some(249));
        // One masked match a packet: its window's context in the original
        // and its window in the corrupted image; what evicted records read
        // is dropped once it is the larger part.
        config.compare = crate::trigger::CompareUnit::new(0x4041_4243, u32::MAX);
        config.corrupt = crate::corrupt::CorruptUnit::toggle(0xFF);
        let mut masked = FifoInjector::new(config);
        for t in 1..=64 {
            let mut bytes = packet.clone();
            let report = masked.process_packet(&mut bytes);
            cap.record(
                SimTime::from_ns(t),
                &packet,
                &bytes,
                &report.injected_offsets,
            );
            if t >= 4 {
                assert!(
                    cap.bytes.len() <= 2 * 4 * (20 + 12),
                    "{} bytes kept",
                    cap.bytes.len()
                );
            }
        }
        assert_eq!((cap.len(), cap.runs.len()), (4, 4));
        assert!(cap
            .iter()
            .all(|r| r.offset == 0x40 && r.context() == &packet[0x38..0x4C]));
        assert_eq!(
            cap.iter().last().map(|r| r.after),
            Some([0x40, 0x41, 0x42, 0x43 ^ 0xFF])
        );
    }

    #[test]
    fn display_is_readable() {
        let rec = CaptureRecord::new(&[0x18, 0x18, 0xAA, 0xBB], &[0x19, 0x18, 0xAA, 0xBB], 0);
        let s = rec.to_string();
        assert!(s.contains("1818AABB -> 1918AABB"), "{s}");
    }
}
