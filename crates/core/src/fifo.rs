//! The FIFO injector — the heart of the device (paper §3.3, Figures 2/3).
//!
//! "The actual fault injection is performed by the FIFO injector, which
//! also provides the data path through the injector. A two-phase operation
//! is required to push data into and out of a FIFO structure, to perform
//! the compare operation, and to modify data in the FIFO if either the
//! data meets injection criteria or a forced injection is desired."
//!
//! Two views are provided:
//!
//! - [`FifoPipeline`] — a cycle-accurate model of the odd/even clock
//!   behaviour of Figures 2 and 3, operating on aligned 32-bit segments
//!   through a dual-port-RAM ring, used for unit-level verification and the
//!   Figure 2/3 benchmark.
//! - [`FifoInjector`] — the packet-level datapath used by the device: it
//!   applies the same compare/corrupt semantics (byte-sliding window, match
//!   modes, forced injection, CRC recomputation) to whole packets and
//!   accounts the cycles the pipeline would have spent.

// netfi-lint: deny(hot-path-alloc)
//
// The FIFO is the device's datapath; every intercepted frame crosses it.
// Corruption happens in place on the frame's copy-on-write buffer — the
// only allocation is the constructor's backing RAM, allowlisted below.

use std::fmt;
use std::ops::Range;

use netfi_myrinet::crc8;
use netfi_phy::clock::{ClockGenerator, ClockPhase};
use netfi_sim::{SharedBytes, SimDuration};

use crate::config::InjectorConfig;
use crate::corrupt::CorruptUnit;
use crate::random::{RandomInject, RandomUnit};
use crate::trigger::{CompareUnit, MatchMode};

/// Pipeline latency in clock cycles — "the current VHDL code pipelines the
/// inject operation for three clock cycles" (paper footnote 5).
pub(crate) const PIPELINE_CYCLES: u64 = 3;

/// Extra 32-bit segments kept in the FIFO before transmission — "but keeps
/// a few more 32-bit segments in the FIFO before sending it".
pub(crate) const FIFO_SLACK_SEGMENTS: u64 = 2;

/// Counters kept by the injector datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoStats {
    /// Packets pushed through.
    pub packets: u64,
    /// 32-bit segments pushed through.
    pub segments: u64,
    /// Clock cycles consumed (two per segment).
    pub cycles: u64,
    /// Data-path trigger matches observed.
    pub matches: u64,
    /// Data-path injections performed.
    pub injections: u64,
    /// Control-symbol injections performed.
    pub control_injections: u64,
    /// Forced (`inject now`) injections performed.
    pub forced_injections: u64,
    /// Random (SEU) bit flips performed.
    pub random_injections: u64,
    /// CRC-8 recomputations performed after injection.
    pub crc_recomputes: u64,
}

/// The byte offsets where one packet's corruption was applied, in the
/// order it was applied: a forced (`inject now`) injection at offset 0,
/// then the trigger's firings, then the segments of the random flips.
///
/// A match-everything compare (mask 0) fires at a contiguous run of
/// offsets, which is carried as a range: the list costs the same whatever
/// the packet's length. `Debug` prints the offsets as a list.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct InjectedOffsets {
    /// A forced injection at offset 0 comes first.
    forced: bool,
    /// The offsets a match-everything compare fired at.
    run: Range<usize>,
    /// Offsets one by one: a masked compare's firings, then the random
    /// flips' segments.
    listed: Vec<usize>,
}

impl InjectedOffsets {
    /// How many injections were applied.
    pub fn len(&self) -> usize {
        usize::from(self.forced) + self.run.len() + self.listed.len()
    }

    /// `true` if no injection was applied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The offsets, in the order they were applied.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs().flatten()
    }

    /// The offsets in order, as non-empty runs of consecutive offsets: the
    /// forced one, the match-everything run, then one per listed offset.
    pub(crate) fn runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let run = self.run.start..self.run.end;
        self.forced
            .then_some(0..1)
            .into_iter()
            .chain((!run.is_empty()).then_some(run))
            .chain(self.listed.iter().map(|&offset| offset..offset + 1))
    }
}

impl fmt::Debug for InjectedOffsets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Report for one packet processed by [`FifoInjector::process_packet`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketReport {
    /// How many times the trigger matched (matches are observed even when
    /// the match mode keeps them from firing).
    pub matches: u64,
    /// Byte offsets where corruption was applied.
    pub injected_offsets: InjectedOffsets,
    /// Whether the trailing CRC was recomputed.
    pub crc_fixed: bool,
}

impl PacketReport {
    /// `true` if any corruption was applied.
    pub fn injected(&self) -> bool {
        !self.injected_offsets.is_empty()
    }
}

/// What the read-only plan phase decided to do to a packet. On the
/// uncorrupted pass-through path every field stays empty, so planning
/// allocates nothing and the wire bytes are never written.
#[derive(Debug, Default)]
struct InjectPlan {
    /// Trigger matches observed (counted even when firing is disabled).
    matches: u64,
    /// Where the corruption function fires: a pending `inject now` on the
    /// first segment, then the trigger's offsets.
    fires: InjectedOffsets,
    /// Per-segment LFSR bit flips.
    random_flips: Vec<RandomFlip>,
}

impl InjectPlan {
    /// `true` if applying the plan could change a byte. A plan whose
    /// corruption is the identity, with no random flip and no CRC
    /// recompute, writes nothing, however many offsets it fires at.
    fn writes(&self, config: &InjectorConfig) -> bool {
        !self.random_flips.is_empty()
            || (!self.fires.is_empty() && (config.crc_recompute || !config.corrupt.is_identity()))
    }

    /// The report of a plan that [`writes`](InjectPlan::writes) nothing.
    fn into_report(self) -> PacketReport {
        PacketReport {
            matches: self.matches,
            injected_offsets: self.fires,
            crc_fixed: false,
        }
    }
}

/// One random (SEU) bit flip chosen by the LFSR during planning.
#[derive(Debug)]
struct RandomFlip {
    /// The segment-aligned offset recorded in the report.
    segment_offset: usize,
    /// The byte actually flipped.
    byte_index: usize,
    /// The bit within that byte.
    bit_mask: u8,
}

/// The packet-level injector datapath for one direction.
#[derive(Debug, Clone)]
pub struct FifoInjector {
    config: InjectorConfig,
    /// Latch for `once` mode: cleared after the first injection, re-armed
    /// by reconfiguration.
    armed: bool,
    inject_now_pending: bool,
    random: RandomUnit,
    stats: FifoStats,
}

impl FifoInjector {
    /// The LFSR seed used by the random-injection unit.
    const LFSR_SEED: u32 = 0xACE1_2B4D;

    /// Creates a datapath with the given configuration.
    pub fn new(config: InjectorConfig) -> FifoInjector {
        FifoInjector {
            config,
            armed: true,
            inject_now_pending: false,
            random: RandomUnit::new(
                config.random.unwrap_or(RandomInject { threshold: 0 }),
                Self::LFSR_SEED,
            ),
            stats: FifoStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &InjectorConfig {
        &self.config
    }

    /// Replaces the configuration and re-arms the `once` latch. The
    /// random unit's LFSR restarts from its seed (reconfiguration is a
    /// campaign boundary).
    pub(crate) fn set_config(&mut self, config: InjectorConfig) {
        self.config = config;
        self.armed = true;
        self.random = RandomUnit::new(
            config.random.unwrap_or(RandomInject { threshold: 0 }),
            Self::LFSR_SEED,
        );
    }

    /// Re-arms the `once` latch without reconfiguring.
    pub(crate) fn rearm(&mut self) {
        self.armed = true;
    }

    /// `true` while a `once` trigger is still waiting for its match.
    #[cfg(test)]
    pub(crate) fn is_armed(&self) -> bool {
        self.armed
    }

    /// Asserts the `inject now` line: "the current injection configuration
    /// is exercised on one 32-bit segment during the next even clock
    /// cycle" — i.e. on the first segment of the next packet.
    pub(crate) fn inject_now(&mut self) {
        self.inject_now_pending = true;
    }

    /// Counters.
    pub fn stats(&self) -> FifoStats {
        self.stats
    }

    /// Whether the current mode/latch allows a trigger to fire.
    fn may_fire(&self) -> bool {
        match self.config.match_mode {
            MatchMode::Off => false,
            MatchMode::On => true,
            MatchMode::Once => self.armed,
        }
    }

    /// Pushes a packet's wire bytes through the datapath, corrupting in
    /// place per the active configuration.
    pub fn process_packet(&mut self, bytes: &mut [u8]) -> PacketReport {
        let plan = self.plan_packet(bytes);
        if plan.writes(&self.config) {
            self.apply_plan(bytes, plan)
        } else {
            plan.into_report()
        }
    }

    /// Zero-copy variant of [`FifoInjector::process_packet`]: the shared
    /// wire image is materialised (copy-on-write) only when the plan
    /// could change a byte. Uncorrupted pass-through, and an identity
    /// corruption without a CRC recompute, never touch the payload bytes.
    pub fn process_packet_shared(&mut self, bytes: &mut SharedBytes) -> PacketReport {
        let plan = self.plan_packet(bytes);
        if plan.writes(&self.config) {
            self.apply_plan(bytes.make_mut(), plan)
        } else {
            plan.into_report()
        }
    }

    /// The read-only half of the datapath: updates counters, scans the
    /// ORIGINAL stream (the compare registers see incoming data; corruption
    /// happens downstream in the FIFO) and draws the per-segment LFSR —
    /// but never writes a byte. Any mutations are recorded in the returned
    /// plan for [`FifoInjector::apply_plan`].
    fn plan_packet(&mut self, bytes: &[u8]) -> InjectPlan {
        let segments = bytes.len().div_ceil(4) as u64;
        self.stats.packets += 1;
        self.stats.segments += segments;
        self.stats.cycles += segments * 2;

        let mut plan = InjectPlan::default();

        // Forced injection: one 32-bit segment, the next to pass through.
        if self.inject_now_pending {
            self.inject_now_pending = false;
            plan.fires.forced = true;
            self.stats.forced_injections += 1;
            self.stats.injections += 1;
        }

        // Triggered injection: every match is observed (and counted) even
        // when the match mode keeps it from firing.
        let compare = self.config.compare;
        if compare.compare_mask == 0 {
            // All bits don't-care (the idle/default compare): every 32-bit
            // window matches, so the counts follow from the length alone —
            // no need to slide the window over every byte — and the trigger
            // fires at a run of offsets from the first: all of them, the
            // first alone while a `once` latch is armed, or none.
            let windows = bytes.len().saturating_sub(3);
            plan.matches += windows as u64;
            let fired = match self.config.match_mode {
                MatchMode::Off => 0,
                MatchMode::On => windows,
                MatchMode::Once => windows.min(usize::from(self.armed)),
            };
            if fired > 0 && self.config.match_mode == MatchMode::Once {
                self.armed = false;
            }
            plan.fires.run = 0..fired;
            self.stats.injections += fired as u64;
        } else {
            compare.scan_each(bytes, |offset| {
                plan.matches += 1;
                if self.may_fire() {
                    plan.fires.listed.push(offset);
                    self.stats.injections += 1;
                    if self.config.match_mode == MatchMode::Once {
                        self.armed = false;
                    }
                }
            });
        }
        self.stats.matches += plan.matches;

        // Random (SEU) injection: one LFSR draw per 32-bit segment; a hit
        // flips one LFSR-selected bit of that segment.
        if self.config.random.is_some() {
            for seg in 0..segments as usize {
                if let Some(bit) = self.random.draw() {
                    let byte_in_seg = 3 - (bit / 8) as usize; // big-endian
                    let idx = seg * 4 + byte_in_seg;
                    if idx < bytes.len() {
                        plan.random_flips.push(RandomFlip {
                            segment_offset: seg * 4,
                            byte_index: idx,
                            bit_mask: 1 << (bit % 8),
                        });
                        self.stats.random_injections += 1;
                        self.stats.injections += 1;
                    }
                }
            }
        }

        plan
    }

    /// The mutating half of the datapath: applies a plan that
    /// [`writes`](InjectPlan::writes).
    fn apply_plan(&mut self, bytes: &mut [u8], plan: InjectPlan) -> PacketReport {
        let InjectPlan {
            matches,
            fires: mut offsets,
            random_flips,
        } = plan;
        for offset in offsets.iter() {
            self.config.corrupt.apply_at(bytes, offset);
        }
        for flip in &random_flips {
            bytes[flip.byte_index] ^= flip.bit_mask;
            offsets.listed.push(flip.segment_offset);
        }
        let crc_fixed = self.config.crc_recompute && bytes.len() >= 2;
        if crc_fixed {
            let last = bytes.len() - 1;
            bytes[last] = crc8::checksum(&bytes[..last]);
            self.stats.crc_recomputes += 1;
        }
        PacketReport {
            matches,
            injected_offsets: offsets,
            crc_fixed,
        }
    }

    /// Pushes a control symbol through, returning the (possibly corrupted)
    /// code and whether an injection occurred.
    pub(crate) fn process_control(&mut self, code: u8) -> (u8, bool) {
        self.stats.cycles += 2;
        let Some(ctl) = self.config.control else {
            return (code, false);
        };
        if !self.may_fire() || !ctl.compare.matches(code) {
            return (code, false);
        }
        if self.config.match_mode == MatchMode::Once {
            self.armed = false;
        }
        self.stats.control_injections += 1;
        (ctl.corrupt.apply(code), true)
    }

    /// Whether a control symbol `code` pushed through now would be
    /// corrupted.
    pub(crate) fn touches(&self, code: u8) -> bool {
        self.config
            .control
            .is_some_and(|ctl| ctl.compare.matches(code))
            && self.may_fire()
    }

    /// What every control symbol `code` pushed through from now on turns
    /// into while the configuration stands, if each is corrupted the same
    /// way: the swap matches `code` and the match mode is `On`, with no
    /// `once` latch to spend.
    pub fn swaps(&self, code: u8) -> Option<u8> {
        let ctl = self.config.control?;
        (self.config.match_mode == MatchMode::On && ctl.compare.matches(code))
            .then(|| ctl.corrupt.apply(code))
    }

    /// Accounts for `n` control symbols that passed through untouched, as
    /// `n` calls of [`process_control`](FifoInjector::process_control)
    /// would while [`touches`](FifoInjector::touches) is false.
    pub(crate) fn pass_controls(&mut self, n: u64) {
        self.stats.cycles += 2 * n;
    }

    /// Accounts for `n` control symbols that were swapped, as `n` calls of
    /// [`process_control`](FifoInjector::process_control) would while
    /// [`swaps`](FifoInjector::swaps) is `Some`.
    pub(crate) fn swap_controls(&mut self, n: u64) {
        self.stats.cycles += 2 * n;
        self.stats.control_injections += n;
    }

    /// Pushes a packet-terminator control code through (GAPs that travel
    /// with packets). Honours `include_terminators`.
    pub(crate) fn process_terminator(&mut self, code: u8) -> (u8, bool) {
        match self.config.control {
            Some(ctl) if ctl.include_terminators => self.process_control(code),
            _ => (code, false),
        }
    }

    /// The device's cut-through latency at a given link rate: the 3-cycle
    /// inject pipeline plus the FIFO slack, in 32-bit segment times.
    ///
    /// At 640 Mb/s a segment is 50 ns, so (3 + 2) × 50 ns = 250 ns — the
    /// paper's footnote-5 estimate.
    pub fn latency(&self, link_rate_bps: u64) -> SimDuration {
        let segment = SimDuration::from_bits(32, link_rate_bps);
        segment * (PIPELINE_CYCLES + FIFO_SLACK_SEGMENTS)
    }
}

/// Cycle-accurate model of the two-phase FIFO injector of Figures 2 and 3,
/// at aligned 32-bit segment granularity.
#[derive(Debug, Clone)]
pub struct FifoPipeline {
    /// Dual-port RAM backing the FIFO (paper: "standard RAM architecture
    /// used to provide storage for the FIFO injector elements").
    ram: Vec<u32>,
    head: usize,
    tail: usize,
    len: usize,
    /// Index in RAM of the most recently pushed segment (the compare
    /// operation's subject).
    last_pushed: Option<usize>,
    compare: CompareUnit,
    corrupt: CorruptUnit,
    clock: ClockGenerator,
    slack: usize,
}

impl FifoPipeline {
    /// Creates a pipeline with a RAM of `depth` segments, keeping `slack`
    /// segments buffered before output.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < slack < depth`.
    pub fn new(
        depth: usize,
        slack: usize,
        compare: CompareUnit,
        corrupt: CorruptUnit,
        clock: ClockGenerator,
    ) -> FifoPipeline {
        assert!(slack > 0 && slack < depth, "need 0 < slack < depth");
        FifoPipeline {
            // lint: allow(hot-path-alloc) one-time backing RAM, sized at construction
            ram: vec![0; depth],
            head: 0,
            tail: 0,
            len: 0,
            last_pushed: None,
            compare,
            corrupt,
            clock,
            slack,
        }
    }

    /// Segments currently buffered.
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// Total cycles ticked.
    pub fn cycles(&self) -> u64 {
        self.clock.cycles()
    }

    /// Runs one odd cycle (Figure 2): pushes `input` (if any) and pulls a
    /// segment for output once more than `slack` segments are buffered.
    ///
    /// # Panics
    ///
    /// Panics if called on an even cycle, or on FIFO overflow.
    pub fn step_odd(&mut self, input: Option<u32>) -> Option<u32> {
        assert_eq!(self.clock.tick(), ClockPhase::Odd, "phase mismatch");
        if let Some(seg) = input {
            assert!(self.len < self.ram.len(), "FIFO overflow");
            self.ram[self.tail] = seg;
            self.last_pushed = Some(self.tail);
            self.tail = (self.tail + 1) % self.ram.len();
            self.len += 1;
        } else {
            self.last_pushed = None;
        }
        if self.len > self.slack {
            let out = self.ram[self.head];
            self.head = (self.head + 1) % self.ram.len();
            self.len -= 1;
            Some(out)
        } else {
            None
        }
    }

    /// Runs one even cycle (Figure 3): "the result of the compare operation
    /// is available, and if any data needs to be corrupted, it will be
    /// overwritten in the FIFO."
    ///
    /// # Panics
    ///
    /// Panics if called on an odd cycle.
    pub fn step_even(&mut self) -> bool {
        assert_eq!(self.clock.tick(), ClockPhase::Even, "phase mismatch");
        let Some(idx) = self.last_pushed else {
            return false;
        };
        if self.compare.matches(self.ram[idx]) {
            self.ram[idx] = self.corrupt.apply(self.ram[idx]);
            true
        } else {
            false
        }
    }

    /// Drains remaining segments (end of stream).
    pub fn flush(&mut self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        while self.len > 0 {
            out.push(self.ram[self.head]);
            self.head = (self.head + 1) % self.ram.len();
            self.len -= 1;
        }
        out
    }

    /// Convenience: runs a whole segment stream through the two-phase
    /// pipeline and returns the output stream.
    pub fn run(&mut self, input: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(input.len());
        for &seg in input {
            out.extend(self.step_odd(Some(seg)));
            self.step_even();
        }
        out.extend(self.flush());
        out
    }
}

#[cfg(test)]
mod eager;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InjectorConfig;
    use crate::trigger::MatchMode;
    use netfi_myrinet::packet::{route_to_host, Packet, PacketType};

    fn sample_wire() -> Vec<u8> {
        Packet::new(
            vec![route_to_host(1)],
            PacketType::DATA,
            vec![0x00, 0x18, 0x18, 0x55, 0x66, 0x77],
        )
        .encode()
    }

    #[test]
    fn passthrough_leaves_bytes_untouched() {
        let mut inj = FifoInjector::new(InjectorConfig::passthrough());
        let mut bytes = sample_wire();
        let orig = bytes.clone();
        let report = inj.process_packet(&mut bytes);
        assert_eq!(bytes, orig);
        assert!(!report.injected());
        assert_eq!(inj.stats().packets, 1);
        assert_eq!(inj.stats().cycles, 2 * (orig.len().div_ceil(4) as u64));
    }

    #[test]
    fn typical_scenario_1818_to_1918() {
        // Paper §3.3: match 0x1818, replace with 0x1918.
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(0x1818_0000, 0xFFFF_0000)
            .corrupt_replace(0x1918_0000, 0xFFFF_0000)
            .recompute_crc(true)
            .build();
        let mut inj = FifoInjector::new(config);
        let mut bytes = sample_wire();
        let report = inj.process_packet(&mut bytes);
        assert!(report.injected());
        assert!(report.crc_fixed);
        // The 0x1818 at payload offset became 0x1918, and the CRC still
        // verifies.
        let delivered = Packet::parse_delivered(&bytes).unwrap();
        assert_eq!(&delivered.payload[..4], &[0x00, 0x19, 0x18, 0x55]);
    }

    #[test]
    fn injection_without_crc_fix_breaks_crc() {
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(0x1818_0000, 0xFFFF_0000)
            .corrupt_toggle(0x0100_0000)
            .recompute_crc(false)
            .build();
        let mut inj = FifoInjector::new(config);
        let mut bytes = sample_wire();
        let report = inj.process_packet(&mut bytes);
        assert!(report.injected());
        assert!(!report.crc_fixed);
        assert!(Packet::parse_delivered(&bytes).is_err());
    }

    #[test]
    fn once_mode_fires_exactly_once() {
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::Once)
            .compare(0x1818_0000, 0xFFFF_0000)
            .corrupt_toggle(0xFF00_0000)
            .build();
        let mut inj = FifoInjector::new(config);
        let mut first = sample_wire();
        let r1 = inj.process_packet(&mut first);
        assert_eq!(r1.injected_offsets.len(), 1);
        assert!(!inj.is_armed());
        let mut second = sample_wire();
        let r2 = inj.process_packet(&mut second);
        assert!(r2.injected_offsets.is_empty());
        assert_eq!(r2.matches, 1, "matches still observed");
        // Re-arm and it fires again.
        inj.rearm();
        let mut third = sample_wire();
        assert!(inj.process_packet(&mut third).injected());
    }

    #[test]
    fn off_mode_never_fires() {
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::Off)
            .compare(0, 0) // would match everything
            .corrupt_toggle(0xFFFF_FFFF)
            .build();
        let mut inj = FifoInjector::new(config);
        let mut bytes = sample_wire();
        let orig = bytes.clone();
        let report = inj.process_packet(&mut bytes);
        assert!(!report.injected());
        assert_eq!(bytes, orig);
    }

    #[test]
    fn inject_now_corrupts_next_segment() {
        let config = InjectorConfig::builder()
            .corrupt_toggle(0x8000_0000) // flip MSB of the segment
            .build();
        let mut inj = FifoInjector::new(config);
        inj.inject_now();
        let mut bytes = sample_wire();
        let report = inj.process_packet(&mut bytes);
        assert_eq!(report.injected_offsets.iter().collect::<Vec<_>>(), [0]);
        assert_eq!(inj.stats().forced_injections, 1);
        // Route byte 0x01 became 0x81: MSB set on the final route byte.
        assert_eq!(bytes[0], 0x81);
        // Only once.
        let mut more = sample_wire();
        assert!(!inj.process_packet(&mut more).injected());
    }

    #[test]
    fn control_swap_and_match_modes() {
        let mut inj = FifoInjector::new(InjectorConfig::control_swap(0x0F, 0x0C));
        assert_eq!(inj.process_control(0x0F), (0x0C, true));
        assert_eq!(inj.process_control(0x03), (0x03, false));
        assert_eq!(inj.stats().control_injections, 1);
        // Terminators included by default.
        assert_eq!(inj.process_terminator(0x0F), (0x0C, true));
    }

    #[test]
    fn accounting_many_controls_matches_pushing_each() {
        for mode in [MatchMode::On, MatchMode::Once, MatchMode::Off] {
            let mut config = InjectorConfig::control_swap(0x0F, 0x00);
            config.match_mode = mode;
            let mut one_by_one = FifoInjector::new(config);
            let mut counted = one_by_one.clone();
            let mut outs = Vec::new();
            for _ in 0..5 {
                outs.push(one_by_one.process_control(0x0F).0);
            }
            match counted.swaps(0x0F) {
                Some(out) => {
                    counted.swap_controls(5);
                    assert_eq!(outs, [out; 5], "{mode:?}");
                }
                None if !counted.touches(0x0F) => counted.pass_controls(5),
                None => continue,
            }
            assert_eq!(counted.stats(), one_by_one.stats(), "{mode:?}");
        }
    }

    #[test]
    fn control_once_mode() {
        let mut config = InjectorConfig::control_swap(0x03, 0x0F);
        config.match_mode = MatchMode::Once;
        let mut inj = FifoInjector::new(config);
        assert_eq!(inj.process_control(0x03), (0x0F, true));
        assert_eq!(inj.process_control(0x03), (0x03, false));
    }

    #[test]
    fn latency_matches_footnote_5() {
        let inj = FifoInjector::new(InjectorConfig::passthrough());
        // "At a data rate of 640 Mb/s, this translates to about a 250-ns
        // latency."
        assert_eq!(inj.latency(640_000_000), SimDuration::from_ns(250));
        // At full SAN speed (1.28 Gb/s) it halves.
        assert_eq!(inj.latency(1_280_000_000), SimDuration::from_ns(125));
    }

    // --- cycle-accurate pipeline (Figures 2/3) ---

    fn pipeline(compare: CompareUnit, corrupt: CorruptUnit) -> FifoPipeline {
        FifoPipeline::new(
            8,
            2,
            compare,
            corrupt,
            ClockGenerator::from_hz(200_000_000),
        )
    }

    #[test]
    fn pipeline_passthrough_preserves_stream() {
        let mut p = pipeline(CompareUnit::new(0, u32::MAX), CorruptUnit::toggle(0));
        let input: Vec<u32> = (0..16).map(|i| i * 0x0101_0101).collect();
        let output = p.run(&input);
        assert_eq!(output, input);
    }

    #[test]
    fn pipeline_delays_output_by_slack() {
        let mut p = pipeline(CompareUnit::new(0, u32::MAX), CorruptUnit::toggle(0));
        // First two odd cycles: nothing comes out (slack = 2).
        assert_eq!(p.step_odd(Some(0xAAAA_AAAA)), None);
        p.step_even();
        assert_eq!(p.step_odd(Some(0xBBBB_BBBB)), None);
        p.step_even();
        // Third push: the first segment emerges.
        assert_eq!(p.step_odd(Some(0xCCCC_CCCC)), Some(0xAAAA_AAAA));
        p.step_even();
        assert_eq!(p.occupancy(), 2);
    }

    #[test]
    fn pipeline_even_cycle_overwrites_matching_segment() {
        // Figure 3: the compare result is available on the even cycle and
        // the segment is overwritten in the FIFO before it is pulled.
        let mut p = pipeline(
            CompareUnit::new(0xDEAD_BEEF, u32::MAX),
            CorruptUnit::replace(0xFEED_FACE, u32::MAX),
        );
        let out = p.run(&[0x1111_1111, 0xDEAD_BEEF, 0x2222_2222]);
        assert_eq!(out, vec![0x1111_1111, 0xFEED_FACE, 0x2222_2222]);
    }

    #[test]
    fn pipeline_phase_discipline_enforced() {
        let mut p = pipeline(CompareUnit::default(), CorruptUnit::default());
        let _ = p.step_odd(None);
        // Calling step_odd again without step_even is a phase error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.step_odd(None);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn pipeline_cycle_accounting() {
        let mut p = pipeline(CompareUnit::new(0, u32::MAX), CorruptUnit::toggle(0));
        let _ = p.run(&[1, 2, 3, 4]);
        // Two cycles per segment.
        assert_eq!(p.cycles(), 8);
    }
}
