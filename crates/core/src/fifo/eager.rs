//! The eager datapath, kept as the oracle of the differential test below.
//!
//! It is the packet half of the injector the way it worked before an armed
//! packet cost O(1): the plan lists every offset the trigger fires at, one
//! by one; any plan that fires copies the packet (copy-on-write) and runs
//! the corruption at each offset, whether or not that can change a byte;
//! and the capture memory builds one record per offset, at once, into a
//! ring of records. The test runs seeded cases through both datapaths and
//! both capture memories and compares everything either one reports.

use netfi_obs::FlightRecorder;
use netfi_sim::{DetRng, SharedBytes, SimTime};

use super::{FifoInjector, FifoStats};
use crate::capture::{CaptureBuffer, CaptureRecord};
use crate::config::InjectorConfig;
use crate::corrupt::CorruptUnit;
use crate::random::{RandomInject, RandomUnit};
use crate::trigger::{CompareUnit, MatchMode};
use netfi_myrinet::crc8;

/// What the eager datapath reports for one packet.
#[derive(Debug, Default)]
struct EagerReport {
    matches: u64,
    injected_offsets: Vec<usize>,
    crc_fixed: bool,
}

/// The eager plan: every offset listed.
#[derive(Debug, Default)]
struct EagerPlan {
    matches: u64,
    forced: bool,
    fire_offsets: Vec<usize>,
    random_flips: Vec<(usize, usize, u8)>,
}

impl EagerPlan {
    fn mutates(&self) -> bool {
        self.forced || !self.fire_offsets.is_empty() || !self.random_flips.is_empty()
    }
}

/// The packet half of the eager injector, with state of its own.
#[derive(Debug)]
struct EagerInjector {
    config: InjectorConfig,
    armed: bool,
    inject_now_pending: bool,
    random: RandomUnit,
    stats: FifoStats,
}

impl EagerInjector {
    fn new(config: InjectorConfig) -> EagerInjector {
        EagerInjector {
            config,
            armed: true,
            inject_now_pending: false,
            random: RandomUnit::new(
                config.random.unwrap_or(RandomInject { threshold: 0 }),
                FifoInjector::LFSR_SEED,
            ),
            stats: FifoStats::default(),
        }
    }

    /// Reconfiguration keeps the counters and a pending `inject now`.
    fn set_config(&mut self, config: InjectorConfig) {
        *self = EagerInjector {
            inject_now_pending: self.inject_now_pending,
            stats: self.stats,
            ..EagerInjector::new(config)
        };
    }

    fn may_fire(&self) -> bool {
        match self.config.match_mode {
            MatchMode::Off => false,
            MatchMode::On => true,
            MatchMode::Once => self.armed,
        }
    }

    fn process_packet_shared(&mut self, bytes: &mut SharedBytes) -> EagerReport {
        let plan = self.plan_packet(bytes);
        let mut report = EagerReport {
            matches: plan.matches,
            ..EagerReport::default()
        };
        if plan.mutates() {
            self.apply_plan(bytes.make_mut(), &plan, &mut report);
        }
        report
    }

    fn plan_packet(&mut self, bytes: &[u8]) -> EagerPlan {
        let segments = bytes.len().div_ceil(4) as u64;
        self.stats.packets += 1;
        self.stats.segments += segments;
        self.stats.cycles += segments * 2;
        let mut plan = EagerPlan::default();
        if self.inject_now_pending {
            self.inject_now_pending = false;
            plan.forced = true;
            self.stats.forced_injections += 1;
            self.stats.injections += 1;
        }
        let compare = self.config.compare;
        if compare.compare_mask == 0 {
            let windows = bytes.len().saturating_sub(3);
            plan.matches += windows as u64;
            for offset in 0..windows {
                if !self.may_fire() {
                    break;
                }
                plan.fire_offsets.push(offset);
                self.stats.injections += 1;
                if self.config.match_mode == MatchMode::Once {
                    self.armed = false;
                }
            }
        } else {
            compare.scan_each(bytes, |offset| {
                plan.matches += 1;
                if self.may_fire() {
                    plan.fire_offsets.push(offset);
                    self.stats.injections += 1;
                    if self.config.match_mode == MatchMode::Once {
                        self.armed = false;
                    }
                }
            });
        }
        self.stats.matches += plan.matches;
        if self.config.random.is_some() {
            for seg in 0..segments as usize {
                if let Some(bit) = self.random.draw() {
                    let idx = seg * 4 + 3 - (bit / 8) as usize;
                    if idx < bytes.len() {
                        plan.random_flips.push((seg * 4, idx, 1 << (bit % 8)));
                        self.stats.random_injections += 1;
                        self.stats.injections += 1;
                    }
                }
            }
        }
        plan
    }

    fn apply_plan(&mut self, bytes: &mut [u8], plan: &EagerPlan, report: &mut EagerReport) {
        if plan.forced {
            self.config.corrupt.apply_at(bytes, 0);
            report.injected_offsets.push(0);
        }
        for &offset in &plan.fire_offsets {
            self.config.corrupt.apply_at(bytes, offset);
            report.injected_offsets.push(offset);
        }
        for &(segment_offset, byte_index, bit_mask) in &plan.random_flips {
            bytes[byte_index] ^= bit_mask;
            report.injected_offsets.push(segment_offset);
        }
        if self.config.crc_recompute && bytes.len() >= 2 {
            let last = bytes.len() - 1;
            bytes[last] = crc8::checksum(&bytes[..last]);
            report.crc_fixed = true;
            self.stats.crc_recomputes += 1;
        }
    }
}

/// The four compare masks the test covers: match-everything, one byte,
/// the paper's half word, and the full word.
const MASKS: [u32; 4] = [0, 0xFF, 0xFFFF_0000, 0xFFFF_FFFF];

/// A configuration drawn over every axis the plan depends on. Bytes come
/// from a four-letter `alphabet`, so masked compares find matches.
fn draw_config(rng: &mut DetRng, alphabet: &[u8; 4]) -> InjectorConfig {
    let letter = |rng: &mut DetRng| alphabet[rng.gen_index(4)];
    let word = u32::from_be_bytes([letter(rng), letter(rng), letter(rng), letter(rng)]);
    let identity = rng.gen_bool(0.5);
    let bits = rng.next_u32() | 1;
    let corrupt = match (rng.gen_bool(0.5), identity) {
        (true, true) => CorruptUnit::toggle(0),
        (true, false) => CorruptUnit::toggle(bits),
        (false, true) => CorruptUnit::replace(rng.next_u32(), 0),
        (false, false) => CorruptUnit::replace(rng.next_u32(), bits),
    };
    InjectorConfig {
        match_mode: [MatchMode::Off, MatchMode::On, MatchMode::Once][rng.gen_index(3)],
        compare: CompareUnit::new(word, MASKS[rng.gen_index(4)]),
        corrupt,
        crc_recompute: rng.gen_bool(0.5),
        random: rng
            .gen_bool(0.25)
            .then(|| RandomInject::with_probability([0.02, 0.5][rng.gen_index(2)])),
        ..InjectorConfig::default()
    }
}

/// A packet 0–1,100 bytes long, short ones (under 4 included) and long
/// ones both common.
fn draw_packet(rng: &mut DetRng, alphabet: &[u8; 4]) -> Vec<u8> {
    let len = match rng.gen_index(4) {
        0 => rng.gen_index(8),
        1 | 2 => rng.gen_index(128),
        _ => rng.gen_index(1101),
    };
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.9) {
                alphabet[rng.gen_index(4)]
            } else {
                rng.next_u32() as u8
            }
        })
        .collect()
}

/// The eager capture memory, fed one record per offset.
fn record_eagerly(
    ring: &mut FlightRecorder<CaptureRecord>,
    time: SimTime,
    original: &[u8],
    corrupted: &[u8],
    offsets: &[usize],
) {
    for &offset in offsets {
        ring.push(time, CaptureRecord::new(original, corrupted, offset));
    }
}

#[test]
fn the_o1_plan_and_lazy_capture_match_the_eager_path() {
    let _copies = crate::copy_count_guard();
    let root = DetRng::new(0x1A2B_EA6E);
    // What the draw reached, so a change to it cannot thin the coverage
    // unnoticed: [identity no-op runs, no-op runs of 535 or more, CRC
    // repairs of an identity plan, `once` firings, random flips, forced
    // injections, masked matches, cases whose ring wrapped, by capacity].
    let mut reached = [0u64; 10];
    for case in 0..4096u64 {
        let mut rng = root.fork(case);
        let mut alphabet = [0u8; 4];
        rng.fill_bytes(&mut alphabet);
        let sized = rng.gen_index(3);
        let capacity = [1, 7, 1024][sized];
        let mut config = draw_config(&mut rng, &alphabet);
        let mut lazy = FifoInjector::new(config);
        let mut eager = EagerInjector::new(config);
        let mut capture = CaptureBuffer::new(capacity);
        let mut ring = FlightRecorder::new(capacity);
        for packet in 0..1 + rng.gen_index(6) {
            let at = format!("case {case:#x}, packet {packet}");
            match rng.gen_index(8) {
                0 => {
                    config = draw_config(&mut rng, &alphabet);
                    lazy.set_config(config);
                    eager.set_config(config);
                }
                1 => {
                    lazy.rearm();
                    eager.armed = true;
                }
                2 => {
                    lazy.inject_now();
                    eager.inject_now_pending = true;
                    reached[5] += 1;
                }
                _ => {}
            }
            let once_armed = eager.armed && config.match_mode == MatchMode::Once;
            let flips = eager.stats.random_injections;
            let original = SharedBytes::from(draw_packet(&mut rng, &alphabet));

            let mut bytes = original.clone();
            let copies = SharedBytes::copy_count();
            let report = lazy.process_packet_shared(&mut bytes);
            let writes_nothing =
                config.corrupt.is_identity() && config.random.is_none() && !config.crc_recompute;
            if writes_nothing {
                assert_eq!(
                    SharedBytes::copy_count(),
                    copies,
                    "{at}: a no-op plan copied"
                );
                assert_eq!(bytes.as_ptr(), original.as_ptr(), "{at}");
            }

            let mut eager_bytes = original.clone();
            let expected = eager.process_packet_shared(&mut eager_bytes);
            let offsets: Vec<usize> = report.injected_offsets.iter().collect();
            assert_eq!(&bytes[..], &eager_bytes[..], "{at}: bytes");
            assert_eq!(offsets, expected.injected_offsets, "{at}: offsets");
            assert_eq!(report.injected_offsets.len(), offsets.len(), "{at}");
            assert_eq!(report.matches, expected.matches, "{at}: matches");
            assert_eq!(report.crc_fixed, expected.crc_fixed, "{at}: crc_fixed");
            assert_eq!(lazy.stats(), eager.stats, "{at}: stats");
            assert_eq!(lazy.is_armed(), eager.armed, "{at}: once latch");

            if config.corrupt.is_identity() && config.compare.compare_mask == 0 {
                reached[0] += u64::from(offsets.len() > 1);
                reached[1] += u64::from(offsets.len() >= 535);
                reached[2] += u64::from(report.crc_fixed);
            }
            reached[3] += u64::from(once_armed && !eager.armed);
            reached[4] += u64::from(eager.stats.random_injections > flips);
            reached[6] += u64::from(config.compare.compare_mask != 0 && report.matches > 0);

            let time = SimTime::from_ns(packet as u64);
            record_eagerly(
                &mut ring,
                time,
                &original,
                &eager_bytes,
                &expected.injected_offsets,
            );
            capture.record(time, &original, &bytes, &report.injected_offsets);
            assert_eq!(capture.len(), ring.len(), "{at}: len");
            assert_eq!(capture.iter().last(), ring.last().map(|r| r.value), "{at}: last");
        }
        let records: Vec<CaptureRecord> = ring.iter().map(|r| r.value).collect();
        assert_eq!(
            capture.iter().collect::<Vec<_>>(),
            records,
            "case {case:#x}: iter"
        );
        let rendered: String = ring
            .iter()
            .map(|r| format!("[{}] {}\n", r.time, r.value))
            .collect();
        assert_eq!(capture.render(), rendered, "case {case:#x}: render");
        if ring.dropped() > 0 {
            reached[7 + sized] += 1;
        }
    }
    println!("reached: {reached:?}");
    assert!(
        reached.iter().all(|&n| n >= 8),
        "coverage thinned: {reached:?}"
    );
}

#[test]
fn an_armed_no_op_fires_everywhere_and_copies_nothing() {
    let _copies = crate::copy_count_guard();
    let mut lazy = FifoInjector::new(InjectorConfig::control_swap(0x0F, 0x0C));
    let original = SharedBytes::from(vec![0x5A; 538]);
    let mut bytes = original.clone();
    let copies = SharedBytes::copy_count();
    let report = lazy.process_packet_shared(&mut bytes);
    assert_eq!(SharedBytes::copy_count(), copies);
    assert_eq!(bytes.as_ptr(), original.as_ptr());
    assert_eq!(report.injected_offsets.len(), 535);
    assert_eq!(report.injected_offsets.iter().last(), Some(534));
    assert_eq!((lazy.stats().matches, lazy.stats().injections), (535, 535));
    // The same no-op with a CRC recompute writes the CRC byte.
    let mut config = InjectorConfig::control_swap(0x0F, 0x0C);
    config.crc_recompute = true;
    lazy.set_config(config);
    let report = lazy.process_packet_shared(&mut bytes);
    assert!(report.crc_fixed);
    assert_eq!(SharedBytes::copy_count(), copies + 1);
    assert_eq!(bytes[537], crc8::checksum(&original[..537]));
}
