//! Randomized property tests for the injector core, driven by seeded
//! loops over [`DetRng`] (no external dependencies).

use netfi_core::command::{parse_command, write_command, Command, CommandDecoder, DirSelect};
use netfi_core::config::InjectorConfig;
use netfi_core::corrupt::{CorruptMode, CorruptUnit};
use netfi_core::fifo::{FifoInjector, FifoPipeline};
use netfi_core::trigger::{CompareUnit, MatchMode};
use netfi_myrinet::crc8;
use netfi_phy::clock::ClockGenerator;
use netfi_sim::DetRng;

const CASES: usize = 256;

fn random_bytes(rng: &mut DetRng, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = min_len + rng.gen_index(max_len - min_len + 1);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

fn random_command(rng: &mut DetRng) -> Command {
    match rng.gen_index(15) {
        0 => Command::SelectDirection(match rng.gen_index(3) {
            0 => DirSelect::A,
            1 => DirSelect::B,
            _ => DirSelect::Both,
        }),
        1 => Command::MatchMode(match rng.gen_index(3) {
            0 => MatchMode::Off,
            1 => MatchMode::On,
            _ => MatchMode::Once,
        }),
        2 => Command::CompareData(rng.next_u32()),
        3 => Command::CompareMask(rng.next_u32()),
        4 => Command::CorruptMode(if rng.gen_bool(0.5) {
            CorruptMode::Toggle
        } else {
            CorruptMode::Replace
        }),
        5 => Command::CorruptData(rng.next_u32()),
        6 => Command::CorruptMask(rng.next_u32()),
        7 => Command::CrcRecompute(rng.gen_bool(0.5)),
        8 => Command::ControlSwap {
            from: rng.next_u32() as u8,
            mask: rng.next_u32() as u8,
            to: rng.next_u32() as u8,
        },
        9 => Command::ControlOff,
        10 => Command::RandomRate(rng.next_u32()),
        11 => Command::InjectNow,
        12 => Command::Rearm,
        13 => Command::QueryStats,
        _ => Command::ResetStats,
    }
}

/// Reference implementation of the byte-sliding window scan.
fn naive_scan(compare: CompareUnit, bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..bytes.len().saturating_sub(3) {
        let w = u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        if (w ^ compare.compare_data) & compare.compare_mask == 0 {
            out.push(i);
        }
    }
    out
}

/// The trigger scan agrees with the naive reference for any pattern, mask
/// and stream.
#[test]
fn scan_matches_reference() {
    let mut rng = DetRng::new(0xC04E_0001);
    for _ in 0..CASES {
        let data = rng.next_u32();
        let mask = rng.next_u32();
        let stream = random_bytes(&mut rng, 0, 256);
        let cmp = CompareUnit::new(data, mask);
        assert_eq!(cmp.scan(&stream), naive_scan(cmp, &stream));
    }
}

/// Toggle corruption is an involution; replace is idempotent.
#[test]
fn corruption_algebra() {
    let mut rng = DetRng::new(0xC04E_0002);
    for _ in 0..CASES {
        let data = rng.next_u32();
        let mask = rng.next_u32();
        let window = rng.next_u32();
        let toggle = CorruptUnit::toggle(data);
        assert_eq!(toggle.apply(toggle.apply(window)), window);
        let replace = CorruptUnit::replace(data, mask);
        assert_eq!(replace.apply(replace.apply(window)), replace.apply(window));
        // Replace only changes masked bits.
        assert_eq!(replace.apply(window) & !mask, window & !mask);
    }
}

/// apply_at never writes outside the window or the buffer.
#[test]
fn apply_at_is_contained() {
    let mut rng = DetRng::new(0xC04E_0003);
    for _ in 0..CASES {
        let buf = random_bytes(&mut rng, 1, 64);
        let data = rng.next_u32();
        let unit = CorruptUnit::toggle(data);
        let offset = rng.gen_index(buf.len() + 4);
        let mut out = buf.clone();
        unit.apply_at(&mut out, offset);
        for (i, (&a, &b)) in buf.iter().zip(&out).enumerate() {
            if i < offset || i >= offset + 4 {
                assert_eq!(a, b, "byte {i} outside the window changed");
            }
        }
    }
}

/// With CRC recomputation enabled, any triggered corruption still yields
/// a CRC-valid image ("recalculating the correct CRC value to transmit
/// immediately before the end-of-frame character").
#[test]
fn crc_fix_always_repairs() {
    let mut rng = DetRng::new(0xC04E_0004);
    for _ in 0..CASES {
        let mut wire = random_bytes(&mut rng, 4, 128);
        let corrupt = rng.next_u32();
        // Build a wire image with a known CRC, plant a pattern, corrupt it.
        let crc = crc8::checksum(&wire);
        wire.push(crc);
        let at = rng.gen_index(wire.len() - 4);
        let window = u32::from_be_bytes([wire[at], wire[at + 1], wire[at + 2], wire[at + 3]]);
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::Once)
            .compare(window, 0xFFFF_FFFF)
            .corrupt_toggle(corrupt)
            .recompute_crc(true)
            .build();
        let mut injector = FifoInjector::new(config);
        let report = injector.process_packet(&mut wire);
        assert!(report.injected());
        assert!(crc8::verify(&wire), "CRC not repaired");
    }
}

/// Once mode injects at most one window per arming, across any number of
/// packets.
#[test]
fn once_mode_fires_at_most_once() {
    let mut rng = DetRng::new(0xC04E_0005);
    for _ in 0..CASES {
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::Once)
            .compare(0, 0) // matches every window
            .corrupt_toggle(0xFF)
            .build();
        let mut injector = FifoInjector::new(config);
        let mut total = 0;
        for _ in 0..1 + rng.gen_index(7) {
            let mut p = random_bytes(&mut rng, 0, 64);
            total += injector.process_packet(&mut p).injected_offsets.len();
        }
        assert!(total <= 1, "once-mode injected {total} times");
    }
}

/// Off mode never corrupts anything.
#[test]
fn off_mode_is_identity() {
    let mut rng = DetRng::new(0xC04E_0006);
    for _ in 0..CASES {
        let stream = random_bytes(&mut rng, 0, 128);
        let data = rng.next_u32();
        let mask = rng.next_u32();
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::Off)
            .compare(data, mask)
            .corrupt_toggle(0xFFFF_FFFF)
            .build();
        let mut injector = FifoInjector::new(config);
        let mut out = stream.clone();
        let report = injector.process_packet(&mut out);
        assert!(!report.injected());
        assert_eq!(out, stream);
    }
}

/// A command's wire syntax, as its own line.
fn rendered(cmd: &Command) -> Vec<u8> {
    let mut line = Vec::new();
    write_command(cmd, &mut line);
    line
}

/// The command language roundtrips: render then parse is identity.
#[test]
fn command_render_parse_roundtrip() {
    let mut rng = DetRng::new(0xC04E_0007);
    for _ in 0..CASES {
        let cmd = random_command(&mut rng);
        let line = String::from_utf8(rendered(&cmd)).unwrap();
        assert_eq!(parse_command(&line), Ok(cmd));
    }
}

/// Serial line noise is a typed error, never a panic: 2×10⁵ bytes, mostly
/// mutated command lines (a byte replaced, inserted or deleted, high bytes
/// and signs among the replacements) between raw runs, fed one at a time.
/// The line buffer stays bounded, and every line that parses renders back
/// to itself, up to the case of its hex digits.
#[test]
fn serial_noise_decodes_to_commands_or_errors() {
    const NOISE: &[u8] = b"\n\r;+- *0aFfSsCDMO\xFF\xC3\x80";
    let mut rng = DetRng::new(0x5E41_A100);
    let mut stream: Vec<u8> = Vec::new();
    while stream.len() < 200_000 {
        let mut line = rendered(&random_command(&mut rng));
        for _ in 0..rng.gen_index(3) {
            let at = rng.gen_index(line.len() + 1);
            let byte = *rng.choose(NOISE).unwrap_or(&0);
            match rng.gen_index(3) {
                0 if at < line.len() => line[at] = byte,
                1 => line.insert(at, byte),
                _ if at < line.len() => {
                    line.remove(at);
                }
                _ => {}
            }
        }
        if rng.gen_index(8) == 0 {
            line.extend((0..rng.gen_index(80)).map(|_| rng.next_u32() as u8));
        }
        stream.extend_from_slice(&line);
        stream.push(*rng.choose(b"\n\r;").unwrap_or(&b'\n'));
    }

    let (mut dec, mut line, mut parsed) = (CommandDecoder::new(), Vec::new(), 0);
    for &byte in &stream {
        match dec.feed(byte) {
            None if matches!(byte, b'\n' | b'\r' | b';') => assert!(line.is_empty()),
            None => line.push(byte),
            Some(Err(e)) => {
                assert!(e.line().chars().count() <= 64, "buffer overran: {:?}", e.line());
                line.clear();
            }
            Some(Ok(cmd)) => {
                let rendered = rendered(&cmd);
                let same = rendered.len() == line.len()
                    && rendered.iter().zip(&line).all(|(r, l)| {
                        r == l || (r.is_ascii_hexdigit() && r.eq_ignore_ascii_case(l))
                    });
                assert!(same, "{:?} parsed as {cmd:?}", String::from_utf8_lossy(&line));
                parsed += 1;
                line.clear();
            }
        }
    }
    assert!(parsed > 5_000, "too few valid lines drawn: {parsed}");
}

/// The cycle-accurate pipeline is a faithful FIFO when nothing matches:
/// output equals input, in order, for any stream and slack.
#[test]
fn pipeline_is_transparent_fifo() {
    let mut rng = DetRng::new(0xC04E_0008);
    for _ in 0..CASES {
        let slack = 1 + rng.gen_index(6);
        let len = rng.gen_index(128);
        let mut p = FifoPipeline::new(
            8,
            slack,
            CompareUnit::new(0xDEAD_BEEF, u32::MAX),
            CorruptUnit::replace(0, u32::MAX),
            ClockGenerator::from_hz(100_000_000),
        );
        // Ensure the match value never occurs.
        let stream: Vec<u32> = (0..len)
            .map(|_| match rng.next_u32() {
                0xDEAD_BEEF => 0,
                x => x,
            })
            .collect();
        let out = p.run(&stream);
        assert_eq!(out, stream);
    }
}

/// Latency scales inversely with the link rate and is always the paper's
/// five segment times.
#[test]
fn latency_is_five_segments() {
    let mut rng = DetRng::new(0xC04E_0009);
    for _ in 0..CASES {
        let rate = rng.gen_range(1_000_000..10_000_000_000);
        let injector = FifoInjector::new(InjectorConfig::passthrough());
        let seg = netfi_sim::SimDuration::from_bits(32, rate);
        assert_eq!(injector.latency(rate), seg * 5);
    }
}
