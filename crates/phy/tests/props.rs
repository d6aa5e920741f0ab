//! Randomized property tests for the physical-layer substrate, driven by
//! seeded loops over [`DetRng`] (no external dependencies).

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi_phy::b8b10::{decode, encode, Byte8, Decoder, Disparity, Encoder};
use netfi_phy::serial::{Parity, UartConfig};
use netfi_phy::symbol::ControlSymbol;
use netfi_phy::Link;
use netfi_sim::DetRng;

const CASES: usize = 256;

fn random_bytes(rng: &mut DetRng, max_len: usize, min_len: usize) -> Vec<u8> {
    let len = min_len + rng.gen_index(max_len - min_len + 1);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Any byte stream survives the full 8b/10b encode/decode pipeline.
#[test]
fn b8b10_stream_roundtrip() {
    let mut rng = DetRng::new(0x9447_0001);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 512, 0);
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for &b in &data {
            let code = enc.push(Byte8::Data(b)).unwrap();
            assert_eq!(dec.push(code).unwrap(), Byte8::Data(b));
        }
        assert_eq!(enc.disparity(), dec.disparity());
    }
}

/// The running disparity never drifts beyond ±2 regardless of input.
#[test]
fn b8b10_disparity_bounded() {
    let mut rng = DetRng::new(0x9447_0002);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 512, 1);
        let mut enc = Encoder::new();
        let mut cumulative: i32 = 0;
        for &b in &data {
            let code = enc.push(Byte8::Data(b)).unwrap();
            cumulative += 2 * (code.count_ones() as i32) - 10;
            assert!(cumulative.abs() <= 2, "disparity drifted to {cumulative}");
        }
    }
}

/// Single-character encode/decode agree on the post-character disparity
/// for every byte and starting disparity.
#[test]
fn b8b10_disparity_tracking_agrees() {
    for b in 0u8..=255 {
        for rd in [Disparity::Plus, Disparity::Minus] {
            let (code, rd_enc) = encode(Byte8::Data(b), rd).unwrap();
            let (byte, rd_dec) = decode(code, rd).unwrap();
            assert_eq!(byte, Byte8::Data(b));
            assert_eq!(rd_enc, rd_dec);
        }
    }
}

/// Tolerant decode is a superset of exact decode and never maps an exact
/// encoding to a different symbol.
#[test]
fn control_decode_tolerant_extends_exact() {
    for code in 0u8..=255 {
        if let Some(exact) = ControlSymbol::decode_exact(code) {
            assert_eq!(ControlSymbol::decode_tolerant(code), Some(exact));
        }
    }
}

/// Codes at Hamming distance >= 2 from every symbol are rejected by the
/// tolerant decoder (except the paper-cited overrides).
#[test]
fn control_decode_rejects_distant() {
    let overrides = [0x08u8, 0x02];
    for code in 0u8..=255 {
        let min_dist = ControlSymbol::ALL
            .iter()
            .map(|s| (code ^ s.encode()).count_ones())
            .min()
            .unwrap();
        if min_dist >= 2 && !overrides.contains(&code) {
            assert_eq!(ControlSymbol::decode_tolerant(code), None);
        }
    }
}

/// UART frames roundtrip for every byte, parity and stop-bit choice.
#[test]
fn uart_roundtrip() {
    for byte in 0u8..=255 {
        for parity in [Parity::None, Parity::Even, Parity::Odd] {
            for stop in 1u8..3 {
                let uart = UartConfig::new(115_200, parity, stop);
                assert_eq!(uart.deframe(&uart.frame(byte)), Ok(byte));
            }
        }
    }
}

/// With parity enabled, any single flipped data bit is detected.
#[test]
fn uart_parity_catches_single_data_flip() {
    let uart = UartConfig::new(9600, Parity::Even, 1);
    for byte in 0u8..=255 {
        for bit in 1usize..9 {
            let mut frame = uart.frame(byte);
            frame.flip_bit(bit); // bits 1..=8 are data
            assert!(uart.deframe(&frame).is_err());
        }
    }
}

/// Serialization time is additive and monotone in frame size.
#[test]
fn link_timing_monotone() {
    let mut rng = DetRng::new(0x9447_0004);
    for _ in 0..CASES {
        let a = rng.gen_index(4096);
        let b = rng.gen_index(4096);
        let link = Link::myrinet_640(2.0);
        assert_eq!(
            link.transfer_time(a) + link.transfer_time(b),
            link.transfer_time(a + b)
        );
        if a < b {
            assert!(link.frame_latency(a) < link.frame_latency(b));
        }
    }
}

/// The const `DECODE` table is bit-identical to the encoder's inverse: a
/// reference map rebuilt here from every `encode` output must agree with
/// `decode` on all 1024 codes. Disparity acceptance is checked at
/// character granularity (the implementation's documented rule): a
/// balanced code decodes under either running disparity, an imbalanced
/// one only under the disparity it corrects.
#[test]
fn b8b10_decode_table_matches_encoder_inverse() {
    use std::collections::BTreeMap;
    let mut reference: BTreeMap<u16, Byte8> = BTreeMap::new();
    for rd in [Disparity::Minus, Disparity::Plus] {
        for b in 0..=255u8 {
            for byte in [Byte8::Data(b), Byte8::Special(b)] {
                if let Ok((code, _)) = encode(byte, rd) {
                    let prior = reference.insert(code, byte);
                    assert!(
                        prior.is_none_or(|p| p == byte),
                        "code {code:#012b} is ambiguous: {prior:?} vs {byte:?}"
                    );
                }
            }
        }
    }
    // 256 data bytes times two disparities gives at most 512 distinct
    // codes; balanced codes coincide across disparities, and the valid K
    // characters add a few more.
    assert!(reference.len() > 256, "table too small: {}", reference.len());
    for code in 0..1u16 << 10 {
        let imbalance = 2 * i32::try_from(code.count_ones()).unwrap() - 10;
        for rd in [Disparity::Minus, Disparity::Plus] {
            let expected = reference.get(&code).copied().and_then(|byte| {
                match (rd, imbalance) {
                    (_, 0) => Some((byte, rd)),
                    (Disparity::Minus, 2) => Some((byte, Disparity::Plus)),
                    (Disparity::Plus, -2) => Some((byte, Disparity::Minus)),
                    _ => None,
                }
            });
            assert_eq!(
                decode(code, rd).ok(),
                expected,
                "code {code:#012b} under {rd:?}"
            );
        }
    }
}
