//! Randomized property tests for the Fibre Channel substrate, driven by
//! seeded loops over [`DetRng`] (no external dependencies).

use netfi_fc::crc32;
use netfi_fc::frame::{decode_line, FcAddress, FcError, FcFrame, FcHeader};
use netfi_phy::b8b10::{Decoder, Encoder};
use netfi_sim::DetRng;

const CASES: usize = 256;

fn random_bytes(rng: &mut DetRng, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = min_len + rng.gen_index(max_len - min_len + 1);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

fn random_header(rng: &mut DetRng) -> FcHeader {
    FcHeader {
        r_ctl: rng.next_u32() as u8,
        d_id: FcAddress::new(rng.next_u32()),
        s_id: FcAddress::new(rng.next_u32()),
        type_field: rng.next_u32() as u8,
        seq_id: rng.next_u32() as u8,
        seq_cnt: rng.next_u32() as u16,
        ox_id: rng.next_u32() as u16,
        rx_id: rng.next_u32() as u16,
    }
}

/// CRC-32 detects any single bit flip.
#[test]
fn crc32_detects_single_flip() {
    let mut rng = DetRng::new(0xFC32_0001);
    for _ in 0..CASES {
        let mut buf = random_bytes(&mut rng, 1, 256);
        let crc = crc32::checksum(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let bit = rng.gen_index(buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        assert!(!crc32::verify(&buf));
    }
}

/// Streaming CRC-32 equals one-shot for any split.
#[test]
fn crc32_streaming_equivalence() {
    let mut rng = DetRng::new(0xFC32_0002);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 0, 512);
        let cut = if data.is_empty() {
            0
        } else {
            rng.gen_index(data.len())
        };
        let mut acc = crc32::Crc32::new();
        acc.update(&data[..cut]);
        acc.update(&data[cut..]);
        assert_eq!(acc.finish(), crc32::checksum(&data));
    }
}

/// Headers roundtrip for arbitrary field values (addresses masked to 24
/// bits by construction).
#[test]
fn header_roundtrip() {
    let mut rng = DetRng::new(0xFC32_0003);
    for _ in 0..CASES {
        let h = random_header(&mut rng);
        assert_eq!(FcHeader::decode(&h.encode()), h);
    }
}

/// Whole frames survive the full 8b/10b line roundtrip for arbitrary
/// headers and payloads, including back-to-back frames sharing one
/// running disparity.
#[test]
fn frame_line_roundtrip() {
    let mut rng = DetRng::new(0xFC32_0004);
    for _ in 0..CASES {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for _ in 0..1 + rng.gen_index(3) {
            let header = random_header(&mut rng);
            let payload = random_bytes(&mut rng, 0, 128);
            let frame = FcFrame {
                sof: netfi_fc::frame::Sof::Normal3,
                header,
                payload: payload.into(),
                eof: netfi_fc::frame::Eof::Normal,
            };
            let line = frame.to_line(&mut enc).unwrap();
            let (decoded, consumed) = decode_line(&line, &mut dec).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(consumed, line.len());
        }
    }
}

/// Corrupting any body byte (without fixing the CRC) is detected.
#[test]
fn frame_body_corruption_detected() {
    let mut rng = DetRng::new(0xFC32_0005);
    for _ in 0..CASES {
        let payload = random_bytes(&mut rng, 1, 128);
        let flip = 1 + rng.gen_index(255) as u8;
        let frame = FcFrame::data(FcAddress::new(1), FcAddress::new(2), 0, payload);
        let mut body = frame.body();
        let idx = rng.gen_index(body.len());
        body[idx] ^= flip;
        let line = frame.line_with_body(&body, &mut Encoder::new()).unwrap();
        let mut dec = Decoder::new();
        assert_eq!(decode_line(&line, &mut dec), Err(FcError::BadCrc));
    }
}
