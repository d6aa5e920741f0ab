//! The injector core is media-agnostic (§2 footnote 1, §3.4 footnote 3):
//! these tests push both Myrinet packets and Fibre Channel frames through
//! the *same* `FifoInjector` datapath and verify each medium's own
//! protection (CRC-8 vs CRC-32 + 8b/10b) reacts as the paper describes.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::fc::crc32;
use netfi::fc::frame::{decode_line, FcAddress, FcError, FcFrame};
use netfi::injector::config::InjectorConfig;
use netfi::injector::{FifoInjector, MatchMode};
use netfi::myrinet::packet::{route_to_host, Packet, PacketType};
use netfi::phy::b8b10::{Decoder, Encoder};

fn shared_core() -> FifoInjector {
    FifoInjector::new(
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(u32::from_be_bytes(*b"BEEF"), 0xFFFF_FFFF)
            .corrupt_toggle(0x0000_0001)
            .build(),
    )
}

#[test]
fn same_core_corrupts_myrinet_and_fc() {
    let mut core = shared_core();

    // Myrinet side: the CRC-8 catches the flip.
    let pkt = Packet::new(
        vec![route_to_host(1)],
        PacketType::DATA,
        b"feed me BEEF today".to_vec(),
    );
    let mut wire = pkt.encode();
    let report = core.process_packet(&mut wire);
    assert_eq!(report.injected_offsets.len(), 1);
    assert!(Packet::parse_delivered(&wire).is_err(), "CRC-8 must fail");

    // Fibre Channel side: the CRC-32 catches the same flip.
    let frame = FcFrame::data(
        FcAddress::new(1),
        FcAddress::new(2),
        0,
        b"feed me BEEF today".to_vec(),
    );
    let mut body = frame.body();
    let report = core.process_packet(&mut body);
    assert_eq!(report.injected_offsets.len(), 1);
    let line = frame.line_with_body(&body, &mut Encoder::new()).unwrap();
    assert_eq!(decode_line(&line, &mut Decoder::new()), Err(FcError::BadCrc));

    assert_eq!(core.stats().packets, 2);
    assert_eq!(core.stats().injections, 2);
}

#[test]
fn resealed_fc_crc32_carries_the_corruption_to_the_receiver() {
    // A trigger hit, resealed: the receiver decodes a CRC-valid frame
    // whose payload carries the flipped bit.
    let mut core = shared_core();
    let frame = FcFrame::data(
        FcAddress::new(1),
        FcAddress::new(2),
        0,
        b"feed me BEEF today".to_vec(),
    );
    let mut body = frame.body();
    assert!(core.process_packet(&mut body).injected());
    crc32::reseal(&mut body);
    let line = frame.line_with_body(&body, &mut Encoder::new()).unwrap();
    let (rx, _) = decode_line(&line, &mut Decoder::new()).unwrap();
    assert_eq!(&rx.payload[..], b"feed me BEEG today");
    assert_eq!(rx.header, frame.header);

    // A random SEU on every segment, not resealed: the CRC-32 rejects it.
    let mut seu = FifoInjector::new(InjectorConfig::builder().random_seu(1.0).build());
    let frame = FcFrame::data(FcAddress::new(1), FcAddress::new(2), 0, vec![0u8; 64]);
    let mut body = frame.body();
    assert!(seu.process_packet(&mut body).injected(), "p = 1.0 must flip bits");
    assert_ne!(body, frame.body());
    let line = frame.line_with_body(&body, &mut Encoder::new()).unwrap();
    assert_eq!(decode_line(&line, &mut Decoder::new()), Err(FcError::BadCrc));
}

#[test]
fn fc_line_code_detects_raw_10bit_corruption() {
    // Corrupting below the 8b/10b boundary (which the real device cannot
    // do — it sits behind the PHY) is caught even earlier, by the line
    // code itself.
    let frame = FcFrame::data(FcAddress::new(1), FcAddress::new(2), 0, vec![0xAA; 32]);
    let mut enc = Encoder::new();
    let mut line = frame.to_line(&mut enc).unwrap();
    // All-zeros is never a valid transmission character. (Note that the
    // bitwise complement of a valid codeword is often the same character's
    // opposite-disparity encoding, which would decode cleanly!)
    line[12] = 0;
    let mut dec = Decoder::new();
    assert!(matches!(
        decode_line(&line, &mut dec),
        Err(FcError::LineCode) | Err(FcError::Framing)
    ));
}

#[test]
fn passthrough_core_preserves_both_media() {
    let mut core = FifoInjector::new(InjectorConfig::passthrough());

    let pkt = Packet::new(vec![route_to_host(2)], PacketType::DATA, b"clean".to_vec());
    let mut wire = pkt.encode();
    let orig = wire.clone();
    assert!(!core.process_packet(&mut wire).injected());
    assert_eq!(wire, orig);
    assert!(Packet::parse_delivered(&wire).is_ok());

    let frame = FcFrame::data(FcAddress::new(3), FcAddress::new(4), 1, b"clean".to_vec());
    let mut body = frame.body();
    let orig = body.clone();
    assert!(!core.process_packet(&mut body).injected());
    assert_eq!(body, orig);
}
