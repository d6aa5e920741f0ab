//! The dual-media claim (§3.4): "the current board has interfaces for
//! Myrinet and FibreChannel … the injection logic is general and not
//! customized to any one network."
//!
//! This example drives the shared [`FifoInjector`] on Fibre Channel: FC
//! frames are encoded through 8b/10b, decoded at the PHY boundary, pushed
//! through the *same* datapath used on Myrinet, and — when integrity repair
//! is on — have their **CRC-32** resealed after an injection, so the
//! corruption survives to the receiver's decoder. The datapath's own repair
//! is Myrinet's CRC-8, so it stays off here. Fibre Channel is modelled at
//! codec level only: frames, CRC-32 and 8b/10b, no simulated FC link.
//!
//! Run with `cargo run --example fc_monitor`.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::fc::crc32;
use netfi::fc::frame::{decode_line, FcAddress, FcError, FcFrame};
use netfi::injector::config::InjectorConfig;
use netfi::injector::{FifoInjector, MatchMode};
use netfi::phy::b8b10::{Decoder, Encoder};

fn run(repair: bool) {
    println!(
        "--- injector on Fibre Channel, CRC-32 repair {} ---",
        if repair { "ON" } else { "OFF" }
    );
    let mut injector = FifoInjector::new(
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(u32::from_be_bytes(*b"SCSI"), 0xFFFF_FFFF)
            .corrupt_toggle(0x0000_0100)
            .recompute_crc(false)
            .build(),
    );
    let (mut injected, mut repairs) = (0, 0);

    let mut enc = Encoder::new();
    let mut dec = Decoder::new();

    for seq in 0..5u16 {
        let payload = if seq == 2 {
            b"SCSI write command 42".to_vec()
        } else {
            format!("frame {seq} payload").into_bytes()
        };
        let frame = FcFrame::data(FcAddress::new(0x0101), FcAddress::new(0x0202), seq, payload);

        // The PHY hands the frame body to the injector; the trailing
        // little-endian CRC-32 is resealed if repair is on.
        let mut body = frame.body();
        let report = injector.process_packet(&mut body);
        if report.injected() {
            injected += 1;
            if repair {
                crc32::reseal(&mut body);
                repairs += 1;
            }
        }

        let line = frame.line_with_body(&body, &mut enc).expect("valid");
        match decode_line(&line, &mut dec) {
            Ok((rx, _)) => {
                let corrupted = report.injected();
                println!(
                    "frame {seq}: delivered ({} bytes){}",
                    rx.payload.len(),
                    if corrupted {
                        "  <- CORRUPTED yet CRC-valid: the repair hid it"
                    } else {
                        ""
                    }
                );
            }
            Err(FcError::BadCrc) => {
                println!(
                    "frame {seq}: CRC-32 FAILED — corruption at byte offsets {:?}",
                    report.injected_offsets
                );
            }
            Err(e) => println!("frame {seq}: rejected ({e})"),
        }
    }
    println!(
        "stats: {} frames, {injected} injected, {repairs} repairs\n",
        injector.stats().packets
    );
}

fn main() {
    println!(
        "the same injector logic, two integrity codes: without repair the\n\
         medium's CRC catches the fault; with repair the corruption sails\n\
         through to the application — on Fibre Channel exactly as on Myrinet.\n"
    );
    run(false);
    run(true);
}
