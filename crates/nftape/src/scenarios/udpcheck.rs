//! UDP checksum aliasing (§4.3.4).
//!
//! "Since UDP uses a 16-bit one's complement checksum, corrupt packets
//! should be detected and dropped by the UDP layer. However, if the fault
//! is manifested in a way that also satisfies the checksum, the incorrect
//! packet should be passed through. … we corrupted a UDP packet consisting
//! of the string 'Have a lot of fun' to read instead 'veHa a lot of fun'.
//! The checksum was unable to detect this, and the incorrect message was
//! passed on."

use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::trigger::MatchMode;
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_netstack::{build_testbed, Host, Testbed, TestbedOptions, HostCmd, UdpDatagram, SINK_PORT};
use netfi_sim::{SimDuration, SimTime};

use crate::bed::{read, Bed};
use crate::results::{RunResult, ScenarioError};
use crate::runner::program_injector;

/// The paper's test string.
pub const MESSAGE: &[u8] = b"Have a lot of fun!";

fn word(bytes: &[u8; 4]) -> u32 {
    u32::from_be_bytes(*bytes)
}

fn build(seed: u64) -> Result<Testbed, ScenarioError> {
    let options = TestbedOptions {
        hosts: 2,
        intercept_host: Some(1),
        seed,
        ..TestbedOptions::default()
    };
    Ok(build_testbed(options, |_, host: &mut Host| host.arm_arrivals())?)
}

fn run(
    seed: u64,
    corrupt_to: &[u8; 4],
    label: &str,
    sends: u64,
) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed)?;
    let device = Bed::of(&tb)?.device;
    // Match "Have" in the passing stream and replace it. The Myrinet CRC-8
    // is recomputed (the hardware does this before the EOF), so only the
    // UDP checksum stands between the corruption and the application.
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(word(b"Have"), 0xFFFF_FFFF)
        .corrupt_replace(word(corrupt_to), 0xFFFF_FFFF)
        .recompute_crc(true)
        .build();
    program_injector(&mut tb.engine, device, SimTime::from_ms(100), DirSelect::B, &config);

    tb.engine.run_until(SimTime::from_ms(2_500));
    for k in 0..sends {
        let at = tb.engine.now() + SimDuration::from_ms(5) * k;
        tb.engine.schedule(
            at,
            tb.hosts[0],
            Ev::App(Box::new(HostCmd::SendUdp {
                dest: EthAddr::myricom(2),
                datagram: UdpDatagram::new(6_000, SINK_PORT, MESSAGE.to_vec()),
            })),
        );
    }
    tb.engine.run_for(SimDuration::from_ms(5) * sends + SimDuration::from_ms(100));

    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let delivered = h1.rx_count(SINK_PORT);
    let checksum_drops = h1.udp_stats().rx_checksum_drops;
    let mut result = RunResult::new(label, sends, delivered, 0.005 * sends as f64)
        .with_extra("checksum_drops", checksum_drops as f64);
    // Capture what the application actually read.
    if let Some((_, datagram)) = h1.recent_arrivals().map(|s| &s.value).last() {
        let text = String::from_utf8_lossy(&datagram.payload).into_owned();
        result = result.with_extra("delivered_intact", (datagram.payload == MESSAGE) as u64 as f64);
        result.name = format!("{label} (app saw: {text:?})");
    }
    Ok(result)
}

/// The aliasing corruption: swap the 16-bit words of "Have" → "veHa".
/// The checksum cannot detect it; the corrupted message reaches the
/// application.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn aliasing_corruption(seed: u64) -> Result<RunResult, ScenarioError> {
    run(seed, b"veHa", "swap 16-bit words", 50)
}

/// A non-aliasing corruption of the same bytes: the checksum catches it
/// and the datagrams are dropped.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn detected_corruption(seed: u64) -> Result<RunResult, ScenarioError> {
    run(seed, b"XaXe", "non-aliasing corruption", 50)
}

/// Baseline: no corruption (trigger never matches).
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn baseline(seed: u64) -> Result<RunResult, ScenarioError> {
    run(seed, b"Have", "baseline", 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliasing_slips_past_the_checksum() {
        let r = aliasing_corruption(21).unwrap();
        assert_eq!(r.received, r.sent, "{r:?}");
        assert_eq!(r.extra("checksum_drops"), Some(0.0), "{r:?}");
        // And the payload really was corrupted en route.
        assert_eq!(r.extra("delivered_intact"), Some(0.0), "{r:?}");
        assert!(r.name.contains("veHa"), "{}", r.name);
    }

    #[test]
    fn non_aliasing_corruption_is_dropped() {
        let r = detected_corruption(22).unwrap();
        assert_eq!(r.received, 0, "{r:?}");
        assert_eq!(r.extra("checksum_drops"), Some(r.sent as f64), "{r:?}");
    }

    #[test]
    fn baseline_delivers_intact() {
        let r = baseline(23).unwrap();
        assert_eq!(r.received, r.sent, "{r:?}");
        assert_eq!(r.extra("delivered_intact"), Some(1.0), "{r:?}");
    }
}
