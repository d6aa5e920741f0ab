//! Random (SEU) fault injection — §3.1's first fault model: "Random
//! faults causing bit flip errors for system availability and fault
//! tolerance characterization under SEU conditions."
//!
//! A sweep over per-segment flip probabilities, with the injector's LFSR
//! random unit armed on the intercepted link, measuring how many messages
//! are lost, which protection layer caught each corruption, and whether
//! anything slipped through to the application.

use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::device::Direction;
use netfi_core::trigger::MatchMode;
use netfi_myrinet::addr::EthAddr;
use netfi_netstack::{build_testbed, Host, TestbedOptions, Workload, SINK_PORT};
use netfi_sim::{SimDuration, SimTime};

use crate::bed::{read, Bed};
use crate::results::{RunResult, ScenarioError};
use crate::runner::program_injector;
use crate::scenarios::passed;

/// Runs one SEU arm at per-segment flip probability `p`.
///
/// With `fix_crc` the Myrinet CRC-8 is repaired after each flip, so the
/// corruption is carried to the UDP layer (and occasionally beyond); without
/// it the network's own CRC does the catching.
///
/// `sent` counts the datagrams the device passed to host 1 over the
/// window, so [`RunResult::loss_rate`] is the datagram loss. The extra
/// `frames` counts every frame it passed, mapping frames (extra
/// `mapping_frames`) included: the SEU unit flips bits in both, and a
/// frame that fails its CRC-8 cannot be told to have been a datagram, so
/// the drop counts `crc8_drops` and `udp_checksum_drops` are of frames.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn seu_arm(p: f64, fix_crc: bool, seed: u64) -> Result<RunResult, ScenarioError> {
    let options = TestbedOptions {
        hosts: 2,
        intercept_host: Some(1),
        seed,
        ..TestbedOptions::default()
    };
    let mut tb = build_testbed(options, |i, host: &mut Host| {
        if i == 0 {
            host.add_workload(Workload::Sender {
                dest: EthAddr::myricom(2),
                interval: SimDuration::from_ms(5),
                payload_len: 256,
                forbidden: vec![],
                burst: 1,
            });
        }
    })?;
    let device = Bed::of(&tb)?.device;
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::Off) // SEU unit runs independently of the trigger
        .random_seu(p)
        .recompute_crc(fix_crc)
        .build();

    tb.engine.run_until(SimTime::from_ms(2_500));
    let now = tb.engine.now();
    let programmed = program_injector(&mut tb.engine, device, now, DirSelect::B, &config);
    tb.engine.run_until(programmed + SimDuration::from_ms(2));

    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let rx0 = h1.rx_count(SINK_PORT);
    let crc0 = h1.nic().stats().rx_crc_drops;
    let udp0 = h1.udp_stats().rx_checksum_drops;
    // What reaches host 1 crosses the device switch side first (B to A).
    let through0 = passed(&tb.engine, device, Direction::BToA)?;

    tb.engine.run_for(SimDuration::from_secs(5));

    let through1 = passed(&tb.engine, device, Direction::BToA)?;
    let frames = through1.packets - through0.packets;
    let mapping = through1.mapping_packets - through0.mapping_packets;
    let sent = frames - mapping;
    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let delivered = h1.rx_count(SINK_PORT) - rx0;
    let crc_drops = h1.nic().stats().rx_crc_drops - crc0;
    let udp_drops = h1.udp_stats().rx_checksum_drops - udp0;

    Ok(RunResult::new(
        format!("p={p:.0e}{}", if fix_crc { " (CRC fixed)" } else { "" }),
        sent,
        delivered.min(sent),
        5.0,
    )
    .with_extra("frames", frames as f64)
    .with_extra("mapping_frames", mapping as f64)
    .with_extra("crc8_drops", crc_drops as f64)
    .with_extra("udp_checksum_drops", udp_drops as f64))
}

/// The full sweep: probabilities from 10⁻⁴ to 10⁻¹ per segment, with the
/// network CRC catching (paper-style SEU characterization).
///
/// # Errors
///
/// Returns the first arm's [`ScenarioError`], if any.
pub fn seu_sweep(seed: u64) -> Result<Vec<RunResult>, ScenarioError> {
    [1e-4, 1e-3, 1e-2, 1e-1]
        .into_iter()
        .map(|p| seu_arm(p, false, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seu_loss_grows_with_probability() {
        let low = seu_arm(1e-3, false, 51).unwrap();
        let high = seu_arm(1e-1, false, 51).unwrap();
        assert!(low.sent > 500, "{low:?}");
        assert!(
            high.loss_rate() > low.loss_rate(),
            "low {:.4} high {:.4}",
            low.loss_rate(),
            high.loss_rate()
        );
        // The CRC-8 catches almost everything; at high flip rates a few
        // multi-bit corruptions alias the 8-bit code and fall through to
        // the UDP checksum (a real property of short CRCs).
        let crc = high.extra("crc8_drops").unwrap();
        let udp = high.extra("udp_checksum_drops").unwrap();
        let frames = high.extra("frames").unwrap() as u64;
        // Every datagram lost was caught by one of the two layers …
        assert!(crc as u64 + udp as u64 >= high.lost());
        // … and every drop is a frame the device passed to host 1.
        assert!(
            crc as u64 + udp as u64 <= frames,
            "{} drops of {frames} frames",
            crc as u64 + udp as u64,
        );
        assert!(udp <= high.lost() as f64 * 0.05, "udp drops {udp}");
    }

    #[test]
    fn crc_fix_shifts_detection_to_udp() {
        let arm = seu_arm(1e-1, true, 52).unwrap();
        assert!(arm.lost() > 10, "{arm:?}");
        assert_eq!(arm.extra("crc8_drops"), Some(0.0), "{arm:?}");
        assert!(arm.extra("udp_checksum_drops").unwrap() > 0.0, "{arm:?}");
    }
}
