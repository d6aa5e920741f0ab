//! Table 2: pass-through latency of the device.
//!
//! "Measurements of the latency introduced were taken by a standard
//! ping-pong packet-sending technique … with each side waiting for the
//! other's packet before sending a packet. The data indicates that the
//! latency lies somewhere between 75 and 1400 ns. The uncertainty is
//! likely due to the small size of the added latency: the actual latency
//! interval is getting lost in the granularity caused by the computer's
//! interrupt handler."

use netfi_myrinet::addr::EthAddr;
use netfi_netstack::{build_testbed, Host, TestbedOptions, Workload};
use netfi_sim::{SimDuration, SimTime};

use crate::bed::read;
use crate::results::ScenarioError;

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRow {
    /// Experiment number (1-based).
    pub experiment: usize,
    /// Average time per packet without the injector, nanoseconds.
    pub without_ns: f64,
    /// Average time per packet with the injector in the path, nanoseconds.
    pub with_ns: f64,
}

impl LatencyRow {
    /// Added latency per packet (with − without), nanoseconds.
    pub fn added_ns(&self) -> f64 {
        self.with_ns - self.without_ns
    }
}

fn run_arm(with_injector: bool, packets: u64, seed: u64) -> Result<f64, ScenarioError> {
    let options = TestbedOptions {
        hosts: 2,
        intercept_host: with_injector.then_some(1),
        paper_era_hosts: true,
        seed,
        ..TestbedOptions::default()
    };
    let mut tb = build_testbed(options, |i, host: &mut Host| {
        if i == 0 {
            host.add_workload(Workload::PingPong {
                peer: EthAddr::myricom(2),
                count: packets,
                payload_len: 64, // "small UDP packets"
                timeout: SimDuration::from_ms(100),
            });
        }
    })?;
    // Mapping settles within the first second; the ping-pong starts right
    // after routes appear.
    let horizon = SimTime::from_secs(5)
        + SimDuration::from_ns((packets as f64 * 600_000.0) as u64);
    tb.engine.run_until(horizon);
    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let report = h0.ping_report(0);
    assert!(
        report.done,
        "ping-pong incomplete: {}/{} (horizon {horizon})",
        report.completed, packets
    );
    assert_eq!(report.losses, 0, "lossless network expected");
    // Table 2 reports time per packet; one round trip carries two packets.
    Ok(report.rtt.mean() / 2.0)
}

/// Reproduces Table 2: `experiments` pairs of runs (with/without the
/// device), `packets` ping-pong exchanges each, different seeds per run —
/// the paper ran five experiments of two million packets.
///
/// # Errors
///
/// Returns the first arm's [`ScenarioError`], if any.
pub fn latency_table2(
    packets: u64,
    experiments: usize,
    seed: u64,
) -> Result<Vec<LatencyRow>, ScenarioError> {
    (1..=experiments)
        .map(|n| {
            let base = seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(n as u64 * 0x1000);
            Ok(LatencyRow {
                experiment: n,
                without_ns: run_arm(false, packets, base)?,
                with_ns: run_arm(true, packets, base.wrapping_add(7))?,
            })
        })
        .collect()
}

/// The values Table 2 reports, for side-by-side rendering.
pub fn paper_table2() -> [(f64, f64); 5] {
    [
        (235_213.0, 235_926.0),
        (235_805.0, 235_730.0),
        (235_220.0, 236_107.0),
        (234_973.0, 236_380.0),
        (235_426.0, 236_134.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn added_latency_is_small_and_positive_on_average() {
        let rows = latency_table2(400, 3, 42).unwrap();
        assert_eq!(rows.len(), 3);
        let mean_added: f64 =
            rows.iter().map(LatencyRow::added_ns).sum::<f64>() / rows.len() as f64;
        // True added latency is 255 ns (250 ns pipeline + 5 ns cable);
        // calibration noise pushes individual rows around it.
        assert!(
            (0.0..2_000.0).contains(&mean_added),
            "mean added {mean_added} ns"
        );
        for row in &rows {
            // Per-packet times in the Table 2 ballpark (~235 µs).
            assert!(
                (225_000.0..250_000.0).contains(&row.without_ns),
                "without = {} ns",
                row.without_ns
            );
            // Individual rows stay within the paper's noise band.
            assert!(
                row.added_ns().abs() < 3_000.0,
                "added = {} ns",
                row.added_ns()
            );
        }
    }

    #[test]
    fn paper_rows_have_the_expected_shape() {
        for (without, with) in paper_table2() {
            assert!((without - 235_000.0).abs() < 1_000.0);
            assert!((with - without).abs() < 1_500.0);
        }
    }
}
