//! Prebuilt experiment scenarios — one per table/figure of the paper's
//! evaluation (see DESIGN.md's experiment index).
//!
//! Each scenario builds the Figure 10 test bed, programs the injector over
//! its serial line exactly as NFTAPE would, runs warm-up / measurement /
//! cool-down phases, and returns [`RunResult`](crate::results::RunResult)
//! rows in the units of the corresponding paper table.

pub mod address;
pub mod control;
pub mod latency;
pub mod ptype;
pub mod random;
pub mod udpcheck;

use netfi_core::device::{ChannelStats, Direction, InjectorDevice};
use netfi_myrinet::event::Ev;
use netfi_netstack::{Host, SINK_PORT};
use netfi_sim::{ComponentId, Simulation};

use crate::bed::read;
use crate::results::ScenarioError;

/// What the injector `device` has passed in `dir` by now.
fn passed(
    sim: &impl Simulation<Ev>,
    device: ComponentId,
    dir: Direction,
) -> Result<ChannelStats, ScenarioError> {
    Ok(read::<InjectorDevice>(sim, device)?.channel_stats(dir, sim.now()))
}

/// A snapshot of network-wide message counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TrafficSnapshot {
    /// Sender-workload messages generated.
    pub generated: u64,
    /// Messages refused at the NIC for lack of a route.
    pub no_route: u64,
    /// Messages delivered to sink applications.
    pub received: u64,
}

impl TrafficSnapshot {
    /// Captures the sum over `hosts` — a test bed's, or those of a fork
    /// of its engine.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::WrongComponent`] if a host id does not
    /// resolve to a [`Host`].
    pub fn capture(
        sim: &impl Simulation<Ev>,
        hosts: &[ComponentId],
    ) -> Result<TrafficSnapshot, ScenarioError> {
        let mut snap = TrafficSnapshot::default();
        for &h in hosts {
            let host = read::<Host>(sim, h)?;
            snap.generated += host.sender_sent();
            snap.no_route += host.nic().stats().tx_no_route;
            snap.received += host.rx_count(SINK_PORT);
        }
        Ok(snap)
    }

    /// Messages actually handed to the network ("messages sent" in the
    /// paper's tables).
    pub fn sent(&self) -> u64 {
        self.generated.saturating_sub(self.no_route)
    }

    /// The delta between two snapshots (later minus earlier).
    pub fn delta(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            generated: self.generated - earlier.generated,
            no_route: self.no_route - earlier.no_route,
            received: self.received - earlier.received,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_and_sent() {
        let a = TrafficSnapshot {
            generated: 100,
            no_route: 10,
            received: 80,
        };
        let b = TrafficSnapshot {
            generated: 250,
            no_route: 10,
            received: 200,
        };
        let d = b.delta(&a);
        assert_eq!(d.generated, 150);
        assert_eq!(d.no_route, 0);
        assert_eq!(d.received, 120);
        assert_eq!(d.sent(), 150);
        assert_eq!(a.sent(), 90);
    }
}
