//! Physical-address corruption (§4.3.3).
//!
//! The 48-bit Ethernet-style addresses live in packet payloads and in the
//! NICs' address registers. Four campaigns: destination-field corruption
//! (CRC-detected), a node's own register corrupted to another node's
//! address, to the controller's address (Figure 11's map corruption), and
//! to a non-existent address.

use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::trigger::MatchMode;
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::mapper::Topology;
use netfi_netstack::{build_testbed, Host, Testbed, TestbedOptions, Workload, SINK_PORT};
use netfi_sim::{SimDuration, SimTime};

use crate::bed::{read, read_mut, Bed};
use crate::results::{RunResult, ScenarioError};
use crate::runner::program_injector;

fn build(seed: u64, with_injector: bool) -> Result<Testbed, ScenarioError> {
    let options = TestbedOptions {
        hosts: 3,
        intercept_host: with_injector.then_some(1),
        seed,
        ..TestbedOptions::default()
    };
    Ok(build_testbed(options, |i, host: &mut Host| {
        if i == 1 {
            // Host 1 sends to host 0 — the traffic whose destination
            // field the injector corrupts.
            host.add_workload(Workload::Sender {
                dest: EthAddr::myricom(1),
                interval: SimDuration::from_ms(10),
                payload_len: 128,
                forbidden: vec![0xDD], // keep the OUI byte out of payloads
                burst: 1,
            });
        }
        if i == 0 {
            // Host 0 sends to host 1 — observes host 1's reachability.
            host.add_workload(Workload::Sender {
                dest: EthAddr::myricom(2),
                interval: SimDuration::from_ms(10),
                payload_len: 128,
                forbidden: vec![0xDD],
                burst: 1,
            });
        }
    })?)
}

fn eth_word(addr: EthAddr) -> u32 {
    let o = addr.octets();
    u32::from_be_bytes([o[2], o[3], o[4], o[5]])
}

/// Destination-field corruption: replace host 0's address with host 2's in
/// packets from host 1, *without* CRC recomputation. "We observed that the
/// packets were dropped, and not received by either the intended
/// destination node or the erroneously specified node. This is a result of
/// the incorrect CRC-8."
///
/// With `fix_crc` the beyond-paper ablation runs: the CRC passes, the
/// packet still routes to host 0, and host 0 drops it as *misaddressed* —
/// the second line of defence.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn destination_corruption(seed: u64, fix_crc: bool) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed, true)?;
    let device = Bed::of(&tb)?.device;
    // Match the low four octets of the destination address (offset 7 of
    // the wire image: route, type[4], then dest[2..6]).
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(eth_word(EthAddr::myricom(1)), 0xFFFF_FFFF)
        .corrupt_replace(eth_word(EthAddr::myricom(3)), 0xFFFF_FFFF)
        .recompute_crc(fix_crc)
        .build();

    tb.engine.run_until(SimTime::from_ms(2_500));
    let now = tb.engine.now();
    let programmed = program_injector(&mut tb.engine, device, now, DirSelect::A, &config);
    tb.engine.run_until(programmed + SimDuration::from_ms(2));
    let sent_before = read::<Host>(&tb.engine, tb.hosts[1])?.sender_sent();
    let rx2 = read::<Host>(&tb.engine, tb.hosts[2])?.rx_count(SINK_PORT);
    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let rx0 = h0.rx_count(SINK_PORT);
    let crc0 = h0.nic().stats().rx_crc_drops;
    let mis0 = h0.nic().stats().rx_misaddressed;
    tb.engine.run_for(SimDuration::from_secs(3));

    let sent = read::<Host>(&tb.engine, tb.hosts[1])?.sender_sent() - sent_before;
    let to_wrong = read::<Host>(&tb.engine, tb.hosts[2])?.rx_count(SINK_PORT) - rx2;
    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let to_intended = h0.rx_count(SINK_PORT) - rx0;
    let crc_drops = h0.nic().stats().rx_crc_drops - crc0;
    let misaddressed = h0.nic().stats().rx_misaddressed - mis0;

    Ok(RunResult::new(
        if fix_crc {
            "dest corrupted (CRC fixed)"
        } else {
            "dest corrupted"
        },
        sent,
        to_intended,
        3.0,
    )
    .with_extra("received_by_wrong_node", to_wrong as f64)
    .with_extra("crc_drops", crc_drops as f64)
    .with_extra("misaddressed_drops", misaddressed as f64))
}

/// A node's own register corrupted to match another node's address: "the
/// node became unreachable … the node drops incoming packets that are
/// misaddressed. However, the node still responds correctly to mapping
/// packets and the routing information concerning the node remained
/// unchanged."
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn sender_address_corruption(seed: u64) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed, false)?;
    tb.engine.run_until(SimTime::from_ms(2_500));

    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let rx1_before = h1.rx_count(SINK_PORT);
    let scouts_before = h1.nic().stats().scouts_answered;

    // FAULT: host 1's register now claims host 0's address.
    read_mut::<Host>(&mut tb.engine, tb.hosts[1])?
        .nic_mut()
        .set_eth_addr(EthAddr::myricom(1));

    tb.engine.run_for(SimDuration::from_secs(3));

    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let delivered = h1.rx_count(SINK_PORT) - rx1_before;
    let misaddressed = h1.nic().stats().rx_misaddressed;
    let scouts = h1.nic().stats().scouts_answered - scouts_before;
    // The mapper's map still shows a node at attachment (0, 1).
    let mapper = read::<Host>(&tb.engine, tb.hosts[2])?;
    let still_mapped = mapper
        .nic()
        .last_map()
        .map(|m| m.nodes.contains_key(&(0, 1)))
        .unwrap_or(false);

    Ok(RunResult::new("own address := other node", 0, delivered, 3.0)
        .with_extra("misaddressed_drops", misaddressed as f64)
        .with_extra("scouts_still_answered", scouts as f64)
        .with_extra("still_in_map", still_mapped as u64 as f64))
}

/// Outcome of the controller-collision campaign (Figure 11).
#[derive(Debug, Clone)]
pub struct ControllerCollision {
    /// Rendered map before the fault.
    pub healthy_map: String,
    /// Rendered map after several confused rounds.
    pub damaged_map: String,
    /// Rounds whose map differed from the previous round's.
    pub inconsistent_rounds: u64,
    /// Node count of the damaged map.
    pub damaged_nodes: usize,
}

/// "Most interesting is the case when a node's address is corrupted to
/// match the address of the controller. … The controller is confused by
/// the appearance of what it believes is another controller, and is unable
/// to generate a consistent map. … although the faulty map was not static,
/// each subsequent mapping attempt resulted in a similarly damaged map."
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read,
/// or if the mapper never produced a map.
pub fn controller_address_collision(seed: u64) -> Result<ControllerCollision, ScenarioError> {
    let mut tb = build(seed, false)?;
    let topo = Topology::single_switch(8);
    tb.engine.run_until(SimTime::from_ms(3_500));

    let mapper = read::<Host>(&tb.engine, tb.hosts[2])?;
    let healthy = mapper.nic().last_map().ok_or(ScenarioError::NoMap)?.clone();
    let inconsistent_before = mapper.nic().stats().inconsistent_maps;

    // FAULT: host 1 claims the controller's (host 2's) address.
    let controller_eth = mapper.nic().eth_addr();
    read_mut::<Host>(&mut tb.engine, tb.hosts[1])?
        .nic_mut()
        .set_eth_addr(controller_eth);

    tb.engine.run_for(SimDuration::from_secs(6));
    let mapper = read::<Host>(&tb.engine, tb.hosts[2])?;
    let damaged = mapper.nic().last_map().ok_or(ScenarioError::NoMap)?.clone();
    Ok(ControllerCollision {
        healthy_map: healthy.render(&topo),
        damaged_map: damaged.render(&topo),
        inconsistent_rounds: mapper.nic().stats().inconsistent_maps - inconsistent_before,
        damaged_nodes: damaged.node_count(),
    })
}

/// "Another error mode occurs when a node's address is corrupted into a
/// non-existent address. In this case, packets in transition are dropped,
/// and the routing table is updated with the new information … analogous
/// to removing a computer and replacing it with another."
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn nonexistent_address(seed: u64) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed, false)?;
    tb.engine.run_until(SimTime::from_ms(2_500));

    let old = EthAddr::myricom(2);
    let new = EthAddr::myricom(0x42);
    let no_route_before = read::<Host>(&tb.engine, tb.hosts[0])?
        .nic()
        .stats()
        .tx_no_route;

    read_mut::<Host>(&mut tb.engine, tb.hosts[1])?
        .nic_mut()
        .set_eth_addr(new);

    // Two mapping rounds propagate the new identity.
    tb.engine.run_for(SimDuration::from_ms(2_200));

    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let old_routable = h0.nic().routing_table().contains_key(&old);
    let new_routable = h0.nic().routing_table().contains_key(&new);
    // Packets to the old address now fail (host 0's sender targets it).
    let dropped = h0.nic().stats().tx_no_route - no_route_before;

    Ok(RunResult::new("own address := non-existent", dropped, 0, 2.2)
        .with_extra("old_address_routable", old_routable as u64 as f64)
        .with_extra("new_address_routable", new_routable as u64 as f64)
        .with_extra("packets_dropped_no_route", dropped as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn destination_corruption_is_crc_dropped() {
        let r = destination_corruption(3, false).unwrap();
        assert!(r.sent > 100, "{r:?}");
        assert_eq!(r.received, 0, "intended node must get nothing: {r:?}");
        assert_eq!(r.extra("received_by_wrong_node"), Some(0.0), "{r:?}");
        assert!(r.extra("crc_drops").unwrap() as u64 >= r.sent - 2, "{r:?}");
    }

    #[test]
    fn destination_corruption_with_crc_fix_is_misaddress_dropped() {
        let r = destination_corruption(4, true).unwrap();
        assert_eq!(r.received, 0, "{r:?}");
        assert_eq!(r.extra("received_by_wrong_node"), Some(0.0), "{r:?}");
        assert_eq!(r.extra("crc_drops"), Some(0.0), "{r:?}");
        assert!(r.extra("misaddressed_drops").unwrap() > 100.0, "{r:?}");
    }

    #[test]
    fn sender_corruption_unreachable_but_mapped() {
        let r = sender_address_corruption(5).unwrap();
        assert_eq!(r.received, 0, "node must be deaf: {r:?}");
        // Misaddressed drops accumulate until the next mapping round
        // removes the old address from senders' tables; after that, sends
        // fail with no-route. Either way the node is unreachable.
        assert!(r.extra("misaddressed_drops").unwrap() > 20.0, "{r:?}");
        assert!(r.extra("scouts_still_answered").unwrap() >= 2.0, "{r:?}");
        assert_eq!(r.extra("still_in_map"), Some(1.0), "{r:?}");
    }

    #[test]
    fn controller_collision_destabilizes_maps() {
        let out = controller_address_collision(6).unwrap();
        assert!(out.inconsistent_rounds >= 2, "{out:?}");
        assert_ne!(out.healthy_map, out.damaged_map);
        assert!(out.healthy_map.contains("p1="));
    }

    #[test]
    fn nonexistent_address_swaps_identity() {
        let r = nonexistent_address(7).unwrap();
        assert_eq!(r.extra("old_address_routable"), Some(0.0), "{r:?}");
        assert_eq!(r.extra("new_address_routable"), Some(1.0), "{r:?}");
        assert!(r.extra("packets_dropped_no_route").unwrap() > 0.0, "{r:?}");
    }
}
