//! Packet-type and source-route corruption (§4.3.2).
//!
//! Myrinet packet types ride in a 4-byte header field appended by the
//! network hardware, inaccessible to software injectors. The campaign
//! corrupts mapping packets (`0x0005`), data packets (`0x0004`) and the
//! source-route MSB, and observes the network's reaction.

use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::device::Direction;
use netfi_core::trigger::MatchMode;
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::switch::Switch;
use netfi_netstack::{build_testbed, Host, Testbed, TestbedOptions, Workload, SINK_PORT};
use netfi_sim::{ComponentId, SimDuration, SimTime};

use crate::bed::{read, read_mut, Bed};
use crate::results::{RunResult, ScenarioError};
use crate::runner::{program_injector, schedule_script};
use crate::scenarios::passed;
use netfi_core::command::Command;

/// Shared scaffold: 3 hosts, injector on host 1 (index 1), host 0 sending
/// periodic messages to host 1 so reachability is observable.
fn build(seed: u64) -> Result<Testbed, ScenarioError> {
    let options = TestbedOptions {
        hosts: 3,
        intercept_host: Some(1),
        seed,
        ..TestbedOptions::default()
    };
    Ok(build_testbed(options, |i, host: &mut Host| {
        if i == 0 {
            host.add_workload(Workload::Sender {
                dest: EthAddr::myricom(2),
                interval: SimDuration::from_ms(10),
                payload_len: 128,
                forbidden: vec![],
                burst: 1,
            });
        }
    })?)
}

fn disarm(tb: &mut Testbed, device: ComponentId, at: SimTime) {
    let off = [Command::MatchMode(MatchMode::Off)];
    schedule_script(&mut tb.engine, device, at, &off);
}

/// Corrupts mapping packets (type `0x0005` → `0x0009`) heading to the
/// intercepted node. "A node that receives the corrupted packet is removed
/// from the network … The node will remain out of the network until the
/// next mapping packet is received."
///
/// Returns a result whose extras record whether the node was removed while
/// the trigger was armed (`removed=1`) and restored after disarming
/// (`restored=1`), plus messages lost to `no route` meanwhile.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn mapping_packet_corruption(seed: u64) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed)?;
    let device = Bed::of(&tb)?.device;
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0x0005_0000, 0xFFFF_0000)
        .corrupt_replace(0x0009_0000, 0xFFFF_0000)
        .recompute_crc(true) // deliver intact-but-unrecognizable packets
        .build();

    // Let the first maps settle. Start beyond mapping epoch 5, so the
    // byte-sliding trigger cannot alias the [00,05]/[00,04] pattern with
    // the protocol's epoch field.
    tb.engine.run_until(SimTime::from_ms(6_200));
    let now = tb.engine.now();
    let programmed = program_injector(&mut tb.engine, device, now, DirSelect::B, &config);
    tb.engine.run_until(programmed);
    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let route_before = h0.nic().routing_table().contains_key(&EthAddr::myricom(2));
    let lost_before = h0.nic().stats().tx_no_route;
    // Three mapping rounds with scouts corrupted.
    tb.engine.run_for(SimDuration::from_ms(3_200));
    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let removed = !h0.nic().routing_table().contains_key(&EthAddr::myricom(2));
    let lost_during = h0.nic().stats().tx_no_route - lost_before;

    // Disarm; the next mapping round restores the node.
    let now = tb.engine.now();
    disarm(&mut tb, device, now);
    tb.engine.run_for(SimDuration::from_ms(2_500));
    let restored = read::<Host>(&tb.engine, tb.hosts[0])?
        .nic()
        .routing_table()
        .contains_key(&EthAddr::myricom(2));

    Ok(RunResult::new("mapping 0x0005 -> 0x0009", lost_during, 0, 3.2)
        .with_extra("route_before", route_before as u64 as f64)
        .with_extra("removed", removed as u64 as f64)
        .with_extra("restored", restored as u64 as f64)
        .with_extra("lost_no_route", lost_during as f64))
}

/// Corrupts data packets (type `0x0004` → `0x0009`) heading to the
/// intercepted node: "the data packets are dropped by the receiving node
/// and not recognized as data packets. The internal network structures,
/// such as the routing table, remain unchanged."
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn data_packet_corruption(seed: u64) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed)?;
    let device = Bed::of(&tb)?.device;
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0x0004_0000, 0xFFFF_0000)
        .corrupt_replace(0x0009_0000, 0xFFFF_0000)
        .recompute_crc(true)
        .build();

    // Past epoch 5 (see mapping_packet_corruption).
    tb.engine.run_until(SimTime::from_ms(6_200));
    let now = tb.engine.now();
    let programmed = program_injector(&mut tb.engine, device, now, DirSelect::B, &config);
    tb.engine.run_until(programmed + SimDuration::from_ms(2));
    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let table_before = h1.nic().routing_table().clone();
    let rx_before = h1.rx_count(SINK_PORT);
    let sent_before = h0.sender_sent();
    let no_route_before = h0.nic().stats().tx_no_route;
    let unknown_before = h1.nic().stats().rx_unknown_type;
    tb.engine.run_for(SimDuration::from_secs(3));

    let h0 = read::<Host>(&tb.engine, tb.hosts[0])?;
    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let delivered = h1.rx_count(SINK_PORT) - rx_before;
    let sent = (h0.sender_sent() - sent_before) - (h0.nic().stats().tx_no_route - no_route_before);
    let unknown = h1.nic().stats().rx_unknown_type - unknown_before;
    let table_unchanged = h1.nic().routing_table() == &table_before;

    Ok(RunResult::new("data 0x0004 -> 0x0009", sent, delivered, 3.0)
        .with_extra("rx_unknown_type", unknown as f64)
        .with_extra("routing_table_unchanged", table_unchanged as u64 as f64))
}

/// Sets the MSB of the final route byte on packets arriving at the target
/// interface: "the Myrinet standard specifies that the packet be
/// 'consumed and handled as an error'. … The interface was observed to
/// drop these packets without incident."
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn route_msb_corruption(seed: u64) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed)?;
    let device = Bed::of(&tb)?.device;
    // The final route byte for host 1 is 0x01 followed by the type field's
    // three zero bytes.
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0x0100_0000, 0xFFFF_FFFF)
        .corrupt_toggle(0x8000_0000)
        .recompute_crc(true)
        .build();

    tb.engine.run_until(SimTime::from_ms(2_500));
    let now = tb.engine.now();
    let programmed = program_injector(&mut tb.engine, device, now, DirSelect::B, &config);
    tb.engine.run_until(programmed + SimDuration::from_ms(2));
    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let errors_before = h1.nic().stats().rx_route_errors;
    let rx_before = h1.rx_count(SINK_PORT);
    let sent_before = read::<Host>(&tb.engine, tb.hosts[0])?.sender_sent();
    tb.engine.run_for(SimDuration::from_secs(2));
    let h1 = read::<Host>(&tb.engine, tb.hosts[1])?;
    let armed_errors = h1.nic().stats().rx_route_errors - errors_before;
    let armed_rx = h1.rx_count(SINK_PORT) - rx_before;
    let sent = read::<Host>(&tb.engine, tb.hosts[0])?.sender_sent() - sent_before;

    // Disarm: traffic resumes without any lasting effect.
    let now = tb.engine.now();
    disarm(&mut tb, device, now);
    let rx_mid = read::<Host>(&tb.engine, tb.hosts[1])?.rx_count(SINK_PORT);
    tb.engine.run_for(SimDuration::from_secs(2));
    let recovered_rx = read::<Host>(&tb.engine, tb.hosts[1])?.rx_count(SINK_PORT) - rx_mid;

    Ok(RunResult::new("route MSB set at interface", sent, armed_rx, 2.0)
        .with_extra("route_errors", armed_errors as f64)
        .with_extra("recovered_rx", recovered_rx as f64))
}

/// Events the switch's recorder holds over [`route_misroute`]'s window:
/// its drops and STOP/GO edges, far more than the window makes.
const MISROUTE_LOG: usize = 4_096;

/// Misroutes packets by toggling route-byte bits toward an unused switch
/// port: "these errors resulted in the expected packet losses, but none of
/// the packets were accepted by the incorrect nodes."
///
/// `sent` is the datagrams host 1 passed through the device in the window,
/// so [`RunResult::loss_rate`] is the datagram loss. The extra `frames`
/// is every packet it passed: those datagrams and its replies to the
/// mapper's scouts (extra `mapping_frames`). `misroute_drops` counts the
/// switch's drops of what came in from host 1 over the same window, so it
/// cannot exceed `frames`; the switch also drops the mapper's scouts to
/// its unwired ports.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn route_misroute(seed: u64) -> Result<RunResult, ScenarioError> {
    let mut tb = build(seed)?;
    let device = Bed::of(&tb)?.device;
    // Host 1's outbound final route byte is 0x00 (to host 0), followed by
    // the type field zeros; toggle it to port 6 (unwired).
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0x0000_0000, 0xFFFF_FFFF)
        .corrupt_toggle(0x0600_0000)
        .recompute_crc(true)
        .build();

    // Host 1 also runs a sender so it has outbound data traffic.
    // (Hosts were built by `build`; add traffic by scheduling sends.)
    tb.engine.run_until(SimTime::from_ms(2_500));
    {
        let now = tb.engine.now();
        let programmed = program_injector(&mut tb.engine, device, now, DirSelect::A, &config);
        tb.engine.run_until(programmed + SimDuration::from_ms(2));
    }
    // Schedule a burst of direct datagrams host1 -> host0.
    for k in 0..200u64 {
        let at = tb.engine.now() + SimDuration::from_ms(10) * k;
        tb.engine.schedule(
            at,
            tb.hosts[1],
            netfi_myrinet::event::Ev::App(Box::new(netfi_netstack::HostCmd::SendUdp {
                dest: EthAddr::myricom(1),
                datagram: netfi_netstack::UdpDatagram::new(5_000, SINK_PORT, vec![b'x'; 64]),
            })),
        );
    }
    let rx0_before = read::<Host>(&tb.engine, tb.hosts[0])?.rx_count(SINK_PORT);
    let rx2_before = read::<Host>(&tb.engine, tb.hosts[2])?.rx_count(SINK_PORT);
    // What host 1 sends crosses the device host side first (A to B).
    let through_before = passed(&tb.engine, device, Direction::AToB)?;
    // The switch's recorder says which input each drop came in on.
    read_mut::<Switch>(&mut tb.engine, tb.switch)?
        .obs_mut()
        .arm(MISROUTE_LOG);
    tb.engine.run_for(SimDuration::from_ms(2_200));

    let delivered_h0 = read::<Host>(&tb.engine, tb.hosts[0])?.rx_count(SINK_PORT) - rx0_before;
    let delivered_h2 = read::<Host>(&tb.engine, tb.hosts[2])?.rx_count(SINK_PORT) - rx2_before;
    let through_after = passed(&tb.engine, device, Direction::AToB)?;
    let frames = through_after.packets - through_before.packets;
    let mapping = through_after.mapping_packets - through_before.mapping_packets;
    let sent = frames - mapping;
    let log = read::<Switch>(&tb.engine, tb.switch)?.obs();
    debug_assert_eq!(log.dropped(), 0, "the drop log overflowed");
    // Host 1 is wired to switch port 1.
    let drops = log
        .events()
        .filter(|e| e.value.name == "misroute_drop" && e.value.value == 1)
        .count();
    Ok(RunResult::new("route low bits toggled", sent, delivered_h0, 2.0)
        .with_extra("frames", frames as f64)
        .with_extra("mapping_frames", mapping as f64)
        .with_extra("misroute_drops", drops as f64)
        .with_extra("accepted_by_wrong_node", delivered_h2 as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_corruption_removes_until_next_round() {
        let r = mapping_packet_corruption(11).unwrap();
        assert_eq!(r.extra("route_before"), Some(1.0), "{r:?}");
        assert_eq!(r.extra("removed"), Some(1.0), "{r:?}");
        assert_eq!(r.extra("restored"), Some(1.0), "{r:?}");
        assert!(r.extra("lost_no_route").unwrap() > 0.0);
    }

    #[test]
    fn data_corruption_drops_without_structural_damage() {
        let r = data_packet_corruption(13).unwrap();
        assert!(r.sent > 100, "{r:?}");
        assert_eq!(r.received, 0, "all data packets unrecognized: {r:?}");
        assert!(r.extra("rx_unknown_type").unwrap() as u64 >= r.sent - 2);
        assert_eq!(r.extra("routing_table_unchanged"), Some(1.0));
    }

    #[test]
    fn route_msb_dropped_without_incident() {
        let r = route_msb_corruption(17).unwrap();
        assert!(r.extra("route_errors").unwrap() > 0.0, "{r:?}");
        assert_eq!(r.received, 0, "{r:?}");
        assert!(r.extra("recovered_rx").unwrap() > 100.0, "{r:?}");
    }

    /// The drops are host 1's own, over the window in which every frame it
    /// passes through the device is counted, so they cannot exceed that.
    #[test]
    fn misroute_loses_packets_but_no_wrong_acceptance() {
        let r = route_misroute(19).unwrap();
        assert_eq!(r.received, 0, "{r:?}");
        let drops = r.extra("misroute_drops").unwrap() as u64;
        assert!(drops >= 190, "{r:?}");
        let frames = r.extra("frames").unwrap() as u64;
        assert!(drops <= frames, "{drops} drops of {frames} frames");
        let mapping = r.extra("mapping_frames").unwrap() as u64;
        assert_eq!(r.sent, frames - mapping, "{r:?}");
        assert_eq!(r.extra("accepted_by_wrong_node"), Some(0.0), "{r:?}");
    }
}
