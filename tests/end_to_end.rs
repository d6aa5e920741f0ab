//! End-to-end integration: the full reproduction stack — hosts, switch,
//! mapping, UDP, the injector device and its serial command protocol —
//! exercised together.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::injector::command::DirSelect;
use netfi::injector::config::InjectorConfig;
use netfi::injector::{Direction, InjectorDevice, MatchMode};
use netfi::myrinet::addr::EthAddr;
use netfi::myrinet::Ev;
use netfi::netstack::{
    build_testbed, Host, HostCmd, TestbedOptions, UdpDatagram, Workload, SINK_PORT,
};
use netfi::nftape::runner::program_injector;
use netfi::phy::ControlSymbol;
use netfi::sim::{SimDuration, SimTime};

#[test]
fn mapping_traffic_and_injection_interact_correctly() {
    let mut tb = build_testbed(
        TestbedOptions {
            intercept_host: Some(1),
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            if i == 2 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(2),
                    interval: SimDuration::from_ms(5),
                    payload_len: 200,
                    forbidden: vec![],
                    burst: 1,
                });
            }
        },
    ).unwrap();
    let device = tb.injector.unwrap();

    // Phase 1: pass-through. Mapping converges across the device; traffic
    // flows losslessly.
    tb.engine.run_until(SimTime::from_secs(3));
    let h1 = tb.engine.component_as::<Host>(tb.hosts[1]).unwrap();
    let received_clean = h1.rx_count(SINK_PORT);
    assert!(received_clean > 300, "received {received_clean}");
    assert_eq!(h1.udp_stats().rx_checksum_drops, 0);

    // Phase 2: program a payload corruption over the real serial path.
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0x2020_2020, 0xFFFF_FFFF) // four ASCII spaces never occur
        .corrupt_toggle(0xFF00_0000)
        .recompute_crc(false)
        .build();
    let now = tb.engine.now();
    program_injector(&mut tb.engine, device, now, DirSelect::B, &config);
    tb.engine.run_for(SimDuration::from_ms(50));
    let dev = tb
        .engine
        .component_as::<InjectorDevice>(device)
        .unwrap();
    assert_eq!(dev.config_of(Direction::BToA), &config);

    // Phase 3: a crafted datagram containing the victim pattern is CRC-
    // dropped at the NIC; ordinary traffic keeps flowing.
    tb.engine.schedule(
        tb.engine.now(),
        tb.hosts[0],
        Ev::App(Box::new(HostCmd::SendUdp {
            dest: EthAddr::myricom(2),
            datagram: UdpDatagram::new(5, SINK_PORT, b"xx    xx".to_vec()),
        })),
    );
    tb.engine.run_for(SimDuration::from_secs(1));
    let h1 = tb.engine.component_as::<Host>(tb.hosts[1]).unwrap();
    assert_eq!(h1.nic().stats().rx_crc_drops, 1, "victim packet CRC-dropped");
    assert!(h1.rx_count(SINK_PORT) > received_clean, "other traffic flows");
}

#[test]
fn control_symbol_swap_visible_at_flow_control_level() {
    // GO -> STOP across the device: host 1's NIC generates GO after
    // congestion; the device turns it into STOP; the switch's egress sees
    // only STOPs and recovers by timeout.
    let mut tb = build_testbed(
        TestbedOptions {
            intercept_host: Some(1),
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            host.nic_mut().set_rx_params(4608, 3072, 512, 200_000_000);
            if i != 1 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(2),
                    interval: SimDuration::from_ms(15),
                    payload_len: 512,
                    forbidden: vec![ControlSymbol::Go.encode(), ControlSymbol::Stop.encode()],
                    burst: 16,
                });
            }
        },
    ).unwrap();
    let device = tb.injector.unwrap();
    tb.engine
        .component_as_mut::<InjectorDevice>(device)
        .unwrap()
        .configure(
            Direction::AToB,
            InjectorConfig::control_swap(ControlSymbol::Go.encode(), ControlSymbol::Stop.encode()),
        );
    tb.engine.run_until(SimTime::from_secs(5));

    let dev = tb.engine.component_as::<InjectorDevice>(device).unwrap();
    let fifo = dev.fifo_stats_at(Direction::AToB, tb.engine.now());
    assert!(
        fifo.control_injections > 0,
        "GO symbols crossed and were corrupted"
    );
    // The network survives: timeouts recover the stopped senders.
    let h1 = tb.engine.component_as::<Host>(tb.hosts[1]).unwrap();
    assert!(h1.rx_count(SINK_PORT) > 100);
}

#[test]
fn statistics_gathering_counts_per_identifier_pairs() {
    let mut tb = build_testbed(
        TestbedOptions {
            intercept_host: Some(2),
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            if i < 2 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(3),
                    interval: SimDuration::from_ms(7),
                    payload_len: 64,
                    forbidden: vec![],
                    burst: 1,
                });
            }
        },
    ).unwrap();
    tb.engine.run_until(SimTime::from_secs(3));
    let dev = tb
        .engine
        .component_as::<InjectorDevice>(tb.injector.unwrap())
        .unwrap();
    let stats = dev.channel_stats(Direction::BToA, tb.engine.now());
    // Both flows' (src, dest) pairs were counted by the monitor.
    let pair_a = (EthAddr::myricom(1), EthAddr::myricom(3));
    let pair_b = (EthAddr::myricom(2), EthAddr::myricom(3));
    assert!(stats.id_counts.get(&pair_a).copied().unwrap_or(0) > 100);
    assert!(stats.id_counts.get(&pair_b).copied().unwrap_or(0) > 100);
    assert!(stats.mapping_packets > 0, "mapping chatter observed too");
}
