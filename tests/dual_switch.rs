//! Multi-switch integration: mapping, routing and injection across a
//! two-switch fabric with the injector on the inter-switch trunk.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::injector::config::InjectorConfig;
use netfi::injector::{Direction, InjectorDevice, MatchMode};
use netfi::myrinet::addr::{EthAddr, NodeAddress};
use netfi::myrinet::event::connect;
use netfi::myrinet::interface::InterfaceConfig;
use netfi::myrinet::mapper::Topology;
use netfi::myrinet::{Ev, Switch, SwitchConfig};
use netfi::netstack::{Host, HostCmd, HostConfig, Workload, SINK_PORT};
use netfi::phy::Link;
use netfi::sim::{ComponentId, Engine, SimDuration, SimTime};

struct Fabric {
    engine: Engine<Ev>,
    hosts: Vec<ComponentId>,
    device: ComponentId,
}

fn build(seed: u64) -> Fabric {
    let mut engine: Engine<Ev> = Engine::new();
    let topo = Topology::dual_switch(8, 7, 7);
    let link = Link::myrinet_640(1.0);
    let sw0 = engine.add_component(Box::new(Switch::new("sw0", 8, SwitchConfig::default())));
    let sw1 = engine.add_component(Box::new(Switch::new("sw1", 8, SwitchConfig::default())));
    let device = engine.add_component(Box::new(InjectorDevice::with_name("fi-trunk")));
    connect::<Switch, InjectorDevice, _>(&mut engine, (sw0, 7), (device, 0), &link).unwrap();
    connect::<InjectorDevice, Switch, _>(&mut engine, (device, 1), (sw1, 7), &link).unwrap();

    let mut hosts = Vec::new();
    for i in 0..4usize {
        let (sw, port) = if i < 2 { (sw0, i as u8) } else { (sw1, (i - 2) as u8) };
        let attachment = (u8::from(i >= 2), port);
        let iface = InterfaceConfig::new(
            NodeAddress(100 + i as u64),
            EthAddr::myricom(i as u32 + 1),
            attachment,
            topo.clone(),
        );
        let mut host = Host::new(HostConfig::fast(iface, seed.wrapping_add(i as u64)));
        if i == 0 {
            host.add_workload(Workload::Sender {
                dest: EthAddr::myricom(4),
                interval: SimDuration::from_ms(4),
                payload_len: 200,
                forbidden: vec![],
                burst: 1,
            });
        }
        let h = engine.add_component(Box::new(host));
        connect::<Host, Switch, _>(&mut engine, (h, 0), (sw, port), &link).unwrap();
        engine.schedule(SimTime::ZERO, h, Ev::App(Box::new(HostCmd::Start)));
        hosts.push(h);
    }
    Fabric {
        engine,
        hosts,
        device,
    }
}

#[test]
fn mapping_and_data_cross_the_trunk() {
    let mut f = build(1);
    f.engine.run_until(SimTime::from_secs(4));
    // Highest address (host 3, on sw1) maps the whole fabric, across the
    // trunk and through the injector.
    let mapper = f.engine.component_as::<Host>(f.hosts[3]).unwrap();
    assert!(mapper.nic().is_mapper());
    assert_eq!(mapper.nic().last_map().unwrap().node_count(), 4);
    // Host 0's route to host 3 carries the switch-bound byte.
    let h0 = f.engine.component_as::<Host>(f.hosts[0]).unwrap();
    assert_eq!(
        h0.nic().routing_table()[&EthAddr::myricom(4)],
        vec![0x87, 0x01]
    );
    // Data flows (lossless after mapping).
    let h3 = f.engine.component_as::<Host>(f.hosts[3]).unwrap();
    assert!(h3.rx_count(SINK_PORT) > 500);
}

#[test]
fn trunk_injection_corrupts_switch_bound_route_bytes() {
    let mut f = build(2);
    f.engine.run_until(SimTime::from_secs(2));
    let before = f
        .engine
        .component_as::<Host>(f.hosts[3])
        .unwrap()
        .rx_count(SINK_PORT);
    // On the trunk, packets for host 3 start [0x01(final byte for sw1's
    // port 1), type...] — sw0 already stripped the 0x87. Misroute them at
    // the trunk by toggling the port bits (0x01 -> 0x05, unwired).
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0x0100_0000, 0xFFFF_FFFF)
        .corrupt_toggle(0x0400_0000)
        .recompute_crc(true)
        .build();
    f.engine
        .component_as_mut::<InjectorDevice>(f.device)
        .unwrap()
        .configure(Direction::AToB, config);
    f.engine.run_for(SimDuration::from_secs(1));
    let h3 = f.engine.component_as::<Host>(f.hosts[3]).unwrap();
    let during = h3.rx_count(SINK_PORT) - before;
    assert!(
        during < 20,
        "misrouted trunk packets must be lost at sw1 (got {during})"
    );
    // Disarm; traffic resumes after the next mapping round.
    f.engine
        .component_as_mut::<InjectorDevice>(f.device)
        .unwrap()
        .configure(Direction::AToB, InjectorConfig::passthrough());
    let mid = f
        .engine
        .component_as::<Host>(f.hosts[3])
        .unwrap()
        .rx_count(SINK_PORT);
    f.engine.run_for(SimDuration::from_secs(2));
    let h3 = f.engine.component_as::<Host>(f.hosts[3]).unwrap();
    assert!(h3.rx_count(SINK_PORT) > mid + 100, "traffic recovers");
}
