//! A larger fabric: two 8-port switches joined by a trunk, four hosts,
//! and the injector spliced into the *trunk* — monitoring inter-switch
//! traffic, where source routes still carry their switch-bound bytes
//! (MSB set) and get stripped hop by hop.
//!
//! Run with `cargo run --example dual_switch`.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::injector::{Direction, InjectorDevice};
use netfi::myrinet::addr::{EthAddr, NodeAddress};
use netfi::myrinet::event::connect;
use netfi::myrinet::interface::InterfaceConfig;
use netfi::myrinet::mapper::Topology;
use netfi::myrinet::{Ev, Switch, SwitchConfig};
use netfi::netstack::{Host, HostCmd, HostConfig, Workload, SINK_PORT};
use netfi::phy::Link;
use netfi::sim::{Engine, SimDuration, SimTime};

fn main() {
    let mut engine: Engine<Ev> = Engine::new();
    // Two switches trunked on port 7 of each.
    let topo = Topology::dual_switch(8, 7, 7);
    let link = Link::myrinet_640(1.0);
    let sw0 = engine.add_component(Box::new(Switch::new("sw0", 8, SwitchConfig::default())));
    let sw1 = engine.add_component(Box::new(Switch::new("sw1", 8, SwitchConfig::default())));

    // The injector lives on the trunk: packets crossing it still carry
    // their sw1-bound route byte, the one route byte the monitor skips to
    // find the type field.
    let device = engine.add_component(Box::new(InjectorDevice::with_name("fi-trunk")));
    connect::<Switch, InjectorDevice, _>(&mut engine, (sw0, 7), (device, 0), &link).unwrap();
    connect::<InjectorDevice, Switch, _>(&mut engine, (device, 1), (sw1, 7), &link).unwrap();

    // Two hosts per switch.
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
        let mut host = Host::new(HostConfig::fast(iface, i as u64));
        if i == 0 {
            // Host 0 (on sw0) streams to host 3 (on sw1): every message
            // crosses the trunk and the injector.
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

    engine.run_until(SimTime::from_secs(4));

    // Mapping crossed two switches and the injector.
    let mapper = engine.component_as::<Host>(hosts[3]).unwrap();
    assert!(mapper.nic().is_mapper(), "highest address maps");
    println!("{}", mapper.nic().last_map().unwrap().render(&topo));

    // Routes across the fabric carry a switch hop.
    let h0 = engine.component_as::<Host>(hosts[0]).unwrap();
    let route = &h0.nic().routing_table()[&EthAddr::myricom(4)];
    println!(
        "host 0's route to host 3: {:02x?}  (0x87 = trunk port 7, MSB set; 0x01 = host port)",
        route
    );
    assert_eq!(route, &vec![0x87, 0x01]);

    let delivered = engine.component_as::<Host>(hosts[3]).unwrap().rx_count(SINK_PORT);
    println!("messages delivered across the trunk: {delivered}");

    let dev = engine.component_as::<InjectorDevice>(device).unwrap();
    let stats = dev.channel_stats(Direction::AToB, engine.now());
    println!(
        "trunk injector observed {} packets A->B ({} DATA, {} MAPPING)",
        stats.packets, stats.data_packets, stats.mapping_packets
    );
}
