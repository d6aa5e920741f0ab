//! The `mmon` view: "the status of the network and the associated
//! information (like routing tables and control registers) were monitored
//! with the Myrinet monitoring program mmon" (§4.1).
//!
//! Runs the test bed with mixed traffic and an injection, then prints the
//! full monitoring report.

use netfi_core::{Direction, InjectorConfig, InjectorDevice};
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::mapper::Topology;
use netfi_myrinet::monitor::{InterfaceSnapshot, MmonReport, SwitchSnapshot};
use netfi_myrinet::Switch;
use netfi_netstack::{build_testbed, Host, TestbedOptions, Workload};
use netfi_phy::ControlSymbol;
use netfi_sim::{SimDuration, SimTime};

fn main() {
    let mut tb = build_testbed(
        TestbedOptions {
            intercept_host: Some(1),
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            if i != 1 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(2),
                    interval: SimDuration::from_ms(8),
                    payload_len: 256,
                    forbidden: vec![ControlSymbol::Stop.encode()],
                    burst: 4,
                });
            }
        },
    ).unwrap();
    // A mild STOP-corruption campaign so the counters have a story.
    tb.engine
        .component_as_mut::<InjectorDevice>(tb.injector.unwrap())
        .unwrap()
        .configure(
            Direction::AToB,
            InjectorConfig::control_swap(
                ControlSymbol::Stop.encode(),
                ControlSymbol::Idle.encode(),
            ),
        );
    tb.engine.run_until(SimTime::from_secs(5));

    let mut report = MmonReport::default();
    for &h in &tb.hosts {
        let host = tb.engine.component_as::<Host>(h).unwrap();
        report.interfaces.push(InterfaceSnapshot::capture(host.nic()));
        if host.nic().is_mapper() {
            report.map = host.nic().last_map().cloned();
        }
    }
    report
        .switches
        .push(SwitchSnapshot::capture(
            tb.engine.component_as::<Switch>(tb.switch).unwrap(),
        ));
    println!("{report}");
    if let Some(map) = &report.map {
        println!("{}", map.render(&Topology::single_switch(8)));
    }

    let dev = tb
        .engine
        .component_as::<InjectorDevice>(tb.injector.unwrap())
        .unwrap();
    println!("=== injector ===");
    let now = tb.engine.now();
    let fifo = dev.fifo_stats_at(Direction::AToB, now);
    println!(
        "A>B: {} packets, {} control injections; B>A: {} packets",
        dev.channel_stats(Direction::AToB, now).packets,
        fifo.control_injections,
        dev.channel_stats(Direction::BToA, now).packets,
    );
    for ((src, dst), n) in &dev.channel_stats(Direction::BToA, now).id_counts {
        println!("  {src} -> {dst}: {n} packets");
    }
}
