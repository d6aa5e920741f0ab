//! Figure 8: a Myrinet packet stream, including control symbols.
//!
//! The injector's own full-traffic capture memory (the SDRAM model,
//! enabled over the serial line with `L1`) records every frame crossing
//! the intercepted link: mapping scouts and route distribution first, then
//! DATA packets riding with their terminating GAPs, with flow-control
//! symbols interleaved when the receiver throttles.

use netfi_core::InjectorDevice;
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_netstack::{build_testbed, Host, TestbedOptions, Workload};
use netfi_sim::{SimDuration, SimTime};

fn main() {
    let mut tb = build_testbed(
        TestbedOptions {
            hosts: 3,
            intercept_host: Some(1),
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            // Slow the receiving host so its NIC generates STOP/GO that
            // appear in the stream.
            host.nic_mut().set_rx_params(4608, 3072, 512, 300_000_000);
            if i == 0 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(2),
                    interval: SimDuration::from_ms(2),
                    payload_len: 512,
                    forbidden: vec![],
                    burst: 12,
                });
            }
        },
    ).unwrap();
    let device = tb.injector.expect("injector");
    // Enable the traffic log over the serial line ("L1\n") just before the
    // second mapping round, and capture a short window of the stream.
    for (k, &byte) in b"L1\n".iter().enumerate() {
        tb.engine.schedule(
            SimTime::from_us(990_000 + 87 * k as u64),
            device,
            Ev::Serial(byte),
        );
    }
    tb.engine.run_until(SimTime::from_ms(1_045));

    let dev = tb.engine.component_as::<InjectorDevice>(device).unwrap();
    println!("Figure 8: the frame stream on the intercepted link, from the");
    println!("device's own capture memory (runs of identical symbols grouped):\n");
    let mut last: Option<(String, u64, netfi_sim::SimTime)> = None;
    let mut printed = 0;
    let log = dev.traffic_log().expect("the traffic log was switched on");
    for record in log.iter() {
        let text = record.value.to_string();
        match &mut last {
            Some((prev, count, _first)) if *prev == text => *count += 1,
            _ => {
                if let Some((prev, count, first)) = last.take() {
                    let times = if count > 1 { format!("  ×{count}") } else { String::new() };
                    println!("  [{first}] {prev}{times}");
                    printed += 1;
                    if printed >= 40 {
                        break;
                    }
                }
                last = Some((text, 1, record.time));
            }
        }
    }
    if let Some((prev, count, first)) = last {
        let times = if count > 1 { format!("  ×{count}") } else { String::new() };
        println!("  [{first}] {prev}{times}");
    }
    println!(
        "\n{} frames captured ({} dropped by the ring)",
        log.len(),
        log.dropped()
    );
}
