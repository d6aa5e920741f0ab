//! The zero-copy acceptance test: an uncorrupted pass-through run must
//! perform **zero** payload-byte copies.
//!
//! Wire images travel the simulated network as [`SharedBytes`] — built
//! once at encode time, then shared by reference count across links,
//! through the injector's pass-through, switch forwarding and capture.
//! Only a copy-on-write materialisation (the injector actually corrupting
//! a frame) copies bytes, and it bumps a process-wide counter.
//!
//! This test lives in its own integration-test binary on purpose: the
//! counter is process-wide, and any concurrently running test that
//! injects faults would bump it.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::injector::InjectorDevice;
use netfi::myrinet::addr::EthAddr;
use netfi::netstack::{build_testbed, Host, TestbedOptions, Workload, SINK_PORT};
use netfi::sim::{SharedBytes, SimDuration, SimTime};

#[test]
fn uncorrupted_pass_through_copies_no_payload_bytes() {
    let mut tb = build_testbed(
        TestbedOptions {
            intercept_host: Some(1),
            seed: 12345,
            paper_era_hosts: true,
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            if i == 0 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(2),
                    interval: SimDuration::from_ms(3),
                    payload_len: 256,
                    forbidden: vec![],
                    burst: 2,
                });
            }
            if i == 2 {
                host.add_workload(Workload::Flood {
                    peer: EthAddr::myricom(1),
                    payload_len: 64,
                    timeout: SimDuration::from_ms(10),
                });
            }
        },
    ).unwrap();

    let before = SharedBytes::copy_count();
    tb.engine.run_until(SimTime::from_secs(2));
    let after = SharedBytes::copy_count();

    // The run did real work…
    assert!(tb.engine.events_processed() > 10_000);
    let h1 = tb.engine.component_as::<Host>(tb.hosts[1]).unwrap();
    assert!(h1.rx_count(SINK_PORT) > 100, "sink got {}", h1.rx_count(SINK_PORT));
    let dev = tb
        .engine
        .component_as::<InjectorDevice>(tb.injector.unwrap())
        .unwrap();
    use netfi::injector::Direction;
    // The sender's stream (plus mapping traffic) crosses the intercepted
    // link; the flood exercises the switch on the other ports.
    let now = tb.engine.now();
    let through_device = dev.channel_stats(Direction::AToB, now).packets
        + dev.channel_stats(Direction::BToA, now).packets;
    assert!(through_device > 500, "device saw {through_device} packets");

    // …and not one payload byte was copied along the way.
    assert_eq!(after - before, 0, "copy-on-write fired on a clean run");
}
