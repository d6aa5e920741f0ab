//! What holding a sender stopped costs, pinned as counts.
//!
//! A receiver above its high watermark repeats STOP every 12 character
//! periods until it drains. Sent one frame per repeat, that was a refresh
//! timer, a frame, and a sender timeout every 150 ns of every stop: 97 %
//! of the 12.4 M events of the nine Table 4 rows and their donor. A STOP
//! train costs its two ends, the STOP that opens it and the GO that
//! closes it, however long the stop lasts — and so does a train the
//! injector swaps into IDLE, GAP or GO, which Table 4's first three rows
//! do to every STOP while their duty cycle arms it: handled one repeat at a
//! time, those swaps were 422,889 of the 835,375 events that remained.
//!
//! The counts repeat exactly for a seed, so a red run is the code, never
//! the box: a repeat is being handled one by one again, or the injector
//! acts on repeats it cannot change or swaps the same way each time. That
//! the trains change nothing else is the business of `tests/determinism.rs`
//! and of the differential test against the per-symbol model in
//! `netfi-nftape`.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netfi::myrinet::addr::EthAddr;
use netfi::myrinet::event::Ev;
use netfi::myrinet::packet::route_to_host;
use netfi::myrinet::Switch;
use netfi::netstack::{build_testbed, Host, HostCmd, TestbedOptions, UdpDatagram, SINK_PORT};
use netfi::nftape::campaign::{paper_campaigns, run_campaigns_probed, FaultSpec};
use netfi::sim::{ComponentId, Probe, SimTime};

/// Counts every dispatch of the engine it is installed on and of every
/// fork of it.
#[derive(Debug, Clone, Default)]
struct Dispatched(Arc<AtomicU64>);

impl Probe for Dispatched {
    fn on_dispatch(&mut self, _: SimTime, _: ComponentId, _: u64) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn table4_costs_its_stops_not_their_repeats() {
    let mut specs = paper_campaigns(7);
    specs.retain(|spec| matches!(spec.fault, FaultSpec::ControlSymbol { .. }));
    for spec in &mut specs {
        spec.window_secs = 1;
    }
    let dispatched = Dispatched::default();
    let rows = run_campaigns_probed(&specs, 1, &dispatched).unwrap();
    let events = dispatched.0.load(Ordering::SeqCst);
    println!("nine Table 4 rows and their donor, seed 7, 1 s: {events} events");
    assert_eq!(rows.len(), 9);
    assert!(
        events <= 450_000,
        "{events} events: a repeat is handled one by one again"
    );
}

/// Events a 2-host bed dispatches to carry 24 datagrams of 600 B from host
/// 0 into host 1, whose NIC drains at `drain_bps`, and the STOPs the
/// switch's output to host 1 received: every stop lasts as long as it
/// takes to drain 3,072 B.
fn events_to_deliver(drain_bps: u64) -> (u64, u64) {
    let mut tb = build_testbed(
        TestbedOptions {
            hosts: 2,
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            let nic = host.nic_mut();
            nic.set_can_map(false);
            let peer = 1 - i as u8;
            nic.install_route(
                EthAddr::myricom(u32::from(peer) + 1),
                vec![route_to_host(peer)],
            );
            nic.set_rx_params(8192, 4096, 1024, drain_bps);
        },
    )
    .unwrap();
    for _ in 0..24 {
        let datagram = UdpDatagram::new(5, SINK_PORT, vec![0x42; 600]);
        let send = HostCmd::SendUdp {
            dest: EthAddr::myricom(2),
            datagram,
        };
        tb.engine
            .schedule(SimTime::ZERO, tb.hosts[0], Ev::App(Box::new(send)));
    }
    tb.engine.run();
    let h1 = tb.engine.component_as::<Host>(tb.hosts[1]).unwrap();
    assert_eq!(h1.rx_count(SINK_PORT), 24);
    let sw = tb.engine.component_as::<Switch>(tb.switch).unwrap();
    let held = sw.egress_stats(1, tb.engine.now());
    assert_eq!(held.timeout_recoveries, 0, "every stop ended with its GO");
    (tb.engine.events_processed(), held.stops_received)
}

#[test]
fn a_held_stop_costs_the_same_for_a_millisecond_or_ten() {
    // 3,072 B drain in 1 ms at 24.576 Mb/s and in 10 ms at a tenth of it.
    let (short, short_stops) = events_to_deliver(24_576_000);
    let (long, long_stops) = events_to_deliver(2_457_600);
    println!("stops of 1 ms: {short} events, {short_stops} STOPs; of 10 ms: {long} events, {long_stops} STOPs");
    // The STOPs are counted as the repeats they are …
    assert!(
        long_stops > 9 * short_stops && short_stops > 6_000,
        "{short_stops} / {long_stops}"
    );
    // … and cost nothing each.
    assert_eq!(short, long, "a longer stop must not cost more events");
}

#[test]
fn a_train_frame_keeps_the_event_at_its_size() {
    // The timing wheel's entries carry an `Ev`: `fabric1000` pays for
    // every byte it grows.
    assert!(
        std::mem::size_of::<Ev>() <= 32,
        "Ev is {} bytes",
        std::mem::size_of::<Ev>()
    );
}
