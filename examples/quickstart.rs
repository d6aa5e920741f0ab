//! Quickstart: splice the injector into a link, program the paper's
//! "typical injection scenario" (§3.3) — match `0x1818`, replace with
//! `0x1918` — and watch what each protection layer does with the
//! corruption.
//!
//! Run with `cargo run --example quickstart`.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::injector::config::InjectorConfig;
use netfi::injector::{Direction, InjectorDevice, MatchMode};
use netfi::myrinet::addr::EthAddr;
use netfi::myrinet::packet::{route_to_host, Packet, PacketType};
use netfi::myrinet::Ev;
use netfi::netstack::{build_testbed, Host, HostCmd, TestbedOptions, UdpDatagram, SINK_PORT};
use netfi::sim::{SimDuration, SimTime};

fn send_udp(tb: &mut netfi::netstack::Testbed, from: usize, payload: &[u8]) {
    tb.engine.schedule(
        tb.engine.now(),
        tb.hosts[from],
        Ev::App(Box::new(HostCmd::SendUdp {
            dest: EthAddr::myricom(1),
            datagram: UdpDatagram::new(9, SINK_PORT, payload.to_vec()),
        })),
    );
    tb.engine.run_for(SimDuration::from_ms(10));
}

fn main() {
    // The Figure 10 test bed: three hosts, one 8-port switch, and the
    // injector spliced between host 1 and the switch.
    let mut tb = build_testbed(
        TestbedOptions {
            intercept_host: Some(1),
            ..TestbedOptions::default()
        },
        |_, host: &mut Host| host.arm_arrivals(),
    ).unwrap();
    let device = tb.injector.expect("intercept_host splices a device");

    // A Myrinet packet, as in Figure 6: source route, 4-byte type,
    // payload, trailing CRC-8.
    let pkt = Packet::new(vec![route_to_host(1)], PacketType::DATA, b"demo".to_vec());
    let wire = pkt.encode();
    println!("a Myrinet packet on the wire (Figure 6):");
    println!("  route bytes : {:02x?}", &wire[..1]);
    println!("  packet type : {:02x?}  (DATA = 0x0004)", &wire[1..5]);
    println!("  payload     : {:02x?}", &wire[5..wire.len() - 1]);
    println!("  CRC-8       : {:02x?}", &wire[wire.len() - 1..]);

    // Let the network map itself.
    tb.engine.run_until(SimTime::from_secs(2));

    // --- Scenario 1: the paper's 0x1818 -> 0x1918, Myrinet CRC repaired.
    // The Myrinet layer accepts the packet; UDP's checksum catches it.
    tb.engine
        .component_as_mut::<InjectorDevice>(device)
        .expect("device")
        .configure(
            Direction::AToB,
            InjectorConfig::builder()
                .match_mode(MatchMode::On)
                .compare(0x1818_0000, 0xFFFF_0000)
                .corrupt_replace(0x1918_0000, 0xFFFF_0000)
                .recompute_crc(true)
                .build(),
        );
    send_udp(&mut tb, 1, &[0x00, 0x18, 0x18, 0x55, 0x66]);
    let h0 = tb.engine.component_as::<Host>(tb.hosts[0]).expect("host");
    println!("\nscenario 1: 0x1818 -> 0x1918 with the Myrinet CRC-8 repaired");
    println!(
        "  host 0 UDP stats: {} delivered, {} checksum drops",
        h0.udp_stats().rx_ok,
        h0.udp_stats().rx_checksum_drops
    );
    assert_eq!(h0.udp_stats().rx_checksum_drops, 1);
    println!("  -> the corruption passed the network layer and was caught by UDP.");

    // --- Scenario 2: a 16-bit-aligned word swap ('Have' -> 'veHa') is
    // invisible to the one's-complement checksum (§4.3.4).
    tb.engine
        .component_as_mut::<InjectorDevice>(device)
        .expect("device")
        .configure(
            Direction::AToB,
            InjectorConfig::builder()
                .match_mode(MatchMode::On)
                .compare(u32::from_be_bytes(*b"Have"), 0xFFFF_FFFF)
                .corrupt_replace(u32::from_be_bytes(*b"veHa"), 0xFFFF_FFFF)
                .recompute_crc(true)
                .build(),
        );
    send_udp(&mut tb, 1, b"Have a lot of fun!");
    let h0 = tb.engine.component_as::<Host>(tb.hosts[0]).expect("host");
    let (_, delivered) = h0.recent_arrivals().map(|s| &s.value).last().expect("delivered");
    let text = String::from_utf8_lossy(&delivered.payload);
    println!("\nscenario 2: word swap 'Have' -> 'veHa' (checksum-neutral)");
    println!("  host 0's application read: {text:?}");
    assert!(text.starts_with("veHa"));
    println!("  -> the corrupted message reached the application undetected.");

    // The device monitored everything it corrupted.
    let dev = tb
        .engine
        .component_as::<InjectorDevice>(device)
        .expect("device");
    let stats = dev.fifo_stats_at(Direction::AToB, tb.engine.now());
    println!(
        "\ninjector: {} packets seen, {} injections, {} CRC recomputes",
        stats.packets, stats.injections, stats.crc_recomputes
    );
    println!("capture memory (bytes surrounding each injection):");
    for record in dev.capture(Direction::AToB).iter() {
        println!("  {record}");
    }
}
