//! A resident fork leaves nothing of what its target ran before.
//!
//! `Engine::fork_into` copies each component over the one the target
//! engine holds in the same slot (`Component::fork_onto`): `Host`,
//! `Switch`, `InjectorDevice` and `Heartbeater` copy in place, keeping
//! the storage the target grew. A fresh fork can only be wrong by copying
//! too little; an in-place copy can also be wrong by *keeping* something
//! — a queued packet, a full arrival log, a device program, a sequence
//! counter. So the target here first runs a different point: the device
//! armed with another program, a sink's arrival log full, another host's
//! log armed that the donor never armed, a packet waiting in the switch
//! and the heartbeater further on. Then the donor is forked onto it, and
//! the resident fork must read, state for state, what a fresh fork of the
//! same donor reads — right after the fork and at the end of the same run.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt::Write as _;

use netfi::detect::heartbeat::{HeartbeatCmd, HeartbeatPlan, Heartbeater};
use netfi::injector::{DirSelect, Direction, InjectorConfig, InjectorDevice, MatchMode};
use netfi::myrinet::addr::EthAddr;
use netfi::myrinet::event::Ev;
use netfi::myrinet::switch::Switch;
use netfi::netstack::udp::UdpDatagram;
use netfi::netstack::{Host, HostCmd, SINK_PORT};
use netfi::nftape::grid::warm_campaign;
use netfi::nftape::runner::program_injector;
use netfi::obs::DispatchProbe;
use netfi::sim::{ComponentId, Engine, SimDuration, SimTime};

/// The components of the test bed: the campaign's three hosts, switch and
/// device, plus a heartbeater driving host 0 → host 1 and host 2 → host 0.
struct Bed {
    hosts: Vec<ComponentId>,
    switch: ComponentId,
    device: ComponentId,
    beater: ComponentId,
}

/// `count` datagrams from host `from` to the host with address `to`,
/// `gap` apart from `at`.
fn burst(
    engine: &mut Engine<Ev, DispatchProbe>,
    from: ComponentId,
    to: u32,
    at: SimTime,
    count: u64,
    gap: SimDuration,
) {
    for k in 0..count {
        engine.schedule(
            at + gap * k,
            from,
            Ev::App(Box::new(HostCmd::SendUdp {
                dest: EthAddr::myricom(to),
                datagram: UdpDatagram::new(4000, SINK_PORT, b"resident fork".to_vec()),
            })),
        );
    }
}

/// Every piece of state the four component types let a reader see —
/// a superset of what the sampler's evidence sums — with the clock and
/// the delivery count.
fn state(engine: &Engine<Ev, DispatchProbe>, bed: &Bed) -> String {
    let now = engine.now();
    let mut out = format!("{now:?} after {} events\n", engine.events_processed());
    for &id in &bed.hosts {
        let host = engine.component_as::<Host>(id).unwrap();
        let arrivals: Vec<_> = host.recent_arrivals().collect();
        writeln!(
            out,
            "{id}: sent {} rx {} {:?} evicted {} arrivals {arrivals:?}\n  nic {:?}\n  obs {:?}",
            host.sender_sent(),
            host.rx_count(SINK_PORT),
            host.udp_stats(),
            host.arrivals_evicted(),
            host.nic(),
            host.obs(),
        )
        .unwrap();
    }
    let switch = engine.component_as::<Switch>(bed.switch).unwrap();
    writeln!(out, "switch {switch:?}").unwrap();
    let dev = engine.component_as::<InjectorDevice>(bed.device).unwrap();
    for dir in [Direction::AToB, Direction::BToA] {
        writeln!(
            out,
            "device {dir:?}: {:?} {:?} {:?} crossing {}\n  capture {:?}",
            dev.config_of(dir),
            dev.fifo_stats_at(dir, now),
            dev.channel_stats(dir, now),
            dev.train_crossing(dir),
            dev.capture(dir),
        )
        .unwrap();
    }
    writeln!(
        out,
        "device obs {:?} traffic {:?}",
        dev.obs(),
        dev.traffic_log()
    )
    .unwrap();
    let beater = engine.component_as::<Heartbeater>(bed.beater).unwrap();
    writeln!(out, "heartbeater {beater:?}").unwrap();
    out
}

#[test]
fn a_resident_fork_onto_a_dirty_engine_equals_a_fresh_fork() {
    // The donor: the sampler's warmed test bed with a heartbeater added,
    // host 1's arrival log armed, run 2 ms into light two-way traffic.
    let warm = warm_campaign(7).unwrap();
    let mut donor = warm.fork_engine();
    let ids = &warm.warm().bed;
    let hosts = ids.hosts.clone();
    let plan = HeartbeatPlan {
        pairs: vec![
            (hosts[0], EthAddr::myricom(2)),
            (hosts[2], EthAddr::myricom(1)),
        ],
        interval: SimDuration::from_us(300),
        stagger: SimDuration::from_us(70),
    };
    let beater = donor.add_component(Box::new(Heartbeater::new(plan)));
    let bed = Bed {
        hosts,
        switch: ids.switch,
        device: ids.device,
        beater,
    };
    let t0 = donor.now();
    donor.schedule(t0, beater, Ev::App(Box::new(HeartbeatCmd::Start)));
    donor
        .component_as_mut::<Host>(bed.hosts[1])
        .unwrap()
        .arm_arrivals();
    burst(
        &mut donor,
        bed.hosts[0],
        2,
        t0,
        20,
        SimDuration::from_us(100),
    );
    burst(
        &mut donor,
        bed.hosts[1],
        1,
        t0,
        20,
        SimDuration::from_us(100),
    );
    donor.run_until(t0 + SimDuration::from_ms(2));

    // The dirty target: a fork of the donor that ran another point.
    let mut dirty = donor.snapshot().fork();
    let t1 = dirty.now();
    let corrupt = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0, 0)
        .corrupt_toggle(0x0100_0000)
        .build();
    // Direction A leaves host 1: what it sends is corrupted, what it
    // receives is not.
    let late = program_injector(&mut dirty, bed.device, t1, DirSelect::A, &corrupt);
    dirty
        .component_as_mut::<Host>(bed.hosts[0])
        .unwrap()
        .arm_arrivals();
    burst(
        &mut dirty,
        bed.hosts[0],
        2,
        late,
        200,
        SimDuration::from_ns(700),
    );
    burst(
        &mut dirty,
        bed.hosts[2],
        2,
        late,
        200,
        SimDuration::from_ns(700),
    );
    burst(
        &mut dirty,
        bed.hosts[1],
        1,
        late,
        20,
        SimDuration::from_us(2),
    );
    dirty.run_until(late + SimDuration::from_us(100));
    let before = state(&dirty, &bed);
    let sink = dirty.component_as::<Host>(bed.hosts[1]).unwrap();
    assert!(
        sink.arrivals_evicted() > 0,
        "the sink's arrival log is not full"
    );
    let h0 = dirty.component_as::<Host>(bed.hosts[0]).unwrap();
    assert!(
        h0.recent_arrivals().next().is_some(),
        "host 0 logged nothing"
    );
    let switch = format!("{:?}", dirty.component_as::<Switch>(bed.switch).unwrap());
    assert!(
        switch.contains("PacketFrame"),
        "no packet waits in the switch"
    );
    let dev = dirty.component_as::<InjectorDevice>(bed.device).unwrap();
    assert!(dev.fifo_stats_at(Direction::AToB, dirty.now()).injections > 0);

    let mut fresh = donor.snapshot().fork();
    donor.fork_into(&mut dirty);
    let forked = state(&dirty, &bed);
    assert_ne!(before, forked);
    assert_eq!(forked, state(&fresh, &bed), "right after the fork");
    assert_eq!(
        forked,
        state(&donor, &bed),
        "the fork differs from its donor"
    );

    // The same run on both, to the same deadline.
    let end = donor.now() + SimDuration::from_ms(3);
    for engine in [&mut dirty, &mut fresh] {
        let t = engine.now();
        burst(engine, bed.hosts[0], 2, t, 100, SimDuration::from_ns(900));
        burst(engine, bed.hosts[1], 1, t, 100, SimDuration::from_ns(900));
        engine.run_until(end);
    }
    assert_eq!(dirty.events_processed(), fresh.events_processed());
    let host1 = fresh.component_as::<Host>(bed.hosts[1]).unwrap();
    assert!(host1.rx_count(SINK_PORT) > 100, "the run delivered nothing");
    assert_eq!(
        state(&dirty, &bed),
        state(&fresh, &bed),
        "at the end of the run"
    );
}
