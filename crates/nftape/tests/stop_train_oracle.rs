//! The STOP-train differential test.
//!
//! A receiver that holds its sender stopped repeats STOP every 12
//! character periods. The simulator sends those repeats as one train and
//! handles none of them one by one unless the injector logs them or
//! changes them other than all the same way (`netfi_myrinet::egress`,
//! `netfi_core::device`): a train the injector swaps into IDLE, GAP or GO
//! goes on as a train of that symbol. The oracle is the per-symbol model,
//! in which every repeat is a STOP frame off a real refresh timer and every
//! STOP starts a sender timeout, kept in `netfi-myrinet` behind its
//! `oracle` feature, which this package's dev-dependency turns on.
//!
//! Each case builds one seeded, contended test bed twice, once per model:
//! 3 or 4 fast hosts bursting at one another through an 8-port switch with
//! small slack buffers, slow NIC drains, and the injector on host 1's
//! link. On top come a control-symbol swap — sometimes one that trades
//! STOP and GAP, so packets lose their terminating GAP on the link a GAP
//! train arrives on — that may be armed, armed once, or duty-cycled over
//! the serial line so edges land mid-train, sometimes a traffic-log window,
//! sometimes a host powered off and sometimes a switch port severed
//! mid-run. At random deadlines, and at every duty edge and log switch,
//! the two beds must agree on everything a harness can read: the clock, a
//! run result, every host's interface, UDP and egress counters and its
//! arrival ring with timestamps, the switch's counters and every output's
//! egress counters, and the injector's channel and datapath counters in
//! both directions. Only the event counts may differ.

// Tests may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi_core::command::{Command, DirSelect};
use netfi_core::config::{ControlInject, InjectorConfig};
use netfi_core::corrupt::{ControlCorrupt, CorruptMode};
use netfi_core::device::{ChannelStats, Direction, InjectorDevice};
use netfi_core::fifo::FifoStats;
use netfi_core::trigger::{ControlCompare, MatchMode};
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::egress::EgressStats;
use netfi_myrinet::event::Ev;
use netfi_myrinet::interface::InterfaceStats;
use netfi_myrinet::packet::route_to_host;
use netfi_myrinet::switch::{Switch, SwitchConfig, SwitchStats};
use netfi_netstack::host::UdpStats;
use netfi_netstack::{
    build_testbed, Host, Testbed, TestbedOptions, UdpDatagram, Workload, SINK_PORT,
};
use netfi_phy::ControlSymbol;
use netfi_sim::{ComponentId, DetRng, Engine, SimDuration, SimTime};

use netfi_nftape::runner::{power_off, schedule_script, sever};
use netfi_nftape::RunResult;
use netfi_phy::serial::UartConfig;

/// How long each case runs.
const RUN: SimDuration = SimDuration::from_ms(4);

/// Builds case `seed`'s bed, in the per-symbol model if `per_symbol`.
/// Both calls draw the same numbers, so the two beds differ in the model
/// alone.
fn bed(seed: u64, per_symbol: bool) -> Testbed {
    let mut rng = DetRng::new(seed);
    let hosts = 3 + rng.gen_index(2);
    let high = [768, 1536, 3072][rng.gen_index(3)];
    let switch_config = SwitchConfig {
        sbuf_capacity: high + 1_400 + rng.gen_index(1_200),
        sbuf_high: high,
        sbuf_low: high / 4,
        long_timeout: SimDuration::from_us(300),
    };
    let options = TestbedOptions {
        hosts,
        intercept_host: Some(1),
        seed,
        switch_config,
        ..TestbedOptions::default()
    };
    let mut tb = build_testbed(options, |i, host: &mut Host| {
        host.arm_arrivals();
        let nic = host.nic_mut();
        nic.set_can_map(false);
        for peer in (0..hosts).filter(|&p| p != i) {
            nic.install_route(
                EthAddr::myricom(peer as u32 + 1),
                vec![route_to_host(peer as u8)],
            );
        }
        let high = [1024, 2048, 3072][rng.gen_index(3)];
        let capacity = high + 1_200 + rng.gen_index(1_500);
        let drain = [60, 120, 250][rng.gen_index(3)] * 1_000_000;
        nic.set_rx_params(capacity, high, high / 4, drain);
        if per_symbol {
            nic.set_per_symbol();
        }
        for _ in 0..1 + rng.gen_index(2) {
            let dest = (i + 1 + rng.gen_index(hosts - 1)) % hosts;
            host.add_workload(Workload::Sender {
                dest: EthAddr::myricom(dest as u32 + 1),
                interval: SimDuration::from_us(40 + rng.gen_range(0..260)),
                payload_len: 32 + rng.gen_index(600),
                forbidden: Vec::new(),
                burst: 1 + rng.gen_index(12),
            });
        }
    })
    .expect("wire the bed");
    if per_symbol {
        tb.engine
            .component_as_mut::<Switch>(tb.switch)
            .expect("switch")
            .set_per_symbol();
    }
    tb
}

/// A fault a case applies between events.
#[derive(Debug, Clone, Copy)]
enum Fault {
    PowerOff(usize),
    Sever(usize),
}

/// A case's injector program and faults, as the test reads them back.
struct Program {
    faults: Vec<(SimTime, Fault)>,
    /// When to compare the two beds, sorted.
    deadlines: Vec<SimTime>,
    /// When a command that can change what the device makes of a STOP
    /// train took effect: the duty edges and the traffic log's switches.
    edges: Vec<SimTime>,
    /// Whether the device swaps every STOP into another symbol while
    /// armed: a STOP swap under `On`, or duty-cycled to `On`.
    swaps_stops: bool,
}

/// Schedules `command` at `device` from `at`; returns the instant its last
/// byte arrives, when it takes effect.
fn command_at(tb: &mut Testbed, device: ComponentId, at: SimTime, command: Command) -> SimTime {
    let after = schedule_script(&mut tb.engine, device, at, &[command]);
    after - UartConfig::rs232_115200().frame_duration()
}

/// Draws case `seed`'s injector program and schedules it on `tb`. Drawn
/// after [`bed`] from a stream of its own, so both beds get the same.
fn program(seed: u64, tb: &mut Testbed) -> Program {
    use ControlSymbol::{Gap, Go, Idle, Stop};
    let mut rng = DetRng::new(seed).fork(1);
    let device = tb.injector.expect("device");
    let end = SimTime::ZERO + RUN;
    let at = |rng: &mut DetRng, lo_us: u64| {
        SimTime::from_us(lo_us + rng.gen_range(0..RUN.as_ps() / 1_000_000 - lo_us))
    };
    let mut edges = Vec::new();
    let mut swaps_stops = false;
    if !rng.gen_bool(0.1) {
        let trade = rng.gen_bool(0.25);
        let mut config = if trade {
            // STOP and GAP trade places: a STOP train becomes a GAP train
            // on the link whose packets lose their terminating GAP, so the
            // switch input it arrives on holds outputs while it runs.
            let inject = ControlInject {
                compare: ControlCompare {
                    compare_code: Gap.encode(),
                    compare_mask: Gap.encode(),
                },
                corrupt: ControlCorrupt {
                    mode: CorruptMode::Toggle,
                    corrupt_code: Stop.encode() ^ Gap.encode(),
                    corrupt_mask: 0xFF,
                },
                include_terminators: true,
            };
            InjectorConfig::builder().control_inject(inject).build()
        } else {
            let mask = *rng.choose(&[Stop, Stop, Stop, Go, Gap]).expect("mask");
            let replacement = *rng
                .choose(
                    &[Stop, Go, Gap, Idle]
                        .into_iter()
                        .filter(|&s| s != mask)
                        .collect::<Vec<_>>(),
                )
                .expect("replacement");
            InjectorConfig::control_swap(mask.encode(), replacement.encode())
        };
        let duty = rng.gen_index(3);
        config.match_mode = [MatchMode::On, MatchMode::Once, MatchMode::Off][duty];
        // A trade always covers the host's transmissions: GAP trains on the
        // link its unterminated packets travel.
        let (select, dirs): (DirSelect, &[Direction]) = match rng.gen_index(3) {
            0 => (DirSelect::A, &[Direction::AToB]),
            1 if !trade => (DirSelect::B, &[Direction::BToA]),
            _ => (DirSelect::Both, &[Direction::AToB, Direction::BToA]),
        };
        let dev = tb
            .engine
            .component_as_mut::<InjectorDevice>(device)
            .expect("device");
        for &dir in dirs {
            dev.configure(dir, config);
        }
        command_at(tb, device, SimTime::ZERO, Command::SelectDirection(select));
        let swaps_stop = config.control.is_some_and(|ctl| {
            ctl.compare.matches(Stop.encode()) && ctl.corrupt.apply(Stop.encode()) != Stop.encode()
        });
        swaps_stops = swaps_stop && duty == 0;
        if duty == 2 {
            // A duty cycle, as `runner::schedule_duty_cycle` runs one, with
            // its edges kept.
            let period = SimDuration::from_us(300 + rng.gen_range(0..1_200));
            let on = SimDuration::from_ps(period.as_ps() * (3 + rng.gen_range(0..6)) / 10);
            let mode = if rng.gen_bool(0.7) {
                MatchMode::On
            } else {
                MatchMode::Once
            };
            swaps_stops = swaps_stop && mode == MatchMode::On;
            let mut t = SimTime::from_us(300);
            while t < end {
                edges.push(command_at(tb, device, t, Command::MatchMode(mode)));
                if t + on < end {
                    edges.push(command_at(
                        tb,
                        device,
                        t + on,
                        Command::MatchMode(MatchMode::Off),
                    ));
                }
                t += period;
            }
        }
    }
    if rng.gen_bool(0.15) {
        let from = at(&mut rng, 300);
        edges.push(command_at(tb, device, from, Command::TrafficLog(true)));
        let until = from + SimDuration::from_us(200 + rng.gen_range(0..1_000));
        edges.push(command_at(tb, device, until, Command::TrafficLog(false)));
    }
    let hosts = tb.hosts.len();
    let mut faults = Vec::new();
    if rng.gen_bool(0.35) {
        faults.push((at(&mut rng, 500), Fault::PowerOff(rng.gen_index(hosts))));
    }
    if rng.gen_bool(0.35) {
        faults.push((at(&mut rng, 500), Fault::Sever(rng.gen_index(hosts))));
    }
    faults.sort_by_key(|&(t, _)| t);
    edges.retain(|&t| t <= end);
    let mut deadlines: Vec<SimTime> = (0..12).map(|_| at(&mut rng, 1)).collect();
    deadlines.extend(faults.iter().map(|&(t, _)| t));
    deadlines.extend(&edges);
    deadlines.push(end);
    deadlines.sort();
    deadlines.dedup();
    Program {
        faults,
        deadlines,
        edges,
        swaps_stops,
    }
}

/// One host as a harness reads it.
type HostView = (
    InterfaceStats,
    UdpStats,
    EgressStats,
    u64,
    Vec<(SimTime, EthAddr, UdpDatagram)>,
);

/// Everything the two models must agree on at a deadline.
#[derive(Debug, PartialEq)]
struct View {
    now: SimTime,
    result: RunResult,
    hosts: Vec<HostView>,
    switch: (SwitchStats, Vec<EgressStats>),
    device: Vec<(ChannelStats, FifoStats)>,
}

fn view(tb: &Testbed) -> View {
    let engine: &Engine<Ev> = &tb.engine;
    let now = engine.now();
    let hosts: Vec<&Host> = tb
        .hosts
        .iter()
        .map(|&h| engine.component_as::<Host>(h).expect("host"))
        .collect();
    let sent = hosts.iter().map(|h| h.sender_sent()).sum();
    let received = hosts.iter().map(|h| h.rx_count(SINK_PORT)).sum();
    let sw = engine.component_as::<Switch>(tb.switch).expect("switch");
    let dev = engine
        .component_as::<InjectorDevice>(tb.injector.expect("device"))
        .expect("device");
    View {
        now,
        result: RunResult::new("case", sent, received, now.as_secs_f64()),
        hosts: hosts
            .iter()
            .map(|h| {
                let arrivals = h
                    .recent_arrivals()
                    .map(|a| (a.time, a.value.0, a.value.1.clone()))
                    .collect();
                (
                    h.nic().stats(),
                    h.udp_stats(),
                    h.nic().egress_stats(now),
                    h.sender_sent(),
                    arrivals,
                )
            })
            .collect(),
        switch: (
            sw.stats(),
            (0..sw.port_count() as u8)
                .map(|p| sw.egress_stats(p, now))
                .collect(),
        ),
        device: [Direction::AToB, Direction::BToA]
            .map(|d| (dev.channel_stats(d, now), dev.fifo_stats_at(d, now)))
            .into(),
    }
}

/// What one case ran.
#[derive(Debug, Default)]
struct Ran {
    /// Events dispatched with trains, and per symbol.
    events: (u64, u64),
    /// Whether the device swapped every STOP while armed.
    swaps_stops: bool,
    /// Duty edges and log switches, and how many found a STOP train
    /// crossing the device.
    edges: (usize, usize),
}

/// Runs case `seed` in both models and compares them at every deadline.
/// The line printed first is the one-line regression test of a failure.
fn case(seed: u64) -> Ran {
    println!("case({seed:#x});");
    let mut beds = [bed(seed, false), bed(seed, true)];
    let programs = beds.each_mut().map(|tb| program(seed, tb));
    let Program {
        faults,
        deadlines,
        edges,
        swaps_stops,
    } = &programs[0];
    let mut ran = Ran {
        swaps_stops: *swaps_stops,
        ..Ran::default()
    };
    for &deadline in deadlines {
        for tb in &mut beds {
            tb.engine.run_until(deadline);
            for &(_, fault) in faults.iter().filter(|&&(t, _)| t == deadline) {
                match fault {
                    Fault::PowerOff(h) => power_off(&mut tb.engine, tb.hosts[h]),
                    Fault::Sever(port) => sever(&mut tb.engine, tb.switch, port),
                }
                .expect("fault applies");
            }
        }
        let [trains, oracle] = &beds;
        if edges.contains(&deadline) {
            let dev = trains
                .engine
                .component_as::<InjectorDevice>(trains.injector.expect("device"))
                .expect("device");
            let crossing = [Direction::AToB, Direction::BToA]
                .iter()
                .any(|&d| dev.train_crossing(d));
            ran.edges.0 += 1;
            ran.edges.1 += usize::from(crossing);
        }
        let (t, o) = (view(trains), view(oracle));
        let at = format!("case {seed:#x} at {deadline}");
        assert_eq!((t.now, &t.result), (o.now, &o.result), "{at}: run result");
        for (h, (t, o)) in t.hosts.iter().zip(&o.hosts).enumerate() {
            assert_eq!(
                (t.0, t.1, t.2, t.3),
                (o.0, o.1, o.2, o.3),
                "{at}: host {h} counters"
            );
            assert_eq!(t.4, o.4, "{at}: host {h} arrivals");
        }
        assert_eq!(t.switch, o.switch, "{at}: switch");
        assert_eq!(t.device, o.device, "{at}: injector");
        assert_eq!(t, o, "{at}");
    }
    let [trains, oracle] = &beds;
    ran.events = (
        trains.engine.events_processed(),
        oracle.engine.events_processed(),
    );
    ran
}

#[test]
fn stop_trains_match_the_per_symbol_model() {
    let (mut trains, mut oracle) = (0, 0);
    let (mut swapping, mut swapping_events) = (0, (0, 0));
    let (mut edges, mut edges_in_trains) = (0, 0);
    for k in 0..256 {
        let ran = case(0x5709_7000 + k);
        trains += ran.events.0;
        oracle += ran.events.1;
        if ran.swaps_stops {
            swapping += 1;
            swapping_events.0 += ran.events.0;
            swapping_events.1 += ran.events.1;
        }
        edges += ran.edges.0;
        edges_in_trains += ran.edges.1;
    }
    println!("events: {trains} with trains, {oracle} per symbol");
    println!(
        "{swapping} cases swap every STOP while armed: {} events with trains, {} per symbol",
        swapping_events.0, swapping_events.1
    );
    println!("{edges} duty edges and log switches, {edges_in_trains} inside a STOP train");
    assert!(
        trains * 2 < oracle,
        "the cases hold few trains: {trains} vs {oracle}"
    );
    assert!(swapping >= 64, "{swapping} cases swap STOPs");
    assert!(
        edges_in_trains * 2 > edges,
        "{edges_in_trains} of {edges} edges inside a train"
    );
}
