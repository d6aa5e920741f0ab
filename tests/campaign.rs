//! Integration tests over the campaign scenarios — quick versions of the
//! paper's experiments, asserting the qualitative results the paper
//! reports.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::nftape::campaign::{run_campaign, CampaignSpec, FaultSpec};
use netfi::nftape::scenarios::{address, control, ptype, udpcheck};
use netfi::phy::ControlSymbol;
use netfi::sim::SimDuration;

#[test]
fn table4_stop_row_loses_messages_via_overflow() {
    let opts = control::ControlCampaignOptions {
        window: SimDuration::from_secs(4),
        ..control::ControlCampaignOptions::default()
    };
    let row = control::control_symbol_row(ControlSymbol::Stop, ControlSymbol::Go, &opts).unwrap();
    assert!(row.sent > 1_000);
    assert!(
        row.loss_rate() > 0.02 && row.loss_rate() < 0.30,
        "loss {:.3}",
        row.loss_rate()
    );
    assert!(row.extra("nic_overflow_drops").unwrap_or(0.0) > 0.0);
}

#[test]
fn table4_gap_row_loses_messages_via_framing() {
    let opts = control::ControlCampaignOptions {
        window: SimDuration::from_secs(4),
        ..control::ControlCampaignOptions::default()
    };
    let row = control::control_symbol_row(ControlSymbol::Gap, ControlSymbol::Stop, &opts).unwrap();
    assert!(
        row.loss_rate() > 0.02 && row.loss_rate() < 0.40,
        "loss {:.3}",
        row.loss_rate()
    );
    assert!(row.extra("framing_drops").unwrap() > 0.0);
}

/// A random-SEU campaign's loss is of its datagrams: at 10⁻⁴ flips per
/// segment every flip is a single bit the CRC-8 catches, so each datagram
/// reported lost was dropped by the CRC-8 (or the UDP checksum). Mapping
/// frames are counted apart, in the `frames` and `mapping_frames` extras,
/// because the sink that counts what was received never sees one.
#[test]
fn a_random_seu_campaign_loses_only_what_a_check_dropped() {
    let seu = FaultSpec::RandomSeu {
        probability: 1e-4,
        fix_crc: false,
    };
    let results = run_campaign(&CampaignSpec::new("seu", seu, 0x736575)).unwrap();
    let [row] = &results[..] else {
        panic!("one arm expected: {results:?}");
    };
    let drops = row.extra("crc8_drops").unwrap() + row.extra("udp_checksum_drops").unwrap();
    assert!(row.lost() as f64 <= drops, "{row:?}");
    let datagrams = row.extra("frames").unwrap() - row.extra("mapping_frames").unwrap();
    assert_eq!(row.sent as f64, datagrams, "{row:?}");
    assert!(row.sent > 900, "{row:?}");
}

#[test]
fn gap_long_timeout_collapses_throughput_to_near_12_percent() {
    let window = SimDuration::from_secs(5);
    let normal = control::gap_timeout(false, window, 9).unwrap();
    let faulty = control::gap_timeout(true, window, 9).unwrap();
    let ratio = faulty.received as f64 / normal.received.max(1) as f64;
    assert!((0.06..0.20).contains(&ratio), "ratio {ratio:.3}");
    assert!(faulty.extra("long_timeout_releases").unwrap() > 10.0);
    assert_eq!(normal.lost(), 0);
}

#[test]
fn faulty_stop_collapses_request_response_rate() {
    let window = SimDuration::from_secs(5);
    let normal = control::stop_throughput(false, window, 9).unwrap();
    let faulty = control::stop_throughput(true, window, 9).unwrap();
    let ratio = faulty.throughput() / normal.throughput().max(1e-9);
    // Paper: ~10% of normal; we accept the same order of magnitude.
    assert!(ratio < 0.25, "ratio {ratio:.3}");
    assert!(faulty.received > 0, "some messages still complete");
}

#[test]
fn mapping_type_corruption_round_trip() {
    let r = ptype::mapping_packet_corruption(31).unwrap();
    assert_eq!(r.extra("removed"), Some(1.0));
    assert_eq!(r.extra("restored"), Some(1.0));
}

#[test]
fn destination_corruption_caught_by_crc8() {
    let r = address::destination_corruption(33, false).unwrap();
    assert_eq!(r.received, 0);
    assert_eq!(r.extra("received_by_wrong_node"), Some(0.0));
    assert!(r.extra("crc_drops").unwrap() as u64 >= r.sent.saturating_sub(2));
}

#[test]
fn udp_word_swap_reaches_application() {
    let r = udpcheck::aliasing_corruption(35).unwrap();
    assert_eq!(r.received, r.sent);
    assert_eq!(r.extra("delivered_intact"), Some(0.0));
}

/// A poll slower than the hosts' arrival logs: a 10-host fabric's hosts
/// each take a heartbeat every 5 ms and a background message every 2 ms,
/// so 200 ms between polls is far more than the 64 deliveries a log
/// holds. The oldest are evicted unread, and a monitor fed what is left
/// would see heartbeat gaps the network never had; the campaign ends the
/// scenario `heartbeats-lost` at the first such poll instead of judging it.
/// The 60 ms warm-up (one poll) and a 20 ms poll stay inside the logs.
#[test]
fn a_poll_slower_than_the_arrival_log_ends_heartbeats_lost() {
    use netfi::nftape::detection::{run_detection, DetectOptions, DetectSpec};
    use netfi::nftape::TopoOptions;

    let options = DetectOptions {
        topo: TopoOptions {
            intercept_host: Some(1),
            interval: SimDuration::from_ms(2),
            ..TopoOptions::sized(10)
        },
        window: 8,
        heartbeat: SimDuration::from_ms(5),
        poll: SimDuration::from_ms(200),
        warm: SimDuration::from_ms(60),
        margin: SimDuration::from_ms(20),
        tail: SimDuration::from_ms(400),
    };
    let specs = [DetectSpec::healthy("healthy"), DetectSpec::host_link("host-link-2", 2)];
    let coarse = run_detection(&options, &specs, 1).unwrap();
    for run in &coarse.runs {
        assert_eq!(run.outcome, "heartbeats-lost", "{}", run.spec);
        // Found in the scenario, not in the warm-up: it ran past the fork.
        assert!(run.events > 0, "{}", run.spec);
    }
    assert!(coarse.render().contains("heartbeats-lost"));
    assert_eq!(coarse.latency_samples(1), Vec::<u64>::new());

    let fine = DetectOptions { poll: SimDuration::from_ms(20), ..options };
    let fine = run_detection(&fine, &specs, 1).unwrap();
    for run in &fine.runs {
        assert_eq!(run.outcome, "complete", "{}", run.spec);
    }
    assert_eq!(fine.runs[1].outcomes[1].detected, [2, 6]);
}

/// A detection scenario that names a host or a spine the fabric does not
/// have is an error, not a run that severs an empty port (host 11 sits on
/// leaf 1's port 5, which no host occupies) or severs nothing (spine 9)
/// and then reads healthy.
#[test]
fn a_fault_on_a_missing_host_or_spine_is_an_error() {
    use netfi::nftape::detection::{warm_detect, DetectFault, DetectOptions, DetectSpec};
    use netfi::nftape::{ScenarioError, TopoOptions};

    let options = DetectOptions {
        topo: TopoOptions {
            intercept_host: Some(1),
            interval: SimDuration::from_ms(2),
            ..TopoOptions::sized(10)
        },
        window: 8,
        heartbeat: SimDuration::from_ms(5),
        poll: SimDuration::from_ms(20),
        warm: SimDuration::from_ms(60),
        margin: SimDuration::from_ms(20),
        tail: SimDuration::from_ms(20),
    };
    let warm = warm_detect(&options).unwrap();
    let run = |fault| {
        warm.fork_run(&DetectSpec {
            name: "missing".to_string(),
            fault,
        })
    };
    assert_eq!(run(DetectFault::HostLink(9)).unwrap().predicted, [3, 9]);
    assert_eq!(
        run(DetectFault::HostLink(11)),
        Err(ScenarioError::WrongComponent("Host"))
    );
    assert_eq!(
        run(DetectFault::Trunk { leaf: 0, spine: 9 }),
        Err(ScenarioError::WrongComponent("Switch port"))
    );
}

#[test]
fn a_component_read_as_another_type_names_the_type_it_wanted() {
    use netfi::injector::InjectorDevice;
    use netfi::myrinet::switch::Switch;
    use netfi::netstack::{build_testbed, Host, TestbedOptions};
    use netfi::nftape::bed::{read, read_mut, Bed};
    use netfi::nftape::ScenarioError;

    let spliced = TestbedOptions {
        intercept_host: Some(1),
        ..TestbedOptions::default()
    };
    let mut tb = build_testbed(spliced, |_, _| {}).unwrap();
    let bed = Bed::of(&tb).unwrap();
    assert!(read::<Host>(&tb.engine, bed.hosts[0]).is_ok());
    assert_eq!(
        read::<Host>(&tb.engine, bed.switch).err(),
        Some(ScenarioError::WrongComponent("Host"))
    );
    assert_eq!(
        read::<Switch>(&tb.engine, bed.device).err(),
        Some(ScenarioError::WrongComponent("Switch"))
    );
    assert_eq!(
        read_mut::<InjectorDevice>(&mut tb.engine, bed.hosts[1]).err(),
        Some(ScenarioError::WrongComponent("InjectorDevice"))
    );

    let plain = build_testbed(TestbedOptions::default(), |_, _| {}).unwrap();
    assert_eq!(Bed::of(&plain), Err(ScenarioError::NoInjector));
}
