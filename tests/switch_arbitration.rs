//! What arbitrating a crossbar costs, pinned as counts.
//!
//! `Switch::service` inspects only the inputs that something woke — a
//! packet that became the head of its input, or an output its head asks
//! for that may have come free — instead of walking every input from the
//! round-robin cursor and starting again after each forward. A timing
//! cannot guard that on a shared box; `Switch::arbitration()` can, because
//! the head-of-line inspections of a seeded run repeat exactly. On the
//! 1,000-host fabric the walk made 25,521,264 of them to forward 237,000
//! packets, 107.7 each: during a burst most of a spine's 64 inputs are
//! occupied *and* blocked behind a busy output, so each was looked at
//! again on every call.
//!
//! A red run is the code, never the box: either `service` is walking again
//! (someone wakes every input where one output came free), or a new wake
//! was added more broadly than the event that needs it. Too *few* wakes do
//! not show here — they move the digests of `tests/determinism.rs` and
//! trip the debug-build invariant in `switch.rs`.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::myrinet::addr::EthAddr;
use netfi::myrinet::event::Ev;
use netfi::myrinet::Switch;
use netfi::netstack::{build_testbed, Host, TestbedOptions, Workload};
use netfi::nftape::{build_fabric, TopoOptions};
use netfi::sim::{ComponentId, Engine, SimDuration, SimTime};

/// `(attempts, forwarded)` summed over `switches`.
fn attempts_and_forwards(engine: &Engine<Ev>, switches: &[ComponentId]) -> (u64, u64) {
    switches.iter().fold((0, 0), |(attempts, forwarded), &id| {
        let sw = engine.component_as::<Switch>(id).unwrap();
        (
            attempts + sw.arbitration().attempts,
            forwarded + sw.stats().forwarded,
        )
    })
}

#[test]
fn a_forward_costs_a_few_attempts_not_a_walk() {
    // 17 leaves of 64 ports and 2 spines, stride traffic, 40 sim-ms: the
    // benchmark's `fabric1000`.
    let options = TopoOptions {
        seed: 7,
        ..TopoOptions::sized(1000)
    };
    let fab = build_fabric(&options, |_, _| {}).unwrap();
    let switches: Vec<_> = fab.leaves.iter().chain(&fab.spines).copied().collect();
    let mut engine = fab.engine;
    engine.run_until(SimTime::from_ms(40));
    let (attempts, forwarded) = attempts_and_forwards(&engine, &switches);
    println!(
        "1,000 hosts, {} switches: {attempts} attempts / {forwarded} forwards = {:.2}",
        switches.len(),
        attempts as f64 / forwarded as f64
    );
    assert_eq!(switches.len(), 19);
    assert_eq!(forwarded, 237_000);
    assert!(attempts < 8 * forwarded, "{attempts} attempts for {forwarded} forwards");

    // The 8-port test bed under a 64 B flood: one or two busy inputs and
    // idle outputs, so nearly every attempt is a forward (the walk made
    // eight or more a call).
    let mut tb = build_testbed(
        TestbedOptions {
            seed: 7,
            paper_era_hosts: true,
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            if i == 2 {
                host.add_workload(Workload::Flood {
                    peer: EthAddr::myricom(2),
                    payload_len: 64,
                    timeout: SimDuration::from_ms(10),
                });
            }
        },
    )
    .unwrap();
    tb.engine.run_until(SimTime::from_secs(2));
    let (attempts, forwarded) = attempts_and_forwards(&tb.engine, &[tb.switch]);
    println!(
        "3 hosts: {attempts} attempts / {forwarded} forwards = {:.2}",
        attempts as f64 / forwarded as f64
    );
    assert!(forwarded > 1_000, "the flood ran: {forwarded} forwards");
    assert!(attempts < 3 * forwarded, "{attempts} attempts for {forwarded} forwards");
}
