//! The observed campaign: an end-to-end failure-analysis run with the
//! `netfi-obs` subsystem armed at every layer.
//!
//! The paper's campaigns watched the network with `mmon` while NFTAPE
//! drove the injector; this module does both at once. It builds the test
//! bed with an engine [`DispatchProbe`], arms the flight recorders that
//! the device, switch, interfaces and hosts embed, runs a fixed
//! checksum-corruption campaign, and folds everything into one sorted
//! event bundle plus a metrics [`Registry`]. Both exports — the Chrome
//! `trace_event` JSON and the text table — are byte-identical across
//! reruns of the same seed (pinned by golden hash in
//! `tests/determinism.rs`).
//!
//! [`observed_suite`] scales this to many scenarios: each seed's campaign
//! runs on a private engine in a scoped worker thread, and the per-run
//! registries are folded back in seed order, so the suite's exports are
//! byte-identical for any `--workers` setting.

use netfi_core::InjectorDevice;
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_myrinet::monitor::{InterfaceSnapshot, MmonReport, SwitchSnapshot};
use netfi_myrinet::switch::Switch;
use netfi_netstack::{
    build_testbed, build_testbed_probed, Host, Testbed, TestbedOptions, Workload,
};
use netfi_obs::event::sort_bundle;
use netfi_obs::export::{chrome_trace, text_table};
use netfi_obs::{DispatchProbe, EventKind, ObsEvent, Registry, Stamped};
use netfi_sim::shard::{ShardSpec, ShardedEngine};
use netfi_sim::{Fnv1a, RunBudget, RunOutcome, SimDuration, SimTime, Simulation};

use crate::bed::{read, read_mut, Bed};
use crate::grid::{crc_repaired_spec, fresh_observed, run_fault_phases, warm_campaign};
use crate::report::{registry_tables, Table};
use crate::results::ScenarioError;
use crate::runner::fan_out;

/// Ring capacity armed on every component recorder.
pub(crate) const RING: usize = 512;

/// Event budget for every campaign phase run. The healthy campaign
/// delivers well under a million events end to end, so this cap is pure
/// insurance: a fault that livelocks the simulated system (a corrupted
/// control loop re-arming at the same instant forever) terminates as
/// [`RunOutcome::BudgetExhausted`] instead of spinning the host. The
/// drivers assert the budget was *not* the reason a healthy phase ended,
/// so the golden hashes cannot silently pin a truncated run.
pub(crate) const CAMPAIGN_EVENT_BUDGET: u64 = 20_000_000;

/// Runs the executor to `deadline` under [`CAMPAIGN_EVENT_BUDGET`],
/// asserting the phase drained or reached the deadline rather than
/// exhausting the budget.
pub(crate) fn run_phase_budgeted<M>(sim: &mut impl Simulation<M>, deadline: SimTime) {
    let outcome = sim.run_budgeted(RunBudget::until(deadline).with_max_events(CAMPAIGN_EVENT_BUDGET));
    assert_ne!(
        outcome,
        RunOutcome::BudgetExhausted,
        "campaign phase exhausted its event budget before {deadline:?} — livelock?"
    );
}

/// Everything an observed run produces.
#[derive(Debug)]
pub struct ObservedCampaign {
    /// The merged, deterministically sorted event bundle from every
    /// recorder (device, switch, interfaces, hosts, campaign phases).
    pub events: Vec<Stamped<ObsEvent>>,
    /// Per-layer detection counts, fabric gauges and latency histograms.
    pub registry: Registry,
    /// Events evicted from any bounded ring during the run.
    pub dropped: u64,
    /// Total engine dispatches seen by the probe.
    pub dispatches: u64,
}

impl ObservedCampaign {
    /// The Chrome `trace_event` JSON export of the event bundle.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events)
    }

    /// The deterministic text-table export of the registry.
    pub fn text_table(&self) -> String {
        text_table("observed campaign", &self.registry)
    }
}

/// The fixed campaign topology: three hosts, the injector spliced into
/// host 1's link.
pub(crate) fn campaign_options(seed: u64) -> TestbedOptions {
    TestbedOptions {
        hosts: 3,
        intercept_host: Some(1),
        seed,
        ..TestbedOptions::default()
    }
}

/// The fixed campaign workload: a ping-pong latency probe on the clean
/// pair (host 2 against host 0).
pub(crate) fn campaign_workload(i: usize, host: &mut Host) {
    if i == 2 {
        host.add_workload(Workload::PingPong {
            peer: EthAddr::myricom(1),
            count: 50,
            payload_len: 16,
            timeout: SimDuration::from_ms(50),
        });
    }
}

/// Arms every layer's flight recorder before anything interesting
/// happens. No host's arrival log is armed here: no campaign export reads
/// one, and a reader arms the hosts it reads on its own fork (the sampler
/// arms its two stream sinks), so the donor's copies carry no map-phase
/// deliveries.
pub(crate) fn arm_recorders(sim: &mut impl Simulation<Ev>, bed: &Bed) -> Result<(), ScenarioError> {
    for &h in &bed.hosts {
        let host = read_mut::<Host>(sim, h)?;
        host.obs_mut().arm(RING);
        host.nic_mut().obs_mut().arm(RING);
    }
    read_mut::<Switch>(sim, bed.switch)?.obs_mut().arm(RING);
    read_mut::<InjectorDevice>(sim, bed.device)?
        .obs_mut()
        .arm(RING);
    Ok(())
}

/// Drives phase 1 — map — on any [`Simulation`] executor: the fabric
/// elects a mapper, discovers routes and settles. This is the expensive
/// warm-up the fork grid amortizes: it runs once on a donor engine whose
/// post-map state is snapshotted and forked per scenario.
pub(crate) fn drive_map_phase(sim: &mut impl Simulation<Ev>) -> Vec<Stamped<ObsEvent>> {
    let mut phases: Vec<Stamped<ObsEvent>> = Vec::new();
    phases.push(Stamped {
        time: sim.now(),
        value: ObsEvent::begin("campaign", "map", 0),
    });
    run_phase_budgeted(sim, SimTime::from_ms(2_500));
    phases.push(Stamped {
        time: sim.now(),
        value: ObsEvent::end("campaign", "map", 0),
    });
    phases
}

/// The one campaign set-up: builds the fixed test bed with a dispatch
/// probe and arms every recorder. Returns it with its ids, ready for the
/// map phase.
pub(crate) fn armed_testbed(seed: u64) -> Result<(Testbed<DispatchProbe>, Bed), ScenarioError> {
    let mut tb = build_testbed_probed(
        campaign_options(seed),
        DispatchProbe::new(RING),
        campaign_workload,
    )?;
    let bed = Bed::of(&tb)?;
    arm_recorders(&mut tb.engine, &bed)?;
    Ok((tb, bed))
}

/// Collects the run: merges every recorder into one sorted bundle and
/// folds counters, snapshots and the engine probe into the registry.
/// Identical component state yields byte-identical exports, whichever
/// executor ran the campaign.
pub(crate) fn collect(
    sim: &impl Simulation<Ev>,
    bed: &Bed,
    phases: Vec<Stamped<ObsEvent>>,
    probe: &DispatchProbe,
) -> Result<ObservedCampaign, ScenarioError> {
    let mut events = phases;
    let mut dropped = 0;

    let mut report = MmonReport::default();
    for &h in &bed.hosts {
        let host = read::<Host>(sim, h)?;
        events.extend(host.obs().events().copied());
        events.extend(host.nic().obs().events().copied());
        dropped += host.obs().dropped() + host.nic().obs().dropped();
        report.interfaces.push(InterfaceSnapshot::capture(host.nic()));
    }
    let sw = read::<Switch>(sim, bed.switch)?;
    events.extend(sw.obs().events().copied());
    dropped += sw.obs().dropped();
    report.switches.push(SwitchSnapshot::capture(sw));
    let dev = read::<InjectorDevice>(sim, bed.device)?;
    events.extend(dev.obs().events().copied());
    dropped += dev.obs().dropped();

    sort_bundle(&mut events);

    let mut registry = report.to_registry();
    for &h in &bed.hosts {
        let u = read::<Host>(sim, h)?.udp_stats();
        registry.add("udp.tx", u.tx);
        registry.add("udp.rx_ok", u.rx_ok);
        registry.add("udp.rx_checksum_drops", u.rx_checksum_drops);
        registry.add("udp.rx_malformed", u.rx_malformed);
    }
    // Latency percentiles come from the sampled events; detection events
    // are counted per site so the table shows what each layer *saw*, next
    // to what its counters say happened.
    for ev in &events {
        match ev.value.kind {
            EventKind::Sample => {
                registry.record(&format!("{}.{}", ev.value.scope, ev.value.name), ev.value.value);
            }
            EventKind::Instant => {
                registry.add(&format!("events.{}.{}", ev.value.scope, ev.value.name), 1);
            }
            EventKind::Begin | EventKind::End => {}
        }
    }
    registry.set_gauge("engine.dispatches", probe.total() as i64);
    registry.set_gauge("engine.components", sim.component_count() as i64);
    let dispatches = probe.total();
    dropped += probe.trace_dropped();

    Ok(ObservedCampaign {
        events,
        registry,
        dropped,
        dispatches,
    })
}

/// Runs the fixed observed campaign: three hosts, the injector spliced
/// into host 1's link, a detected (non-aliasing) UDP payload corruption
/// with CRC-8 repair, a sender stream into the corrupted link and a
/// ping-pong latency workload on the clean pair.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn observed_campaign(seed: u64) -> Result<ObservedCampaign, ScenarioError> {
    fresh_observed(seed, &crc_repaired_spec())
}

/// [`observed_campaign`], with the fault phases executed on a **fork** of
/// the warmed engine: the donor runs the map phase, its state is captured
/// into an `EngineSnapshot`, and the program + inject phases run on a
/// fork of that capture while the donor is left untouched.
///
/// This is the headline correctness claim of the snapshot seam: the fork
/// must be bit-identical to the fresh run reaching the same state, so
/// this function's exports hash to the **same** golden values
/// `tests/determinism.rs` pins for [`observed_campaign`].
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn observed_campaign_forked(seed: u64) -> Result<ObservedCampaign, ScenarioError> {
    warm_campaign(seed)?.fork_observed(&crc_repaired_spec())
}

/// An [`ObservedCampaign`] produced by the sharded engine, plus the
/// scheduling statistics that back its determinism argument.
#[derive(Debug)]
pub struct ShardedObserved {
    /// The campaign exports — byte-identical to [`observed_campaign`]'s
    /// for the same seed (pinned in `tests/determinism.rs`).
    pub campaign: ObservedCampaign,
    /// Affinity shards the engine ran with.
    pub shards: usize,
    /// Conservative windows executed.
    pub rounds: u64,
    /// Events that crossed a shard boundary through the mailbox. Every
    /// one carries its sub-tick key from emission, so merged events order
    /// exactly as the serial engine orders them — ties included (see
    /// `netfi_sim::shard` and DESIGN.md §11).
    pub cross_events: u64,
}

/// [`observed_campaign`], executed by a [`ShardedEngine`]: the switch, each
/// host, and the injector (grouped with its intercepted host, as in the
/// paper's per-link placement) become affinity shards, with the link
/// propagation delay as the conservative lookahead.
///
/// The exports are byte-identical to the serial campaign's for **any**
/// `workers` — `tests/determinism.rs` pins workers 1/2/4 against the same
/// golden hashes the serial campaign carries.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn observed_campaign_sharded(seed: u64, workers: usize) -> Result<ShardedObserved, ScenarioError> {
    let options = campaign_options(seed);
    let lookahead = options.link.propagation_delay();
    let tb = build_testbed(options, campaign_workload)?;
    let bed = Bed::of(&tb)?;

    // Affinity: shard 0 is the switch; each host gets its own shard; the
    // injector lives in its intercepted host's shard (their splice is an
    // intra-shard link, free to be faster than the lookahead).
    let mut affinity = vec![0u16; tb.engine.component_count()];
    for (i, h) in bed.hosts.iter().enumerate() {
        affinity[h.index()] = i as u16 + 1;
    }
    affinity[bed.device.index()] = affinity[bed.hosts[1].index()];

    let spec = ShardSpec {
        affinity,
        lookahead,
        workers,
    };
    let mut sim = ShardedEngine::from_engine(tb.engine, spec, |_| DispatchProbe::new(RING));
    arm_recorders(&mut sim, &bed)?;
    let mut phases = drive_map_phase(&mut sim);
    run_fault_phases(&mut sim, &crc_repaired_spec(), &bed, &mut phases)?;
    let probe = DispatchProbe::merged(sim.probes());
    let campaign = collect(&sim, &bed, phases, &probe)?;
    Ok(ShardedObserved {
        campaign,
        shards: sim.shard_count(),
        rounds: sim.rounds(),
        cross_events: sim.cross_events(),
    })
}

/// A multi-scenario observed campaign: one [`observed_campaign`] per seed,
/// fanned out over worker threads, folded back deterministically.
///
/// Each scenario runs on a **private** engine, testbed and recorder set,
/// so scenarios share no mutable state, and [`fan_out`] returns the runs
/// in seed order. The fold walks them in that order: registries merge
/// left-to-right, drop/dispatch totals sum. Nothing in the output can
/// observe which thread ran which scenario, so the suite is byte-identical
/// for any worker count (pinned by `tests/determinism.rs`).
#[derive(Debug)]
pub struct ObservedSuite {
    /// The per-scenario runs, in seed order.
    pub runs: Vec<ObservedCampaign>,
    /// The seeds, as given.
    pub seeds: Vec<u64>,
    /// Every scenario's registry folded in scenario-index order.
    pub registry: Registry,
    /// Total ring evictions across scenarios.
    pub dropped: u64,
    /// Total engine dispatches across scenarios.
    pub dispatches: u64,
}

impl ObservedSuite {
    /// The suite registry rendered as campaign-report tables.
    pub fn report_tables(&self) -> Vec<Table> {
        registry_tables("observed suite", &self.registry)
    }

    /// The deterministic text-table export of the folded registry.
    pub fn text_table(&self) -> String {
        text_table("observed suite", &self.registry)
    }

    /// Per-scenario Chrome `trace_event` exports, in seed order.
    pub fn chrome_traces(&self) -> Vec<String> {
        self.runs.iter().map(ObservedCampaign::chrome_trace).collect()
    }

    /// FNV-1a fingerprint over every export the suite produces: the text
    /// table, each report table and each scenario's Chrome trace, in
    /// order. Two suites with the same fingerprint rendered the same
    /// bytes — the determinism tests compare this across worker counts.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write(self.text_table().as_bytes());
        for table in self.report_tables() {
            hash.write(table.render().as_bytes());
        }
        for trace in self.chrome_traces() {
            hash.write(trace.as_bytes());
        }
        hash.finish()
    }
}

/// Runs [`observed_campaign`] for every seed over `workers` threads and
/// folds the results in seed order.
///
/// # Errors
///
/// Returns the first (in seed order) [`ScenarioError`], if any scenario
/// failed to build or read its test bed.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn observed_suite(seeds: &[u64], workers: usize) -> Result<ObservedSuite, ScenarioError> {
    let runs = fan_out(workers, seeds.len(), || |i| observed_campaign(seeds[i]))?;
    Ok(fold_suite(runs, seeds))
}

/// Folds per-scenario runs (already in seed order) into the suite export.
fn fold_suite(runs: Vec<ObservedCampaign>, seeds: &[u64]) -> ObservedSuite {
    let mut registry = Registry::new();
    let mut dropped = 0;
    let mut dispatches = 0;
    for run in &runs {
        registry.merge(&run.registry);
        dropped += run.dropped;
        dispatches += run.dispatches;
    }
    // Gauges overwrite on merge (last scenario wins); the suite-wide
    // dispatch total is the meaningful engine gauge, so set it explicitly.
    registry.set_gauge("engine.dispatches", dispatches as i64);
    ObservedSuite {
        runs,
        seeds: seeds.to_vec(),
        registry,
        dropped,
        dispatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_campaign_sees_every_layer() {
        let run = observed_campaign(11).unwrap();
        // The device injected and repaired the CRC; the host's UDP layer
        // caught what the link layer could no longer detect.
        assert!(run.registry.counter("events.device.inject") > 0);
        assert!(run.registry.counter("events.device.crc_repair") > 0);
        assert!(run.registry.counter("events.host.checksum_drop") > 0);
        assert_eq!(
            run.registry.counter("events.host.checksum_drop"),
            run.registry.counter("udp.rx_checksum_drops")
        );
        // The ping-pong workload produced latency samples.
        let rtt = run.registry.histogram("host.rtt_ns").unwrap();
        assert!(rtt.count() >= 50);
        assert!(rtt.percentiles().p50 > 0);
        // The fabric mapped and the probe watched the engine do it.
        assert!(run.registry.counter("interface.maps_built") > 0);
        assert!(run.dispatches > 1000);
        // Phases bracket the run.
        assert_eq!(run.events[0].value.scope, "campaign");
        assert_eq!(run.events[0].value.kind, EventKind::Begin);
    }

    #[test]
    fn sharded_campaign_matches_serial_byte_for_byte() {
        let serial = observed_campaign(11).unwrap();
        for workers in [1, 2] {
            let run = observed_campaign_sharded(11, workers).unwrap();
            assert_eq!(
                run.campaign.chrome_trace(),
                serial.chrome_trace(),
                "workers={workers}"
            );
            assert_eq!(run.campaign.text_table(), serial.text_table());
            assert_eq!(run.campaign.events, serial.events);
            assert_eq!(run.campaign.dispatches, serial.dispatches);
            // Switch + 3 hosts (device rides with host 1).
            assert_eq!(run.shards, 4);
            assert!(run.rounds > 0);
            assert!(run.cross_events > 0);
        }
        // This topology has periodic symmetric ties (host 0 and host 2
        // both hitting the switch on the same instant during mapping);
        // sub-tick keys order them identically in both executors, so the
        // export equality above needs no per-tie oracle (DESIGN.md §11).
    }

    #[test]
    fn forked_campaign_matches_fresh_byte_for_byte() {
        let fresh = observed_campaign(11).unwrap();
        let forked = observed_campaign_forked(11).unwrap();
        assert_eq!(forked.events, fresh.events);
        assert_eq!(forked.chrome_trace(), fresh.chrome_trace());
        assert_eq!(forked.text_table(), fresh.text_table());
        assert_eq!(forked.dispatches, fresh.dispatches);
        assert_eq!(forked.dropped, fresh.dropped);
    }

    #[test]
    fn observed_campaign_is_reproducible() {
        let a = observed_campaign(11).unwrap();
        let b = observed_campaign(11).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.chrome_trace(), b.chrome_trace());
        assert_eq!(a.text_table(), b.text_table());
    }

    #[test]
    fn suite_folds_independent_of_worker_count() {
        let seeds = [11, 12, 13];
        let one = observed_suite(&seeds, 1).unwrap();
        let three = observed_suite(&seeds, 3).unwrap();
        assert_eq!(one.fingerprint(), three.fingerprint());
        assert_eq!(one.text_table(), three.text_table());
        assert_eq!(one.chrome_traces(), three.chrome_traces());
        // The fold really is a sum of the per-scenario runs.
        let solo: u64 = seeds
            .iter()
            .map(|&s| observed_campaign(s).unwrap().registry.counter("udp.tx"))
            .sum();
        assert_eq!(one.registry.counter("udp.tx"), solo);
        assert_eq!(one.registry.gauge("engine.dispatches"), Some(one.dispatches as i64));
        assert_eq!(one.runs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn suite_rejects_zero_workers() {
        let _ = observed_suite(&[1], 0);
    }

    #[test]
    fn report_tables_render() {
        let run = observed_campaign(11).unwrap();
        let tables = registry_tables("observed campaign", &run.registry);
        assert_eq!(tables.len(), 2);
        let text = tables[0].render();
        assert!(text.contains("udp.rx_checksum_drops"));
        let latency = tables[1].render();
        assert!(latency.contains("host.rtt_ns"));
        assert!(latency.contains("p99"));
    }
}
