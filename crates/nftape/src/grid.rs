//! The test-bed campaign, observed at every layer, and the chaos grid of
//! failure scenarios forked from one warmed run of it.
//!
//! The paper's campaigns watched the network with `mmon` while NFTAPE
//! drove the injector; this campaign does both at once. It builds the
//! three-host test bed with an engine [`DispatchProbe`], arms the flight
//! recorders that the device, switch, interfaces and hosts embed, runs the
//! map phase, applies one failure, streams UDP traffic through it, and
//! folds everything into one sorted event bundle plus a metrics
//! [`Registry`]. Both exports — the Chrome `trace_event` JSON and the text
//! table — are byte-identical across reruns of the same seed.
//!
//! Every run starts with the same fixed cost before anything interesting
//! happens: 2.5 simulated seconds of mapping traffic while the fabric
//! elects a mapper, discovers routes and settles. A grid of N failure
//! scenarios over the same topology therefore costs N × (warm-up + fault
//! phases) when each scenario builds its own test bed. [`fork_grid`]
//! converts that to 1 × warm-up + N × fault phases: a donor engine runs
//! the map phase once, its full deterministic state is captured with
//! [`netfi_sim::Engine::snapshot`], and each scenario runs on an
//! independent [`fork`](netfi_sim::EngineSnapshot::fork) of that capture.
//!
//! The drivers that run many scenarios over one warmed network share a
//! donor this way: this grid, the `netfi-sample` sampler, the detection
//! campaign ([`crate::detection`]) and the nine Table 4 rows
//! ([`crate::scenarios::control`], through
//! [`run_campaigns_with_workers`](crate::campaign::run_campaigns_with_workers)
//! too). The other prebuilt scenarios deliberately do not: each runs one
//! or two arms, milliseconds of host time, on a bed whose hosts, routes
//! or workload are its own (DESIGN.md §12).
//!
//! A scenario is a [`FailureSpec`]: one [`GridFault`] — a host powered
//! off, a switch port severed or an injector program — applied to the run
//! *after* the map phase, exactly the paper's model of a healthy network
//! that degrades mid-mission. Because a fork is bit-identical to a fresh
//! engine warmed to the same state, [`fork_grid`] and [`fresh_grid`]
//! produce byte-identical results for every spec and every worker count,
//! and the grid's `replace-crc-repaired` row exports the bytes of
//! [`observed_campaign`] (`tests/determinism.rs` pins both).
//! [`observed_campaign_sharded`] runs that campaign on the sharded engine,
//! to the same bytes.

use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::trigger::MatchMode;
use netfi_core::InjectorDevice;
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_myrinet::monitor::{InterfaceSnapshot, MmonReport, SwitchSnapshot};
use netfi_myrinet::switch::Switch;
use netfi_netstack::{
    build_testbed, build_testbed_probed, Host, HostCmd, Testbed, TestbedOptions, UdpDatagram,
    Workload, SINK_PORT,
};
use netfi_obs::event::sort_bundle;
use netfi_obs::export::{chrome_trace, text_table};
use netfi_obs::{DispatchProbe, EventKind, ObsEvent, Registry, Stamped};
use netfi_phy::ControlSymbol;
use netfi_sim::shard::{ShardSpec, ShardedEngine};
use netfi_sim::{Engine, Fnv1a, RunBudget, RunOutcome, SimDuration, SimTime, Simulation};

use crate::bed::{read, read_mut, Bed, Warm};
use crate::results::ScenarioError;
use crate::runner::{fan_out, power_off, program_injector, sever};
use crate::scenarios::udpcheck::MESSAGE;

/// Ring capacity armed on every component recorder.
const RING: usize = 512;

/// Event budget for every campaign phase run. The healthy campaign
/// delivers well under a million events end to end, so this cap is pure
/// insurance: a fault that livelocks the simulated system (a corrupted
/// control loop re-arming at the same instant forever) terminates as
/// [`RunOutcome::BudgetExhausted`] instead of spinning the host. The
/// drivers assert the budget was *not* the reason a healthy phase ended,
/// so the golden hashes cannot silently pin a truncated run.
const CAMPAIGN_EVENT_BUDGET: u64 = 20_000_000;

/// Runs the executor to `deadline` under [`CAMPAIGN_EVENT_BUDGET`],
/// asserting the phase drained or reached the deadline rather than
/// exhausting the budget.
fn run_phase_budgeted<M>(sim: &mut impl Simulation<M>, deadline: SimTime) {
    let outcome =
        sim.run_budgeted(RunBudget::until(deadline).with_max_events(CAMPAIGN_EVENT_BUDGET));
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
fn campaign_options(seed: u64) -> TestbedOptions {
    TestbedOptions {
        hosts: 3,
        intercept_host: Some(1),
        seed,
        ..TestbedOptions::default()
    }
}

/// The fixed campaign workload: a ping-pong latency probe on the clean
/// pair (host 2 against host 0).
fn campaign_workload(i: usize, host: &mut Host) {
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
fn arm_recorders(sim: &mut impl Simulation<Ev>, bed: &Bed) -> Result<(), ScenarioError> {
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
fn drive_map_phase(sim: &mut impl Simulation<Ev>) -> Vec<Stamped<ObsEvent>> {
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

/// The one serial campaign set-up: builds the fixed test bed with a
/// dispatch probe and arms every recorder. Returns it with its ids, ready
/// for the map phase.
fn armed_testbed(seed: u64) -> Result<(Testbed<DispatchProbe>, Bed), ScenarioError> {
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
fn collect(
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
        report
            .interfaces
            .push(InterfaceSnapshot::capture(host.nic()));
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
                registry.record(
                    &format!("{}.{}", ev.value.scope, ev.value.name),
                    ev.value.value,
                );
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

/// Runs the fixed observed campaign on a fresh test bed: three hosts, the
/// injector spliced into host 1's link, a detected (non-aliasing) UDP
/// payload corruption with CRC-8 repair, a sender stream into the
/// corrupted link and a ping-pong latency workload on the clean pair.
/// The grid's `replace-crc-repaired` row is this run on a fork.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn observed_campaign(seed: u64) -> Result<ObservedCampaign, ScenarioError> {
    fresh_observed(seed, &crc_repaired_spec())
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
pub fn observed_campaign_sharded(
    seed: u64,
    workers: usize,
) -> Result<ShardedObserved, ScenarioError> {
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

/// The one failure a grid scenario applies after the map phase.
#[derive(Debug, Clone)]
pub enum GridFault {
    /// No failure: the run just replays healthy traffic.
    Healthy,
    /// Power off a host (an index into the test bed's host list). The
    /// host stays wired but ignores every subsequent event — the paper's
    /// silent node failure.
    NodeOff(usize),
    /// Sever a switch port (the test bed wires host `i` to port `i`).
    /// Frames arriving on or routed out of it are dropped and counted —
    /// the paper's link failure.
    LinkSevered(u8),
    /// Program the injector on host 1's spliced link over the device's
    /// serial command protocol.
    Inject(DirSelect, InjectorConfig),
}

/// One named failure scenario, applied to a fork of the warmed donor
/// engine before the fault phases run.
#[derive(Debug, Clone)]
pub struct FailureSpec {
    /// Scenario name, carried into the result and the grid fingerprint.
    pub name: String,
    /// The failure applied after the map phase.
    pub fault: GridFault,
}

impl FailureSpec {
    /// The no-failure baseline.
    pub(crate) fn healthy(name: &str) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            fault: GridFault::Healthy,
        }
    }

    /// Powers off one host.
    pub(crate) fn node_off(name: &str, host: usize) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            fault: GridFault::NodeOff(host),
        }
    }

    /// Severs one switch port.
    pub(crate) fn link_severed(name: &str, port: u8) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            fault: GridFault::LinkSevered(port),
        }
    }

    /// Programs the injector on host 1's link.
    pub(crate) fn inject(name: &str, dir: DirSelect, config: InjectorConfig) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            fault: GridFault::Inject(dir, config),
        }
    }
}

/// The observed campaign's fault, and the grid's "replace-crc-repaired"
/// row: a detected corruption with CRC-8 repair, so the fault survives the
/// link layer and is caught by the UDP checksum at the destination host.
fn crc_repaired_spec() -> FailureSpec {
    FailureSpec::inject(
        "replace-crc-repaired",
        DirSelect::B,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(u32::from_be_bytes(*b"Have"), 0xFFFF_FFFF)
            .corrupt_replace(u32::from_be_bytes(*b"XaXe"), 0xFFFF_FFFF)
            .recompute_crc(true)
            .build(),
    )
}

/// The default chaos grid: 19 scenarios over the fixed three-host
/// topology, mirroring the 19-spec paper campaign — a healthy baseline,
/// every single-node failure, every single-link failure, and twelve
/// injector programs spanning the device's corruption families.
pub fn grid_specs() -> Vec<FailureSpec> {
    let compare = u32::from_be_bytes(*b"Have");
    let replace = u32::from_be_bytes(*b"XaXe");
    let mut specs = vec![FailureSpec::healthy("healthy")];
    for host in 0..3 {
        specs.push(FailureSpec::node_off(&format!("node-off-{host}"), host));
    }
    for port in 0..3u8 {
        specs.push(FailureSpec::link_severed(
            &format!("link-severed-{port}"),
            port,
        ));
    }
    let inject = |name: &str, dir, config| FailureSpec::inject(name, dir, config);
    specs.push(crc_repaired_spec());
    specs.push(inject(
        "replace-crc-detected",
        DirSelect::B,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(compare, 0xFFFF_FFFF)
            .corrupt_replace(replace, 0xFFFF_FFFF)
            .recompute_crc(false)
            .build(),
    ));
    specs.push(inject(
        "replace-once",
        DirSelect::B,
        InjectorConfig::builder()
            .match_mode(MatchMode::Once)
            .compare(compare, 0xFFFF_FFFF)
            .corrupt_replace(replace, 0xFFFF_FFFF)
            .recompute_crc(true)
            .build(),
    ));
    specs.push(inject(
        "replace-dir-a",
        DirSelect::A,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(compare, 0xFFFF_FFFF)
            .corrupt_replace(replace, 0xFFFF_FFFF)
            .recompute_crc(true)
            .build(),
    ));
    specs.push(inject(
        "replace-both-dirs",
        DirSelect::Both,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(compare, 0xFFFF_FFFF)
            .corrupt_replace(replace, 0xFFFF_FFFF)
            .recompute_crc(true)
            .build(),
    ));
    specs.push(inject(
        "toggle-low-byte",
        DirSelect::B,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(compare, 0xFFFF_FFFF)
            .corrupt_toggle(0x0000_00FF)
            .recompute_crc(true)
            .build(),
    ));
    specs.push(inject(
        "toggle-msb",
        DirSelect::B,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(compare, 0xFFFF_FFFF)
            .corrupt_toggle(0x8000_0000)
            .recompute_crc(true)
            .build(),
    ));
    specs.push(inject(
        "masked-half-word",
        DirSelect::B,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .compare(compare & 0xFFFF_0000, 0xFFFF_0000)
            .corrupt_replace(replace & 0xFFFF_0000, 0xFFFF_0000)
            .recompute_crc(true)
            .build(),
    ));
    specs.push(inject(
        "gap-to-stop",
        DirSelect::B,
        InjectorConfig::control_swap(ControlSymbol::Gap.encode(), ControlSymbol::Stop.encode()),
    ));
    specs.push(inject(
        "gap-to-idle",
        DirSelect::B,
        InjectorConfig::control_swap(ControlSymbol::Gap.encode(), ControlSymbol::Idle.encode()),
    ));
    specs.push(inject(
        "stop-to-go",
        DirSelect::B,
        InjectorConfig::control_swap(ControlSymbol::Stop.encode(), ControlSymbol::Go.encode()),
    ));
    specs.push(inject(
        "seu-bitflips",
        DirSelect::B,
        InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .random_seu(0.001)
            .build(),
    ));
    specs
}

/// One scenario's rendered result: everything the grid compares and
/// fingerprints. Holding the exports (rather than the raw bundle) keeps a
/// 19-spec grid small while still pinning every byte the scenario
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRun {
    /// The [`FailureSpec::name`] this run executed.
    pub spec: String,
    /// The Chrome `trace_event` JSON export of the scenario's bundle.
    pub chrome_trace: String,
    /// The deterministic text-table export of the scenario's registry.
    pub text_table: String,
    /// Engine dispatches observed during the scenario (map phase
    /// included — the fork inherits the donor probe's counters).
    pub dispatches: u64,
    /// Ring evictions across the scenario's recorders.
    pub dropped: u64,
}

/// A full grid of scenario results, in spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridResult {
    /// One result per spec, in the order the specs were given.
    pub runs: Vec<GridRun>,
}

impl GridResult {
    /// FNV-1a fingerprint over every run's name and exports, in order.
    /// Equal fingerprints mean the grids rendered the same bytes — the
    /// determinism tests compare this across worker counts and between
    /// [`fork_grid`] and [`fresh_grid`].
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        for run in &self.runs {
            hash.write(run.spec.as_bytes());
            hash.write(run.chrome_trace.as_bytes());
            hash.write(run.text_table.as_bytes());
            hash.write_u64(run.dispatches);
            hash.write_u64(run.dropped);
        }
        hash.finish()
    }
}

/// A donor campaign warmed through the map phase, ready to be forked once
/// per [`FailureSpec`]: the warmed test bed plus the map-phase span events
/// each scenario's bundle starts from.
#[derive(Debug)]
pub struct WarmedCampaign {
    warm: Warm<DispatchProbe>,
    map_phases: Vec<Stamped<ObsEvent>>,
}

impl WarmedCampaign {
    /// Forks the donor and runs one scenario on the fork: apply the spec,
    /// drive the fault phases, collect the exports. The donor is left
    /// untouched and can be forked again — from any thread, since the
    /// snapshot is `Sync`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the spec names a missing host or
    /// port, or the forked test bed cannot be read.
    pub fn fork_run(&self, spec: &FailureSpec) -> Result<GridRun, ScenarioError> {
        self.run_on(&mut self.warm.fork(), spec)
    }

    /// Runs one scenario on `engine`, which must be a fork of this donor
    /// that nothing has touched since.
    fn run_on(
        &self,
        engine: &mut Engine<Ev, DispatchProbe>,
        spec: &FailureSpec,
    ) -> Result<GridRun, ScenarioError> {
        run_and_collect(engine, spec, &self.warm.bed, self.map_phases.clone())
            .map(|run| render(spec, run))
    }

    /// Forks the donor engine without running anything — the
    /// O(occupied state) unit the grid's amortization argument prices (the
    /// benchmark's `nftape.grid.fork_us` row).
    pub fn fork_engine(&self) -> Engine<Ev, DispatchProbe> {
        self.warm.fork()
    }

    /// The warmed test bed: its ids, and the forks a caller that drives
    /// its own fault phases takes — `netfi-sample`'s sampler forks it
    /// without the dispatch probe ([`Warm::fork_without_probe`]).
    pub fn warm(&self) -> &Warm<DispatchProbe> {
        &self.warm
    }
}

/// Builds the fixed campaign test bed and runs the map phase once,
/// capturing the warmed engine state into a forkable snapshot.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn warm_campaign(seed: u64) -> Result<WarmedCampaign, ScenarioError> {
    let (mut tb, bed) = armed_testbed(seed)?;
    let map_phases = drive_map_phase(&mut tb.engine);
    Ok(WarmedCampaign {
        warm: Warm::new(bed, &tb.engine),
        map_phases,
    })
}

/// Runs one scenario the expensive way: a fresh test bed, the full map
/// phase, then the same fault phases a fork runs. This is the oracle
/// [`fork_grid`] is measured against — for equal seed and spec it renders
/// byte-identically to [`WarmedCampaign::fork_run`].
fn fresh_observed(seed: u64, spec: &FailureSpec) -> Result<ObservedCampaign, ScenarioError> {
    let (mut tb, bed) = armed_testbed(seed)?;
    let map_phases = drive_map_phase(&mut tb.engine);
    run_and_collect(&mut tb.engine, spec, &bed, map_phases)
}

/// The fault phases plus collection on a serial engine. Shared verbatim
/// between the fork and fresh paths, so any divergence between them is
/// the snapshot's fault alone.
fn run_and_collect(
    engine: &mut Engine<Ev, DispatchProbe>,
    spec: &FailureSpec,
    bed: &Bed,
    mut phases: Vec<Stamped<ObsEvent>>,
) -> Result<ObservedCampaign, ScenarioError> {
    run_fault_phases(engine, spec, bed, &mut phases)?;
    collect(engine, bed, phases, engine.probe())
}

/// Applies the spec's failure and drives the inject phase on any
/// [`Simulation`] executor, appending their spans to `phases`. Every
/// test-bed campaign — observed, sharded, grid — runs its faults through
/// this one function. A failure that names a host or port the bed lacks
/// is an error before it changes anything.
fn run_fault_phases(
    sim: &mut impl Simulation<Ev>,
    spec: &FailureSpec,
    bed: &Bed,
    phases: &mut Vec<Stamped<ObsEvent>>,
) -> Result<(), ScenarioError> {
    let mut mark = |time: SimTime, value: ObsEvent| phases.push(Stamped { time, value });

    // Apply the failure before any fault traffic: the scenario starts from
    // a network that has already broken.
    match &spec.fault {
        GridFault::Healthy => {}
        GridFault::NodeOff(n) => {
            let &id = bed
                .hosts
                .get(*n)
                .ok_or(ScenarioError::WrongComponent("Host"))?;
            power_off(sim, id)?;
            mark(sim.now(), ObsEvent::instant("grid", "node_off", *n as u64));
        }
        GridFault::LinkSevered(port) => {
            sever(sim, bed.switch, usize::from(*port))?;
            mark(
                sim.now(),
                ObsEvent::instant("grid", "link_severed", u64::from(*port)),
            );
        }
        GridFault::Inject(dir, config) => {
            mark(sim.now(), ObsEvent::begin("campaign", "program", 0));
            let program_at = sim.now();
            let programmed = program_injector(sim, bed.device, program_at, *dir, config);
            run_phase_budgeted(sim, programmed);
            mark(sim.now(), ObsEvent::end("campaign", "program", 0));
        }
    }

    // Inject: stream the paper's message into host 1's link, plus settle
    // time.
    let sends: u64 = 40;
    mark(sim.now(), ObsEvent::begin("campaign", "inject", sends));
    for k in 0..sends {
        let at = sim.now() + SimDuration::from_ms(5) * k;
        sim.schedule(
            at,
            bed.hosts[0],
            Ev::App(Box::new(HostCmd::SendUdp {
                dest: EthAddr::myricom(2),
                datagram: UdpDatagram::new(6_000, SINK_PORT, MESSAGE.to_vec()),
            })),
        );
    }
    let settle = sim.now() + SimDuration::from_ms(5) * sends + SimDuration::from_ms(100);
    run_phase_budgeted(sim, settle);
    mark(sim.now(), ObsEvent::end("campaign", "inject", sends));
    Ok(())
}

/// Renders a collected campaign into the grid's compact result form.
fn render(spec: &FailureSpec, run: ObservedCampaign) -> GridRun {
    GridRun {
        spec: spec.name.clone(),
        chrome_trace: run.chrome_trace(),
        text_table: run.text_table(),
        dispatches: run.dispatches,
        dropped: run.dropped,
    }
}

/// Runs every spec on a fork of one warmed donor over `workers` threads:
/// 1 × warm-up + N × fault phases. Each worker forks the shared donor
/// into the one engine it keeps ([`fan_out`], DESIGN.md §10), so the
/// worker count cannot change any output byte — `tests/determinism.rs`
/// pins workers 1/2/8 against the same fingerprint.
///
/// # Errors
///
/// Returns the first (in spec order) [`ScenarioError`], if any.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn fork_grid(
    seed: u64,
    specs: &[FailureSpec],
    workers: usize,
) -> Result<GridResult, ScenarioError> {
    let warm = &warm_campaign(seed)?;
    let runs = fan_out(workers, specs.len(), || {
        let mut engine = warm.fork_engine();
        move |i| {
            warm.warm.fork_into(&mut engine);
            warm.run_on(&mut engine, &specs[i])
        }
    })?;
    Ok(GridResult { runs })
}

/// Runs every spec the expensive way — a private test bed and a full map
/// phase each — over `workers` threads: N × (warm-up + fault phases). The
/// baseline [`fork_grid`] is benchmarked against.
///
/// # Errors
///
/// Returns the first (in spec order) [`ScenarioError`], if any.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn fresh_grid(
    seed: u64,
    specs: &[FailureSpec],
    workers: usize,
) -> Result<GridResult, ScenarioError> {
    let runs = fan_out(workers, specs.len(), || {
        |i| fresh_observed(seed, &specs[i]).map(|run| render(&specs[i], run))
    })?;
    Ok(GridResult { runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::registry_tables;

    /// One fresh run of the observed campaign. Its reproducibility and
    /// its sharded runs are pinned against the golden export hashes in
    /// `tests/determinism.rs` (`observed_exports_golden_hash`,
    /// `sharded_observed_campaign_matches_serial_golden_hash`); the Chrome
    /// trace renders every field of every event and the text table the
    /// `engine.dispatches` gauge, so equal hashes are equal events and
    /// dispatch counts.
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
        assert_eq!(
            run.registry.gauge("engine.dispatches"),
            Some(run.dispatches as i64)
        );
        // Phases bracket the run.
        assert_eq!(run.events[0].value.scope, "campaign");
        assert_eq!(run.events[0].value.kind, EventKind::Begin);
        // The registry renders as a counter table and a latency table.
        let tables = registry_tables("observed campaign", &run.registry);
        assert_eq!(tables.len(), 2);
        let text = tables[0].render();
        assert!(text.contains("udp.rx_checksum_drops"));
        let latency = tables[1].render();
        assert!(latency.contains("host.rtt_ns"));
        assert!(latency.contains("p99"));
    }

    #[test]
    fn grid_has_nineteen_specs_with_unique_names() {
        let specs = grid_specs();
        assert_eq!(specs.len(), 19);
        let mut names: Vec<_> = specs.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn fork_run_matches_fresh_run_byte_for_byte() {
        let warm = warm_campaign(11).unwrap();
        assert!(warm.fork_engine().pending_events() > 0);
        for spec in [
            FailureSpec::healthy("healthy"),
            FailureSpec::node_off("node-off-0", 0),
            FailureSpec::link_severed("link-severed-2", 2),
            crc_repaired_spec(),
        ] {
            let forked = warm.fork_run(&spec).unwrap();
            let fresh = render(&spec, fresh_observed(11, &spec).unwrap());
            assert_eq!(forked, fresh, "spec {}", spec.name);
        }
    }

    #[test]
    fn donor_survives_forking() {
        let warm = warm_campaign(11).unwrap();
        let spec = FailureSpec::node_off("node-off-1", 1);
        let a = warm.fork_run(&spec).unwrap();
        let b = warm.fork_run(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_resident_engine_runs_each_spec_like_a_fresh_fork() {
        let warm = warm_campaign(11).unwrap();
        let mut engine = warm.fork_engine();
        // One engine through scenarios that leave it in different states —
        // a host powered off, an armed injector, a spec that fails — and
        // back again.
        let specs = [
            FailureSpec::node_off("node-off-0", 0),
            crc_repaired_spec(),
            FailureSpec::link_severed("link-severed-200", 200),
            FailureSpec::healthy("healthy"),
            FailureSpec::link_severed("link-severed-2", 2),
            FailureSpec::node_off("node-off-0", 0),
        ];
        for spec in &specs {
            warm.warm.fork_into(&mut engine);
            match (warm.run_on(&mut engine, spec), warm.fork_run(spec)) {
                (Ok(resident), Ok(fresh)) => assert_eq!(resident, fresh, "spec {}", spec.name),
                (Err(_), Err(_)) => assert_eq!(spec.name, "link-severed-200"),
                (resident, fresh) => panic!("spec {}: {resident:?} vs {fresh:?}", spec.name),
            }
        }
    }

    #[test]
    fn failed_specs_change_the_outcome() {
        let warm = warm_campaign(11).unwrap();
        let healthy = warm.fork_run(&FailureSpec::healthy("healthy")).unwrap();
        // Powering off the sender silences the inject stream.
        let node = warm
            .fork_run(&FailureSpec::node_off("node-off-0", 0))
            .unwrap();
        assert_ne!(node.text_table, healthy.text_table);
        // Severing the receiver's port drops the stream at the switch.
        let link = warm
            .fork_run(&FailureSpec::link_severed("link-severed-1", 1))
            .unwrap();
        assert_ne!(link.text_table, healthy.text_table);
        assert!(link.text_table.contains("severed"));
    }

    #[test]
    fn bad_node_index_is_an_error() {
        let warm = warm_campaign(11).unwrap();
        let err = warm
            .fork_run(&FailureSpec::node_off("node-off-9", 9))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::WrongComponent("Host")));
    }

    #[test]
    fn bad_port_index_is_an_error() {
        let warm = warm_campaign(11).unwrap();
        let err = warm
            .fork_run(&FailureSpec::link_severed("link-severed-200", 200))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::WrongComponent("Switch port")));
    }

    #[test]
    fn grid_is_worker_count_invariant_and_matches_fresh() {
        let specs: Vec<FailureSpec> = grid_specs().into_iter().take(4).collect();
        let fork1 = fork_grid(11, &specs, 1).unwrap();
        let fork2 = fork_grid(11, &specs, 2).unwrap();
        assert_eq!(fork1.fingerprint(), fork2.fingerprint());
        assert_eq!(fork1, fork2);
        let fresh = fresh_grid(11, &specs, 2).unwrap();
        assert_eq!(fork1.fingerprint(), fresh.fingerprint());
        assert_eq!(fork1, fresh);
    }
}
