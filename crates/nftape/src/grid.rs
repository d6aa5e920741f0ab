//! The chaos grid: one warmed engine, many forked failure scenarios.
//!
//! Every test-bed campaign starts with the same fixed cost before
//! anything interesting happens: 2.5 simulated seconds of mapping traffic
//! while the fabric elects a mapper, discovers routes and settles. A grid
//! of N failure scenarios over the same topology therefore costs
//! N × (warm-up + fault phases) when each scenario builds its own test
//! bed. This module converts that to 1 × warm-up + N × fault phases: a
//! donor engine runs the map phase once, its full deterministic state is
//! captured with [`netfi_sim::Engine::snapshot`], and each scenario runs
//! on an independent [`fork`](netfi_sim::EngineSnapshot::fork) of that
//! capture.
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
//! A scenario is a declarative [`FailureSpec`]: hosts to power off, switch
//! ports to sever, and an optional injector program, applied to the fork
//! *after* the map phase — exactly the paper's model of a healthy network
//! that degrades mid-mission. Because a fork is bit-identical to a fresh
//! engine warmed to the same state (`tests/determinism.rs` pins this with
//! the golden export hashes), [`fork_grid`] and [`fresh_grid`] produce
//! byte-identical results for every spec and every worker count.

use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::trigger::MatchMode;
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_netstack::{HostCmd, UdpDatagram, SINK_PORT};
use netfi_obs::{DispatchProbe, ObsEvent, Stamped};
use netfi_phy::ControlSymbol;
use netfi_sim::{Engine, Fnv1a, SimDuration, SimTime, Simulation};

use crate::bed::{Bed, Warm};
use crate::observed::{
    armed_testbed, collect, drive_map_phase, run_phase_budgeted, ObservedCampaign,
};
use crate::results::ScenarioError;
use crate::runner::{fan_out, power_off, program_injector, sever};
use crate::scenarios::udpcheck::MESSAGE;

/// One declarative failure scenario, applied to a fork of the warmed
/// donor engine before the fault phases run.
#[derive(Debug, Clone, Default)]
pub struct FailureSpec {
    /// Scenario name, carried into the result and the grid fingerprint.
    pub name: String,
    /// Host indices (into the test bed's host list) to power off. The
    /// host stays wired but ignores every subsequent event — the paper's
    /// silent node failure.
    pub deactivate_nodes: Vec<usize>,
    /// Switch ports to sever. Frames arriving on or routed out of a
    /// severed port are dropped and counted — the paper's link failure.
    pub deactivate_links: Vec<u8>,
    /// Optional injector program for host 1's spliced link, written over
    /// the device's serial command protocol as part of the fault phases.
    pub injector: Option<(DirSelect, InjectorConfig)>,
}

impl FailureSpec {
    /// The no-failure baseline: the fork just replays healthy traffic.
    pub fn healthy(name: &str) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            ..FailureSpec::default()
        }
    }

    /// Powers off one host.
    pub(crate) fn node_off(name: &str, host: usize) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            deactivate_nodes: vec![host],
            ..FailureSpec::default()
        }
    }

    /// Severs one switch port (the test bed wires host `i` to port `i`).
    pub(crate) fn link_severed(name: &str, port: u8) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            deactivate_links: vec![port],
            ..FailureSpec::default()
        }
    }

    /// Programs the injector on host 1's link.
    pub fn inject(name: &str, dir: DirSelect, config: InjectorConfig) -> FailureSpec {
        FailureSpec {
            name: name.to_string(),
            injector: Some((dir, config)),
            ..FailureSpec::default()
        }
    }
}

/// The observed campaign's fault, and the grid's "replace-crc-repaired"
/// row: a detected corruption with CRC-8 repair, so the fault survives the
/// link layer and is caught by the UDP checksum at the destination host.
pub(crate) fn crc_repaired_spec() -> FailureSpec {
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
        Ok(render(spec, self.fork_observed(spec)?))
    }

    /// [`fork_run`](WarmedCampaign::fork_run), before rendering.
    pub(crate) fn fork_observed(
        &self,
        spec: &FailureSpec,
    ) -> Result<ObservedCampaign, ScenarioError> {
        self.run_on(&mut self.warm.fork(), spec)
    }

    /// Runs one scenario on `engine`, which must be a fork of this donor
    /// that nothing has touched since.
    fn run_on(
        &self,
        engine: &mut Engine<Ev, DispatchProbe>,
        spec: &FailureSpec,
    ) -> Result<ObservedCampaign, ScenarioError> {
        run_and_collect(engine, spec, &self.warm.bed, self.map_phases.clone())
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
/// phase, then the same spec application and fault phases a fork runs.
/// This is the oracle [`fork_grid`] is measured against — for equal seed
/// and spec its result is byte-identical to [`WarmedCampaign::fork_run`].
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub(crate) fn fresh_run(seed: u64, spec: &FailureSpec) -> Result<GridRun, ScenarioError> {
    Ok(render(spec, fresh_observed(seed, spec)?))
}

/// [`fresh_run`], before rendering.
pub(crate) fn fresh_observed(
    seed: u64,
    spec: &FailureSpec,
) -> Result<ObservedCampaign, ScenarioError> {
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

/// Applies the spec's failures and drives the program + inject phases on
/// any [`Simulation`] executor, appending their spans to `phases`. Every
/// test-bed campaign — observed, forked, sharded, grid — runs its faults
/// through this one function.
pub(crate) fn run_fault_phases(
    sim: &mut impl Simulation<Ev>,
    spec: &FailureSpec,
    bed: &Bed,
    phases: &mut Vec<Stamped<ObsEvent>>,
) -> Result<(), ScenarioError> {
    let mut mark = |time: SimTime, value: ObsEvent| phases.push(Stamped { time, value });

    // Apply the declarative failures, in spec order, before any fault
    // traffic: the scenario starts from a network that has already broken.
    for &n in &spec.deactivate_nodes {
        let &id = bed
            .hosts
            .get(n)
            .ok_or(ScenarioError::WrongComponent("Host"))?;
        power_off(sim, id)?;
        mark(sim.now(), ObsEvent::instant("grid", "node_off", n as u64));
    }
    for &port in &spec.deactivate_links {
        sever(sim, bed.switch, usize::from(port))?;
        mark(
            sim.now(),
            ObsEvent::instant("grid", "link_severed", u64::from(port)),
        );
    }

    // Program the injector over its serial line, if the spec asks for it.
    if let Some((dir, config)) = &spec.injector {
        mark(sim.now(), ObsEvent::begin("campaign", "program", 0));
        let program_at = sim.now();
        let programmed = program_injector(sim, bed.device, program_at, *dir, config);
        run_phase_budgeted(sim, programmed);
        mark(sim.now(), ObsEvent::end("campaign", "program", 0));
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
                .map(|run| render(&specs[i], run))
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
    let runs = fan_out(workers, specs.len(), || |i| fresh_run(seed, &specs[i]))?;
    Ok(GridResult { runs })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            grid_specs()[7].clone(), // replace-crc-repaired
        ] {
            let forked = warm.fork_run(&spec).unwrap();
            let fresh = fresh_run(11, &spec).unwrap();
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
        // a host powered off, an armed injector, a spec that fails after
        // it has already changed the engine — and back again.
        let specs = [
            FailureSpec::node_off("node-off-0", 0),
            grid_specs()[7].clone(), // replace-crc-repaired
            FailureSpec {
                deactivate_links: vec![1, 200],
                ..FailureSpec::healthy("half-applied")
            },
            FailureSpec::healthy("healthy"),
            FailureSpec::link_severed("link-severed-2", 2),
            FailureSpec::node_off("node-off-0", 0),
        ];
        for spec in &specs {
            warm.warm.fork_into(&mut engine);
            let resident = warm.run_on(&mut engine, spec).map(|run| render(spec, run));
            match (resident, warm.fork_run(spec)) {
                (Ok(resident), Ok(fresh)) => assert_eq!(resident, fresh, "spec {}", spec.name),
                (Err(_), Err(_)) => assert_eq!(spec.name, "half-applied"),
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
