//! The detection campaign: φ-accrual failure detectors judged against
//! injected faults on a generated fabric.
//!
//! The paper's architecture monitors a live network and *analyzes* its
//! failures; this module closes that loop in simulation. A fabric from
//! [`crate::topo`] carries a [`Heartbeater`] whose datagrams ride the real
//! host → NIC → leaf → spine → leaf datapath, a [`SuspicionMonitor`] from
//! `netfi-detect` judges the arrival streams against a ladder of φ
//! thresholds, and a suite of [`DetectSpec`] scenarios breaks the network
//! mid-run — power-offs, link severs, trunk severs, and injector programs
//! written over the device's serial protocol — on forks of one warm donor
//! (the [`crate::grid`] amortization, reused verbatim).
//!
//! Each scenario carries a *topology-predicted* impact set
//! (`predicted_pairs`): the heartbeat pairs the fault should silence,
//! derived purely from the fabric's wiring and static ECMP routes. The
//! campaign measures, per threshold, which predicted pairs were detected
//! and how fast, which were missed, and which undamaged pairs false-
//! alarmed — the prediction-vs-outcome agreement the SPOF analytics are
//! scored by. Two scenario families are deliberately adversarial to the
//! prediction: `burst` congests the trunks without breaking anything
//! (predicted ∅ — any crossing is a false positive), and `gap-to-stop`
//! corrupts flow-control symbols that the STOP short-period timeout
//! self-recovers from (predicted ∅ — the paper's own protocol absorbs
//! the fault).
//!
//! Everything is deterministic: suspicion is fixed-point, poll instants
//! are a fixed grid, scenarios run on byte-identical forks, and the
//! fan-out folds results in spec order — so [`DetectResult::fingerprint`]
//! is invariant under the worker count (pinned in `tests/determinism.rs`).

use netfi_core::command::{Command, DirSelect};
use netfi_core::config::InjectorConfig;
use netfi_core::trigger::MatchMode;
use netfi_detect::heartbeat::{decode_heartbeat, HEARTBEAT_SRC_PORT};
use netfi_detect::{
    analyze, HeartbeatCmd, HeartbeatPlan, Heartbeater, NodeKind, Phi, SuspicionMonitor, TopoGraph,
    TopoReport, HEARTBEAT_PORT,
};
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_netstack::{Host, HostCmd, UdpDatagram, SINK_PORT};
use netfi_obs::{exact_percentiles, Registry};
use netfi_phy::ControlSymbol;
use netfi_sim::{
    ComponentId, Engine, EngineSnapshot, Fnv1a, NullProbe, RunBudget, RunOutcome, SimDuration,
    SimTime,
};

use crate::report::{registry_tables, Table};
use crate::results::ScenarioError;
use crate::runner::{fan_out, power_off, program_injector, schedule_script, sever};
use crate::topo::{build_fabric, TopoOptions};

/// The 32-bit wire window every heartbeat carries in its UDP header:
/// big-endian source port then destination port, adjacent on the wire.
/// No other campaign traffic uses these ports, so a full-mask comparator
/// pinned to this window corrupts heartbeats and nothing else.
const HB_WIRE_WINDOW: u32 = ((HEARTBEAT_SRC_PORT as u32) << 16) | HEARTBEAT_PORT as u32;

/// A 32-bit pattern that never appears in campaign traffic; programmed as
/// a full-mask data comparator it keeps the data path inert while a
/// control-symbol swap is armed (the default mask-0 comparator would
/// match *every* window).
const NEVER_MATCH: u32 = 0xA5C3_96E1;

/// Datagrams each leaf-0 host enqueues in the `burst` scenario.
const BURST_SENDS: u64 = 96;

/// Gap between consecutive burst datagrams from one host.
const BURST_GAP: SimDuration = SimDuration::from_us(20);

/// Burst datagram payload size.
const BURST_PAYLOAD: usize = 512;

/// Source port stamped on burst datagrams (distinct from heartbeats and
/// the fabric's background senders).
const BURST_SRC_PORT: u16 = 6001;

/// Per-pair heartbeat phase offset (decorrelates beats from the poll
/// grid and from each other).
const STAGGER: SimDuration = SimDuration::from_us(50);

/// The suspicion threshold ladder, in the order reports quote it.
const THRESHOLDS: [Phi; 3] = [Phi::from_int(2), Phi::from_int(5), Phi::from_int(8)];

/// Index into [`THRESHOLDS`] of the reference threshold (θ = 5) the
/// agreement score is computed at.
const REFERENCE: usize = 1;

/// Event budget per poll step — hang insurance; exhaustion abandons the
/// scenario deterministically and tags its outcome.
const POLL_EVENT_BUDGET: u64 = 5_000_000;

/// Parameters of a detection campaign.
#[derive(Debug, Clone)]
pub struct DetectOptions {
    /// The fabric under test. Injector scenarios need
    /// [`TopoOptions::intercept_host`] set.
    pub topo: TopoOptions,
    /// Inter-arrival samples per accrual window.
    pub window: usize,
    /// Heartbeat period per pair.
    pub heartbeat: SimDuration,
    /// Monitor poll period — the detection-latency quantum. Each poll
    /// reads every host's 64-delivery arrival log: a host that takes more
    /// deliveries than that in one period may evict a heartbeat unread,
    /// and a scenario in which one does ends `"heartbeats-lost"`.
    pub poll: SimDuration,
    /// Healthy warm-up before the snapshot: must cover at least
    /// `window + 1` heartbeats so every detector's window is full.
    pub warm: SimDuration,
    /// Delay between fork and fault: covers the injector's serial
    /// programming time, so every fault lands at the same instant.
    pub margin: SimDuration,
    /// Post-fault observation window.
    pub tail: SimDuration,
}

impl DetectOptions {
    /// A sized preset over [`TopoOptions::sized`]: host 1 intercepted by
    /// an injector, background senders slowed to 2 ms so heartbeats share
    /// the wire with real traffic without drowning the event budget.
    /// Every campaign judges a θ ∈ {2, 5, 8} ladder with θ = 5 as the
    /// reference.
    ///
    /// The poll is 2 ms, and 1 ms on the fabrics of up to 48 hosts, whose
    /// [`radix`](TopoOptions::radix) is 8: there the `burst` scenario's
    /// flows reach their receivers uncongested, a datagram every 20 µs,
    /// and 2 ms of them evict heartbeats from a 64-delivery arrival log
    /// before a poll reads them.
    pub fn sized(hosts: usize) -> DetectOptions {
        let topo = TopoOptions {
            intercept_host: Some(1),
            interval: SimDuration::from_ms(2),
            ..TopoOptions::sized(hosts)
        };
        DetectOptions {
            poll: SimDuration::from_ms(if topo.radix() <= 8 { 1 } else { 2 }),
            topo,
            window: 16,
            heartbeat: SimDuration::from_ms(10),
            warm: SimDuration::from_ms(300),
            margin: SimDuration::from_ms(50),
            tail: SimDuration::from_ms(600),
        }
    }
}

/// One fault a detection scenario applies at the fault instant.
#[derive(Debug, Clone)]
pub enum DetectFault {
    /// No fault: the false-positive baseline.
    Healthy,
    /// Leaf-0 hosts flood their stride peers: trunk congestion with no
    /// breakage. Predicted impact is empty — any crossing is a false
    /// positive bought by a too-eager threshold.
    Burst,
    /// Power off one host: both its heartbeats and its arrival recording
    /// stop (the paper's silent node failure).
    NodeOff(usize),
    /// Sever one host's access port on its leaf switch.
    HostLink(usize),
    /// Sever one leaf's uplink to one spine (the leaf-side trunk port).
    Trunk {
        /// Leaf index.
        leaf: usize,
        /// Spine index.
        spine: usize,
    },
    /// Program the spliced injector with `config` (trigger off) during
    /// the margin, then arm it at the fault instant over the serial line.
    Inject(DirSelect, InjectorConfig),
}

/// A named detection scenario.
#[derive(Debug, Clone)]
pub struct DetectSpec {
    /// Scenario name, carried into the result and the fingerprint.
    pub name: String,
    /// The fault applied at the fault instant.
    pub fault: DetectFault,
}

impl DetectSpec {
    /// The no-fault baseline.
    pub fn healthy(name: &str) -> DetectSpec {
        DetectSpec {
            name: name.to_string(),
            fault: DetectFault::Healthy,
        }
    }

    /// Trunk congestion without breakage.
    pub fn burst(name: &str) -> DetectSpec {
        DetectSpec {
            name: name.to_string(),
            fault: DetectFault::Burst,
        }
    }

    /// Powers off one host.
    pub(crate) fn node_off(name: &str, host: usize) -> DetectSpec {
        DetectSpec {
            name: name.to_string(),
            fault: DetectFault::NodeOff(host),
        }
    }

    /// Severs one host's access link.
    pub fn host_link(name: &str, host: usize) -> DetectSpec {
        DetectSpec {
            name: name.to_string(),
            fault: DetectFault::HostLink(host),
        }
    }

    /// Severs one leaf→spine trunk.
    pub(crate) fn trunk(name: &str, leaf: usize, spine: usize) -> DetectSpec {
        DetectSpec {
            name: name.to_string(),
            fault: DetectFault::Trunk { leaf, spine },
        }
    }

    /// Arms an injector program at the fault instant.
    pub fn inject(name: &str, dir: DirSelect, config: InjectorConfig) -> DetectSpec {
        DetectSpec {
            name: name.to_string(),
            fault: DetectFault::Inject(dir, config),
        }
    }
}

/// The injector program that silences heartbeats: a full-mask comparator
/// pinned to the heartbeat port window, a payload-byte toggle, and *no*
/// CRC recompute — every matching frame arrives CRC-broken and is
/// detected and dropped by the receiving NIC. Programmed with the trigger
/// off; the scenario arms it at the fault instant.
pub(crate) fn heartbeat_corrupt_config() -> InjectorConfig {
    InjectorConfig::builder()
        .match_mode(MatchMode::Off)
        .compare(HB_WIRE_WINDOW, 0xFFFF_FFFF)
        .corrupt_toggle(0x0000_00FF)
        .recompute_crc(false)
        .build()
}

/// The control-plane corruption the paper's flow control absorbs: every
/// GAP through the device becomes a STOP. The receiving port halts its
/// reverse-direction transmitter — and the STOP short-period timeout
/// restarts it, so traffic is perturbed but never silenced. Predicted
/// impact is empty; a detection here is a false positive.
pub(crate) fn gap_stop_config() -> InjectorConfig {
    InjectorConfig::builder()
        .match_mode(MatchMode::Off)
        .compare(NEVER_MATCH, 0xFFFF_FFFF)
        .control_swap(ControlSymbol::Gap.encode(), ControlSymbol::Stop.encode())
        .build()
}

/// The default scenario suite for `options`: the healthy baseline, the
/// burst false-positive probe, one node power-off, one access-link sever,
/// one trunk sever (multi-leaf fabrics), and — when a host is intercepted
/// — heartbeat corruption in each direction plus the GAP→STOP
/// flow-control swap.
pub fn detect_specs(options: &DetectOptions) -> Vec<DetectSpec> {
    let topo = &options.topo;
    let mut specs = vec![
        DetectSpec::healthy("healthy"),
        DetectSpec::burst("burst"),
        DetectSpec::node_off("node-off-0", 0),
    ];
    if topo.hosts > 2 {
        specs.push(DetectSpec::host_link("host-link-2", 2));
    }
    if topo.spines() > 0 {
        specs.push(DetectSpec::trunk("trunk-0-0", 0, 0));
    }
    if topo.intercept_host.is_some() {
        specs.push(DetectSpec::inject(
            "hb-corrupt-a",
            DirSelect::A,
            heartbeat_corrupt_config(),
        ));
        specs.push(DetectSpec::inject(
            "hb-corrupt-b",
            DirSelect::B,
            heartbeat_corrupt_config(),
        ));
        specs.push(DetectSpec::inject(
            "gap-to-stop-b",
            DirSelect::B,
            gap_stop_config(),
        ));
    }
    specs
}

/// Heartbeat pair `i`'s receiver: the sender's stride peer.
fn peer_of(topo: &TopoOptions, i: usize) -> usize {
    (i + topo.hosts_per_leaf()) % topo.hosts
}

/// The leaf switch host `i` attaches to.
fn leaf_of(topo: &TopoOptions, i: usize) -> usize {
    i / topo.hosts_per_leaf()
}

/// The heartbeat pairs `fault` should silence, derived purely from the
/// fabric's wiring and its static ECMP routes (cross-leaf pair `i` rides
/// spine `i mod spines`). This is the topology's *prediction*; the
/// campaign measures how well the detectors' outcomes agree with it.
///
/// Pair `i` is silenced when the fault cuts either end: host faults kill
/// the pair that sends from the host *and* the pair that records at it;
/// a trunk sever kills exactly the cross-leaf pairs routed over it; a
/// direction-A injector program corrupts the intercepted host's outbound
/// heartbeats, direction B its inbound ones. `Healthy`, `Burst` and the
/// GAP→STOP swap predict nothing — the latter because the STOP
/// short-period timeout self-recovers (see [`gap_stop_config`]).
pub(crate) fn predicted_pairs(topo: &TopoOptions, fault: &DetectFault) -> Vec<u32> {
    let hosts = topo.hosts;
    let spines = topo.spines();
    let mut pairs: Vec<u32> = match fault {
        DetectFault::Healthy | DetectFault::Burst => Vec::new(),
        DetectFault::NodeOff(h) | DetectFault::HostLink(h) => (0..hosts)
            .filter(|&i| i == *h || peer_of(topo, i) == *h)
            .map(|i| i as u32)
            .collect(),
        DetectFault::Trunk { leaf, spine } => {
            if spines == 0 {
                Vec::new()
            } else {
                (0..hosts)
                    .filter(|&i| {
                        let from = leaf_of(topo, i);
                        let to = leaf_of(topo, peer_of(topo, i));
                        from != to && i % spines == *spine && (from == *leaf || to == *leaf)
                    })
                    .map(|i| i as u32)
                    .collect()
            }
        }
        DetectFault::Inject(dir, config) => {
            // A program with no data-path corruption armed (control-only
            // swaps hide behind a never-matching comparator) predicts
            // nothing; see the module docs.
            if config.compare.compare_data == NEVER_MATCH {
                Vec::new()
            } else {
                match topo.intercept_host {
                    None => Vec::new(),
                    Some(h) => (0..hosts)
                        .filter(|&i| match dir {
                            DirSelect::A => i == h,
                            DirSelect::B => peer_of(topo, i) == h,
                            DirSelect::Both => i == h || peer_of(topo, i) == h,
                        })
                        .map(|i| i as u32)
                        .collect(),
                }
            }
        }
    };
    pairs.sort_unstable();
    pairs
}

/// The fabric's wiring as an analyzable [`TopoGraph`], mirroring
/// [`build_fabric`] exactly: leaves, spines (none for single-leaf
/// fabrics), one trunk per (leaf, spine), one access edge per host.
/// Feed it to [`analyze`] for the SPOF report the campaign's outcomes
/// are compared against.
pub fn fabric_graph(topo: &TopoOptions) -> TopoGraph {
    let leaves = topo.leaves();
    let spines = topo.spines();
    let mut g = TopoGraph::new();
    let leaf_nodes: Vec<usize> = (0..leaves)
        .map(|l| g.add_node(format!("leaf{l}"), NodeKind::Switch))
        .collect();
    let spine_nodes: Vec<usize> = (0..spines)
        .map(|s| g.add_node(format!("spine{s}"), NodeKind::Switch))
        .collect();
    for &l in &leaf_nodes {
        for &s in &spine_nodes {
            g.add_edge(l, s);
        }
    }
    for i in 0..topo.hosts {
        let h = g.add_node(format!("h{i:03}"), NodeKind::Host);
        g.add_edge(h, leaf_nodes[leaf_of(topo, i)]);
    }
    g
}

/// A detection campaign warmed to steady state: the donor engine snapshot
/// plus a monitor whose every accrual window is full of healthy samples.
/// Fork both per scenario.
pub struct WarmedDetect {
    snapshot: EngineSnapshot<Ev, NullProbe>,
    monitor: SuspicionMonitor,
    scan: ArrivalScan,
    hosts: Vec<ComponentId>,
    leaves: Vec<ComponentId>,
    eth: Vec<EthAddr>,
    injector: Option<ComponentId>,
    options: DetectOptions,
    report: TopoReport,
}

impl std::fmt::Debug for WarmedDetect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmedDetect")
            .field("hosts", &self.hosts.len())
            .field("pairs", &self.monitor.pairs())
            .field("thresholds", &self.monitor.thresholds().len())
            .finish()
    }
}

/// Builds the fabric, starts heartbeats, and drives the healthy warm-up:
/// the poll loop feeds every arrival into the monitor (without polling
/// thresholds — a warming window must not log transient crossings), and
/// the engine state at the end is captured into a forkable snapshot.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the fabric cannot be wired.
///
/// # Panics
///
/// Panics if the options are unsatisfiable: fewer than two hosts, a
/// stride that maps a host onto itself, or a warm-up too short to fill
/// the accrual windows.
pub fn warm_detect(options: &DetectOptions) -> Result<WarmedDetect, ScenarioError> {
    let topo = &options.topo;
    assert!(topo.hosts >= 2, "detection needs at least two hosts");
    assert!(
        !topo.hosts_per_leaf().is_multiple_of(topo.hosts),
        "stride peer must differ from its sender"
    );
    assert!(
        options.warm.as_ps() / options.heartbeat.as_ps() > options.window as u64,
        "warm-up must cover more heartbeats than the accrual window"
    );
    let mut fabric = build_fabric(topo, |_, host| host.arm_arrivals())?;
    let pairs: Vec<(ComponentId, EthAddr)> = (0..topo.hosts)
        .map(|i| (fabric.hosts[i], fabric.eth[peer_of(topo, i)]))
        .collect();
    let beater = fabric.engine.add_component(Box::new(Heartbeater::new(HeartbeatPlan {
        pairs,
        interval: options.heartbeat,
        stagger: STAGGER,
    })));
    fabric
        .engine
        .schedule(SimTime::ZERO, beater, Ev::App(Box::new(HeartbeatCmd::Start)));

    let mut monitor = SuspicionMonitor::new(topo.hosts, options.window, &THRESHOLDS);
    let mut scan = ArrivalScan::new(fabric.hosts.len());
    let mut engine = fabric.engine;
    let warm_end = SimTime::ZERO + options.warm;
    while engine.now() < warm_end {
        let step = (engine.now() + options.poll).min(warm_end);
        let outcome =
            engine.run_budgeted(RunBudget::until(step).with_max_events(POLL_EVENT_BUDGET));
        scan.read(&engine, &fabric.hosts, &mut monitor);
        if matches!(outcome, RunOutcome::BudgetExhausted) {
            break;
        }
    }
    Ok(WarmedDetect {
        snapshot: engine.snapshot(),
        monitor,
        scan,
        hosts: fabric.hosts,
        leaves: fabric.leaves,
        eth: fabric.eth,
        injector: fabric.injector,
        options: options.clone(),
        report: analyze(&fabric_graph(topo)),
    })
}

/// How far the polls have read every host's arrival log.
#[derive(Debug, Clone)]
struct ArrivalScan {
    /// Per host, at the last poll: deliveries its log had taken (held
    /// plus evicted), and heartbeats it had received.
    seen: Vec<(u64, u64)>,
    /// Set once a log evicted a heartbeat no poll had read: the monitor
    /// would see a gap the network never had.
    lost: bool,
}

impl ArrivalScan {
    fn new(hosts: usize) -> ArrivalScan {
        ArrivalScan {
            seen: vec![(0, 0); hosts],
            lost: false,
        }
    }

    /// Reads the deliveries every host's arrival log took since the last
    /// poll — the newest records, counted from the log's eviction count —
    /// and feeds their heartbeats into the monitor. A host that received
    /// more heartbeats since then than those records hold lost one to
    /// eviction, and sets [`lost`](ArrivalScan::lost).
    fn read(
        &mut self,
        engine: &Engine<Ev, NullProbe>,
        hosts: &[ComponentId],
        monitor: &mut SuspicionMonitor,
    ) {
        for (&id, (logged, heartbeats)) in hosts.iter().zip(&mut self.seen) {
            let Some(host) = engine.component_as::<Host>(id) else {
                continue;
            };
            let held = host.recent_arrivals().count() as u64;
            let now_logged = host.arrivals_evicted() + held;
            let fresh = (now_logged - *logged).min(held);
            let mut read = 0;
            for stamped in host.recent_arrivals().skip((held - fresh) as usize) {
                let (_, datagram) = &stamped.value;
                if datagram.dst_port != HEARTBEAT_PORT {
                    continue;
                }
                read += 1;
                if let Some((pair, seq)) = decode_heartbeat(&datagram.payload) {
                    let pair = pair as usize;
                    if pair < monitor.pairs() {
                        monitor.arrival(pair, seq, stamped.time);
                    }
                }
            }
            let now_heartbeats = host.rx_count(HEARTBEAT_PORT);
            self.lost |= now_heartbeats - *heartbeats > read;
            (*logged, *heartbeats) = (now_logged, now_heartbeats);
        }
    }
}

/// Drives the engine from its current time to `to` on the poll grid:
/// run, scan arrivals, poll thresholds, repeat. Returns the scenario's
/// [`DetectRun::outcome`] so far: `"complete"`, or why it was abandoned
/// (deterministically) — the per-step event budget ran out, or a host's
/// arrival log evicted a heartbeat before a poll read it (then, or during
/// the warm-up; the poll that finds it does not judge).
fn drive(
    engine: &mut Engine<Ev, NullProbe>,
    monitor: &mut SuspicionMonitor,
    scan: &mut ArrivalScan,
    hosts: &[ComponentId],
    options: &DetectOptions,
    to: SimTime,
) -> &'static str {
    while !scan.lost && engine.now() < to {
        let step = (engine.now() + options.poll).min(to);
        let outcome =
            engine.run_budgeted(RunBudget::until(step).with_max_events(POLL_EVENT_BUDGET));
        scan.read(engine, hosts, monitor);
        if scan.lost {
            break;
        }
        monitor.poll(step);
        if matches!(outcome, RunOutcome::BudgetExhausted) {
            return "budget-exhausted";
        }
    }
    if scan.lost {
        "heartbeats-lost"
    } else {
        "complete"
    }
}

impl WarmedDetect {
    /// Forks the donor and runs one scenario on the fork: applies `spec`'s
    /// fault at the fault instant and measures the monitor's verdicts. The
    /// donor is untouched and can be forked again, from any thread.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the spec needs an injector the
    /// fabric does not have, names a missing host, leaf or port, or a
    /// forked component cannot be read.
    pub fn fork_run(&self, spec: &DetectSpec) -> Result<DetectRun, ScenarioError> {
        self.run_on(&mut self.snapshot.fork(), spec)
    }

    /// Runs one scenario on `engine`, which must be a fork of this donor
    /// that nothing has touched since.
    fn run_on(
        &self,
        engine: &mut Engine<Ev, NullProbe>,
        spec: &DetectSpec,
    ) -> Result<DetectRun, ScenarioError> {
        let monitor = &mut self.monitor.clone();
        let scan = &mut self.scan.clone();
        let options = &self.options;
        let t0 = engine.now();
        let events0 = engine.events_processed();
        let t_fault = t0 + options.margin;
        let t_end = t_fault + options.tail;

        // Injector scenarios: write the (trigger-off) program over the serial
        // line now, and schedule the one-command arming script for the fault
        // instant — the margin exists to absorb the programming time.
        if let DetectFault::Inject(dir, config) = &spec.fault {
            let device = self.injector.ok_or(ScenarioError::NoInjector)?;
            let programmed = program_injector(engine, device, t0, *dir, config);
            assert!(
                programmed <= t_fault,
                "margin too short for injector programming"
            );
            schedule_script(engine, device, t_fault, &[Command::MatchMode(MatchMode::On)]);
        }

        let mut outcome = drive(engine, monitor, scan, &self.hosts, options, t_fault);

        // Apply the fault at the fault instant.
        match &spec.fault {
            DetectFault::Healthy | DetectFault::Inject(..) => {}
            DetectFault::Burst => {
                let leaf0 = options.topo.hosts_per_leaf().min(options.topo.hosts);
                for i in 0..leaf0 {
                    let dest = self.eth[peer_of(&options.topo, i)];
                    for k in 0..BURST_SENDS {
                        engine.schedule(
                            t_fault + BURST_GAP * k,
                            self.hosts[i],
                            Ev::App(Box::new(HostCmd::SendUdp {
                                dest,
                                datagram: UdpDatagram::new(
                                    BURST_SRC_PORT,
                                    SINK_PORT,
                                    vec![0x42; BURST_PAYLOAD],
                                ),
                            })),
                        );
                    }
                }
            }
            DetectFault::NodeOff(h) => {
                let &id = self
                    .hosts
                    .get(*h)
                    .ok_or(ScenarioError::WrongComponent("Host"))?;
                power_off(engine, id)?;
            }
            DetectFault::HostLink(h) => {
                if *h >= options.topo.hosts {
                    return Err(ScenarioError::WrongComponent("Host"));
                }
                let leaf = leaf_of(&options.topo, *h);
                sever(engine, self.leaf(leaf)?, *h % options.topo.hosts_per_leaf())?;
            }
            DetectFault::Trunk { leaf, spine } => {
                let spines = options.topo.spines();
                if *spine >= spines {
                    return Err(ScenarioError::WrongComponent("Switch port"));
                }
                let port = options.topo.radix() - spines + spine;
                sever(engine, self.leaf(*leaf)?, port)?;
            }
        }

        if outcome == "complete" {
            outcome = drive(engine, monitor, scan, &self.hosts, options, t_end);
        }

        // Extract per-threshold verdicts against the topology's prediction.
        let predicted = predicted_pairs(&options.topo, &spec.fault);
        let pairs = monitor.pairs() as u32;
        let mut outcomes = Vec::with_capacity(THRESHOLDS.len());
        for (t, &threshold) in THRESHOLDS.iter().enumerate() {
            let t = t as u32;
            let mut detected = Vec::new();
            let mut missed = Vec::new();
            let mut latencies_us = Vec::new();
            for &pair in &predicted {
                // The first post-fault crossing; pre-fault transients on a
                // predicted pair must not shrink the measured latency.
                let crossing = monitor
                    .events()
                    .iter()
                    .find(|e| e.pair == pair && e.threshold == t && e.suspected && e.time >= t_fault);
                match crossing {
                    Some(e) => {
                        detected.push(pair);
                        latencies_us.push((e.time.as_ps() - t_fault.as_ps()) / 1_000_000);
                    }
                    None => missed.push(pair),
                }
            }
            let false_alarm_pairs: Vec<u32> = (0..pairs)
                .filter(|p| !predicted.contains(p))
                .filter(|&p| {
                    monitor
                        .events()
                        .iter()
                        .any(|e| e.pair == p && e.threshold == t && e.suspected)
                })
                .collect();
            outcomes.push(ThresholdOutcome {
                threshold,
                detected,
                missed,
                false_alarm_pairs,
                latencies_us,
            });
        }

        // Export the per-pair suspicion gauges the observability layer sees.
        let mut registry = Registry::new();
        monitor.export_to(&mut registry, |p| format!("h{p:03}"));
        let registry_table = registry_tables(&format!("detect {}", spec.name), &registry)
            .iter()
            .map(Table::render)
            .collect::<Vec<_>>()
            .join("\n");

        Ok(DetectRun {
            spec: spec.name.clone(),
            predicted,
            outcomes,
            registry_table,
            events: engine.events_processed() - events0,
            outcome,
        })
    }

    /// Leaf switch `leaf`'s component id.
    fn leaf(&self, leaf: usize) -> Result<ComponentId, ScenarioError> {
        let id = self.leaves.get(leaf).copied();
        id.ok_or(ScenarioError::WrongComponent("Switch"))
    }
}

/// One threshold's verdict for one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdOutcome {
    /// The suspicion threshold judged.
    pub threshold: Phi,
    /// Predicted pairs whose first post-fault crossing was observed,
    /// ascending.
    pub detected: Vec<u32>,
    /// Predicted pairs that never crossed, ascending.
    pub missed: Vec<u32>,
    /// Unpredicted pairs that crossed at any point — false positives.
    pub false_alarm_pairs: Vec<u32>,
    /// Detection latency (fault → first crossing) in µs, aligned with
    /// `detected`.
    pub latencies_us: Vec<u64>,
}

impl ThresholdOutcome {
    /// Prediction-vs-outcome agreement in permille: the Jaccard index of
    /// the predicted set against everything detected (hits plus false
    /// alarms). An empty prediction with no alarms scores 1000.
    pub(crate) fn agreement_permille(&self, predicted: usize) -> u64 {
        let union = predicted + self.false_alarm_pairs.len();
        if union == 0 {
            return 1000;
        }
        (self.detected.len() as u64 * 1000) / union as u64
    }
}

/// One scenario's full result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectRun {
    /// The [`DetectSpec::name`] this run executed.
    pub spec: String,
    /// The topology-predicted impact set (pair indices, ascending).
    pub predicted: Vec<u32>,
    /// One verdict per threshold, in ladder order.
    pub outcomes: Vec<ThresholdOutcome>,
    /// The rendered per-pair suspicion gauge tables (`netfi-obs`
    /// registry export) at the end of the run.
    pub registry_table: String,
    /// Events the scenario processed past the fork point.
    pub events: u64,
    /// `"complete"`; `"budget-exhausted"` if the per-step event budget
    /// tripped; `"heartbeats-lost"` if a host took more deliveries between
    /// two polls than its arrival log holds and a heartbeat was among those
    /// evicted unread (see [`DetectOptions::poll`]). Deterministic either
    /// way; the run stops judging at the poll that tripped.
    pub outcome: &'static str,
}

/// A full detection campaign: scenario runs in spec order plus the
/// static SPOF analysis of the fabric they ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectResult {
    /// One run per spec, in the order the specs were given.
    pub runs: Vec<DetectRun>,
    /// The threshold ladder the runs were judged against.
    pub thresholds: Vec<Phi>,
    /// Index of the reference threshold (agreement, headline latency).
    pub reference: usize,
    /// The rendered [`TopoReport`] of the fabric under test.
    pub topo_report: String,
}

impl DetectResult {
    /// All detection-latency samples (µs) at threshold index `t`, across
    /// every run, in run order.
    pub fn latency_samples(&self, t: usize) -> Vec<u64> {
        self.runs
            .iter()
            .filter_map(|r| r.outcomes.get(t))
            .flat_map(|o| o.latencies_us.iter().copied())
            .collect()
    }

    /// Total false-positive pairs at threshold index `t` across every run.
    pub fn false_alarm_total(&self, t: usize) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.outcomes.get(t))
            .map(|o| o.false_alarm_pairs.len() as u64)
            .sum()
    }

    /// Total missed predicted pairs at threshold index `t`.
    pub fn missed_total(&self, t: usize) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.outcomes.get(t))
            .map(|o| o.missed.len() as u64)
            .sum()
    }

    /// Mean prediction-vs-outcome agreement (permille) at the reference
    /// threshold, across every run.
    pub fn mean_agreement_permille(&self) -> u64 {
        if self.runs.is_empty() {
            return 1000;
        }
        let sum: u64 = self
            .runs
            .iter()
            .map(|r| {
                r.outcomes
                    .get(self.reference)
                    .map(|o| o.agreement_permille(r.predicted.len()))
                    .unwrap_or(0)
            })
            .sum();
        sum / self.runs.len() as u64
    }

    /// The deterministic text rendering: a per-scenario × per-threshold
    /// verdict table and an aggregate per-threshold table, preceded by
    /// the fabric's SPOF report. Byte-stable across worker counts.
    pub fn render(&self) -> String {
        let mut out = String::from("== detection campaign ==\n");
        out.push_str(&self.topo_report);
        if !self.topo_report.ends_with('\n') {
            out.push('\n');
        }
        let mut verdicts = Table::new(
            "detection verdicts by scenario and threshold",
            &[
                "scenario", "theta", "pred", "det", "miss", "fp", "p50us", "p95us", "p99us",
                "agree",
            ],
        );
        for run in &self.runs {
            for o in &run.outcomes {
                let mut lat = o.latencies_us.clone();
                let p = exact_percentiles(&mut lat);
                verdicts.row(&[
                    run.spec.clone(),
                    o.threshold.to_string(),
                    run.predicted.len().to_string(),
                    o.detected.len().to_string(),
                    o.missed.len().to_string(),
                    o.false_alarm_pairs.len().to_string(),
                    p.p50.to_string(),
                    p.p95.to_string(),
                    p.p99.to_string(),
                    o.agreement_permille(run.predicted.len()).to_string(),
                ]);
            }
        }
        out.push_str(&verdicts.render());
        let mut aggregate = Table::new(
            "aggregate detection latency by threshold",
            &["theta", "samples", "p50us", "p95us", "p99us", "miss", "fp"],
        );
        for (t, &threshold) in self.thresholds.iter().enumerate() {
            let mut samples = self.latency_samples(t);
            let p = exact_percentiles(&mut samples);
            aggregate.row(&[
                threshold.to_string(),
                samples.len().to_string(),
                p.p50.to_string(),
                p.p95.to_string(),
                p.p99.to_string(),
                self.missed_total(t).to_string(),
                self.false_alarm_total(t).to_string(),
            ]);
        }
        out.push_str(&aggregate.render());
        let mut scenarios = Table::new(
            "scenario outcomes",
            &["scenario", "events", "outcome", "agree@ref"],
        );
        for run in &self.runs {
            let agree = run
                .outcomes
                .get(self.reference)
                .map(|o| o.agreement_permille(run.predicted.len()))
                .unwrap_or(0);
            scenarios.row(&[
                run.spec.clone(),
                run.events.to_string(),
                run.outcome.to_string(),
                agree.to_string(),
            ]);
        }
        out.push_str(&scenarios.render());
        out
    }

    /// FNV-1a fingerprint over the rendered report, every run's raw
    /// latency samples and event counts, and the suspicion gauge tables.
    /// Equal fingerprints mean byte-identical campaigns — pinned across
    /// worker counts, at 10 and 100 hosts, in `tests/determinism.rs`.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write(self.render().as_bytes());
        for run in &self.runs {
            hash.write(run.spec.as_bytes());
            hash.write(run.registry_table.as_bytes());
            hash.write_u64(run.events);
            for o in &run.outcomes {
                hash.write_u64(u64::from(o.threshold.raw()));
                for &p in o.detected.iter().chain(&o.missed).chain(&o.false_alarm_pairs) {
                    hash.write(&p.to_le_bytes());
                }
                for &l in &o.latencies_us {
                    hash.write_u64(l);
                }
            }
        }
        hash.finish()
    }
}

/// Runs every spec on a fork of one warmed donor over `workers` threads —
/// the [`crate::grid`] recipe: each worker forks the shared donor into the
/// one engine it keeps and [`fan_out`] returns the runs in spec order, so
/// the worker count cannot change any output byte.
///
/// # Errors
///
/// Returns the first (in spec order) [`ScenarioError`], if any.
///
/// # Panics
///
/// Panics if `workers` is zero or the options are unsatisfiable (see
/// [`warm_detect`]).
pub fn run_detection(
    options: &DetectOptions,
    specs: &[DetectSpec],
    workers: usize,
) -> Result<DetectResult, ScenarioError> {
    let warm = &warm_detect(options)?;
    Ok(DetectResult {
        runs: fan_out(workers, specs.len(), || {
            let mut engine = warm.snapshot.fork();
            move |i| {
                warm.snapshot.fork_into(&mut engine);
                warm.run_on(&mut engine, &specs[i])
            }
        })?,
        thresholds: THRESHOLDS.to_vec(),
        reference: REFERENCE,
        topo_report: warm.report.render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast configuration for debug-build tests: 10 hosts,
    /// shorter horizons, 5 ms beats over an 8-sample window.
    fn test_options() -> DetectOptions {
        DetectOptions {
            topo: TopoOptions {
                intercept_host: Some(1),
                interval: SimDuration::from_ms(2),
                ..TopoOptions::sized(10)
            },
            window: 8,
            heartbeat: SimDuration::from_ms(5),
            poll: SimDuration::from_ms(1),
            warm: SimDuration::from_ms(100),
            margin: SimDuration::from_ms(20),
            tail: SimDuration::from_ms(200),
        }
    }

    #[test]
    fn predicted_pairs_follow_the_wiring() {
        let topo = test_options().topo;
        // 10 hosts, 6 per leaf: peer(i) = (i + 6) mod 10.
        assert_eq!(
            predicted_pairs(&topo, &DetectFault::NodeOff(0)),
            vec![0, 4]
        );
        assert_eq!(
            predicted_pairs(&topo, &DetectFault::HostLink(2)),
            vec![2, 6]
        );
        // Cross-leaf pairs on spine 0 touching leaf 0.
        assert_eq!(
            predicted_pairs(&topo, &DetectFault::Trunk { leaf: 0, spine: 0 }),
            vec![0, 2, 6, 8]
        );
        assert!(predicted_pairs(&topo, &DetectFault::Healthy).is_empty());
        assert!(predicted_pairs(&topo, &DetectFault::Burst).is_empty());
        // Injector: direction A is the intercepted host's outbound pair,
        // direction B its inbound one; the GAP→STOP swap predicts nothing.
        assert_eq!(
            predicted_pairs(
                &topo,
                &DetectFault::Inject(DirSelect::A, heartbeat_corrupt_config())
            ),
            vec![1]
        );
        assert_eq!(
            predicted_pairs(
                &topo,
                &DetectFault::Inject(DirSelect::B, heartbeat_corrupt_config())
            ),
            vec![5]
        );
        assert!(predicted_pairs(
            &topo,
            &DetectFault::Inject(DirSelect::B, gap_stop_config())
        )
        .is_empty());
    }

    #[test]
    fn fabric_graph_finds_leaf_spofs() {
        let topo = TopoOptions::sized(10);
        let report = analyze(&fabric_graph(&topo));
        assert!(report.connected);
        assert_eq!(report.nodes, 2 + 2 + 10);
        // Each leaf is an articulation point (its hosts hang off it);
        // spines and hosts are not.
        assert_eq!(report.spofs.len(), 2);
        assert!(report.spofs.iter().all(|s| s.name.starts_with("leaf")));
        assert_eq!(report.diameter, 4);
    }

    #[test]
    fn node_off_is_detected_and_healthy_stays_quiet() {
        let options = test_options();
        let warm = warm_detect(&options).expect("warm");
        let healthy = warm.fork_run(&DetectSpec::healthy("healthy")).expect("run");
        assert_eq!(healthy.outcome, "complete");
        // Nothing predicted; at the strict threshold nothing may fire.
        let strict = &healthy.outcomes[2];
        assert!(strict.false_alarm_pairs.is_empty(), "theta=8 false alarms");

        let node = warm
            .fork_run(&DetectSpec::node_off("node-off-0", 0))
            .expect("run");
        assert_eq!(node.predicted, vec![0, 4]);
        for (t, o) in node.outcomes.iter().enumerate() {
            assert_eq!(o.detected, vec![0, 4], "threshold {t} missed the fault");
            assert!(o.latencies_us.iter().all(|&l| l > 0));
        }
        // Lower thresholds must not detect later than higher ones.
        assert!(
            node.outcomes[0].latencies_us[0] <= node.outcomes[2].latencies_us[0],
            "theta=2 slower than theta=8"
        );
        // The suspicion gauges made it into the registry export.
        assert!(node.registry_table.contains("detect.phi.h000"));
    }

    #[test]
    fn injector_silences_exactly_its_direction() {
        let options = test_options();
        let warm = warm_detect(&options).expect("warm");
        let run = warm
            .fork_run(&DetectSpec::inject(
                "hb-corrupt-a",
                DirSelect::A,
                heartbeat_corrupt_config(),
            ))
            .expect("run");
        assert_eq!(run.predicted, vec![1]);
        let reference = &run.outcomes[REFERENCE];
        assert_eq!(reference.detected, vec![1], "intercepted pair undetected");
        assert!(
            reference.false_alarm_pairs.is_empty(),
            "unrelated pairs fired: {:?}",
            reference.false_alarm_pairs
        );
    }

    #[test]
    fn detection_is_worker_count_invariant() {
        let options = test_options();
        let specs = vec![
            DetectSpec::healthy("healthy"),
            DetectSpec::node_off("node-off-0", 0),
            DetectSpec::trunk("trunk-0-0", 0, 0),
        ];
        let one = run_detection(&options, &specs, 1).expect("workers=1");
        let two = run_detection(&options, &specs, 2).expect("workers=2");
        assert_eq!(one, two);
        assert_eq!(one.fingerprint(), two.fingerprint());
        assert_eq!(one.render(), two.render());
        // The single worker ran all three on one resident engine; each is
        // what a one-off fork of the donor runs.
        let warm = warm_detect(&options).expect("warm");
        for (run, spec) in one.runs.iter().zip(&specs) {
            assert_eq!(run, &warm.fork_run(spec).expect("run"), "spec {}", spec.name);
        }
        // The render carries all three tables and the SPOF report.
        assert!(one.render().contains("detection verdicts"));
        assert!(one.render().contains("topology analysis"));
    }
}
