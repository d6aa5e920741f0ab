//! The three simulation workloads — `testbed3`, `testbed3_armed`,
//! `fabric1000` — and their traced runs.

use crate::host::RepClock;
use crate::json::{hex, obj, Json};
use crate::probe::{Kind, SpanProbe, LOOP};
use crate::run::{timed_setup, Rep, Round, Sizes, Trace, Workload};
use crate::stats::median;
use netfi_core::config::InjectorConfig;
use netfi_core::trigger::MatchMode;
use netfi_core::{Direction, InjectorDevice};
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_netstack::{build_testbed_probed, Host, Testbed, TestbedOptions};
use netfi_nftape::{build_fabric_probed, fabric_digest, TopoOptions};
use netfi_obs::DispatchProbe;
use netfi_sim::{
    ComponentId, Engine, NullProbe, Probe, ShardSpec, ShardedEngine, SharedBytes, SimDuration,
    SimTime, Simulation,
};
use std::time::Instant;

/// The byte the armed device matches and rewrites (compare data and
/// corrupt data alike, under mask `0xFF`).
pub const ARMED_BYTE: u8 = 0x07;

/// The armed workload's device configuration: match every 32-bit window
/// whose low byte is [`ARMED_BYTE`] and replace that byte by itself, then
/// repair the CRC-8. Scan, copy-on-write, `apply_plan` and the CRC
/// recompute all run; the wire bytes do not change.
pub fn armed_config() -> InjectorConfig {
    InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(u32::from(ARMED_BYTE), 0xFF)
        .corrupt_replace(u32::from(ARMED_BYTE), 0xFF)
        .recompute_crc(true)
        .build()
}

/// Test bed builds per set-up sample: one takes tens of microseconds.
const TESTBED_SETUP_BATCH: usize = 64;

/// Hosts of the generated fabric.
const FABRIC_HOSTS: usize = 1_000;

/// A built simulation with the handles the benchmark needs, whichever
/// topology it came from.
pub struct Built<P: Probe> {
    pub engine: Engine<Ev, P>,
    hosts: Vec<ComponentId>,
    switches: Vec<ComponentId>,
    device: Option<ComponentId>,
    affinity: Vec<u16>,
    lookahead: SimDuration,
}

impl<P: Probe> Built<P> {
    fn kinds(&self) -> Vec<Kind> {
        let mut kinds = vec![Kind::Other; self.engine.component_count()];
        for h in &self.hosts {
            kinds[h.index()] = Kind::Host;
        }
        for s in &self.switches {
            kinds[s.index()] = Kind::Switch;
        }
        if let Some(d) = self.device {
            kinds[d.index()] = Kind::Device;
        }
        kinds
    }

    fn shard_spec(&self, workers: usize) -> ShardSpec {
        ShardSpec {
            affinity: self.affinity.clone(),
            lookahead: self.lookahead,
            workers,
        }
    }
}

fn testbed_options(seed: u64) -> TestbedOptions {
    TestbedOptions {
        intercept_host: Some(1),
        seed,
        paper_era_hosts: true,
        ..TestbedOptions::default()
    }
}

/// Host 0 sends 256 B × 2 every 3 ms to host 2; host 2 floods 64 B pings
/// at **host 1**, whose link holds the device, so every ping and every
/// reply crosses it.
fn testbed_traffic(i: usize, host: &mut Host) {
    use netfi_netstack::Workload as Traffic;
    if i == 0 {
        host.add_workload(Traffic::Sender {
            dest: EthAddr::myricom(3),
            interval: SimDuration::from_ms(3),
            payload_len: 256,
            forbidden: vec![],
            burst: 2,
        });
    }
    if i == 2 {
        host.add_workload(Traffic::Flood {
            peer: EthAddr::myricom(2),
            payload_len: 64,
            timeout: SimDuration::from_ms(10),
        });
    }
}

fn build_testbed3_probed<P: Probe>(seed: u64, armed: bool, probe: P) -> Built<P> {
    let options = testbed_options(seed);
    let lookahead = options.link.propagation_delay();
    let Testbed {
        mut engine,
        hosts,
        switch,
        injector,
        ..
    } = build_testbed_probed(options, probe, testbed_traffic).expect("test bed wires");
    let device = injector.expect("intercept_host splices a device");
    if armed {
        engine
            .component_as_mut::<InjectorDevice>(device)
            .expect("device id names a device")
            .configure_both(armed_config());
    }
    // Switch on shard 0, one shard per host, the device with its host.
    let mut affinity = vec![0u16; engine.component_count()];
    for (i, h) in hosts.iter().enumerate() {
        affinity[h.index()] = i as u16 + 1;
    }
    affinity[device.index()] = affinity[hosts[1].index()];
    Built {
        engine,
        hosts,
        switches: vec![switch],
        device: Some(device),
        affinity,
        lookahead,
    }
}

/// The benchmark's three-node test bed, unprobed.
pub fn build_testbed3(seed: u64, armed: bool) -> Built<NullProbe> {
    build_testbed3_probed(seed, armed, NullProbe)
}

fn build_fabric1000_probed<P: Probe>(seed: u64, probe: P) -> Built<P> {
    let options = TopoOptions {
        seed,
        ..TopoOptions::sized(FABRIC_HOSTS)
    };
    let fabric = build_fabric_probed(&options, probe, |_, _| {}).expect("fabric wires");
    Built {
        switches: fabric
            .leaves
            .iter()
            .chain(&fabric.spines)
            .copied()
            .collect(),
        engine: fabric.engine,
        hosts: fabric.hosts,
        device: None,
        affinity: fabric.affinity,
        lookahead: fabric.lookahead,
    }
}

#[derive(Clone, Copy)]
enum Topology {
    Testbed { armed: bool },
    Fabric,
}

/// What one finished simulation run yields.
struct Finished {
    events: u64,
    digest: u64,
    wall_s: f64,
    on_cpu: Option<f64>,
}

/// Runs a built simulation on the serial engine.
fn run_serial<P: Probe>(built: &mut Built<P>, until: SimTime) -> Finished {
    let clock = RepClock::start();
    built.engine.run_until(until);
    let (wall_s, on_cpu) = clock.stop();
    Finished {
        events: built.engine.events_processed(),
        digest: fabric_digest(&built.engine, &built.hosts, &built.switches),
        wall_s,
        on_cpu,
    }
}

/// Runs an already converted simulation on the sharded engine.
fn run_sharded<P: Probe + Send>(
    sim: &mut ShardedEngine<Ev, P>,
    hosts: &[ComponentId],
    switches: &[ComponentId],
    until: SimTime,
) -> Finished {
    let clock = RepClock::start();
    sim.run_until(until);
    let (wall_s, on_cpu) = clock.stop();
    Finished {
        events: sim.events_processed(),
        digest: fabric_digest(sim, hosts, switches),
        wall_s,
        // Worker threads do the work at two workers; the calling
        // thread's share says nothing there.
        on_cpu: (sim.workers() == 1).then_some(on_cpu).flatten(),
    }
}

/// One of the three simulation workloads.
pub struct SimLoad {
    topology: Topology,
    seed: u64,
    until: SimTime,
    events: u64,
    digest: u64,
}

impl SimLoad {
    pub fn testbed3(seed: u64, armed: bool, sizes: &Sizes) -> SimLoad {
        SimLoad::new(
            Topology::Testbed { armed },
            seed,
            SimTime::from_ms(sizes.testbed_sim_ms),
        )
    }

    pub fn fabric(seed: u64, sizes: &Sizes) -> SimLoad {
        SimLoad::new(
            Topology::Fabric,
            seed,
            SimTime::from_us(sizes.fabric_sim_us),
        )
    }

    fn new(topology: Topology, seed: u64, until: SimTime) -> SimLoad {
        SimLoad {
            topology,
            seed,
            until,
            events: 0,
            digest: 0,
        }
    }

    fn build_probed<P: Probe>(&self, probe: P) -> Built<P> {
        match self.topology {
            Topology::Testbed { armed } => build_testbed3_probed(self.seed, armed, probe),
            Topology::Fabric => build_fabric1000_probed(self.seed, probe),
        }
    }

    fn build(&self) -> Built<NullProbe> {
        self.build_probed(NullProbe)
    }

    /// The armed device must have fired on at least half its packets, or
    /// the workload is not measuring the armed path.
    fn device_check(&self, built: &Built<impl Probe>) -> Option<String> {
        let Topology::Testbed { armed: true } = self.topology else {
            return None;
        };
        let (packets, injections, _, _) = device_counts(built)?;
        (injections * 2 < packets)
            .then(|| format!("armed device fired {injections} times on {packets} packets"))
    }

    fn rep(&self, run: &Finished, error: Option<String>) -> Rep {
        Rep {
            work: run.events,
            wall_s: run.wall_s,
            on_cpu: run.on_cpu,
            signature: run.digest,
            error,
        }
    }

    /// Two workers on the test bed: two independent simulations side by
    /// side, one per thread — how the campaign runners use small test
    /// beds. (Splitting three nodes over two threads is measured too, as
    /// `sim.shard.w2_efficiency`; it is about a hundred times slower than
    /// one thread and nobody would run it.)
    fn side_by_side(&self, mut a: Built<NullProbe>, mut b: Built<NullProbe>) -> Rep {
        let until = self.until;
        let clock = RepClock::start();
        let (ra, rb) = std::thread::scope(|scope| {
            let ta = scope.spawn(|| run_serial(&mut a, until));
            let tb = scope.spawn(|| run_serial(&mut b, until));
            (ta.join(), tb.join())
        });
        let (wall_s, _) = clock.stop();
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => {
                let error = (ra.digest != rb.digest || ra.events != rb.events)
                    .then(|| "the two side-by-side runs disagree".to_string())
                    .or_else(|| self.device_check(&a));
                let both = Finished {
                    events: ra.events + rb.events,
                    digest: ra.digest,
                    wall_s,
                    on_cpu: None,
                };
                self.rep(&both, error)
            }
            _ => Rep::failed("a side-by-side run panicked"),
        }
    }
}

/// `(packets, injections, matches, crc_recomputes)` of the device, both
/// directions summed.
fn device_counts(built: &Built<impl Probe>) -> Option<(u64, u64, u64, u64)> {
    let device = built.engine.component_as::<InjectorDevice>(built.device?)?;
    let (a, b) = (
        device.fifo_stats(Direction::AToB),
        device.fifo_stats(Direction::BToA),
    );
    Some((
        a.packets + b.packets,
        a.injections + b.injections,
        a.matches + b.matches,
        a.crc_recomputes + b.crc_recomputes,
    ))
}

impl Workload for SimLoad {
    /// One untimed serial run. On `testbed3_armed` it is the *unarmed*
    /// test bed: the reference every armed rep's event count and digest
    /// must equal.
    fn warm_up(&mut self) -> Result<u64, String> {
        let mut built = match self.topology {
            Topology::Testbed { .. } => build_testbed3(self.seed, false),
            Topology::Fabric => self.build(),
        };
        let run = run_serial(&mut built, self.until);
        self.events = run.events;
        self.digest = run.digest;
        Ok(run.digest)
    }

    fn round(&mut self) -> Round {
        // Each configuration runs on freshly built simulations, built
        // right before it runs; the set-up sample is the sum of what the
        // round's builds (and the sharded conversion) cost.
        let batch = match self.topology {
            Topology::Testbed { .. } => TESTBED_SETUP_BATCH,
            Topology::Fabric => 1,
        };
        let (mut setup_s, mut serial) = timed_setup(batch, || self.build());
        let run = run_serial(&mut serial, self.until);
        let w1 = self.rep(&run, self.device_check(&serial));
        drop(serial);

        let (first_s, first) = timed_setup(batch, || self.build());
        setup_s += first_s;
        let w2 = match self.topology {
            Topology::Testbed { .. } => {
                let (second_s, second) = timed_setup(batch, || self.build());
                setup_s += second_s;
                self.side_by_side(first, second)
            }
            Topology::Fabric => {
                let spec = first.shard_spec(2);
                let convert = Instant::now();
                let mut sim: ShardedEngine<Ev> =
                    ShardedEngine::from_engine(first.engine, spec, |_| NullProbe);
                setup_s += convert.elapsed().as_secs_f64();
                let run = run_sharded(&mut sim, &first.hosts, &first.switches, self.until);
                self.rep(&run, None)
            }
        };
        Round {
            setup_s,
            reps: [w1, w2],
        }
    }

    fn reported(&self) -> Json {
        obj([
            ("events", self.events.into()),
            ("digest", hex(self.digest)),
            ("sim_ps", self.until.as_ps().into()),
        ])
    }

    fn trace(&mut self, t: &mut Trace) {
        let reps = if t.smoke { 1 } else { 3 };
        let span_ns = t.span_cost_ns;

        // Serial reps, interleaved so a slow phase of the box hits all
        // alike: untraced (the base every overhead is taken against, and
        // the copy-on-write count of one rep), traced with the span
        // probe, and — on the test bed — with the `DispatchProbe` the
        // campaigns' donor engines carry.
        let mut serial_ns = Vec::new();
        let mut traced_ns = Vec::new();
        let mut dispatch_ns = Vec::new();
        let mut builds_ms = Vec::new();
        let mut kinds = Vec::new();
        let mut probes = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            let mut built = self.build();
            builds_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let before = SharedBytes::copy_count();
            let run = run_serial(&mut built, self.until);
            t.row(
                "sim.bytes.copies",
                (SharedBytes::copy_count() - before) as f64,
            );
            t.operation(run.digest == self.digest, "untraced serial digest");
            serial_ns.push(run.wall_s * 1e9 / run.events as f64);
            if let Some((packets, injections, matches, rewrites)) = device_counts(&built) {
                t.row("core.device.matches", matches as f64);
                t.row("core.device.injections", injections as f64);
                t.row(
                    "core.device.armed_share",
                    rewrites as f64 / packets.max(1) as f64,
                );
            }
            drop(built);

            // Handler spans by component kind, loop spans between them.
            let mut built = self.build_probed(SpanProbe::unassigned());
            kinds = built.kinds();
            let start = Instant::now();
            built.engine.probe_mut().set_kinds(kinds.clone());
            let run = run_serial(&mut built, self.until);
            let wall_ns = start.elapsed().as_nanos() as f64;
            traced_ns.push(run.wall_s * 1e9 / run.events as f64);
            t.operation(run.digest == self.digest, "traced serial digest");
            let probe = built.engine.probe();
            t.operation(probe.events() == run.events, "one handler span per event");
            t.row("trace.coverage", probe.attributed_ns() as f64 / wall_ns);
            for (kind, count) in [
                (Kind::Host, "netstack.host.events"),
                (Kind::Switch, "myrinet.switch.events"),
                (Kind::Device, "core.device.events"),
            ] {
                t.row(count, probe.handler(kind).count as f64);
            }
            t.row(
                "sim.engine.emitted_per_event",
                probe.emitted as f64 / run.events.max(1) as f64,
            );
            probes.push(probe.clone());
            drop(built);

            if let Topology::Testbed { .. } = self.topology {
                let mut built = self.build_probed(DispatchProbe::new(1024));
                let run = run_serial(&mut built, self.until);
                t.operation(run.digest == self.digest, "dispatch-probed digest");
                dispatch_ns.push(run.wall_s * 1e9 / run.events as f64);
            }
        }
        // Span means over all the traced reps together.
        let spans = SpanProbe::merged(&probes);
        t.row("sim.engine.loop_ns", spans.classes[LOOP].mean_ns(span_ns));
        for (kind, ns) in [
            (Kind::Host, "netstack.host.handler_ns"),
            (Kind::Switch, "myrinet.switch.handler_ns"),
            (Kind::Device, "core.device.handler_ns"),
        ] {
            t.row(ns, spans.handler(kind).mean_ns(span_ns));
        }
        t.detail("serial_spans", spans.to_json(span_ns));
        let serial_ns = median(&serial_ns);
        t.row("trace.overhead_ns", median(&traced_ns) - serial_ns);
        if !dispatch_ns.is_empty() {
            t.row(
                "obs.dispatch_probe.ns_per_event",
                median(&dispatch_ns) - serial_ns,
            );
        }
        if matches!(self.topology, Topology::Fabric) {
            t.row("nftape.topo.build_ms.1000", median(&builds_ms));
        }

        // The sharded engine at one worker (inline), untraced then
        // traced with one handler-span probe per shard.
        let mut w1_rate = Vec::new();
        let mut convert_us = Vec::new();
        for _ in 0..reps {
            let built = self.build();
            let spec = built.shard_spec(1);
            let start = Instant::now();
            let mut sim: ShardedEngine<Ev> =
                ShardedEngine::from_engine(built.engine, spec, |_| NullProbe);
            convert_us.push(start.elapsed().as_secs_f64() * 1e6);
            let run = run_sharded(&mut sim, &built.hosts, &built.switches, self.until);
            t.operation(run.digest == self.digest, "sharded w1 digest");
            w1_rate.push(run.events as f64 / run.wall_s);
            let shards = sim.shard_count();
            let per_shard: Vec<u64> = (0..shards).map(|s| sim.shard_events(s)).collect();
            let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
            let mean = per_shard.iter().sum::<u64>() as f64 / shards.max(1) as f64;
            t.row("sim.shard.rounds", sim.rounds() as f64);
            t.row("sim.shard.cross_events", sim.cross_events() as f64);
            t.row(
                "sim.shard.events_per_round",
                run.events as f64 / sim.rounds().max(1) as f64,
            );
            t.row(
                "sim.shard.imbalance",
                if mean > 0.0 { max / mean } else { 0.0 },
            );
        }
        let w1_rate = median(&w1_rate);
        t.row("sim.shard.convert_us", median(&convert_us));
        t.row("sim.shard.events_per_s_w1", w1_rate);

        let built = self.build();
        let spec = built.shard_spec(1);
        let mut sim: ShardedEngine<Ev, SpanProbe> =
            ShardedEngine::from_engine(built.engine, spec, |_| {
                SpanProbe::new(kinds.clone(), false)
            });
        let run = run_sharded(&mut sim, &built.hosts, &built.switches, self.until);
        t.operation(run.digest == self.digest, "traced sharded w1 digest");
        let merged = SpanProbe::merged(sim.probes());
        t.operation(
            merged.events() == run.events,
            "one shard handler span per event",
        );
        // Wall time outside handlers per event, less the recording cost
        // of the one span per event that falls outside them.
        let outside_ns = (run.wall_s * 1e9 - merged.attributed_ns() as f64) / run.events as f64;
        t.row("sim.shard.sync_ns", (outside_ns - span_ns).max(0.0));
        t.detail("sharded_w1_spans", merged.to_json(span_ns));

        // The sharded engine at two workers. On the test bed every
        // window is nearly empty and costs two thread hand-offs, so it
        // runs a much shorter span there.
        let until = match self.topology {
            Topology::Testbed { .. } => SimTime::from_ps(self.until.as_ps() / 600),
            Topology::Fabric => self.until,
        };
        let mut w2_rate = Vec::new();
        for _ in 0..reps {
            let built = self.build();
            let spec = built.shard_spec(2);
            let mut sim: ShardedEngine<Ev> =
                ShardedEngine::from_engine(built.engine, spec, |_| NullProbe);
            let run = run_sharded(&mut sim, &built.hosts, &built.switches, until);
            if until == self.until {
                t.operation(run.digest == self.digest, "sharded w2 digest");
            }
            w2_rate.push(run.events as f64 / run.wall_s);
        }
        let w2_rate = median(&w2_rate);
        t.row("sim.shard.w2_efficiency", w2_rate / (2.0 * w1_rate));
        t.detail(
            "sharded",
            obj([
                ("events_per_s_w2", w2_rate.into()),
                ("w2_sim_ps", until.as_ps().into()),
            ]),
        );
    }
}
