//! The benchmark's registry: every workload and metric it can report,
//! by the names `BENCHMARK.json` and the README use. `self-check` holds
//! the three to one another.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

pub struct WorkloadDef {
    pub name: &'static str,
    /// What one unit of `work_per_s` is on this workload.
    pub work_unit: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "testbed3",
        work_unit: "simulated event",
        why: "3 hosts, switch, pass-through device, 64 B flood through the device: the cache-resident floor of per-event cost",
    },
    WorkloadDef {
        name: "testbed3_armed",
        work_unit: "simulated event",
        why: "same traffic with the device armed to rewrite every packet in place (scan, COW, CRC-8 repair): the armed overhead, same wire bytes",
    },
    WorkloadDef {
        name: "fabric1000",
        work_unit: "simulated event",
        why: "1,000-host leaf-spine fabric, 18 shards, stride traffic: working set and same-instant population far beyond the test bed, no device",
    },
    WorkloadDef {
        name: "sample",
        work_unit: "classified injection point",
        why: "16,384 sampled injections as forks of one warm donor: fork-dominated fine-grained fan-out (tens of microseconds per point)",
    },
    WorkloadDef {
        name: "detect100",
        work_unit: "detection scenario",
        why: "8 long failure scenarios forked from a warm 100-host fabric: coarse fan-out, the only workload that runs the phi-accrual detectors",
    },
    WorkloadDef {
        name: "paper_eval",
        work_unit: "campaign",
        why: "the paper's 19 evaluation campaigns, fresh build each, device armed with real corruptions: the run a user of the paper's method makes",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every run reports all of these, on every workload.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "work_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "work_per_s_w2",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.1,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workloads this row should move.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

const SIM: &str = "work_per_s on testbed3, testbed3_armed, fabric1000";
const TB: &str = "work_per_s on testbed3, testbed3_armed";
const ARMED: &str = "work_per_s on testbed3_armed";
const FAB: &str = "work_per_s on fabric1000";
const SHARD: &str = "work_per_s_w2 on fabric1000";
const SAMPLE: &str = "work_per_s* on sample";
const DETECT: &str = "work_per_s* on detect100";
const NONE: &str = "nothing yet: no workload runs Fibre Channel";
const GUARD: &str = "nothing: simulated result, must repeat exactly";

/// Every traced run reports all of these. Rows traced from the workload
/// itself read 0 on a workload that does not run the layer; the ledger
/// rows (timed calls into a layer's public functions) are measured in
/// every traced run.
pub const PER_LAYER: [LayerDef; 87] = [
    // -- traced from the workload ------------------------------------
    row(
        "trace.coverage",
        "ratio",
        Higher,
        "nothing: share of traced wall time the spans account for",
    ),
    row(
        "trace.overhead_ns",
        "ns",
        Lower,
        "nothing: traced minus untraced cost per unit of work",
    ),
    row("sim.engine.loop_ns", "ns", Lower, SIM),
    row("netstack.host.handler_ns", "ns", Lower, SIM),
    row("myrinet.switch.handler_ns", "ns", Lower, SIM),
    row("core.device.handler_ns", "ns", Lower, TB),
    row("netstack.host.events", "count", Lower, SIM),
    row("myrinet.switch.events", "count", Lower, SIM),
    row("core.device.events", "count", Lower, TB),
    row("sim.engine.emitted_per_event", "ratio", Lower, SIM),
    row("sim.shard.rounds", "count", Lower, SHARD),
    row("sim.shard.cross_events", "count", Lower, SHARD),
    row("sim.shard.events_per_round", "count", Higher, SHARD),
    row("sim.shard.imbalance", "ratio", Lower, SHARD),
    row("sim.shard.convert_us", "us", Lower, "setup_s on fabric1000"),
    row("sim.shard.sync_ns", "ns", Lower, SHARD),
    row("sim.shard.events_per_s_w1", "1/s", Higher, SHARD),
    row("sim.shard.w2_efficiency", "ratio", Higher, SHARD),
    row("sim.bytes.copies", "count", Lower, ARMED),
    row("core.device.matches", "count", Lower, GUARD),
    row("core.device.injections", "count", Higher, GUARD),
    row("core.device.armed_share", "ratio", Higher, GUARD),
    row(
        "obs.dispatch_probe.ns_per_event",
        "ns",
        Lower,
        "work_per_s* on sample, paper_eval",
    ),
    row(
        "nftape.topo.build_ms.1000",
        "ms",
        Lower,
        "setup_s on fabric1000",
    ),
    row("nftape.grid.warm_ms", "ms", Lower, "setup_s on sample"),
    row("nftape.grid.fork_us", "us", Lower, SAMPLE),
    row("nftape.grid.fork_run_us", "us", Lower, SAMPLE),
    row(
        "nftape.detection.warm_ms",
        "ms",
        Lower,
        "setup_s, work_per_s* on detect100",
    ),
    row("nftape.detection.fork_run_ms", "ms", Lower, DETECT),
    row(
        "nftape.detection.fork_run_max_ms",
        "ms",
        Lower,
        "work_per_s_w2 on detect100",
    ),
    row(
        "nftape.campaign.slowest_ms",
        "ms",
        Lower,
        "work_per_s_w2 on paper_eval",
    ),
    row("nftape.table4.mae_pp", "pp", Lower, GUARD),
    row("sample.point_us", "us", Lower, SAMPLE),
    row(
        "sample.fanout_efficiency",
        "ratio",
        Higher,
        "work_per_s_w2 on sample",
    ),
    row("sample.masked", "count", Lower, GUARD),
    row("sample.corrupted", "count", Lower, GUARD),
    row("sample.crc", "count", Higher, GUARD),
    row("sample.timeout", "count", Higher, GUARD),
    row("sample.hang", "count", Lower, GUARD),
    row("detect.p50_ms", "ms", Lower, GUARD),
    row("detect.missed", "count", Lower, GUARD),
    row("detect.false_alarms", "count", Lower, GUARD),
    row("detect.agreement_permille", "permille", Higher, GUARD),
    // -- the ledger: timed calls into public functions ----------------
    row("sim.wheel.push_pop_ns", "ns", Lower, TB),
    row("sim.wheel.same_bucket_ns", "ns", Lower, FAB),
    row("sim.wheel.overflow_ns", "ns", Lower, SIM),
    row("sim.snapshot_us.testbed3", "us", Lower, "setup_s on sample"),
    row(
        "sim.snapshot_us.fabric100",
        "us",
        Lower,
        "setup_s on detect100",
    ),
    row(
        "sim.snapshot_us.fabric1000",
        "us",
        Lower,
        "nothing yet: no workload snapshots 1,000 hosts",
    ),
    row("sim.fork_us.testbed3", "us", Lower, SAMPLE),
    row("sim.fork_us.fabric100", "us", Lower, DETECT),
    row(
        "sim.fork_us.fabric1000",
        "us",
        Lower,
        "nothing yet: no workload forks 1,000 hosts",
    ),
    row("sim.bytes.clone_ns", "ns", Lower, SIM),
    row("sim.bytes.cow_ns.64", "ns", Lower, ARMED),
    row("sim.bytes.cow_ns.1024", "ns", Lower, ARMED),
    row(
        "core.fifo.passthrough_ns.64",
        "ns",
        Lower,
        "work_per_s on testbed3",
    ),
    row(
        "core.fifo.passthrough_ns.1024",
        "ns",
        Lower,
        "work_per_s on testbed3",
    ),
    row("core.fifo.armed_ns.64", "ns", Lower, ARMED),
    row("core.fifo.armed_ns.1024", "ns", Lower, ARMED),
    row("core.trigger.scan_mib_s", "MiB/s", Higher, ARMED),
    row(
        "core.pipeline.cycle_ns",
        "ns",
        Lower,
        "nothing yet: no workload steps the cycle-accurate pipeline",
    ),
    row("core.command.feed_ns", "ns", Lower, SAMPLE),
    row("myrinet.crc8.mib_s.64", "MiB/s", Higher, TB),
    row("myrinet.crc8.mib_s.4096", "MiB/s", Higher, TB),
    row("myrinet.packet.encode_ns.64", "ns", Lower, SIM),
    row("myrinet.packet.encode_ns.1024", "ns", Lower, SIM),
    row("myrinet.packet.parse_ns.64", "ns", Lower, SIM),
    row("myrinet.packet.parse_ns.1024", "ns", Lower, SIM),
    row("myrinet.packet.route_strip_ns.64", "ns", Lower, FAB),
    row("myrinet.packet.route_strip_ns.1024", "ns", Lower, FAB),
    row("netstack.checksum.mib_s.64", "MiB/s", Higher, SIM),
    row("netstack.checksum.mib_s.1024", "MiB/s", Higher, SIM),
    row("netstack.udp.encode_ns", "ns", Lower, SIM),
    row("netstack.udp.decode_ns", "ns", Lower, SIM),
    row("phy.b8b10.encode_mib_s", "MiB/s", Higher, NONE),
    row("phy.b8b10.decode_mib_s", "MiB/s", Higher, NONE),
    row("phy.serial.frame_ns", "ns", Lower, SAMPLE),
    row("fc.crc32.mib_s.2048", "MiB/s", Higher, NONE),
    row("fc.frame.line_roundtrip_ns", "ns", Lower, NONE),
    row(
        "obs.registry.record_ns",
        "ns",
        Lower,
        "work_per_s* on sample, detect100",
    ),
    row(
        "obs.flight.push_ns",
        "ns",
        Lower,
        "work_per_s* on sample, paper_eval",
    ),
    row("sample.space.draw_ns", "ns", Lower, SAMPLE),
    row("sample.classify_ns", "ns", Lower, SAMPLE),
    row("detect.accrual.arrival_ns", "ns", Lower, DETECT),
    row("detect.accrual.poll_ns_per_pair", "ns", Lower, DETECT),
    row(
        "detect.topo.analyze_us.100",
        "us",
        Lower,
        "setup_s on detect100",
    ),
    row(
        "detect.topo.analyze_us.1000",
        "us",
        Lower,
        "nothing yet: no workload analyses 1,000 hosts",
    ),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn layer(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|l| l.name == name)
}
