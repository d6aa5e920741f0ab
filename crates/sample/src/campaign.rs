//! The sampled campaign driver: one warmed donor engine, N forked
//! injection experiments, a classified record per experiment.
//!
//! Every sampled point is the same bounded scenario on a fork of one
//! [`WarmedCampaign`] donor (warmed once through the 2.5 s map phase,
//! exactly the chaos-grid amortization): the drawn injector
//! configuration programmed with the trigger *disarmed*, a short fixed
//! burst of campaign datagrams streamed into the intercepted link, the
//! trigger armed `Once` at the drawn instant over the device's serial
//! line, and a run to a fixed deadline under an event budget. The
//! programming window is a fixed margin — wider than the longest serial
//! script — so stream timing is byte-identical across every point and
//! the healthy baseline, and the only difference between two runs is the
//! drawn fault itself.
//!
//! So a point pays only from its arming instant on. Up to that instant
//! every point *is* the healthy baseline: with the trigger off the device
//! forwards every frame unchanged, and the programming bytes are read by
//! the device's decoder, which nothing on the wire can see. The driver
//! orders the points by `(t_arm_ns, index)` and gives each
//! [`fan_out`] worker a *prefix* engine — a fork of the donor with the
//! campaign stream scheduled, `run_baseline`'s schedule — that it runs
//! forward to 1 ps before each point's arming instant (a worker's claims
//! ascend, so it never runs backwards). There it forks the prefix into
//! the worker's one resident point engine (`Engine::fork_into`, which
//! reuses that engine's buckets and heaps), feeds the drawn
//! program through the device's own decoder
//! ([`InjectorDevice::feed_serial`], the bytes `program_injector` would
//! send), schedules the one-command arming script at the drawn instant
//! and runs to the deadline on what the lead-in left of the event
//! budget. The result is the point run byte-timed from the map-phase end
//! — programming at wire speed, stream, arming — event for event: the
//! stream keys still precede the arming keys, the arming byte is still
//! the first delivery at its instant, and a budget-exhausted point stops
//! on the same simulated event (the `#[cfg(test)]` byte-timed oracle,
//! `run_point_byte_timed`, is compared point by point in this module's
//! tests).
//!
//! A point copies only what can reach its evidence. Both engines are
//! `Engine<Ev, NullProbe>`: the prefix is forked from the donor without
//! its dispatch probe ([`Warm::fork_without_probe`]), which no
//! record reads, so no fork copies the probe's ring and no delivery pays
//! its bookkeeping. The donor arms no host's arrival log; each prefix
//! arms the logs of the two stream sinks, hosts 0 and 1, as it is forked,
//! so they hold the stream's deliveries and none of the map phase's.
//! Corrupted payloads are the sinks' `SINK_PORT` deliveries, which the
//! map phase makes none of, and no log comes near its 64 records, so
//! the count is the one a log armed through the map phase would give.
//!
//! Nothing a point left behind can reach the next: the fork overwrites
//! the point engine whole, and the prefix only ever runs the healthy
//! schedule. Records come back in draw order. No output byte can depend
//! on the worker count; the campaign
//! [`fingerprint`](SampledCampaign::fingerprint) is compared across
//! workers 1/2/8 in `tests/determinism.rs`.

use netfi_core::command::Command;
use netfi_core::config::InjectorConfig;
use netfi_core::trigger::MatchMode;
use netfi_core::{Direction, InjectorDevice};
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::event::Ev;
use netfi_myrinet::switch::Switch;
use netfi_netstack::{Host, HostCmd, UdpDatagram, SINK_PORT};
use netfi_nftape::bed::{read, read_mut, Bed, Warm};
use netfi_nftape::grid::{warm_campaign, WarmedCampaign};
use netfi_nftape::results::ScenarioError;
use netfi_nftape::runner::{commands_for_config, fan_out, schedule_script, script_bytes};
use netfi_nftape::scenarios::udpcheck::MESSAGE;
use netfi_sim::{ComponentId, Engine, Fnv1a, Probe, RunBudget, RunOutcome, SimDuration, SimTime};

use netfi_core::command::DirSelect;

use crate::classify::{classify, OutcomeClass, RunEvidence};
use crate::space::{draw_point, CorruptKind, InjectionPoint, Plane, CONTROL_SWAPS};
use crate::stats::{Breakdown, BreakdownRow, CoverageReport};

/// Campaign datagrams streamed per point — enough for the trigger to see
/// repeated copies of every window, few enough to keep a point cheap.
pub(crate) const SENDS: u64 = 6;
/// Gap between streamed datagrams.
const SEND_GAP: SimDuration = SimDuration::from_ms(5);
/// Fixed delay between scheduling the programming script and the first
/// streamed datagram. The longest script (a full data-plane config) is
/// ~13 ms of serial traffic at 115200 baud, so 20 ms guarantees the
/// device is programmed — and stream timing identical — for every point.
const PROGRAM_MARGIN: SimDuration = SimDuration::from_ms(20);
/// Settle time after the last datagram, long enough for the switch's
/// ~50 ms long-timeout watchdog to release a path a control fault held.
const SETTLE: SimDuration = SimDuration::from_ms(70);
/// The arming window draws span the stream (`SENDS × SEND_GAP` = 30 ms)
/// plus a tail, so late draws arm a trigger that nothing can fire —
/// the masked class's guaranteed population.
pub const ARM_SPAN_NS: u64 = 37_500_000;
/// Event budget per bounded point run. A healthy point finishes in well
/// under 100k events; exhausting this classifies the run as a hang.
const POINT_EVENT_BUDGET: u64 = 2_000_000;
/// Source port of the streamed campaign datagrams.
const SRC_PORT: u16 = 6_000;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct SampleOptions {
    /// Seed of both the donor engine and every point draw.
    pub seed: u64,
    /// Number of injection points to draw and run.
    pub points: u64,
    /// Fan-out width (must be non-zero).
    pub workers: usize,
}

/// One classified experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointRecord {
    /// The drawn injection point.
    pub point: InjectionPoint,
    /// Its outcome class.
    pub class: OutcomeClass,
    /// The evidence the class was assigned from.
    pub evidence: RunEvidence,
}

/// A finished sampled campaign: the healthy baseline evidence and one
/// record per drawn point, in draw order.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCampaign {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Evidence from the no-fault baseline fork every run is differenced
    /// against.
    pub baseline: RunEvidence,
    /// Per-point records, in draw order.
    pub records: Vec<PointRecord>,
}

impl SampledCampaign {
    /// Outcome histogram, indexed by [`OutcomeClass::index`].
    pub fn histogram(&self) -> [u64; 5] {
        let mut h = [0u64; 5];
        for r in &self.records {
            h[r.class.index()] += 1;
        }
        h
    }

    /// The coverage report: all five classes with Wilson 95% intervals.
    pub fn report(&self) -> CoverageReport {
        CoverageReport::from_histogram(self.histogram())
    }

    /// The outcome × direction breakdown: the class histogram split by
    /// the drawn link direction. Draws select exactly A or B (never
    /// both), so two cells cover the dimension.
    pub fn direction_breakdown(&self) -> Breakdown {
        let mut rows = vec![
            BreakdownRow {
                key: "dir_a".to_string(),
                histogram: [0; 5],
            },
            BreakdownRow {
                key: "dir_b".to_string(),
                histogram: [0; 5],
            },
        ];
        for r in &self.records {
            let cell = if r.point.dir == DirSelect::A { 0 } else { 1 };
            rows[cell].histogram[r.class.index()] += 1;
        }
        Breakdown {
            dimension: "outcome x direction",
            rows,
        }
    }

    /// The outcome × control-swap breakdown: control-plane draws split
    /// by their `CONTROL_SWAPS` row (the paper's Table 4), one cell
    /// per swap in that fixed order. Data-plane draws are not counted —
    /// the dimension only exists on the control plane.
    pub fn control_swap_breakdown(&self) -> Breakdown {
        let mut rows: Vec<BreakdownRow> = CONTROL_SWAPS
            .iter()
            .map(|(from, to)| BreakdownRow {
                key: format!("{from:?}_to_{to:?}").to_lowercase(),
                histogram: [0; 5],
            })
            .collect();
        for r in &self.records {
            if matches!(r.point.plane, Plane::Control) {
                let cell = r.point.control_swap % CONTROL_SWAPS.len();
                rows[cell].histogram[r.class.index()] += 1;
            }
        }
        Breakdown {
            dimension: "outcome x control swap",
            rows,
        }
    }

    /// FNV-1a fingerprint over the seed, the baseline, every record and
    /// the rendered report. Equal fingerprints mean two campaigns
    /// produced the same bytes; the determinism tests compare this
    /// across worker counts.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write_u64(self.seed);
        self.baseline.eat_into(&mut hash);
        for r in &self.records {
            hash.write_u64(r.point.index);
            hash.write_u64(r.point.t_arm_ns);
            hash.write(&[
                r.point.dir as u8,
                matches!(r.point.plane, Plane::Control) as u8,
                r.point.bit as u8,
                matches!(r.point.mode, CorruptKind::WordSwap) as u8,
                r.point.crc_refresh as u8,
                r.point.control_swap as u8,
                r.class.index() as u8,
            ]);
            hash.write_u64(r.point.offset as u64);
            r.evidence.eat_into(&mut hash);
        }
        hash.write(self.report().render().as_bytes());
        hash.finish()
    }
}

/// The campaign datagram's wire image — the byte string the drawn
/// compare windows slide over.
pub fn campaign_wire() -> Vec<u8> {
    UdpDatagram::new(SRC_PORT, SINK_PORT, MESSAGE.to_vec()).encode()
}

/// The injector configuration a drawn point programs — always with the
/// trigger off; arming happens separately at the drawn instant.
fn point_config(point: &InjectionPoint, wire: &[u8]) -> InjectorConfig {
    match point.plane {
        Plane::Control => {
            let (from, to) = point.swap();
            // A control point must keep its `Once` latch for the control
            // path: the default comparator (mask 0) matches *every* data
            // window, so the first passing segment would fire a no-op
            // data injection and disarm the trigger before any control
            // symbol arrives. Pin the comparator to a full-mask value
            // that never occurs in the fixed campaign traffic.
            InjectorConfig::builder()
                .match_mode(MatchMode::Off)
                .compare(0xA5C3_96E1, 0xFFFF_FFFF)
                .control_swap(from.encode(), to.encode())
                .build()
        }
        Plane::Data => {
            let window = u32::from_be_bytes([
                wire[point.offset],
                wire[point.offset + 1],
                wire[point.offset + 2],
                wire[point.offset + 3],
            ]);
            let builder = InjectorConfig::builder()
                .match_mode(MatchMode::Off)
                .compare(window, 0xFFFF_FFFF)
                .recompute_crc(point.crc_refresh);
            match point.mode {
                CorruptKind::Toggle => builder.corrupt_toggle(1u32 << point.bit).build(),
                // The §4.3.4 aliasing corruption: swap the window's 16-bit
                // halves. Word-aligned windows commute under the UDP
                // one's-complement sum; misaligned ones do not.
                CorruptKind::WordSwap => builder
                    .corrupt_replace(window.rotate_left(16), 0xFFFF_FFFF)
                    .build(),
            }
        }
    }
}

/// Schedules the fixed campaign bursts: `SENDS` datagrams from host 0
/// into the intercepted host (through the device's direction B) and
/// `SENDS` from the intercepted host back to host 0 (direction A),
/// interleaved half a gap apart so both directions of the spliced link
/// carry the same wire image during the arming window.
fn schedule_stream(engine: &mut Engine<Ev>, bed: &Bed, t_stream: SimTime) {
    for k in 0..SENDS {
        engine.schedule(
            t_stream + SEND_GAP * k,
            bed.hosts[0],
            Ev::App(Box::new(HostCmd::SendUdp {
                dest: EthAddr::myricom(2),
                datagram: UdpDatagram::new(SRC_PORT, SINK_PORT, MESSAGE.to_vec()),
            })),
        );
        engine.schedule(
            t_stream + SEND_GAP * k + SEND_GAP / 2,
            bed.hosts[1],
            Ev::App(Box::new(HostCmd::SendUdp {
                dest: EthAddr::myricom(1),
                datagram: UdpDatagram::new(SRC_PORT, SINK_PORT, MESSAGE.to_vec()),
            })),
        );
    }
}

/// Runs the bounded tail of a point (or baseline) scenario, at most
/// `max_events` more deliveries, and collects its evidence.
fn finish(
    engine: &mut Engine<Ev>,
    bed: &Bed,
    t_stream: SimTime,
    max_events: u64,
) -> Result<RunEvidence, ScenarioError> {
    let deadline = t_stream + SEND_GAP * SENDS + SETTLE;
    let outcome = engine.run_budgeted(RunBudget::until(deadline).with_max_events(max_events));
    collect_evidence(engine, bed, outcome)
}

/// Reads the end-of-run evidence: obs recorder instants plus per-layer
/// counters, summed exactly as documented on [`RunEvidence`].
fn collect_evidence(
    engine: &Engine<Ev>,
    bed: &Bed,
    outcome: RunOutcome,
) -> Result<RunEvidence, ScenarioError> {
    let now = engine.now();
    let mut crc_detections = 0;
    let mut timeout_detections = 0;
    for &h in &bed.hosts {
        let host = read::<Host>(engine, h)?;
        let nic = host.nic().stats();
        crc_detections += nic.rx_crc_drops + nic.rx_malformed + nic.rx_truncated;
        let udp = host.udp_stats();
        crc_detections += udp.rx_checksum_drops + udp.rx_malformed;
        timeout_detections += host.nic().egress_stats(now).timeout_recoveries;
    }
    let s = read::<Switch>(engine, bed.switch)?.stats();
    crc_detections += s.framing_drops + s.truncation_drops + s.malformed_drops;
    timeout_detections += s.long_timeout_releases + s.gap_releases;
    let dev = read::<InjectorDevice>(engine, bed.device)?;
    let injections = [Direction::AToB, Direction::BToA]
        .into_iter()
        .map(|d| {
            let f = dev.fifo_stats_at(d, now);
            f.injections + f.control_injections
        })
        .sum();
    let obs_injects = dev
        .obs()
        .events()
        .filter(|e| e.value.name == "inject")
        .count() as u64;
    let mut delivered = 0;
    let mut corrupt_payloads = 0;
    for &h in stream_sinks(bed) {
        let sink = read::<Host>(engine, h)?;
        delivered += sink.rx_count(SINK_PORT);
        corrupt_payloads += sink
            .recent_arrivals()
            .map(|s| &s.value)
            .filter(|(_, d)| d.dst_port == SINK_PORT && d.payload[..] != MESSAGE[..])
            .count() as u64;
    }
    Ok(RunEvidence {
        outcome,
        injections,
        obs_injects,
        crc_detections,
        timeout_detections,
        delivered,
        corrupt_payloads,
    })
}

/// Both stream endpoints are sinks: host 1 receives the forward burst,
/// host 0 the reverse one.
fn stream_sinks(bed: &Bed) -> &[ComponentId] {
    &bed.hosts[..2]
}

/// Overwrites `engine` with a fork of the donor at the map-phase end,
/// without its dispatch probe, and arms the stream sinks' arrival logs,
/// which [`collect_evidence`] reads corrupted payloads from.
fn fork_donor(warm: &Warm<impl Probe>, engine: &mut Engine<Ev>) -> Result<(), ScenarioError> {
    warm.fork_without_probe(engine);
    for &h in stream_sinks(&warm.bed) {
        read_mut::<Host>(engine, h)?.arm_arrivals();
    }
    Ok(())
}

/// A fork of the donor with the campaign stream scheduled and nothing
/// else — the healthy run every point shares up to its arming instant —
/// and the stream's first instant.
fn healthy_fork(warm: &Warm<impl Probe>) -> Result<(Engine<Ev>, SimTime), ScenarioError> {
    let mut engine = Engine::new();
    fork_donor(warm, &mut engine)?;
    let t_stream = engine.now() + PROGRAM_MARGIN;
    schedule_stream(&mut engine, &warm.bed, t_stream);
    Ok((engine, t_stream))
}

/// Runs the healthy baseline: the same stream at the same instants, no
/// injector program, no arming.
fn run_baseline(warm: &Warm<impl Probe>) -> Result<RunEvidence, ScenarioError> {
    let (mut engine, t_stream) = healthy_fork(warm)?;
    finish(&mut engine, &warm.bed, t_stream, POINT_EVENT_BUDGET)
}

/// The drawn arming instant of `point`.
fn arming_instant(t_stream: SimTime, point: &InjectionPoint) -> SimTime {
    t_stream + SimDuration::from_ns(point.t_arm_ns)
}

/// Schedules the arming script at `t_arm`. The programming script ended
/// with the decoder's direction select on the drawn direction, so a lone
/// MATCH-MODE command re-arms exactly the drawn direction(s).
fn schedule_arming(engine: &mut Engine<Ev>, bed: &Bed, t_arm: SimTime) {
    schedule_script(
        engine,
        bed.device,
        t_arm,
        &[Command::MatchMode(MatchMode::Once)],
    );
}

/// One [`fan_out`] worker's two engines: the healthy prefix, run forward
/// to each point's arming instant, and the resident engine each point is
/// forked into there.
struct PointRunner<'w> {
    bed: &'w Bed,
    prefix: Engine<Ev>,
    /// The prefix's delivery count when it was forked from the donor.
    forked_at: u64,
    t_stream: SimTime,
    engine: Engine<Ev>,
}

impl<'w> PointRunner<'w> {
    fn new(warm: &'w Warm<impl Probe>) -> Result<PointRunner<'w>, ScenarioError> {
        let (prefix, t_stream) = healthy_fork(warm)?;
        Ok(PointRunner {
            bed: &warm.bed,
            forked_at: prefix.events_processed(),
            prefix,
            t_stream,
            engine: Engine::new(),
        })
    }

    /// Runs one drawn point: the prefix forward to 1 ps before the arming
    /// instant, forked into the point engine, the drawn program fed through
    /// the device's decoder, `Once` armed at the drawn instant, and the
    /// bounded tail run on what the lead-in left of `budget`.
    ///
    /// Points must come in non-decreasing arming order, and `budget` must
    /// outlast the lead-in (the prefix's deliveries plus one per script
    /// byte), as [`POINT_EVENT_BUDGET`] does by five orders of magnitude.
    fn run(
        &mut self,
        point: &InjectionPoint,
        wire: &[u8],
        budget: u64,
    ) -> Result<RunEvidence, ScenarioError> {
        let bed = self.bed;
        let t_arm = arming_instant(self.t_stream, point);
        let fork_at = t_arm - SimDuration::from_ps(1);
        debug_assert!(
            self.prefix.now() <= fork_at,
            "the prefix never runs backwards"
        );
        self.prefix.run_until(fork_at);
        self.prefix.fork_into(&mut self.engine);
        let engine = &mut self.engine;
        let script = script_bytes(&commands_for_config(point.dir, &point_config(point, wire)));
        read_mut::<InjectorDevice>(engine, bed.device)?.feed_serial(&script);
        schedule_arming(engine, bed, t_arm);
        // The byte-timed run delivered the same prefix and, before it
        // armed, one event per script byte.
        let lead = engine.events_processed() - self.forked_at + script.len() as u64;
        debug_assert!(lead < budget, "the lead-in exhausted the budget");
        finish(engine, bed, self.t_stream, budget.saturating_sub(lead))
    }
}

/// The byte-timed oracle of [`PointRunner::run`]: `engine` overwritten
/// with a fork of the donor at the map-phase end (the same
/// [`fork_donor`] the prefix starts from), the drawn program sent over
/// the serial line at wire timing, the stream, `Once` armed at the drawn
/// instant, the bounded run under `budget`.
#[cfg(test)]
fn run_point_byte_timed(
    warm: &Warm<impl Probe>,
    engine: &mut Engine<Ev>,
    point: &InjectionPoint,
    wire: &[u8],
    budget: u64,
) -> Result<RunEvidence, ScenarioError> {
    fork_donor(warm, engine)?;
    let t0 = engine.now();
    let config = point_config(point, wire);
    let bed = &warm.bed;
    netfi_nftape::runner::program_injector(engine, bed.device, t0, point.dir, &config);
    let t_stream = t0 + PROGRAM_MARGIN;
    schedule_stream(engine, bed, t_stream);
    schedule_arming(engine, bed, arming_instant(t_stream, point));
    finish(engine, bed, t_stream, budget)
}

/// The draw indices of a campaign in arming order, `(t_arm_ns, index)`
/// ascending. The keys are dropped once sorted, so the campaign holds
/// four bytes a point while it runs.
fn arming_order(seed: u64, points: u64, wire_len: usize) -> Vec<u32> {
    const _: () = assert!(ARM_SPAN_NS <= u32::MAX as u64);
    assert!(points <= 1 << 32, "a campaign draws at most 2^32 points");
    let mut keyed: Vec<(u32, u32)> = (0..points)
        .map(|i| {
            let t_arm_ns = draw_point(seed, i, wire_len, ARM_SPAN_NS).t_arm_ns;
            (t_arm_ns as u32, i as u32)
        })
        .collect();
    keyed.sort_unstable();
    keyed.iter().map(|&(_, i)| i).collect()
}

/// Draws and runs a full sampled campaign.
///
/// The donor is warmed once; the baseline and every point run on forks
/// of it. Results are byte-identical for any `workers`.
///
/// # Errors
///
/// Returns the error of the first failing point in arming order (see
/// [`sample_warmed`]), if any.
///
/// # Panics
///
/// Panics if `workers` is zero or `points` exceeds 2³².
pub fn run_sampled_campaign(opts: &SampleOptions) -> Result<SampledCampaign, ScenarioError> {
    sample_warmed(&warm_campaign(opts.seed)?, opts)
}

/// [`run_sampled_campaign`] on an existing donor — callers running
/// several campaigns (the worker-invariance tests, the benchmark's
/// per-worker passes) warm once and sample many times.
///
/// The baseline runs on its own fork of the donor. The points run in
/// arming order, `(t_arm_ns, index)`, each worker forking its healthy
/// prefix at every point's arming instant (see the module docs); the
/// records are then put back in draw order in place.
///
/// # Errors
///
/// Returns the error of the first failing point in arming order, if any.
///
/// # Panics
///
/// Panics if `opts.workers` is zero or `opts.points` exceeds 2³².
pub fn sample_warmed(
    warm: &WarmedCampaign,
    opts: &SampleOptions,
) -> Result<SampledCampaign, ScenarioError> {
    let warm = warm.warm();
    let wire = &campaign_wire();
    let baseline = run_baseline(warm)?;
    let order = &arming_order(opts.seed, opts.points, wire.len());
    // Point `i` is a pure function of `(seed, i)`, so each worker draws
    // the points it runs again rather than holding every draw.
    let mut records = fan_out(opts.workers, order.len(), || {
        let mut runner = PointRunner::new(warm);
        move |k| {
            let point = draw_point(opts.seed, u64::from(order[k]), wire.len(), ARM_SPAN_NS);
            runner
                .as_mut()
                .map_err(|e| *e)?
                .run(&point, wire, POINT_EVENT_BUDGET)
                .map(|evidence| PointRecord {
                    class: classify(&evidence, &baseline),
                    point,
                    evidence,
                })
        }
    })?;
    records.sort_unstable_by_key(|r| r.point.index);
    Ok(SampledCampaign {
        seed: opts.seed,
        baseline,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_phy::ControlSymbol;

    fn point(index: u64) -> InjectionPoint {
        draw_point(11, index, campaign_wire().len(), ARM_SPAN_NS)
    }

    #[test]
    fn wire_image_is_the_campaign_datagram() {
        let wire = campaign_wire();
        assert_eq!(wire.len(), 8 + MESSAGE.len());
        // "Have" sits at the start of the payload, after the UDP header.
        assert_eq!(&wire[8..12], b"Have");
    }

    #[test]
    fn point_config_is_disarmed_and_faithful() {
        let wire = campaign_wire();
        for i in 0..64 {
            let p = point(i);
            let config = point_config(&p, &wire);
            assert_eq!(config.match_mode, MatchMode::Off, "point {i}");
            match p.plane {
                Plane::Control => assert!(config.control.is_some()),
                Plane::Data => {
                    let window = u32::from_be_bytes([
                        wire[p.offset],
                        wire[p.offset + 1],
                        wire[p.offset + 2],
                        wire[p.offset + 3],
                    ]);
                    assert_eq!(config.compare.compare_data, window);
                    assert_eq!(config.crc_recompute, p.crc_refresh);
                }
            }
        }
    }

    #[test]
    fn small_campaign_is_worker_count_invariant() {
        let warm = warm_campaign(11).expect("warm donor");
        let mut campaigns = Vec::new();
        for workers in [1, 2, 3] {
            let opts = SampleOptions {
                seed: 11,
                points: 12,
                workers,
            };
            campaigns.push(sample_warmed(&warm, &opts).expect("sampled campaign"));
        }
        assert_eq!(campaigns[0], campaigns[1]);
        assert_eq!(campaigns[0], campaigns[2]);
        assert_eq!(campaigns[0].fingerprint(), campaigns[1].fingerprint());
        assert_eq!(campaigns[0].fingerprint(), campaigns[2].fingerprint());
        // The baseline delivered both full bursts with nothing detected
        // beyond the warmed state.
        assert_eq!(campaigns[0].baseline.delivered, 2 * SENDS);
        assert_eq!(campaigns[0].baseline.injections, 0);
        // Twelve draws land in at least two distinct classes.
        let distinct = campaigns[0]
            .histogram()
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert!(distinct >= 2, "histogram {:?}", campaigns[0].histogram());
        // The per-dimension breakdowns reconcile with the histogram and
        // are as worker-invariant as the records they derive from.
        let dirs = campaigns[0].direction_breakdown();
        let dir_total: u64 = dirs.rows.iter().flat_map(|r| r.histogram).sum();
        assert_eq!(dir_total, campaigns[0].records.len() as u64);
        for (i, class_total) in campaigns[0].histogram().into_iter().enumerate() {
            let split: u64 = dirs.rows.iter().map(|r| r.histogram[i]).sum();
            assert_eq!(split, class_total, "class {i}");
        }
        let swaps = campaigns[0].control_swap_breakdown();
        assert_eq!(swaps.rows.len(), CONTROL_SWAPS.len());
        let swap_total: u64 = swaps.rows.iter().flat_map(|r| r.histogram).sum();
        let control_draws = campaigns[0]
            .records
            .iter()
            .filter(|r| matches!(r.point.plane, Plane::Control))
            .count() as u64;
        assert_eq!(swap_total, control_draws);
        assert_eq!(dirs.render(), campaigns[1].direction_breakdown().render());
        assert_eq!(
            swaps.render(),
            campaigns[2].control_swap_breakdown().render()
        );
    }

    /// A hand-built data-plane point: the aligned "Have" window of
    /// direction B, word-swapped with the CRC repaired, armed at the
    /// stream's first instant.
    fn aliased() -> InjectionPoint {
        InjectionPoint {
            index: 0,
            t_arm_ns: 0,
            dir: DirSelect::B,
            plane: Plane::Data,
            offset: 8,
            bit: 0,
            mode: CorruptKind::WordSwap,
            crc_refresh: true,
            control_swap: 0,
        }
    }

    /// Runs `p` forked at its arming instant from a fresh prefix and
    /// byte-timed from the map-phase end, asserts that both runs end on
    /// the same instant with the same evidence, and returns it.
    fn both_paths(warm: &Warm<impl Probe>, p: &InjectionPoint, budget: u64) -> RunEvidence {
        let wire = campaign_wire();
        let mut runner = PointRunner::new(warm).expect("prefix");
        let forked = runner.run(p, &wire, budget).expect("forked point");
        let mut engine = Engine::new();
        let timed = run_point_byte_timed(warm, &mut engine, p, &wire, budget).expect("timed point");
        assert_eq!(forked, timed, "{p:?}");
        assert_eq!(runner.engine.now(), engine.now(), "{p:?}");
        forked
    }

    #[test]
    fn drawn_points_forked_at_their_arming_instant_match_the_byte_timed_oracle() {
        let wire = campaign_wire();
        for seed in [7, 11] {
            let donor = warm_campaign(seed).expect("warm donor");
            let opts = SampleOptions {
                seed,
                points: 512,
                workers: 2,
            };
            let campaign = sample_warmed(&donor, &opts).expect("sampled campaign");
            let warm = donor.warm();
            assert_eq!(campaign.baseline, run_baseline(warm).expect("baseline"));
            let mut engine = Engine::new();
            for (i, r) in campaign.records.iter().enumerate() {
                assert_eq!(r.point, draw_point(seed, i as u64, wire.len(), ARM_SPAN_NS));
                let timed =
                    run_point_byte_timed(warm, &mut engine, &r.point, &wire, POINT_EVENT_BUDGET)
                        .expect("timed point");
                assert_eq!(r.evidence, timed, "seed {seed} point {i}: {:?}", r.point);
            }
        }
    }

    #[test]
    fn edge_points_match_the_byte_timed_oracle() {
        let donor = warm_campaign(7).expect("warm donor");
        let warm = donor.warm();
        // Armed at the stream's first send, and on direction B's first
        // send instant, half a gap later.
        for t_arm_ns in [0, SEND_GAP.as_ps() / 2_000] {
            assert!(
                both_paths(
                    warm,
                    &InjectionPoint {
                        t_arm_ns,
                        ..aliased()
                    },
                    POINT_EVENT_BUDGET
                )
                .injections
                    > 0
            );
        }
        // A GAP→STOP swap on the way into the switch.
        let gap_stop = InjectionPoint {
            plane: Plane::Control,
            control_swap: 5,
            dir: DirSelect::A,
            t_arm_ns: 1_000_000,
            ..aliased()
        };
        assert_eq!(CONTROL_SWAPS[5], (ControlSymbol::Gap, ControlSymbol::Stop));
        both_paths(warm, &gap_stop, POINT_EVENT_BUDGET);
        // A budget that runs out after the arming instant: both paths
        // stop on the same event.
        let mut engine = Engine::new();
        fork_donor(warm, &mut engine).expect("fork");
        let donor_events = engine.events_processed();
        let p = InjectionPoint {
            t_arm_ns: 2_000_000,
            ..aliased()
        };
        run_point_byte_timed(warm, &mut engine, &p, &campaign_wire(), POINT_EVENT_BUDGET)
            .expect("timed point");
        let budget = engine.events_processed() - donor_events - 20;
        let evidence = both_paths(warm, &p, budget);
        assert_eq!(evidence.outcome, RunOutcome::BudgetExhausted);
    }

    #[test]
    fn arming_order_ascends_and_covers_every_point() {
        let wire_len = campaign_wire().len();
        let order = arming_order(3, 300, wire_len);
        let key = |i: u32| (draw_point(3, u64::from(i), wire_len, ARM_SPAN_NS).t_arm_ns, i);
        assert!(order.windows(2).all(|w| key(w[0]) < key(w[1])));
        let mut indices = order.clone();
        indices.sort_unstable();
        assert!(indices.into_iter().eq(0..300));
    }

    #[test]
    fn crafted_points_hit_their_classes() {
        let donor = warm_campaign(11).expect("warm donor");
        let warm = donor.warm();
        let baseline = run_baseline(warm).expect("baseline");
        let run = |p: &InjectionPoint| {
            let evidence = both_paths(warm, p, POINT_EVENT_BUDGET);
            (classify(&evidence, &baseline), evidence)
        };
        // A word swap on the aligned "Have" window with the CRC repaired:
        // the checksum is order-invariant, the corruption is delivered.
        let aliased = aliased();
        let (class, evidence) = run(&aliased);
        assert!(evidence.injections > 0);
        assert!(evidence.obs_injects > 0);
        assert_eq!(class, OutcomeClass::CorruptedDelivered);
        // The same swap without CRC repair dies at the link layer.
        let (class, _) = run(&InjectionPoint {
            crc_refresh: false,
            ..aliased.clone()
        });
        assert_eq!(class, OutcomeClass::DetectedByCrc);
        // A single-bit toggle with CRC repair survives the link but not
        // the UDP checksum.
        let (class, _) = run(&InjectionPoint {
            mode: CorruptKind::Toggle,
            ..aliased.clone()
        });
        assert_eq!(class, OutcomeClass::DetectedByCrc);
        // Arming after the stream has drained fires nothing.
        let (class, evidence) = run(&InjectionPoint {
            t_arm_ns: ARM_SPAN_NS - 1,
            ..aliased.clone()
        });
        assert_eq!(evidence.injections, 0);
        assert_eq!(class, OutcomeClass::Masked);
        // Swapping a packet-terminator GAP for an IDLE on the way *into*
        // the switch holds the wormhole path until a watchdog releases
        // it.
        let (class, evidence) = run(&InjectionPoint {
            plane: Plane::Control,
            control_swap: 4, // Gap -> Idle
            dir: DirSelect::A,
            ..aliased
        });
        assert!(evidence.injections > 0);
        assert!(evidence.timeout_detections > baseline.timeout_detections);
        assert_eq!(class, OutcomeClass::DetectedByTimeout);
    }
}
