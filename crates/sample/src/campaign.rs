//! The sampled campaign driver: one warmed donor engine, N forked
//! injection experiments, a classified record per experiment.
//!
//! Every sampled point replays the same bounded scenario on a private
//! fork of one [`WarmedCampaign`] donor (warmed once through the 2.5 s
//! map phase, exactly the chaos-grid amortization): program the drawn
//! injector configuration with the trigger *disarmed*, stream a short
//! fixed burst of campaign datagrams into the intercepted link, arm the
//! trigger `Once` at the drawn instant over the device's serial line,
//! and run to a fixed deadline under an event budget. The programming
//! window is a fixed margin — wider than the longest serial script — so
//! stream timing is byte-identical across every point and the healthy
//! baseline, and the only difference between two runs is the drawn
//! fault itself.
//!
//! Fan-out is the grid's: `netfi_nftape::runner::fan_out` gives every
//! worker exactly one resident engine, made when the worker starts and
//! kept until it ends; each point the worker claims begins by overwriting
//! that engine whole with a fork of the donor (`WarmedCampaign::fork_into`),
//! so its buckets, heaps and probe ring are reused, never rebuilt or
//! freed between points, and nothing a point left behind can reach the
//! next. Records come back in draw order. No output
//! byte can depend on the worker count; the campaign
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
use netfi_nftape::grid::{warm_campaign, WarmedCampaign};
use netfi_nftape::results::ScenarioError;
use netfi_nftape::runner::{fan_out, program_injector, schedule_script};
use netfi_nftape::scenarios::udpcheck::MESSAGE;
use netfi_obs::DispatchProbe;
use netfi_sim::{Engine, Fnv1a, RunBudget, RunOutcome, SimDuration, SimTime};

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
fn schedule_stream(engine: &mut Engine<Ev, DispatchProbe>, warm: &WarmedCampaign, t_stream: SimTime) {
    for k in 0..SENDS {
        engine.schedule(
            t_stream + SEND_GAP * k,
            warm.hosts()[0],
            Ev::App(Box::new(HostCmd::SendUdp {
                dest: EthAddr::myricom(2),
                datagram: UdpDatagram::new(SRC_PORT, SINK_PORT, MESSAGE.to_vec()),
            })),
        );
        engine.schedule(
            t_stream + SEND_GAP * k + SEND_GAP / 2,
            warm.hosts()[1],
            Ev::App(Box::new(HostCmd::SendUdp {
                dest: EthAddr::myricom(1),
                datagram: UdpDatagram::new(SRC_PORT, SINK_PORT, MESSAGE.to_vec()),
            })),
        );
    }
}

/// Runs the bounded tail of a point (or baseline) scenario and collects
/// its evidence.
fn finish(
    engine: &mut Engine<Ev, DispatchProbe>,
    warm: &WarmedCampaign,
    t_stream: SimTime,
) -> Result<RunEvidence, ScenarioError> {
    let deadline = t_stream + SEND_GAP * SENDS + SETTLE;
    let outcome = engine.run_budgeted(RunBudget::until(deadline).with_max_events(POINT_EVENT_BUDGET));
    collect_evidence(engine, warm, outcome)
}

/// Reads the end-of-run evidence: obs recorder instants plus per-layer
/// counters, summed exactly as documented on [`RunEvidence`].
fn collect_evidence(
    engine: &Engine<Ev, DispatchProbe>,
    warm: &WarmedCampaign,
    outcome: RunOutcome,
) -> Result<RunEvidence, ScenarioError> {
    let now = engine.now();
    let mut crc_detections = 0;
    let mut timeout_detections = 0;
    for &h in warm.hosts() {
        let host = engine
            .component_as::<Host>(h)
            .ok_or(ScenarioError::WrongComponent("Host"))?;
        let nic = host.nic().stats();
        crc_detections += nic.rx_crc_drops + nic.rx_malformed + nic.rx_truncated;
        let udp = host.udp_stats();
        crc_detections += udp.rx_checksum_drops + udp.rx_malformed;
        timeout_detections += host.nic().egress_stats(now).timeout_recoveries;
    }
    let sw = engine
        .component_as::<Switch>(warm.switch())
        .ok_or(ScenarioError::WrongComponent("Switch"))?;
    let s = sw.stats();
    crc_detections += s.framing_drops + s.truncation_drops + s.malformed_drops;
    timeout_detections += s.long_timeout_releases + s.gap_releases;
    let dev = engine
        .component_as::<InjectorDevice>(warm.device())
        .ok_or(ScenarioError::WrongComponent("InjectorDevice"))?;
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
    // Both stream endpoints are sinks: host 1 receives the forward burst,
    // host 0 the reverse one.
    for &h in &warm.hosts()[..2] {
        let sink = engine
            .component_as::<Host>(h)
            .ok_or(ScenarioError::WrongComponent("Host"))?;
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

/// Runs the healthy baseline on a fork: the same stream at the same
/// instants, no injector program, no arming.
fn run_baseline(warm: &WarmedCampaign) -> Result<RunEvidence, ScenarioError> {
    let engine = &mut warm.fork_engine();
    let t_stream = engine.now() + PROGRAM_MARGIN;
    schedule_stream(engine, warm, t_stream);
    finish(engine, warm, t_stream)
}

/// Runs one drawn point on `engine`, overwritten with a fork of the donor
/// first: program disarmed, stream, arm `Once` at the drawn instant, run
/// bounded, collect.
fn run_point(
    warm: &WarmedCampaign,
    engine: &mut Engine<Ev, DispatchProbe>,
    point: &InjectionPoint,
    wire: &[u8],
) -> Result<RunEvidence, ScenarioError> {
    warm.fork_into(engine);
    let t0 = engine.now();
    let config = point_config(point, wire);
    program_injector(engine, warm.device(), t0, point.dir, &config);
    let t_stream = t0 + PROGRAM_MARGIN;
    schedule_stream(engine, warm, t_stream);
    // The programming script ended with the decoder's direction select
    // still on `point.dir`, so a lone MATCH-MODE command re-arms exactly
    // the drawn direction(s) at the drawn instant.
    let t_arm = t_stream + SimDuration::from_ns(point.t_arm_ns);
    schedule_script(
        engine,
        warm.device(),
        t_arm,
        &[Command::MatchMode(MatchMode::Once)],
    );
    finish(engine, warm, t_stream)
}

/// Draws and runs a full sampled campaign.
///
/// The donor is warmed once; the baseline and every point run on forks
/// of its snapshot. Results are byte-identical for any `workers`.
///
/// # Errors
///
/// Returns the first (in draw order) [`ScenarioError`], if any.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_sampled_campaign(opts: &SampleOptions) -> Result<SampledCampaign, ScenarioError> {
    sample_warmed(&warm_campaign(opts.seed)?, opts)
}

/// [`run_sampled_campaign`] on an existing donor — callers running
/// several campaigns (the worker-invariance tests, the benchmark's
/// per-worker passes) warm once and sample many times.
///
/// # Errors
///
/// Returns the first (in draw order) [`ScenarioError`], if any.
///
/// # Panics
///
/// Panics if `opts.workers` is zero.
pub fn sample_warmed(
    warm: &WarmedCampaign,
    opts: &SampleOptions,
) -> Result<SampledCampaign, ScenarioError> {
    let wire = &campaign_wire();
    let baseline = run_baseline(warm)?;
    // Point `i` is a pure function of `(seed, i)`, so each worker draws
    // the points it runs, on the one engine it keeps.
    let records = fan_out(opts.workers, opts.points as usize, || {
        let mut engine = warm.fork_engine();
        move |i| {
            let point = draw_point(opts.seed, i as u64, wire.len(), ARM_SPAN_NS);
            run_point(warm, &mut engine, &point, wire).map(|evidence| PointRecord {
                class: classify(&evidence, &baseline),
                point,
                evidence,
            })
        }
    })?;
    Ok(SampledCampaign {
        seed: opts.seed,
        baseline,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_core::command::DirSelect;

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

    #[test]
    fn crafted_points_hit_their_classes() {
        let warm = warm_campaign(11).expect("warm donor");
        let wire = campaign_wire();
        let baseline = run_baseline(&warm).expect("baseline");
        // One resident engine for all five points, as a worker keeps it.
        let mut engine = warm.fork_engine();
        let mut run = |p: &InjectionPoint| {
            let evidence = run_point(&warm, &mut engine, p, &wire).expect("point run");
            (classify(&evidence, &baseline), evidence)
        };
        // A word swap on the aligned "Have" window with the CRC repaired:
        // the checksum is order-invariant, the corruption is delivered.
        let aliased = InjectionPoint {
            index: 0,
            t_arm_ns: 0,
            dir: DirSelect::B,
            plane: Plane::Data,
            offset: 8,
            bit: 0,
            mode: CorruptKind::WordSwap,
            crc_refresh: true,
            control_swap: 0,
        };
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
