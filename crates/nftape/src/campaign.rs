//! Declarative campaign specifications.
//!
//! NFTAPE separates *what to inject* from *how to run it*: an operator
//! writes a campaign description, the framework programs the injector and
//! collects results. [`CampaignSpec`] is that description — a fault, a
//! seed and a window, so the same spec replays the same run — and
//! [`run_campaign`] executes it against the prebuilt scenarios.

use netfi_phy::ControlSymbol;
use netfi_sim::{NullProbe, Probe, SimDuration};

use crate::bed::Warm;
use crate::results::{RunResult, ScenarioError};
use crate::scenarios::{address, control, latency, ptype, random, udpcheck};

/// What to inject — one variant per campaign family of the paper's
/// evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// §4.3.1 Table 4: corrupt one control symbol into another.
    ControlSymbol {
        /// Symbol to match.
        mask: ControlSymbol,
        /// Symbol to produce.
        replacement: ControlSymbol,
    },
    /// §4.3.1: faulty STOP conditions against a request/response program.
    FaultyStop,
    /// §4.3.1: GAP loss and the long-period timeout.
    GapLoss,
    /// §4.3.2: corrupt mapping packets (`0x0005`).
    MappingType,
    /// §4.3.2: corrupt data packets (`0x0004`).
    DataType,
    /// §4.3.2: set the source-route MSB at the destination interface.
    RouteMsb,
    /// §4.3.2: misroute packets to an unwired switch port.
    Misroute,
    /// §4.3.3: corrupt the destination physical address in flight.
    DestinationAddress {
        /// Repair the Myrinet CRC-8 after corruption.
        fix_crc: bool,
    },
    /// §4.3.3: corrupt a node's own address register to another node's.
    OwnAddress,
    /// §4.3.3: corrupt a node's address to a non-existent one.
    NonexistentAddress,
    /// §4.3.4: checksum-aliasing UDP payload corruption.
    UdpAliasing,
    /// §3.1: random SEU bit flips at the given per-segment probability.
    RandomSeu {
        /// Per-32-bit-segment flip probability.
        probability: f64,
        /// Repair the CRC-8 so corruption reaches higher layers.
        fix_crc: bool,
    },
    /// Table 2: pass-through latency measurement (no fault).
    Latency {
        /// Ping-pong packets per arm.
        packets: u64,
    },
}

/// A complete campaign: a fault, a seed, and a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (reports).
    pub name: String,
    /// The fault to inject.
    pub fault: FaultSpec,
    /// RNG seed (campaigns are exactly reproducible).
    pub seed: u64,
    /// Measurement window in seconds, where the scenario takes one.
    pub window_secs: u64,
}

impl CampaignSpec {
    /// Creates a campaign with a 6 s window.
    pub fn new(name: impl Into<String>, fault: FaultSpec, seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            fault,
            seed,
            window_secs: 6,
        }
    }
}

/// The options a Table 4 spec runs under: the library's, at the spec's
/// seed and window.
fn table4_options(spec: &CampaignSpec) -> control::ControlCampaignOptions {
    control::ControlCampaignOptions {
        window: SimDuration::from_secs(spec.window_secs),
        seed: spec.seed,
        ..control::ControlCampaignOptions::default()
    }
}

/// A warmed Table 4 test bed (or why it could not be built) and the
/// options it was warmed under.
type Table4Donor<P> = (
    control::ControlCampaignOptions,
    Result<Warm<P>, ScenarioError>,
);

/// Warms one Table 4 donor per set of [`FaultSpec::ControlSymbol`] specs
/// that can share one — today, per seed: a spec's window acts only after
/// the fork instant. A donor that fails to build is kept as its error, so
/// it surfaces at the index of the first row that needed it.
fn warm_table4_donors<P: Probe + Clone>(
    specs: &[CampaignSpec],
    probe: &P,
) -> Vec<Table4Donor<P>> {
    let mut donors: Vec<Table4Donor<P>> = Vec::new();
    let rows = specs
        .iter()
        .filter(|spec| matches!(spec.fault, FaultSpec::ControlSymbol { .. }));
    for opts in rows.map(table4_options) {
        let warmed = |(with, _): &Table4Donor<P>| control::share_warm_up(with, &opts);
        if !donors.iter().any(warmed) {
            let donor = control::warm_table4(&opts, probe.clone());
            donors.push((opts, donor));
        }
    }
    donors
}

/// Executes a campaign and returns its result rows (most campaigns yield
/// one row; latency yields one per experiment arm pair).
///
/// # Errors
///
/// Returns the scenario's [`ScenarioError`] if its test bed cannot be
/// built or read.
pub fn run_campaign(spec: &CampaignSpec) -> Result<Vec<RunResult>, ScenarioError> {
    run_on_donors::<NullProbe>(spec, &[])
}

/// [`run_campaign`], a Table 4 row running on a fork of whichever of
/// `donors` was warmed for it; with none, it warms a test bed of its own.
fn run_on_donors<P: Probe + Clone>(
    spec: &CampaignSpec,
    donors: &[Table4Donor<P>],
) -> Result<Vec<RunResult>, ScenarioError> {
    let window = SimDuration::from_secs(spec.window_secs);
    let mut results = match &spec.fault {
        FaultSpec::ControlSymbol { mask, replacement } => {
            let (mask, replacement) = (*mask, *replacement);
            let opts = table4_options(spec);
            let donor = donors
                .iter()
                .find(|(with, _)| control::share_warm_up(with, &opts));
            vec![match donor {
                Some((_, Ok(donor))) => control::table4_row(donor, mask, replacement, &opts)?,
                Some((_, Err(e))) => return Err(*e),
                None => control::control_symbol_row(mask, replacement, &opts)?,
            }]
        }
        FaultSpec::FaultyStop => control::stop_throughput_arms(window, spec.seed)?,
        FaultSpec::GapLoss => control::gap_timeout_arms(window, spec.seed)?,
        FaultSpec::MappingType => vec![ptype::mapping_packet_corruption(spec.seed)?],
        FaultSpec::DataType => vec![ptype::data_packet_corruption(spec.seed)?],
        FaultSpec::RouteMsb => vec![ptype::route_msb_corruption(spec.seed)?],
        FaultSpec::Misroute => vec![ptype::route_misroute(spec.seed)?],
        FaultSpec::DestinationAddress { fix_crc } => {
            vec![address::destination_corruption(spec.seed, *fix_crc)?]
        }
        FaultSpec::OwnAddress => vec![address::sender_address_corruption(spec.seed)?],
        FaultSpec::NonexistentAddress => vec![address::nonexistent_address(spec.seed)?],
        FaultSpec::UdpAliasing => vec![
            udpcheck::aliasing_corruption(spec.seed)?,
            udpcheck::detected_corruption(spec.seed)?,
        ],
        FaultSpec::RandomSeu {
            probability,
            fix_crc,
        } => vec![random::seu_arm(*probability, *fix_crc, spec.seed)?],
        FaultSpec::Latency { packets } => latency::latency_table2(*packets, 1, spec.seed)?
            .into_iter()
            .map(|row| {
                RunResult::new(format!("{} (experiment {})", spec.name, row.experiment), 0, 0, 0.0)
                    .with_extra("without_ns", row.without_ns)
                    .with_extra("with_ns", row.with_ns)
                    .with_extra("added_ns", row.added_ns())
            })
            .collect(),
    };
    for r in &mut results {
        r.name = format!("{}: {}", spec.name, r.name);
    }
    Ok(results)
}

/// The paper's whole evaluation, as a campaign list (Table 4's nine rows
/// plus every §4.3 experiment).
pub fn paper_campaigns(seed: u64) -> Vec<CampaignSpec> {
    let mut out = Vec::new();
    for (i, (mask, replacement)) in control::table4_rows().into_iter().enumerate() {
        out.push(CampaignSpec::new(
            format!("table4 row {}", i + 1),
            FaultSpec::ControlSymbol {
                mask,
                replacement,
            },
            seed,
        ));
    }
    out.push(CampaignSpec::new("faulty stop", FaultSpec::FaultyStop, seed));
    out.push(CampaignSpec::new("gap loss", FaultSpec::GapLoss, seed));
    out.push(CampaignSpec::new("mapping type", FaultSpec::MappingType, seed));
    out.push(CampaignSpec::new("data type", FaultSpec::DataType, seed));
    out.push(CampaignSpec::new("route msb", FaultSpec::RouteMsb, seed));
    out.push(CampaignSpec::new("misroute", FaultSpec::Misroute, seed));
    out.push(CampaignSpec::new(
        "destination address",
        FaultSpec::DestinationAddress { fix_crc: false },
        seed,
    ));
    out.push(CampaignSpec::new("own address", FaultSpec::OwnAddress, seed));
    out.push(CampaignSpec::new(
        "nonexistent address",
        FaultSpec::NonexistentAddress,
        seed,
    ));
    out.push(CampaignSpec::new("udp aliasing", FaultSpec::UdpAliasing, seed));
    out
}

/// Executes many campaigns over `workers` threads and returns results in
/// spec order.
///
/// Every campaign runs on a private engine (its own RNG streams, its own
/// event queue), so [`fan_out`](crate::runner::fan_out) makes the output
/// byte-identical for any worker count (DESIGN.md §10). The Table 4 rows
/// among `specs` are forks of one test bed per seed, warmed here before
/// the fan-out and shared by reference (DESIGN.md §12); every other
/// campaign builds its own.
///
/// # Errors
///
/// Returns the first (in spec order) [`ScenarioError`], if any campaign
/// failed to build or read its test bed.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_campaigns_with_workers(
    specs: &[CampaignSpec],
    workers: usize,
) -> Result<Vec<Vec<RunResult>>, ScenarioError> {
    run_campaigns_probed(specs, workers, &NullProbe)
}

/// [`run_campaigns_with_workers`] with `probe` installed on the Table 4
/// donors and so on every fork of them — the seam the count tests in
/// [`control`] and `tests/stop_train.rs` watch the engines through.
///
/// # Errors
///
/// Returns the first (in spec order) [`ScenarioError`], if any.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_campaigns_probed<P: Probe + Clone + Send + Sync>(
    specs: &[CampaignSpec],
    workers: usize,
    probe: &P,
) -> Result<Vec<Vec<RunResult>>, ScenarioError> {
    let donors = warm_table4_donors(specs, probe);
    crate::runner::fan_out(workers, specs.len(), || {
        |i| run_on_donors(&specs[i], &donors)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_execute_and_label_results() {
        let spec = CampaignSpec::new("demo", FaultSpec::UdpAliasing, 77);
        let results = run_campaign(&spec).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].name.starts_with("demo: "));
        // The aliasing arm delivers everything corrupt; the detected arm
        // drops everything.
        assert_eq!(results[0].received, results[0].sent);
        assert_eq!(results[1].received, 0);
    }

    #[test]
    fn paper_campaign_list_is_complete() {
        let list = paper_campaigns(1);
        assert_eq!(list.len(), 9 + 10);
        assert!(list.iter().any(|c| matches!(c.fault, FaultSpec::GapLoss)));
    }

    #[test]
    fn random_seu_campaign_runs() {
        let spec = CampaignSpec::new(
            "seu",
            FaultSpec::RandomSeu {
                probability: 0.05,
                fix_crc: false,
            },
            5,
        );
        let results = run_campaign(&spec).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].loss_rate() > 0.05);
    }

    #[test]
    fn parallel_matches_serial() {
        let specs = vec![
            CampaignSpec::new("a", FaultSpec::UdpAliasing, 3),
            CampaignSpec::new("b", FaultSpec::DataType, 4),
            CampaignSpec::new("c", FaultSpec::Misroute, 5),
        ];
        let parallel = run_campaigns_with_workers(&specs, 2).unwrap();
        let serial: Vec<Vec<RunResult>> = specs
            .iter()
            .map(|s| run_campaign(s).unwrap())
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let spec = CampaignSpec::new("repro", FaultSpec::DataType, 9);
        assert_eq!(run_campaign(&spec).unwrap(), run_campaign(&spec).unwrap());
    }
}
