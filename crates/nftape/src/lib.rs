//! `netfi-nftape` — an NFTAPE-style campaign framework for the `netfi`
//! fault injector.
//!
//! The paper closes its loop with NFTAPE (\[Sto00\]): "the system-level
//! impact of faults can be evaluated in an automated fashion employing the
//! proposed fault injection hardware and an external management and
//! control framework". This crate plays that role in simulation:
//!
//! - [`bed`]: the warmed test bed a forked campaign starts from
//!   ([`bed::Warm`]), its component ids ([`bed::Bed`]) and the one typed
//!   read of them ([`bed::read`]).
//! - [`runner`]: programs the injector over its *serial command protocol*
//!   (the real control path), schedules duty-cycled injection phases.
//! - [`results`] / [`report`]: run records in the paper's units and the
//!   ASCII tables the regenerators print.
//! - [`grid`]: the test-bed campaign run with `netfi-obs` armed at every
//!   layer — flight recorders, engine dispatch probe, metrics registry —
//!   exported as a Chrome trace and a deterministic text table; and the
//!   chaos grid, one map-warmed donor engine captured with
//!   `Engine::snapshot` and forked per [`grid::FailureSpec`] (a node
//!   powered off, a link severed or an injector program), amortizing the
//!   campaign warm-up across every scenario.
//! - [`detection`]: the failure-*analysis* loop — φ-accrual suspicion
//!   monitors (`netfi-detect`) judged against injected faults on forks of
//!   a warm generated fabric, scored by detection latency, false-positive
//!   rate, and agreement with the SPOF topology prediction.
//! - [`scenarios`]: one prebuilt scenario per table/figure of the paper's
//!   evaluation — Table 2 (latency), Table 4 (control symbols), the STOP
//!   and GAP throughput experiments, packet-type corruption, physical-
//!   address corruption (including Figure 11) and UDP checksum aliasing.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bed;
pub mod campaign;
pub mod detection;
pub mod grid;
pub mod report;
pub mod results;
pub mod runner;
pub mod scenarios;
pub mod topo;

pub use campaign::{run_campaign, run_campaigns_with_workers, CampaignSpec, FaultSpec};
pub use detection::{
    detect_specs, fabric_graph, run_detection, warm_detect, DetectFault,
    DetectOptions, DetectResult, DetectRun, DetectSpec, ThresholdOutcome, WarmedDetect,
};
pub use grid::{
    fork_grid, fresh_grid, grid_specs, observed_campaign, observed_campaign_sharded,
    warm_campaign, FailureSpec, GridFault, GridResult, GridRun, ObservedCampaign,
    ShardedObserved, WarmedCampaign,
};
pub use report::Table;
pub use results::{RunResult, ScenarioError};
pub use runner::default_workers;
pub use topo::{build_fabric, build_fabric_probed, fabric_digest, Fabric, TopoOptions};
