//! `netfi-sample` — statistical fault-injection sampling with an outcome
//! taxonomy and coverage intervals.
//!
//! The chaos grid (`netfi-nftape::grid`) runs a *hand-picked* set of
//! failure scenarios. This crate answers the complementary question the
//! paper's coverage argument needs: over the injector's *whole* parameter
//! space — arming time, link direction, 32-bit segment offset, bit
//! position, toggle/replace corruption, CRC refresh, control-symbol swaps
//! — what fraction of faults is masked, delivered corrupted, detected by
//! an integrity check, detected by a watchdog, or hangs the system?
//!
//! The pipeline, module by module:
//!
//! - [`space`] draws N injection points from per-point deterministic RNG
//!   substreams, so the draw is independent of worker count and campaign
//!   length.
//! - [`campaign`] runs each point as a bounded fork of one warmed donor
//!   engine (the grid's snapshot/fork machinery), fanned over scoped
//!   workers with byte-identical results for any worker count.
//! - [`mod@classify`] assigns each run one of five outcome classes by
//!   differencing its observability exports and per-layer counters
//!   against a healthy baseline fork.
//! - [`stats`] turns the class histogram into a coverage report with
//!   Wilson 95% intervals — honest bounds even for zero-draw classes.
//!
//! The `sample` workload of `netfi-bench`'s `benchmark` drives a
//! 16,384-point campaign through this crate and reports the headline
//! injections/sec; `tests/determinism.rs` pins the 2,048-point one.

pub mod campaign;
pub mod classify;
pub mod space;
pub mod stats;

pub use campaign::{
    campaign_wire, run_sampled_campaign, sample_warmed, PointRecord, SampleOptions,
    SampledCampaign, ARM_SPAN_NS,
};
pub use classify::{classify, OutcomeClass, RunEvidence};
pub use space::{draw_point, CorruptKind, InjectionPoint, Plane};
pub use stats::{Breakdown, BreakdownRow, CoverageReport, CoverageRow};
