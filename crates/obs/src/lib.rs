//! `netfi-obs` — deterministic observability: spans, metrics, flight
//! recording and failure-analysis exports.
//!
//! The paper's device is as much a *monitor* as an injector: it keeps "the
//! bytes surrounding the fault injection event" in SDRAM, counts packets
//! per identifier pair, and the campaign watches the network with `mmon`.
//! This crate generalizes that discipline to every layer of the simulated
//! stack, with the same constraint the hardware had: observation must not
//! perturb the observed system.
//!
//! Everything here is stamped exclusively with [`netfi_sim::SimTime`] — no wall
//! clocks — so enabling observation never changes simulation behaviour,
//! and two runs of the same seed export byte-identical artifacts.
//!
//! - [`event::ObsEvent`]: one observation — an instant, a span edge or a
//!   sampled value — tagged with a static scope (the layer that emitted
//!   it) and name.
//! - [`record::Recorder`]: the emission point every instrumented
//!   component owns. It is disarmed by default — a `None` branch, no
//!   storage — and arms into a bounded [`flight::FlightRecorder`].
//! - [`flight::FlightRecorder`]: the bounded, allocation-free ring that
//!   plays the SDRAM capture memory's role — it keeps the last N records
//!   around an injection trigger and is subject to
//!   `netfi-lint: deny(hot-path-alloc)`.
//! - [`hist::LogHistogram`]: log₂-bucketed latency histograms with
//!   p50/p95/p99 extraction, exact on per-bucket-uniform distributions.
//! - [`registry::Registry`]: named counters, gauges and histograms with
//!   deterministic (sorted) iteration, filled from component stats at
//!   collection time.
//! - [`export`]: the Chrome `trace_event` JSON exporter and the
//!   deterministic text-table exporter campaign reports embed.
//! - [`probe::DispatchProbe`]: an engine probe (see
//!   `netfi_sim::engine::Probe`) that counts event dispatches per
//!   component and keeps a bounded dispatch trace.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod export;
pub mod flight;
pub mod hist;
pub mod probe;
pub mod record;
pub mod registry;

pub use event::{EventKind, ObsEvent, Stamped};
pub use flight::FlightRecorder;
pub use hist::{exact_percentiles, LogHistogram, Percentiles};
pub use probe::DispatchProbe;
pub use record::Recorder;
pub use registry::Registry;
