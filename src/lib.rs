//! `netfi` — umbrella crate for the reproduction of *"An Adaptive
//! Architecture for Monitoring and Failure Analysis of High-Speed Networks"*
//! (Floering, Brothers, Kalbarczyk, Iyer — DSN 2002).
//!
//! This crate re-exports every `netfi` sub-crate under one roof so examples
//! and downstream users can depend on a single package:
//!
//! - [`sim`] — deterministic discrete-event kernel.
//! - [`phy`] — physical-layer substrate (Myrinet control symbols, links,
//!   8b/10b, UART).
//! - [`myrinet`] — the Myrinet network simulator (packets, switches, slack
//!   buffers, flow control, mapping).
//! - [`fc`] — the Fibre Channel codec (frames, CRC-32, ordered sets).
//! - [`injector`] — **the paper's contribution**: the in-line adaptive
//!   monitoring and fault-injection device.
//! - [`netstack`] — UDP/addressing/workloads on simulated hosts.
//! - [`nftape`] — the campaign management framework.
//! - [`obs`] — deterministic observability: spans, metrics, flight
//!   recording and failure-analysis exports.
//! - [`sample`] — statistical fault-injection sampling: drawn injection
//!   points, outcome taxonomy and coverage intervals.
//! - [`detect`] — failure *analysis*: φ-accrual failure detectors over
//!   heartbeat streams and SPOF topology analytics over generated fabrics.
//!
//! See the repository README for a quickstart and DESIGN.md for the system
//! inventory.

#![warn(missing_docs)]

pub use netfi_core as injector;
pub use netfi_detect as detect;
pub use netfi_fc as fc;
pub use netfi_myrinet as myrinet;
pub use netfi_netstack as netstack;
pub use netfi_nftape as nftape;
pub use netfi_obs as obs;
pub use netfi_phy as phy;
pub use netfi_sample as sample;
pub use netfi_sim as sim;
