//! `netfi-detect` — the failure *analysis* layer of the reproduction.
//!
//! The source paper's title promises monitoring **and failure analysis**;
//! the rest of the workspace builds the injection, capture and sampling
//! machinery. This crate closes the loop with two deterministic analyses:
//!
//! - [`accrual`] — a φ-accrual failure detector (after Satzger et al.'s
//!   adaptive accrual algorithm): per-peer inter-arrival histograms over a
//!   sliding window, suspicion computed in pure `SimTime` fixed-point
//!   arithmetic — no floats in any ordering, no wall clock — so detection
//!   output is byte-identical across worker counts.
//! - [`topo`] — graph analytics over generated fabrics: articulation-point
//!   SPOF detection (iterative Tarjan, no recursion), per-node
//!   disconnection-fraction risk levels, redundancy factor (edge-disjoint
//!   path count) and diameter, emitted as a deterministic report.
//! - [`heartbeat`] — the [`heartbeat::Heartbeater`] app component that
//!   drives periodic datagrams through the real host/netstack/Myrinet
//!   datapath, giving the accrual detectors a live arrival stream.
//!
//! The detection *campaign* — injecting faults into forks of a warm fabric
//! and measuring detection latency per threshold — lives in
//! `nftape::detection`, which depends on this crate.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accrual;
pub mod heartbeat;
pub mod topo;

pub use accrual::{AccrualDetector, Phi, SuspicionEvent, SuspicionMonitor};
pub use heartbeat::{HeartbeatCmd, HeartbeatPlan, Heartbeater, HEARTBEAT_PORT};
pub use topo::{analyze, NodeKind, Risk, TopoGraph, TopoReport};
