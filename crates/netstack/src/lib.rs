//! `netfi-netstack` — host-side networking for the `netfi` reproduction.
//!
//! The paper's campaigns run UDP traffic over the Myrinet LAN: "network
//! loads were simulated using a simple UDP packet generation program,
//! running concurrently with the standard Unix ping program with the flood
//! option" (§4.1). This crate provides:
//!
//! - [`checksum`]: the 16-bit one's-complement Internet checksum, whose
//!   word-swap blindness drives the §4.3.4 experiment.
//! - [`udp`]: UDP datagrams plus the campaign's pattern-avoiding payload
//!   generator.
//! - [`host`]: the simulated host — OS send/receive overheads with
//!   interrupt-granularity jitter (Table 2's measurement noise), UDP
//!   sockets, echo service, and the campaign workloads (ping-pong latency
//!   measurement, flood ping, fixed-interval senders).
//! - [`net`]: assembly of the Figure 10 test bed, optionally with the
//!   fault injector spliced into one host's link.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checksum;
pub mod host;
pub mod net;
pub mod udp;

pub use host::{Host, HostCmd, HostConfig, Workload, SINK_PORT};
pub use net::{build_testbed, build_testbed_probed, Testbed, TestbedOptions};
pub use netfi_myrinet::event::ConnectError;
pub use udp::UdpDatagram;
