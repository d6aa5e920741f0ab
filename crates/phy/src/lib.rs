//! `netfi-phy` — physical-layer substrate for the `netfi` reproduction.
//!
//! The paper's device sits *in the data path* of two media — Myrinet SAN and
//! Fibre Channel — behind commercial PHY transceivers, so its view of the
//! world is a stream of physical-layer symbols. This crate models that view:
//!
//! - [`symbol`]: Myrinet's GAP / GO / STOP / IDLE control symbols with the
//!   paper's encodings and error-tolerant decoding.
//! - [`link`]: a point-to-point full-duplex link descriptor — bandwidth and
//!   cable propagation delay.
//! - [`b8b10`]: a complete 8b/10b encoder/decoder with running disparity,
//!   the line code used by Fibre Channel (FC-PH).
//! - [`serial`]: the injector's configuration path — an RS-232 UART model.
//! - [`clock`]: two-phase (odd/even) clocking used by the FIFO injector
//!   datapath (paper Figures 2 and 3).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod b8b10;
pub mod clock;
pub mod link;
pub mod serial;
pub mod symbol;

pub use clock::ClockPhase;
pub use link::Link;
pub use symbol::ControlSymbol;
