//! `netfi-phy` — physical-layer substrate for the `netfi` reproduction.
//!
//! The paper's device sits *in the data path* of two media — Myrinet SAN and
//! Fibre Channel — behind commercial PHY transceivers, so its view of the
//! world is a stream of physical-layer symbols. This crate models that view:
//!
//! - [`symbol`]: the 9-bit Myrinet character (8 data bits plus the
//!   data/control bit) and the GAP / GO / STOP control symbols with the
//!   paper's encodings and error-tolerant decoding.
//! - [`link`]: a point-to-point full-duplex link descriptor — bandwidth,
//!   cable propagation delay, and an optional Bernoulli bit-error channel
//!   used to model the external phenomena (EMI, radiation) that motivate the
//!   paper.
//! - [`b8b10`]: a complete 8b/10b encoder/decoder with running disparity,
//!   the line code used by Fibre Channel (FC-PH).
//! - [`serial`]: the injector's configuration path — an RS-232 UART model
//!   and the 16-bit SPI framing between the UART chip and the FPGA.
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
pub use symbol::{ControlSymbol, Symbol};
