//! `netfi-fc` — the Fibre Channel (FC-PH, \[ANS94\]) substrate.
//!
//! The paper's board carries interfaces for *two* media — "the current
//! board has interfaces for Myrinet and FibreChannel" — with the injector
//! logic itself media-agnostic ("the injection logic is general and not
//! customized to any one network"). This crate provides the Fibre Channel
//! side:
//!
//! - [`crc32`]: the FC frame check sequence (IEEE CRC-32).
//! - [`frame`]: FC-PH frames (SOF / 24-byte header / payload / CRC-32 /
//!   EOF), ordered sets (K28.5-led), and full encode/decode through the
//!   8b/10b codec in `netfi-phy`.
//! - [`port`]: N_Ports with buffer-to-buffer credit (R_RDY) flow control —
//!   FC's analogue of the Myrinet slack buffer.
//!
//! The `fc_monitor` example demonstrates the injector core corrupting an
//! FC frame stream, the paper's dual-media claim.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crc32;
pub mod frame;
pub mod port;

pub use frame::{decode_line, FcAddress, FcError, FcFrame, FcHeader, OrderedSet};
pub use port::NPort;
