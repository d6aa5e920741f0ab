//! `netfi-fc` — the Fibre Channel (FC-PH, \[ANS94\]) codec.
//!
//! The paper's board carries interfaces for *two* media — "the current
//! board has interfaces for Myrinet and FibreChannel" — with the injector
//! logic itself media-agnostic ("the injection logic is general and not
//! customized to any one network"). This crate provides the Fibre Channel
//! side at codec level; no simulated FC network runs on it:
//!
//! - [`crc32`]: the FC frame check sequence (IEEE CRC-32).
//! - [`frame`]: FC-PH frames (SOF / 24-byte header / payload / CRC-32 /
//!   EOF), ordered sets (K28.5-led), and full encode/decode through the
//!   8b/10b codec in `netfi-phy`.
//!
//! The `fc_monitor` example and `tests/dual_media.rs` push FC frame bodies
//! through the same injector datapath as Myrinet packets, the paper's
//! dual-media claim.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crc32;
pub mod frame;

pub use frame::{decode_line, FcAddress, FcError, FcFrame, FcHeader};
