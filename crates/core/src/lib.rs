//! `netfi-core` — the paper's contribution: an adaptive, in-line device for
//! monitoring and fault injection on high-speed networks.
//!
//! This crate emulates the FPGA design of *"An Adaptive Architecture for
//! Monitoring and Failure Analysis of High-Speed Networks"* (DSN 2002):
//! a reconfigurable device spliced into a network link that decodes the
//! passing data, corrupts it on precisely triggered conditions, and
//! retransmits it — all within a cut-through latency comparable to a few
//! metres of cable.
//!
//! Module map (mirroring Figure 1 of the paper):
//!
//! | Paper entity | Module |
//! |---|---|
//! | FIFO injector + dual-port RAM | [`fifo`] |
//! | compare data / compare mask trigger | [`trigger`] |
//! | corrupt mode / data / mask | [`corrupt`] |
//! | command decoder + output generator | [`command`] |
//! | injector control inputs | [`config`] |
//! | data monitoring (SDRAM capture) | [`capture`] |
//! | the assembled bidirectional device | [`device`] |
//! | Table 1 synthesis estimates | [`synth`] |
//!
//! # Quickstart
//!
//! ```
//! use netfi_core::config::InjectorConfig;
//! use netfi_core::fifo::FifoInjector;
//! use netfi_core::trigger::MatchMode;
//!
//! // The paper's typical scenario: match 0x1818, replace with 0x1918.
//! let config = InjectorConfig::builder()
//!     .match_mode(MatchMode::On)
//!     .compare(0x1818_0000, 0xFFFF_0000)
//!     .corrupt_replace(0x1918_0000, 0xFFFF_0000)
//!     .build();
//! let mut injector = FifoInjector::new(config);
//! let mut stream = vec![0x00, 0x18, 0x18, 0x55, 0x66];
//! let report = injector.process_packet(&mut stream);
//! assert_eq!(report.injected_offsets.iter().collect::<Vec<_>>(), [1]);
//! assert_eq!(stream, vec![0x00, 0x19, 0x18, 0x55, 0x66]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capture;
pub mod command;
pub mod config;
pub mod corrupt;
pub mod device;
pub mod fifo;
pub mod random;
pub mod synth;
pub mod trigger;

pub use command::{Command, CommandDecoder, DirSelect};
pub use config::InjectorConfig;
pub use corrupt::{CorruptMode, CorruptUnit};
pub use device::{Direction, InjectorDevice};
pub use fifo::{FifoInjector, FifoPipeline};
pub use random::RandomInject;
pub use trigger::{CompareUnit, MatchMode};

/// Serialises this crate's unit tests that copy a shared wire image, or
/// assert that none was copied: `SharedBytes::copy_count` is process-wide.
#[cfg(test)]
fn copy_count_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // It guards no data, so a test that failed holding it poisons nothing.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
