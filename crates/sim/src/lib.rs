//! `netfi-sim` — deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate every other `netfi` crate runs on. It provides:
//!
//! - [`SimTime`] / [`SimDuration`]: picosecond-resolution simulated time, so
//!   the 12.5 ns Myrinet character period (at 80 MB/s) and sub-nanosecond
//!   cable propagation delays are represented exactly.
//! - [`Engine`]: an event queue plus a component registry. Events carry a
//!   user-defined payload type `M`; components implement [`Component`] and
//!   exchange payloads through the scheduler. Ties in time are broken by a
//!   monotone sequence number, making every run bit-for-bit reproducible.
//! - [`rng::DetRng`]: a seeded, splittable PRNG (SplitMix64-seeded
//!   xoshiro256**) so stochastic workloads are reproducible without any
//!   global state.
//! - [`bytes::SharedBytes`]: cheaply-clonable, copy-on-write byte buffers, so
//!   a packet's wire image is built once and shared across links, switch
//!   fan-out and capture snapshots without copying.
//! - [`metrics`]: the Welford [`metrics::Summary`] behind a host's
//!   round-trip statistics.
//! - [`engine::Probe`]: a compile-time observation seam on the dispatch
//!   loop. The default [`NullProbe`] costs nothing; `netfi-obs` plugs a
//!   real probe in to watch dispatches without perturbing the run.
//! - [`shard::ShardedEngine`]: conservative-window parallel execution of one
//!   engine run across component-affinity shards, byte-identical to the
//!   serial engine for any worker count. The [`Simulation`] trait is the
//!   control surface shared by both executors.
//! - [`engine::EngineSnapshot`]: capture a warmed engine's full
//!   deterministic state once and fork it into independent runnable
//!   engines in O(state) — the warm-up amortisation behind the `nftape`
//!   fork grid. A fork replays bit-identically to a fresh run reaching the
//!   same state; the copy is `#[derive(Clone)]` or
//!   [`clone_in_place!`] from the executor core down to every component
//!   and payload, and a fork into a resident engine copies each component
//!   over the one it holds ([`Component::fork_onto`]).
//! - [`Fnv1a`]: the one FNV-1a fold behind every campaign fingerprint and
//!   fabric digest.
//!
//! # Example
//!
//! ```
//! use netfi_sim::{Component, Context, Engine, SimDuration, SimTime};
//!
//! #[derive(Clone)]
//! struct Echo { heard: u32 }
//!
//! impl Component<u32> for Echo {
//!     fn on_event(&mut self, ctx: &mut Context<'_, u32>, payload: u32) {
//!         self.heard += payload;
//!         if payload > 0 {
//!             ctx.send_self(SimDuration::from_ns(10), payload - 1);
//!         }
//!     }
//!     fn fork(&self) -> Box<dyn Component<u32>> { Box::new(self.clone()) }
//! }
//!
//! let mut engine = Engine::new();
//! let id = engine.add_component(Box::new(Echo { heard: 0 }));
//! engine.schedule(SimTime::ZERO, id, 3);
//! engine.run();
//! assert_eq!(engine.component_as::<Echo>(id).unwrap().heard, 3 + 2 + 1);
//! assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_ns(30));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod arena;
pub mod bytes;
pub mod clone;
pub mod engine;
pub mod fnv;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod time;

pub use bytes::SharedBytes;
pub use clone::clone_onto;
pub use engine::{
    Component, ComponentId, Context, Engine, EngineSnapshot, NullProbe, Probe, RunBudget,
    RunOutcome, Simulation,
};
pub use fnv::Fnv1a;
pub use queue::TimingWheel;
pub use rng::DetRng;
pub use shard::{ShardSpec, ShardedEngine, SyncStats};
pub use time::{SimDuration, SimTime};
