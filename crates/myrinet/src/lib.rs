//! `netfi-myrinet` — a discrete-event Myrinet network simulator.
//!
//! The paper demonstrates its fault injector on a Myrinet LAN (one 8-port
//! switch, three hosts); since no Myrinet hardware exists here, this crate
//! implements the network itself, from the paper's own description of the
//! technology (§4.1, after \[Bod95\]):
//!
//! - [`packet`]: the packet format (source route / 4-byte type / payload /
//!   trailing CRC-8) and relative source routing with per-hop route-byte
//!   stripping and CRC recomputation.
//! - [`crc8`]: the trailing CRC-8 (ATM-HEC polynomial).
//! - [`addr`]: 64-bit MCP addresses (mapper election) and 48-bit physical
//!   addresses (§4.3.3).
//! - [`frame`] / [`event`]: link transmission units and the component/port
//!   wiring vocabulary on top of `netfi-sim`.
//! - [`sbuf`]: the slack buffer with high/low watermarks generating
//!   STOP/GO (Figure 9).
//! - [`egress`]: the sender-side flow-control state machine with the
//!   16-character-period short timeout.
//! - [`switch`]: the crossbar switch with wormhole path holding and the
//!   ~50 ms long-period reclamation timeout.
//! - [`interface`]: the host interface (LANai + MCP): reception checks,
//!   routing tables, counters.
//! - [`mcp`]: mapping-protocol messages (scouts, replies, route
//!   distribution) and the mapper state machine — "the MCP with the highest
//!   address is responsible for mapping the network, … performed once every
//!   second".
//! - [`mapper`]: the network map structure and route computation, including
//!   the rendering used to reproduce Figure 11.
//! - [`monitor`]: `mmon`-style status snapshots.
//!
//! # Modelling notes (deviations recorded in DESIGN.md)
//!
//! - Links carry *frames* (a whole packet plus its terminating control
//!   symbol, or a standalone control symbol) rather than individual 9-bit
//!   characters; the injector device remains segment-accurate internally.
//! - The final route byte is consumed by the destination interface rather
//!   than the last switch, which preserves the §4.3.2 observable behaviour
//!   (route-MSB errors are "consumed and handled as an error" at the
//!   interface).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod crc8;
pub mod egress;
pub mod event;
pub mod frame;
pub mod interface;
pub mod mapper;
pub mod mcp;
pub mod monitor;
pub mod packet;
pub mod sbuf;
pub mod switch;

pub use addr::{EthAddr, NodeAddress};
pub use event::{connect, Attach, Ev, PortPeer};
pub use frame::{Frame, PacketFrame};
pub use interface::HostInterface;
pub use packet::{Packet, PacketType};
pub use switch::{Switch, SwitchConfig};
