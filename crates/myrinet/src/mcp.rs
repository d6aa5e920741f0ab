//! Mapping-protocol messages (the payloads of `0x0005` packets).
//!
//! "Network mapping is done by first sending a scout message to all other
//! ports of the switch which the mapping node connects to … done
//! recursively until the entire network is mapped" (§4.1). Three message
//! kinds flow as MAPPING packets:
//!
//! - [`MapMsg::Scout`] — mapper → candidate port: "who is there?". Carries
//!   the reply route so the probed node can answer without routing state.
//! - [`MapMsg::Reply`] — probed node → mapper: its 64-bit MCP address and
//!   48-bit physical address.
//! - [`MapMsg::Routes`] — mapper → every mapped node: that node's routing
//!   table for this epoch.
//!
//! All messages ride in ordinary Myrinet packets, so the fault injector can
//! corrupt them exactly as the paper's campaign does (§4.3.2): a mapping
//! packet whose type field is corrupted is simply not recognized by the
//! receiving MCP, and the node drops out of the map until the next round.

use std::error::Error;
use std::fmt;

use crate::addr::{EthAddr, NodeAddress};
use crate::mapper::Attachment;

/// A mapping-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapMsg {
    /// Mapper probing one attachment.
    Scout {
        /// Mapping round.
        epoch: u32,
        /// The mapper's MCP address (for election deference).
        mapper: NodeAddress,
        /// The attachment being probed (echoed in the reply).
        target: Attachment,
        /// Source route the probed node should use to answer.
        reply_route: Vec<u8>,
    },
    /// A probed node answering a scout.
    Reply {
        /// Mapping round (echoed).
        epoch: u32,
        /// The probed attachment (echoed).
        target: Attachment,
        /// The responding node's MCP address.
        addr: NodeAddress,
        /// The responding node's physical address.
        eth: EthAddr,
    },
    /// The mapper distributing a node's routing table.
    Routes {
        /// Mapping round.
        epoch: u32,
        /// The mapper's MCP address.
        mapper: NodeAddress,
        /// `(destination, source route)` entries for the receiving node.
        entries: Vec<(EthAddr, Vec<u8>)>,
        /// Physical addresses of every node present in this epoch's map
        /// (for monitoring).
        present: Vec<EthAddr>,
    },
}

/// Error decoding a [`MapMsg`] from packet payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapMsgError;

impl fmt::Display for MapMsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("malformed mapping message")
    }
}

impl Error for MapMsgError {}

const TAG_SCOUT: u8 = 1;
const TAG_REPLY: u8 = 2;
const TAG_ROUTES: u8 = 3;

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], MapMsgError> {
    if buf.len() < n {
        return Err(MapMsgError);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, MapMsgError> {
    Ok(take(buf, 1)?[0])
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, MapMsgError> {
    let b = take(buf, 2)?;
    Ok(u16::from_be_bytes([b[0], b[1]]))
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, MapMsgError> {
    let b = take(buf, 4)?;
    Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, MapMsgError> {
    let b = take(buf, 8)?;
    let mut arr = [0u8; 8];
    arr.copy_from_slice(b);
    Ok(u64::from_be_bytes(arr))
}

fn take_eth(buf: &mut &[u8]) -> Result<EthAddr, MapMsgError> {
    EthAddr::from_slice(take(buf, 6)?).ok_or(MapMsgError)
}

fn take_route(buf: &mut &[u8]) -> Result<Vec<u8>, MapMsgError> {
    let len = take_u8(buf)? as usize;
    Ok(take(buf, len)?.to_vec())
}

impl MapMsg {
    /// Serializes to packet payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if a route exceeds 255 hops or a map exceeds 65535 entries —
    /// both impossible on a Myrinet fabric (the wire format caps them).
    #[expect(
        clippy::expect_used,
        reason = "the wire format caps routes at 255 hops and maps at 65535 entries"
    )]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            MapMsg::Scout {
                epoch,
                mapper,
                target,
                reply_route,
            } => {
                out.push(TAG_SCOUT);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&mapper.0.to_be_bytes());
                out.push(target.0);
                out.push(target.1);
                out.push(u8::try_from(reply_route.len()).expect("route too long"));
                out.extend_from_slice(reply_route);
            }
            MapMsg::Reply {
                epoch,
                target,
                addr,
                eth,
            } => {
                out.push(TAG_REPLY);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.push(target.0);
                out.push(target.1);
                out.extend_from_slice(&addr.0.to_be_bytes());
                out.extend_from_slice(&eth.octets());
            }
            MapMsg::Routes {
                epoch,
                mapper,
                entries,
                present,
            } => {
                out.push(TAG_ROUTES);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&mapper.0.to_be_bytes());
                out.extend_from_slice(
                    &u16::try_from(entries.len())
                        .expect("too many entries")
                        .to_be_bytes(),
                );
                for (eth, route) in entries {
                    out.extend_from_slice(&eth.octets());
                    out.push(u8::try_from(route.len()).expect("route too long"));
                    out.extend_from_slice(route);
                }
                out.extend_from_slice(
                    &u16::try_from(present.len())
                        .expect("too many present")
                        .to_be_bytes(),
                );
                for eth in present {
                    out.extend_from_slice(&eth.octets());
                }
            }
        }
        out
    }

    /// Parses packet payload bytes.
    ///
    /// # Errors
    ///
    /// [`MapMsgError`] on any truncation or unknown tag — a corrupted
    /// mapping payload is simply ignored by the receiving MCP.
    pub fn decode(mut buf: &[u8]) -> Result<MapMsg, MapMsgError> {
        let tag = take_u8(&mut buf)?;
        let msg = match tag {
            TAG_SCOUT => MapMsg::Scout {
                epoch: take_u32(&mut buf)?,
                mapper: NodeAddress(take_u64(&mut buf)?),
                target: (take_u8(&mut buf)?, take_u8(&mut buf)?),
                reply_route: take_route(&mut buf)?,
            },
            TAG_REPLY => MapMsg::Reply {
                epoch: take_u32(&mut buf)?,
                target: (take_u8(&mut buf)?, take_u8(&mut buf)?),
                addr: NodeAddress(take_u64(&mut buf)?),
                eth: take_eth(&mut buf)?,
            },
            TAG_ROUTES => {
                let epoch = take_u32(&mut buf)?;
                let mapper = NodeAddress(take_u64(&mut buf)?);
                let n = take_u16(&mut buf)? as usize;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let eth = take_eth(&mut buf)?;
                    let route = take_route(&mut buf)?;
                    entries.push((eth, route));
                }
                let np = take_u16(&mut buf)? as usize;
                let mut present = Vec::with_capacity(np.min(1024));
                for _ in 0..np {
                    present.push(take_eth(&mut buf)?);
                }
                MapMsg::Routes {
                    epoch,
                    mapper,
                    entries,
                    present,
                }
            }
            _ => return Err(MapMsgError),
        };
        if !buf.is_empty() {
            return Err(MapMsgError);
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: MapMsg) {
        let bytes = msg.encode();
        assert_eq!(MapMsg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn scout_roundtrip() {
        roundtrip(MapMsg::Scout {
            epoch: 42,
            mapper: NodeAddress(0xDEAD_BEEF),
            target: (0, 5),
            reply_route: vec![0x83, 0x01],
        });
    }

    #[test]
    fn scout_empty_route_roundtrip() {
        roundtrip(MapMsg::Scout {
            epoch: 0,
            mapper: NodeAddress(0),
            target: (1, 0),
            reply_route: vec![],
        });
    }

    #[test]
    fn reply_roundtrip() {
        roundtrip(MapMsg::Reply {
            epoch: 7,
            target: (0, 2),
            addr: NodeAddress(u64::MAX),
            eth: EthAddr::myricom(3),
        });
    }

    #[test]
    fn routes_roundtrip() {
        roundtrip(MapMsg::Routes {
            epoch: 9,
            mapper: NodeAddress(100),
            entries: vec![
                (EthAddr::myricom(1), vec![0x02]),
                (EthAddr::myricom(2), vec![0x83, 0x01]),
            ],
            present: vec![EthAddr::myricom(1), EthAddr::myricom(2), EthAddr::myricom(3)],
        });
    }

    #[test]
    fn routes_empty_roundtrip() {
        roundtrip(MapMsg::Routes {
            epoch: 1,
            mapper: NodeAddress(5),
            entries: vec![],
            present: vec![],
        });
    }

    #[test]
    fn truncated_rejected() {
        let msg = MapMsg::Reply {
            epoch: 7,
            target: (0, 2),
            addr: NodeAddress(1),
            eth: EthAddr::myricom(3),
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert_eq!(MapMsg::decode(&bytes[..cut]), Err(MapMsgError), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = MapMsg::Scout {
            epoch: 1,
            mapper: NodeAddress(2),
            target: (0, 0),
            reply_route: vec![],
        }
        .encode();
        bytes.push(0xFF);
        assert_eq!(MapMsg::decode(&bytes), Err(MapMsgError));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(MapMsg::decode(&[9, 0, 0, 0, 0]), Err(MapMsgError));
        assert_eq!(MapMsg::decode(&[]), Err(MapMsgError));
    }
}
