//! The Myrinet packet format (paper Figure 6).
//!
//! A Myrinet packet consists of an arbitrarily long **source route**, a
//! 4-byte **packet type**, an arbitrarily long **payload**, and a single
//! trailing **CRC-8** byte covering everything before it.
//!
//! Routing is *relative*: at each switch the first byte of the header
//! designates the outgoing port and is stripped, and the trailing CRC-8 is
//! recomputed. A route byte with its MSB set means the packet is being
//! routed to another switch; the final route byte (MSB clear) delivers it to
//! a destination interface. In this model the final route byte is consumed
//! by the destination interface itself, which checks the MSB rule — "if the
//! packet reaches a destination interface with the MSB set to one, the
//! packet is consumed and handled as an error" (§4.3.2).

use std::error::Error;
use std::fmt;

use netfi_sim::SharedBytes;

use crate::crc8;

/// The 4-byte packet-type field.
///
/// The paper names two types of interest: `0x0004` (data) and `0x0005`
/// (mapping); most other values are "reserved for relatively obscure
/// protocols".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketType(pub u32);

impl PacketType {
    /// Ordinary data packets.
    pub const DATA: PacketType = PacketType(0x0000_0004);
    /// Network-mapping packets (scouts, replies, route distribution).
    pub const MAPPING: PacketType = PacketType(0x0000_0005);

    /// The wire encoding (big-endian).
    pub(crate) fn to_bytes(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Reads a type from the first four bytes of `buf`.
    pub fn from_slice(buf: &[u8]) -> Option<PacketType> {
        let bytes: [u8; 4] = buf.get(..4)?.try_into().ok()?;
        Some(PacketType(u32::from_be_bytes(bytes)))
    }
}

impl fmt::Display for PacketType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::DATA => f.write_str("DATA"),
            Self::MAPPING => f.write_str("MAPPING"),
            PacketType(v) => write!(f, "TYPE({v:#06x})"),
        }
    }
}

/// Mask selecting the port number from a route byte (up to 64 ports).
pub(crate) const ROUTE_PORT_MASK: u8 = 0x3F;
/// The MSB flag: set when the hop targets another switch.
pub(crate) const ROUTE_SWITCH_FLAG: u8 = 0x80;

/// A route byte addressed to a further switch: MSB set.
///
/// # Panics
///
/// Panics if `port` exceeds `ROUTE_PORT_MASK` (63).
pub fn route_to_switch(port: u8) -> u8 {
    assert!(port <= ROUTE_PORT_MASK, "switch port out of range");
    ROUTE_SWITCH_FLAG | port
}

/// The final route byte, delivering to a host interface: MSB clear.
///
/// # Panics
///
/// Panics if `port` exceeds `ROUTE_PORT_MASK` (63).
pub fn route_to_host(port: u8) -> u8 {
    assert!(port <= ROUTE_PORT_MASK, "switch port out of range");
    port
}

/// Errors raised while parsing or validating packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Fewer bytes than the minimum frame.
    TooShort,
    /// The trailing CRC-8 does not verify.
    BadCrc,
    /// A packet reached a destination interface with the route MSB set —
    /// "consumed and handled as an error".
    RouteMsbSet,
    /// No route byte remained when one was expected.
    RouteExhausted,
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::TooShort => f.write_str("packet shorter than minimum frame"),
            PacketError::BadCrc => f.write_str("trailing CRC-8 check failed"),
            PacketError::RouteMsbSet => {
                f.write_str("route MSB set at destination interface")
            }
            PacketError::RouteExhausted => f.write_str("source route exhausted early"),
        }
    }
}

impl Error for PacketError {}

/// A parsed Myrinet packet.
///
/// # Example
///
/// ```
/// use netfi_myrinet::packet::{route_to_host, Packet, PacketType};
/// let pkt = Packet::new(vec![route_to_host(2)], PacketType::DATA, b"hi".to_vec());
/// let wire = pkt.encode();
/// // route(1) + type(4) + payload(2) + crc(1)
/// assert_eq!(wire.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Remaining source-route bytes (consumed hop by hop).
    pub route: Vec<u8>,
    /// The packet type field.
    pub ptype: PacketType,
    /// The payload (a cheaply-clonable view into the wire image).
    pub payload: SharedBytes,
}

impl Packet {
    /// Assembles a packet.
    pub fn new(
        route: Vec<u8>,
        ptype: PacketType,
        payload: impl Into<SharedBytes>,
    ) -> Packet {
        Packet {
            route,
            ptype,
            payload: payload.into(),
        }
    }

    /// Serializes to wire bytes with a freshly computed CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(self.route.len() + 4 + self.payload.len() + 1);
        buf.extend_from_slice(&self.route);
        buf.extend_from_slice(&self.ptype.to_bytes());
        buf.extend_from_slice(&self.payload);
        buf.push(crc8::checksum(&buf));
        buf
    }

    /// Parses a packet delivered to a host interface.
    ///
    /// In this model the wire image arriving at an interface is
    /// `[final route byte, type(4), payload…, crc]`. The interface checks
    /// the CRC first (bad CRC ⇒ silent drop, §4.3.3), then the route-MSB
    /// rule (§4.3.2).
    ///
    /// # Errors
    ///
    /// [`PacketError::TooShort`], [`PacketError::BadCrc`] or
    /// [`PacketError::RouteMsbSet`].
    pub fn parse_delivered(wire: &[u8]) -> Result<Packet, PacketError> {
        let (final_route, ptype) = Packet::validate_delivered(wire)?;
        Ok(Packet {
            route: vec![final_route],
            ptype,
            payload: SharedBytes::from(&wire[5..wire.len() - 1]),
        })
    }

    /// Zero-copy variant of [`Packet::parse_delivered`]: the payload is a
    /// [`SharedBytes`] window into `wire`, so no payload bytes move.
    ///
    /// # Errors
    ///
    /// Same as [`Packet::parse_delivered`].
    pub fn parse_delivered_shared(wire: &SharedBytes) -> Result<Packet, PacketError> {
        let (final_route, ptype) = Packet::validate_delivered(wire)?;
        Ok(Packet {
            route: vec![final_route],
            ptype,
            payload: wire.slice(5..wire.len() - 1),
        })
    }

    /// Shared validation for the two delivered-parse entry points.
    fn validate_delivered(wire: &[u8]) -> Result<(u8, PacketType), PacketError> {
        if wire.len() < 1 + 4 + 1 {
            return Err(PacketError::TooShort);
        }
        if !crc8::verify(wire) {
            return Err(PacketError::BadCrc);
        }
        let final_route = wire[0];
        if final_route & ROUTE_SWITCH_FLAG != 0 {
            return Err(PacketError::RouteMsbSet);
        }
        let ptype = PacketType::from_slice(&wire[1..]).ok_or(PacketError::TooShort)?;
        Ok((final_route, ptype))
    }
}

/// Switch-side operations on raw wire images.
pub mod wire {
    use super::*;

    /// The first route byte of a wire image, if any.
    pub(crate) fn peek_route_byte(wire: &[u8]) -> Option<u8> {
        wire.first().copied()
    }

    /// Strips the leading route byte and recomputes the trailing CRC-8 —
    /// what a switch does when it forwards toward another switch.
    ///
    /// # Errors
    ///
    /// [`PacketError::TooShort`] if nothing remains after the strip.
    pub fn strip_route_byte(wire: &[u8]) -> Result<Vec<u8>, PacketError> {
        if wire.len() < 2 {
            return Err(PacketError::TooShort);
        }
        let mut out = wire[1..].to_vec();
        let last = out.len() - 1;
        out[last] = crc8::checksum(&out[..last]);
        Ok(out)
    }

    /// `true` if the whole image (including trailing CRC) verifies.
    pub fn crc_ok(wire: &[u8]) -> bool {
        crc8::verify(wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::new(
            vec![route_to_switch(3), route_to_host(1)],
            PacketType::DATA,
            b"hello world".to_vec(),
        )
    }

    #[test]
    fn encode_layout_matches_figure_6() {
        let p = sample();
        let w = p.encode();
        assert_eq!(w[0], 0x83); // switch hop, port 3
        assert_eq!(w[1], 0x01); // host hop, port 1
        assert_eq!(&w[2..6], &[0, 0, 0, 4]); // DATA type
        assert_eq!(&w[6..17], b"hello world");
        assert!(crc8::verify(&w));
    }

    #[test]
    fn strip_then_deliver_roundtrip() {
        let p = sample();
        let w = p.encode();
        let after_switch = wire::strip_route_byte(&w).unwrap();
        assert!(crc8::verify(&after_switch));
        let delivered = Packet::parse_delivered(&after_switch).unwrap();
        assert_eq!(delivered.ptype, PacketType::DATA);
        assert_eq!(delivered.payload, b"hello world");
        assert_eq!(delivered.route, vec![0x01]);
    }

    #[test]
    fn corrupted_byte_fails_crc_at_delivery() {
        let p = sample();
        let w = p.encode();
        let mut after_switch = wire::strip_route_byte(&w).unwrap();
        after_switch[6] ^= 0x10; // corrupt payload without CRC fix
        assert_eq!(
            Packet::parse_delivered(&after_switch),
            Err(PacketError::BadCrc)
        );
    }

    #[test]
    fn msb_set_at_interface_is_an_error() {
        // §4.3.2: set the MSB on the final route byte; interface must treat
        // it as an error (after the CRC is made consistent, as the injector
        // does when recompute is enabled).
        let p = Packet::new(
            vec![route_to_switch(1) /* MSB set on final hop */],
            PacketType::DATA,
            b"x".to_vec(),
        );
        let w = p.encode();
        assert_eq!(Packet::parse_delivered(&w), Err(PacketError::RouteMsbSet));
    }

    #[test]
    fn too_short_rejected() {
        assert_eq!(Packet::parse_delivered(&[1, 2, 3]), Err(PacketError::TooShort));
        assert_eq!(wire::strip_route_byte(&[9]), Err(PacketError::TooShort));
    }

    #[test]
    fn ptype_display() {
        assert_eq!(PacketType::DATA.to_string(), "DATA");
        assert_eq!(PacketType::MAPPING.to_string(), "MAPPING");
        assert_eq!(PacketType(0x29).to_string(), "TYPE(0x0029)");
    }

    #[test]
    fn route_byte_constructors() {
        assert_eq!(route_to_switch(0x3F), 0xBF);
        assert_eq!(route_to_host(0x00), 0x00);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_byte_range_checked() {
        let _ = route_to_switch(0x40);
    }
}
