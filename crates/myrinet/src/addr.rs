//! Addressing.
//!
//! Two address spaces coexist in a Myrinet LAN (paper §4.1 / §4.3.3):
//!
//! - every MCP (Myrinet Control Program, the NIC firmware) carries a unique
//!   **64-bit address** used for mapper election — "the MCP with the highest
//!   address is responsible for mapping the network";
//! - hosts are identified by **48-bit Ethernet-style physical addresses**
//!   "corresponding to individual Myrinet ports", which data packets carry
//!   and which the §4.3.3 corruption campaign targets.

use std::fmt;
use std::str::FromStr;

/// The 64-bit MCP address used for mapper election.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeAddress(pub u64);

impl fmt::Display for NodeAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl From<u64> for NodeAddress {
    fn from(v: u64) -> Self {
        NodeAddress(v)
    }
}

/// A 48-bit Ethernet-style physical address for a Myrinet port.
///
/// # Example
///
/// ```
/// use netfi_myrinet::addr::EthAddr;
/// let a: EthAddr = "00:60:dd:00:00:01".parse()?;
/// assert_eq!(a.to_string(), "00:60:dd:00:00:01");
/// assert_eq!(a.octets()[5], 0x01);
/// # Ok::<(), netfi_myrinet::addr::ParseEthAddrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EthAddr([u8; 6]);

impl EthAddr {
    /// The all-ones broadcast address.
    pub(crate) const BROADCAST: EthAddr = EthAddr([0xFF; 6]);

    /// Builds an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> EthAddr {
        EthAddr(octets)
    }

    /// A convenience constructor in the Myricom OUI (`00:60:dd`) with the
    /// host index in the low 24 bits — handy for test fixtures.
    pub const fn myricom(host: u32) -> EthAddr {
        EthAddr([
            0x00,
            0x60,
            0xDD,
            ((host >> 16) & 0xFF) as u8,
            ((host >> 8) & 0xFF) as u8,
            (host & 0xFF) as u8,
        ])
    }

    /// The six octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Reads an address from the first six bytes of `buf`.
    ///
    /// Returns `None` if `buf` is too short.
    pub fn from_slice(buf: &[u8]) -> Option<EthAddr> {
        let bytes: [u8; 6] = buf.get(..6)?.try_into().ok()?;
        Some(EthAddr(bytes))
    }

    /// `true` for the broadcast address.
    pub(crate) fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl fmt::Display for EthAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error parsing an [`EthAddr`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEthAddrError;

impl fmt::Display for ParseEthAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid ethernet address syntax")
    }
}

impl std::error::Error for ParseEthAddrError {}

impl FromStr for EthAddr {
    type Err = ParseEthAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in octets.iter_mut() {
            let part = parts.next().ok_or(ParseEthAddrError)?;
            if part.len() != 2 {
                return Err(ParseEthAddrError);
            }
            *octet = u8::from_str_radix(part, 16).map_err(|_| ParseEthAddrError)?;
        }
        if parts.next().is_some() {
            return Err(ParseEthAddrError);
        }
        Ok(EthAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_address_orders_for_election() {
        // "the MCP with the highest address is responsible for mapping"
        let addrs = [NodeAddress(3), NodeAddress(17), NodeAddress(5)];
        assert_eq!(addrs.iter().max(), Some(&NodeAddress(17)));
    }

    #[test]
    fn eth_addr_roundtrip_text() {
        let a = EthAddr::new([0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42]);
        let parsed: EthAddr = a.to_string().parse().unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn eth_addr_parse_errors() {
        assert!("".parse::<EthAddr>().is_err());
        assert!("00:11:22:33:44".parse::<EthAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<EthAddr>().is_err());
        assert!("00:11:22:33:44:zz".parse::<EthAddr>().is_err());
        assert!("0:11:22:33:44:55".parse::<EthAddr>().is_err());
    }

    #[test]
    fn myricom_constructor() {
        let a = EthAddr::myricom(0x0001_0203);
        assert_eq!(a.to_string(), "00:60:dd:01:02:03");
    }

    #[test]
    fn from_slice_behaviour() {
        assert_eq!(EthAddr::from_slice(&[1, 2, 3]), None);
        let a = EthAddr::from_slice(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_eq!(a.octets(), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn broadcast() {
        assert!(EthAddr::BROADCAST.is_broadcast());
        assert!(!EthAddr::myricom(1).is_broadcast());
    }
}
