//! A UDP datagram layer over Ethernet-addressed Myrinet payloads.
//!
//! The wire format follows RFC 768 — source port, destination port,
//! length, checksum, payload — with the checksum computed over header and
//! payload directly (no IP pseudo-header: the paper's test bed runs UDP
//! over the Myrinet Ethernet emulation, and the §4.3.4 experiment depends
//! only on the one's-complement arithmetic).

use std::error::Error;
use std::fmt;

use netfi_sim::SharedBytes;

use crate::checksum;

/// Minimum encoded size (the 8-byte header).
pub const HEADER_LEN: usize = 8;

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes — shared with the wire image it was decoded from.
    pub payload: SharedBytes,
}

/// UDP decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpError {
    /// Fewer than eight bytes.
    TooShort,
    /// The length field disagrees with the actual size.
    BadLength,
    /// The checksum failed — "when the corruption did not satisfy the
    /// checksum, the packets were dropped" (§4.3.4).
    BadChecksum,
}

impl fmt::Display for UdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpError::TooShort => f.write_str("datagram shorter than UDP header"),
            UdpError::BadLength => f.write_str("UDP length field mismatch"),
            UdpError::BadChecksum => f.write_str("UDP checksum failed"),
        }
    }
}

impl Error for UdpError {}

impl UdpDatagram {
    /// Builds a datagram.
    pub fn new(
        src_port: u16,
        dst_port: u16,
        payload: impl Into<SharedBytes>,
    ) -> UdpDatagram {
        UdpDatagram {
            src_port,
            dst_port,
            payload: payload.into(),
        }
    }

    /// The encoded 8-byte header with the checksum computed and filled
    /// in, leaving the payload to be appended separately — a sender with
    /// a scatter-gather transmit path can skip assembling the datagram.
    pub fn header_bytes(&self) -> [u8; HEADER_LEN] {
        let len = HEADER_LEN + self.payload.len();
        let mut header = [0u8; HEADER_LEN];
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        // header[6..8] stays zero: the checksum placeholder.
        let ck = checksum::checksum_parts(&[&header, &self.payload]);
        // RFC 768: a computed zero checksum is transmitted as all-ones.
        let ck = if ck == 0 { 0xFFFF } else { ck };
        header[6..8].copy_from_slice(&ck.to_be_bytes());
        header
    }

    /// Serializes with a computed checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.header_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and verifies a datagram.
    ///
    /// # Errors
    ///
    /// [`UdpError`] on truncation, length mismatch or checksum failure.
    pub fn decode(wire: &[u8]) -> Result<UdpDatagram, UdpError> {
        let (src_port, dst_port) = Self::validate(wire)?;
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: SharedBytes::from(&wire[HEADER_LEN..]),
        })
    }

    /// Parses and verifies a datagram from a shared wire image; the
    /// payload is a window into `wire`, so nothing is copied.
    ///
    /// # Errors
    ///
    /// [`UdpError`] on truncation, length mismatch or checksum failure.
    pub fn decode_shared(wire: &SharedBytes) -> Result<UdpDatagram, UdpError> {
        let (src_port, dst_port) = Self::validate(wire)?;
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: wire.slice(HEADER_LEN..),
        })
    }

    fn validate(wire: &[u8]) -> Result<(u16, u16), UdpError> {
        if wire.len() < HEADER_LEN {
            return Err(UdpError::TooShort);
        }
        let src_port = u16::from_be_bytes([wire[0], wire[1]]);
        let dst_port = u16::from_be_bytes([wire[2], wire[3]]);
        let len = u16::from_be_bytes([wire[4], wire[5]]) as usize;
        if len != wire.len() {
            return Err(UdpError::BadLength);
        }
        // Verify: sum over the datagram with the checksum field in place
        // must be all-ones (unless the checksum was transmitted as zero =
        // disabled, which this stack never generates but accepts).
        let ck_field = u16::from_be_bytes([wire[6], wire[7]]);
        if ck_field != 0 && !checksum::verify(wire) {
            return Err(UdpError::BadChecksum);
        }
        Ok((src_port, dst_port))
    }
}

/// Builds a payload of `len` filler bytes that avoids every byte in
/// `forbidden` — the paper's campaign methodology: "the messages were UDP
/// packets designed in such a way that the symbol mask we corrupted did
/// not appear in the message itself" (§4.3.1).
pub fn payload_avoiding(len: usize, seq: u64, forbidden: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    payload_avoiding_into(&mut out, len, seq, forbidden);
    out
}

/// Appends the [`payload_avoiding`] filler to an existing buffer, so a
/// caller composing a larger payload (e.g. sequence number + filler) can
/// do it in one allocation.
pub fn payload_avoiding_into(out: &mut Vec<u8>, len: usize, seq: u64, forbidden: &[u8]) {
    // The allowed alphabet is at most the 95 printable ASCII bytes, so it
    // fits on the stack.
    let mut allowed = [0u8; 95];
    let mut count = 0usize;
    for b in 0x20..=0x7E {
        // printable ASCII
        if !forbidden.contains(&b) {
            allowed[count] = b;
            count += 1;
        }
    }
    assert!(count > 0, "no allowed bytes remain");
    // A deterministic, seq-dependent pattern drawn from allowed bytes.
    let mut x = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(len as u64);
    out.reserve(len);
    // `extend` over a range iterator reserves once and skips the per-byte
    // capacity check a `push` loop would pay.
    const A: u64 = 6364136223846793005;
    const C: u64 = 1442695040888963407;
    if count == allowed.len() {
        // Nothing forbidden (the common hot path): the modulus is a
        // compile-time constant (strength-reduced to a multiply), and the
        // LCG runs as four interleaved lanes that each jump four steps at
        // a time — the four multiplies pipeline instead of forming one
        // serial dependency chain. The emitted byte sequence is identical
        // to the one-step-at-a-time recurrence.
        const A2: u64 = A.wrapping_mul(A);
        const A3: u64 = A2.wrapping_mul(A);
        const A4: u64 = A3.wrapping_mul(A);
        const C4: u64 = A3
            .wrapping_mul(C)
            .wrapping_add(A2.wrapping_mul(C))
            .wrapping_add(A.wrapping_mul(C))
            .wrapping_add(C);
        let byte = |v: u64| 0x20 + ((v >> 33) % 95) as u8;
        let mut l0 = A.wrapping_mul(x).wrapping_add(C);
        let mut l1 = A.wrapping_mul(l0).wrapping_add(C);
        let mut l2 = A.wrapping_mul(l1).wrapping_add(C);
        let mut l3 = A.wrapping_mul(l2).wrapping_add(C);
        for _ in 0..len / 4 {
            out.extend_from_slice(&[byte(l0), byte(l1), byte(l2), byte(l3)]);
            l0 = A4.wrapping_mul(l0).wrapping_add(C4);
            l1 = A4.wrapping_mul(l1).wrapping_add(C4);
            l2 = A4.wrapping_mul(l2).wrapping_add(C4);
            l3 = A4.wrapping_mul(l3).wrapping_add(C4);
        }
        let tail = [l0, l1, l2];
        for &lane in &tail[..len % 4] {
            out.push(byte(lane));
        }
    } else {
        out.extend((0..len).map(|_| {
            x = x.wrapping_mul(A).wrapping_add(C);
            allowed[(x >> 33) as usize % count]
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(1234, 7, b"Have a lot of fun!".to_vec());
        let wire = d.encode();
        assert_eq!(UdpDatagram::decode(&wire), Ok(d));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let d = UdpDatagram::new(0, 0, Vec::new());
        assert_eq!(UdpDatagram::decode(&d.encode()), Ok(d));
    }

    #[test]
    fn corruption_detected() {
        let d = UdpDatagram::new(9, 10, b"payload data".to_vec());
        let mut wire = d.encode();
        wire[10] ^= 0x40;
        assert_eq!(UdpDatagram::decode(&wire), Err(UdpError::BadChecksum));
    }

    #[test]
    fn aligned_word_swap_passes_checksum() {
        // §4.3.4: "Have" -> "veHa" slips through.
        let d = UdpDatagram::new(9, 10, b"Have a lot of fun!".to_vec());
        let mut wire = d.encode();
        wire.swap(HEADER_LEN, HEADER_LEN + 2);
        wire.swap(HEADER_LEN + 1, HEADER_LEN + 3);
        let decoded = UdpDatagram::decode(&wire).unwrap();
        assert_eq!(&decoded.payload[..4], b"veHa");
    }

    #[test]
    fn truncation_detected() {
        let d = UdpDatagram::new(9, 10, b"hello".to_vec());
        let wire = d.encode();
        assert_eq!(UdpDatagram::decode(&wire[..4]), Err(UdpError::TooShort));
        assert_eq!(
            UdpDatagram::decode(&wire[..wire.len() - 1]),
            Err(UdpError::BadLength)
        );
    }

    #[test]
    fn zero_checksum_never_emitted() {
        // Find payloads freely; the encoder must never emit a 0 checksum
        // field (0 means "no checksum" in UDP).
        for i in 0..200u16 {
            let d = UdpDatagram::new(i, i, vec![i as u8; (i % 32) as usize]);
            let wire = d.encode();
            let ck = u16::from_be_bytes([wire[6], wire[7]]);
            assert_ne!(ck, 0);
            assert!(UdpDatagram::decode(&wire).is_ok());
        }
    }

    #[test]
    fn payload_avoiding_forbidden_bytes() {
        let forbidden = [0x0F, 0x0C, 0x03, b'A'];
        for seq in 0..50 {
            let p = payload_avoiding(256, seq, &forbidden);
            assert_eq!(p.len(), 256);
            for b in &p {
                assert!(!forbidden.contains(b), "forbidden byte {b:#04x} in payload");
            }
        }
    }

    #[test]
    fn no_control_symbol_is_in_the_filler_alphabet() {
        // So forbidding one changes no payload byte: the traffic of a
        // Table 4 test bed does not depend on which row it is warmed for.
        let all = netfi_phy::ControlSymbol::ALL.map(netfi_phy::ControlSymbol::encode);
        for code in all {
            assert!(!(0x20..=0x7E).contains(&code), "{code:#04x}");
        }
        for seq in 0..50 {
            assert_eq!(payload_avoiding(256, seq, &all), payload_avoiding(256, seq, &[]));
        }
    }

    #[test]
    fn payload_varies_with_seq() {
        assert_ne!(payload_avoiding(64, 1, &[]), payload_avoiding(64, 2, &[]));
    }

    #[test]
    fn unrolled_filler_matches_serial_recurrence() {
        // The four-lane hot path must emit exactly the bytes of the
        // one-step-at-a-time LCG it replaced.
        for seq in [0u64, 1, 7, 12345, u64::MAX] {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 56, 95, 256] {
                let mut x = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(len as u64);
                let reference: Vec<u8> = (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        0x20 + ((x >> 33) % 95) as u8
                    })
                    .collect();
                assert_eq!(payload_avoiding(len, seq, &[]), reference, "seq={seq} len={len}");
            }
        }
    }
}
