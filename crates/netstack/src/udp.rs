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
pub(crate) fn payload_avoiding_into(out: &mut Vec<u8>, len: usize, seq: u64, forbidden: &[u8]) {
    // A deterministic, seq-dependent pattern drawn from the printable
    // ASCII bytes that are not forbidden.
    let mut x = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(len as u64);
    if !forbidden.iter().any(|b| PRINTABLE.contains(b)) {
        // Every byte a campaign forbids (control-symbol codes, 0xDD) lies
        // outside the alphabet, so this is the hot path: the alphabet is
        // all 95 bytes and need not be built.
        let start = out.len();
        out.resize(start + len, 0);
        filler::fill(&mut out[start..], x);
        return;
    }
    // The allowed alphabet is at most the 95 printable ASCII bytes, so it
    // fits on the stack.
    let mut allowed = [0u8; 95];
    let mut count = 0usize;
    for b in PRINTABLE {
        if !forbidden.contains(&b) {
            allowed[count] = b;
            count += 1;
        }
    }
    assert!(count > 0, "no allowed bytes remain");
    // `extend` over a range iterator reserves once and skips the per-byte
    // capacity check a `push` loop would pay.
    out.extend((0..len).map(|_| {
        x = filler::step(x);
        allowed[(x >> 33) as usize % count]
    }));
}

/// The filler's alphabet before anything is forbidden.
const PRINTABLE: std::ops::RangeInclusive<u8> = 0x20..=0x7E;

/// The filler with all 95 printable bytes allowed, `out[k]` drawn from the
/// (k + 1)-th step of an LCG from `x`.
///
/// The LCG state of each 16-byte chunk's first byte steps serially, 16
/// steps per jump; the chunk's 16 states are then independent jumps of
/// 0 … 15 steps from it, which a vector unit takes together, and the bytes
/// come out in the one-step recurrence's order. The lane loop is compiled
/// twice: portably (the reference, and the only path off x86-64 or on CPUs
/// without AVX2) and, for x86-64 CPUs that report AVX2 at run time, with
/// AVX2 enabled, which LLVM vectorises.
mod filler {
    const A: u64 = 6364136223846793005;
    const C: u64 = 1442695040888963407;
    const LANES: usize = 16;

    /// Aₙ of the n-step jump xₖ₊ₙ = Aₙ·xₖ + Cₙ, for n = 0 … LANES − 1.
    const MUL: [u64; LANES] = jumps().0;
    /// Cₙ of the same jumps.
    const ADD: [u64; LANES] = jumps().1;
    /// A whole chunk's jump, (A₁₆, C₁₆).
    const CHUNK: (u64, u64) = jumps().2;

    const fn jumps() -> ([u64; LANES], [u64; LANES], (u64, u64)) {
        let (mut mul, mut add) = ([0u64; LANES], [0u64; LANES]);
        let (mut a, mut c) = (1u64, 0u64);
        let mut n = 0;
        while n < LANES {
            (mul[n], add[n]) = (a, c);
            (a, c) = (a.wrapping_mul(A), c.wrapping_mul(A).wrapping_add(C));
            n += 1;
        }
        (mul, add, (a, c))
    }

    /// One step of the LCG.
    pub(super) fn step(x: u64) -> u64 {
        x.wrapping_mul(A).wrapping_add(C)
    }

    /// The printable byte of one LCG state: `% 95` of a constant is
    /// strength-reduced to a multiply, and on 32 bits it vectorises.
    #[inline(always)]
    fn byte(v: u64) -> u8 {
        0x20 + ((v >> 33) as u32 % 95) as u8
    }

    /// The bytes of (up to) one chunk whose first state is `y`.
    #[inline(always)]
    fn lanes(chunk: &mut [u8], y: u64) {
        for ((b, a), c) in chunk.iter_mut().zip(&MUL).zip(&ADD) {
            *b = byte(a.wrapping_mul(y).wrapping_add(*c));
        }
    }

    /// The lane loop for any CPU, inlined into [`fill_avx2_unchecked`] to
    /// be compiled a second time.
    #[inline(always)]
    pub(super) fn fill_portable(out: &mut [u8], x: u64) {
        let mut y = step(x);
        let mut chunks = out.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            lanes(chunk, y);
            y = CHUNK.0.wrapping_mul(y).wrapping_add(CHUNK.1);
        }
        lanes(chunks.into_remainder(), y);
    }

    /// Fills `out` with the fastest lane loop this CPU runs.
    pub(super) fn fill(out: &mut [u8], x: u64) {
        if !fill_avx2(out, x) {
            fill_portable(out, x);
        }
    }

    /// The lane loop compiled for AVX2; `false`, with `out` untouched,
    /// where this CPU or target lacks it.
    pub(super) fn fill_avx2(out: &mut [u8], x: u64) -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2, the one feature `fill_avx2_unchecked` is
            // compiled for, was just detected.
            unsafe { fill_avx2_unchecked(out, x) };
            return true;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (out, x);
        false
    }

    /// [`fill_portable`] with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_avx2_unchecked(out: &mut [u8], x: u64) {
        fill_portable(out, x);
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

    /// The one-step-at-a-time LCG the filler is defined by, drawing from
    /// `alphabet`.
    fn serial_filler(len: usize, seq: u64, alphabet: &[u8]) -> Vec<u8> {
        let mut x = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(len as u64);
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                alphabet[(x >> 33) as usize % alphabet.len()]
            })
            .collect()
    }

    #[test]
    fn unrolled_filler_matches_serial_recurrence() {
        // Both compiled lane loops must emit exactly the bytes of the
        // one-step LCG, across lane boundaries and at full frame length.
        let printable: Vec<u8> = PRINTABLE.collect();
        let lens = (0..=40).chain([63, 64, 65, 511, 512, 513, 1500]);
        let mut avx2_checked = 0;
        for seq in [0u64, 1, 7, 12345, u64::MAX - 1, u64::MAX] {
            for len in lens.clone() {
                let reference = serial_filler(len, seq, &printable);
                let x = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(len as u64);
                let mut out = vec![0; len];
                filler::fill_portable(&mut out, x);
                assert_eq!(out, reference, "portable seq={seq} len={len}");
                let mut out = vec![0; len];
                if filler::fill_avx2(&mut out, x) {
                    assert_eq!(out, reference, "avx2 seq={seq} len={len}");
                    avx2_checked += 1;
                }
                assert_eq!(payload_avoiding(len, seq, &[]), reference, "seq={seq} len={len}");
            }
        }
        // Where the CPU has AVX2, every case ran on both.
        assert!(avx2_checked == 0 || avx2_checked == 6 * lens.count());
        // A forbidden printable byte takes the alphabet path.
        let forbidden = [0x0F, b'A', 0xDD, b'~'];
        let alphabet: Vec<u8> = PRINTABLE.filter(|b| !forbidden.contains(b)).collect();
        for seq in [0u64, 7, u64::MAX] {
            for len in [0usize, 1, 17, 512] {
                assert_eq!(
                    payload_avoiding(len, seq, &forbidden),
                    serial_filler(len, seq, &alphabet),
                    "alphabet seq={seq} len={len}"
                );
            }
        }
    }
}
