//! The Myrinet trailing CRC-8.
//!
//! Every Myrinet packet ends with a single CRC byte covering the whole
//! packet (source route, packet type and payload). Because switches strip
//! one route byte per hop, "after each byte is removed, the trailing CRC-8
//! is recomputed" (paper §4.1) — so this module provides both one-shot and
//! streaming computation. The polynomial is the CCITT ATM-HEC polynomial
//! x⁸ + x² + x + 1 (`0x07`), the code Myrinet uses.
//!
//! Two kernels compute the same register. The slice-by-8 table walk is
//! the reference and the only path on CPUs without carry-less multiply;
//! on x86-64 CPUs with `pclmulqdq` and `ssse3` (asked of the CPU at run
//! time), inputs of 48 bytes or more fold 16 bytes per step with
//! carry-less multiplies. Every length and start register gives
//! the same byte on both; the tests call each kernel by name.

/// The CRC-8 generator polynomial, x⁸ + x² + x + 1.
pub(crate) const POLYNOMIAL: u8 = 0x07;

/// The shortest input the carry-less fold takes. The fold always pays two
/// table steps for its 128-bit remainder, so short inputs favour the
/// table: on a 2-vCPU Xeon VM the fold read ×0.60 of the table's speed
/// at 16 bytes, ×0.98 at 32 and 40, ×1.5 at 48 and ×2 at 64.
const CLMUL_MIN_LEN: usize = 48;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table (the effect of one byte on the register);
/// `TABLES[k]` is that effect propagated through `k` further zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups per iteration instead of a serial dependency chain.
const TABLES: [[u8; 256]; 8] = build_tables();

const fn build_tables() -> [[u8; 256]; 8] {
    let mut tables = [[0u8; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ POLYNOMIAL
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            tables[k][i] = tables[0][tables[k - 1][i] as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds `data` into the running register value with the fastest kernel
/// this CPU has for its length.
fn update(crc: u8, data: &[u8]) -> u8 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN {
        if let Some(crc) = clmul::update(crc, data) {
            return crc;
        }
    }
    update_table(crc, data)
}

/// Folds `data` into the running register value, eight bytes at a time.
///
/// The CRC update is linear over GF(2), so the register after eight bytes
/// is the XOR of each byte's contribution shifted to its position — one
/// table per position.
fn update_table(mut crc: u8, data: &[u8]) -> u8 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc = TABLES[7][(crc ^ c[0]) as usize]
            ^ TABLES[6][c[1] as usize]
            ^ TABLES[5][c[2] as usize]
            ^ TABLES[4][c[3] as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][(crc ^ b) as usize];
    }
    crc
}

/// The carry-less fold (Intel, "Fast CRC computation for generic
/// polynomials using PCLMULQDQ").
///
/// Read MSB first, `data` is a polynomial M(x) and its CRC from register
/// `r` is (r·x^(8n) + M·x⁸) mod P: the register is the first byte XORed
/// with `r`. Cut M into 16-byte blocks X₀ … Xₖ. Because only M mod P
/// matters, the leading block can be replaced by anything congruent to it
/// modulo P, as long as it stays in 128 bits: its high half H and low half
/// L sit x¹²⁸ further up once the next block follows, so
/// H·(x¹⁹² mod P) ⊕ L·(x¹²⁸ mod P) ⊕ X₁ is such a block. Folding block by
/// block leaves one 128-bit remainder, whose CRC, continued over the tail,
/// is the CRC of the whole input.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
    };

    use super::{update_table, POLYNOMIAL};

    /// xⁿ mod P.
    const fn x_pow_mod(n: u32) -> u8 {
        let mut r = 1u8;
        let mut i = 0;
        while i < n {
            r = if r & 0x80 != 0 {
                (r << 1) ^ POLYNOMIAL
            } else {
                r << 1
            };
            i += 1;
        }
        r
    }

    /// Moves a block's low half one block onward.
    const K128: u8 = x_pow_mod(128);
    /// Moves a block's high half one block onward.
    const K192: u8 = x_pow_mod(192);

    /// The fold of `data` into `crc`, or `None` where this CPU lacks the
    /// instructions.
    pub(super) fn update(crc: u8, data: &[u8]) -> Option<u8> {
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("ssse3") {
            // SAFETY: both features `fold` is compiled for were just detected.
            Some(unsafe { fold(crc, data) })
        } else {
            None
        }
    }

    /// Folds every whole 16-byte block of `data` into one, then runs that
    /// remainder and the tail through the table.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `ssse3`.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    unsafe fn fold(crc: u8, data: &[u8]) -> u8 {
        let mut blocks = data.chunks_exact(16);
        let Some(first) = blocks.next() else {
            return update_table(crc, data);
        };
        // Byte i of the register is byte 15 − i of the block, so the
        // register's bit j is the block's coefficient of xʲ.
        let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let halves = _mm_set_epi64x(i64::from(K192), i64::from(K128));
        // SAFETY: `chunks_exact(16)` yields 16-byte blocks.
        let first = unsafe { _mm_loadu_si128(first.as_ptr().cast::<__m128i>()) };
        let mut x = _mm_xor_si128(
            _mm_shuffle_epi8(first, reverse),
            _mm_set_epi64x(i64::from(crc) << 56, 0),
        );
        for block in &mut blocks {
            // SAFETY: `chunks_exact(16)` yields 16-byte blocks.
            let next = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) };
            let high = _mm_clmulepi64_si128::<0x11>(x, halves);
            let low = _mm_clmulepi64_si128::<0x00>(x, halves);
            x = _mm_xor_si128(_mm_xor_si128(high, low), _mm_shuffle_epi8(next, reverse));
        }
        let mut remainder = [0u8; 16];
        // SAFETY: `remainder` holds the 16 bytes stored.
        unsafe {
            _mm_storeu_si128(
                remainder.as_mut_ptr().cast::<__m128i>(),
                _mm_shuffle_epi8(x, reverse),
            )
        };
        update_table(update_table(0, &remainder), blocks.remainder())
    }
}

/// Computes the CRC-8 of `data` (initial value 0).
///
/// # Example
///
/// ```
/// use netfi_myrinet::crc8;
/// let crc = crc8::checksum(b"123456789");
/// assert_eq!(crc, 0xF4); // the CRC-8/ATM check value
/// ```
pub fn checksum(data: &[u8]) -> u8 {
    update(0, data)
}

/// Verifies a buffer whose final byte is its CRC.
///
/// A property of this CRC: appending the correct CRC byte drives the
/// register to zero.
pub fn verify(data_with_crc: &[u8]) -> bool {
    !data_with_crc.is_empty() && checksum(data_with_crc) == 0
}

/// A streaming CRC-8 accumulator.
///
/// # Example
///
/// ```
/// use netfi_myrinet::crc8::{self, Crc8};
/// let mut acc = Crc8::new();
/// acc.update(b"1234");
/// acc.update(b"56789");
/// assert_eq!(acc.finish(), crc8::checksum(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc8 {
    crc: u8,
}

impl Crc8 {
    /// Creates an accumulator at the initial state.
    pub fn new() -> Crc8 {
        Crc8 { crc: 0 }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.crc = update(self.crc, data);
    }

    /// The CRC of everything fed so far.
    pub fn finish(self) -> u8 {
        self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original bit-serial implementation, kept as the reference both
    /// kernels are checked bit-identical against.
    fn update_bitwise(mut crc: u8, data: &[u8]) -> u8 {
        for &b in data {
            crc ^= b;
            for _ in 0..8 {
                crc = if crc & 0x80 != 0 {
                    (crc << 1) ^ POLYNOMIAL
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    fn checksum_bitwise(data: &[u8]) -> u8 {
        update_bitwise(0, data)
    }

    /// The carry-less kernel, called by name; `None` on a CPU or target
    /// without it.
    fn update_clmul(crc: u8, data: &[u8]) -> Option<u8> {
        #[cfg(target_arch = "x86_64")]
        return clmul::update(crc, data);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    #[test]
    fn both_kernels_match_the_reference_at_every_length_and_start() {
        let mut rng = netfi_sim::DetRng::new(0xC8C8_0001);
        let mut clmul_checked = 0;
        for start in [0u8, 0x5A, 0xFF] {
            let data: Vec<u8> = (0..2048).map(|_| rng.next_u64() as u8).collect();
            // The reference register after each prefix, extended a byte
            // at a time.
            let mut want = start;
            for len in 0..=data.len() {
                if len > 0 {
                    want = update_bitwise(want, &data[len - 1..len]);
                }
                let prefix = &data[..len];
                let case = format!("start {start:#04x} len {len}");
                assert_eq!(update_table(start, prefix), want, "table {case}");
                if let Some(got) = update_clmul(start, prefix) {
                    assert_eq!(got, want, "clmul {case}");
                    clmul_checked += 1;
                }
                assert_eq!(update(start, prefix), want, "dispatch {case}");
            }
        }
        // Where the CPU has the instructions, every case ran on both.
        assert!(clmul_checked == 0 || clmul_checked == 3 * 2049);
    }

    #[test]
    fn streaming_in_random_splits_matches_the_reference() {
        let mut rng = netfi_sim::DetRng::new(0xC8C8_0002);
        for _ in 0..256 {
            let len = rng.gen_index(2049);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut acc = Crc8::new();
            let mut at = 0;
            while at < len {
                let step = 1 + rng.gen_index(len - at);
                acc.update(&data[at..at + step]);
                at += step;
            }
            assert_eq!(acc.finish(), checksum_bitwise(&data), "len {len}");
        }
    }

    #[test]
    fn slice_by_8_matches_reference_on_boundary_inputs() {
        for pattern in [0x00u8, 0xFF, 0xAA, 0x55, 0x80, 0x01] {
            for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
                let data = vec![pattern; len];
                assert_eq!(
                    checksum(&data),
                    checksum_bitwise(&data),
                    "pattern {pattern:02x} len {len}"
                );
            }
        }
    }

    #[test]
    fn known_check_value() {
        // CRC-8 (poly 0x07, init 0, no reflection, no xor-out) of
        // "123456789" is 0xF4.
        assert_eq!(checksum(b"123456789"), 0xF4);
    }

    #[test]
    fn empty_input() {
        assert_eq!(checksum(&[]), 0);
    }

    #[test]
    fn appended_crc_verifies() {
        let mut buf = b"hello myrinet".to_vec();
        let crc = checksum(&buf);
        buf.push(crc);
        assert!(verify(&buf));
    }

    #[test]
    fn verify_rejects_empty() {
        assert!(!verify(&[]));
    }

    #[test]
    fn single_bit_errors_always_detected() {
        // CRC-8 detects all single-bit errors.
        let mut buf = b"some packet payload data".to_vec();
        let crc = checksum(&buf);
        buf.push(crc);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupted = buf.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(!verify(&corrupted), "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn burst_errors_up_to_8_bits_detected() {
        // CRC-8 detects all burst errors of length <= 8.
        let mut buf = vec![0xA5; 32];
        let crc = checksum(&buf);
        buf.push(crc);
        for start in 0..(buf.len() * 8 - 8) {
            // an 8-bit burst with both endpoints flipped
            let mut corrupted = buf.clone();
            for offset in [0usize, 3, 7] {
                let bit = start + offset;
                corrupted[bit / 8] ^= 1 << (bit % 8);
            }
            assert!(!verify(&corrupted), "missed burst at {start}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        for split in [0usize, 1, 17, 128, 255, 256] {
            let mut acc = Crc8::new();
            acc.update(&data[..split]);
            acc.update(&data[split..]);
            assert_eq!(acc.finish(), checksum(&data));
        }
    }

    #[test]
    fn route_byte_strip_recompute() {
        // The switch behaviour: strip the leading byte, recompute.
        let packet = b"\x81\x00\x00\x00\x04payload".to_vec();
        let crc_full = checksum(&packet);
        let stripped = &packet[1..];
        let crc_stripped = checksum(stripped);
        // Both are valid CRCs of their respective contents.
        let mut full = packet.clone();
        full.push(crc_full);
        assert!(verify(&full));
        let mut short = stripped.to_vec();
        short.push(crc_stripped);
        assert!(verify(&short));
        assert_ne!(crc_full, crc_stripped);
    }
}
