//! CRC-32 (IEEE 802.3 / FC-PH), the frame check sequence of Fibre Channel.
//!
//! Reflected algorithm, polynomial `0x04C11DB7`, initial value and final
//! XOR of all-ones — the exact CRC Fibre Channel frames carry between
//! header and EOF.

const POLY_REFLECTED: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time (Sarwate) table; `TABLES[k]` propagates that
/// byte's effect through `k` further zero bytes, so each iteration folds
/// eight input bytes with eight independent lookups instead of a serial
/// byte-by-byte dependency chain.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
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
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds `data` into the running (pre-inversion) register value, eight
/// bytes at a time.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Computes the CRC-32 of `data`.
///
/// # Example
///
/// ```
/// use netfi_fc::crc32::checksum;
/// assert_eq!(checksum(b"123456789"), 0xCBF4_3926); // the standard check value
/// ```
pub fn checksum(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Verifies `data` whose last four bytes are its little-endian CRC-32.
pub fn verify(data_with_crc: &[u8]) -> bool {
    if data_with_crc.len() < 4 {
        return false;
    }
    let (body, crc_bytes) = data_with_crc.split_at(data_with_crc.len() - 4);
    let Ok(arr) = <[u8; 4]>::try_from(crc_bytes) else {
        return false;
    };
    checksum(body) == u32::from_le_bytes(arr)
}

/// Rewrites the last four bytes of `data_with_crc` as the little-endian
/// CRC-32 of the bytes before them, so [`verify`] passes again: the repair
/// a device makes after corrupting an FC frame body. A slice shorter than
/// four bytes is left as it is.
pub fn reseal(data_with_crc: &mut [u8]) {
    let Some(crc_at) = data_with_crc.len().checked_sub(4) else {
        return;
    };
    let (body, crc_bytes) = data_with_crc.split_at_mut(crc_at);
    crc_bytes.copy_from_slice(&checksum(body).to_le_bytes());
}

/// A streaming CRC-32 accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    crc: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates an accumulator at the initial state.
    pub fn new() -> Crc32 {
        Crc32 { crc: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.crc = update(self.crc, data);
    }

    /// The CRC of everything fed so far.
    pub fn finish(self) -> u32 {
        self.crc ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original bit-serial implementation, kept as the reference the
    /// slice-by-8 path is checked bit-identical against.
    fn checksum_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_8_matches_reference_on_random_inputs() {
        let mut rng = netfi_sim::DetRng::new(0x32C3_2C32);
        for len in 0..64usize {
            for _ in 0..8 {
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                assert_eq!(checksum(&data), checksum_bitwise(&data), "len {len}");
            }
        }
        for len in [65usize, 127, 128, 129, 2112, 2116] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(checksum(&data), checksum_bitwise(&data), "len {len}");
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
    fn standard_check_value() {
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(checksum(&[]), 0);
    }

    #[test]
    fn verify_roundtrip() {
        let mut buf = b"fibre channel frame".to_vec();
        let crc = checksum(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        assert!(verify(&buf));
        buf[3] ^= 0x80;
        assert!(!verify(&buf));
    }

    #[test]
    fn verify_rejects_short() {
        assert!(!verify(&[1, 2, 3]));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..200).collect();
        for split in [0usize, 1, 99, 200] {
            let mut acc = Crc32::new();
            acc.update(&data[..split]);
            acc.update(&data[split..]);
            assert_eq!(acc.finish(), checksum(&data));
        }
    }

    #[test]
    fn all_single_bit_errors_detected() {
        let mut buf = vec![0x5Au8; 64];
        let crc = checksum(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupted = buf.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(!verify(&corrupted), "missed {byte}:{bit}");
            }
        }
    }
}
