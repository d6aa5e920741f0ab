//! The workspace's one fingerprint fold: 64-bit FNV-1a.
//!
//! Campaign fingerprints and fabric digests only ever answer "did two runs
//! render the same bytes?", so a non-cryptographic hash is enough. What
//! matters is that every site folds the same way: a fingerprint is a
//! function of the byte sequence written, not of how the writes were split.

/// An incremental 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use netfi_sim::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, one at a time: xor, then multiply by the prime.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `value` in as its eight little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn split_writes_equal_one_write() {
        let bytes = b"the quick brown fox";
        for cut in 0..=bytes.len() {
            let mut h = Fnv1a::new();
            h.write(&bytes[..cut]);
            h.write(&bytes[cut..]);
            assert_eq!(h.finish(), hash(bytes), "cut {cut}");
        }
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), hash(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
