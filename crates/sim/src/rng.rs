//! Deterministic, splittable pseudo-random numbers.
//!
//! Every stochastic element of a `netfi` experiment draws from a [`DetRng`]
//! seeded explicitly by the campaign, so reruns are bit-identical. The
//! generator is xoshiro256\*\* seeded through SplitMix64 — the combination
//! recommended by the xoshiro authors — implemented here directly so the
//! kernel has no external dependencies.

/// A deterministic PRNG (xoshiro256\*\*, SplitMix64-seeded).
///
/// # Example
///
/// ```
/// use netfi_sim::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut stream = a.fork(7); // independent substream, still deterministic
/// let _ = stream.gen_range(0..10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent substream keyed by `stream`.
    ///
    /// Forking with distinct keys from the same parent yields decorrelated
    /// generators; the parent is unaffected.
    pub fn fork(&self, stream: u64) -> DetRng {
        // Mix the current state with the stream key through SplitMix64.
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly random value in `range` (Lemire's method, bias-free).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = range.end - range.start;
        // Lemire rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                lo = m as u64;
            }
        }
        range.start + (m >> 64) as u64
    }

    /// A random `usize` index below `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn gen_index(&mut self, len: usize) -> usize {
        self.gen_range(0..len as u64) as usize
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0,1]");
        self.gen_f64() < p
    }

    /// A uniformly random float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Chooses a uniformly random element of `slice`.
    ///
    /// Returns `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let parent = DetRng::new(99);
        let mut f1 = parent.fork(1);
        let mut f1b = parent.fork(1);
        let mut f2 = parent.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = DetRng::new(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_whole_range() {
        let mut rng = DetRng::new(7);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        DetRng::new(0).gen_range(5..5);
    }

    #[test]
    fn gen_bool_probability_is_roughly_right() {
        let mut rng = DetRng::new(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = DetRng::new(13);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(17);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = DetRng::new(19);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}
