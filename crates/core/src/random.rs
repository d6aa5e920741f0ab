//! Random fault injection — the first fault model of §3.1: "Random faults
//! causing bit flip errors for system availability and fault tolerance
//! characterization under SEU conditions."
//!
//! The hardware implementation is an LFSR compared against a programmable
//! threshold each 32-bit segment; on a hit, one bit of the segment is
//! flipped. We model exactly that: a 32-bit Galois LFSR (taps per the
//! maximal-length polynomial x³²+x²²+x²+x+1), an integer threshold out of
//! 2³², and LFSR-selected bit positions — fully deterministic per seed, as
//! befits reproducible campaigns.

/// A 32-bit maximal-length Galois LFSR, the hardware's randomness source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lfsr32 {
    state: u32,
}

impl Lfsr32 {
    /// Taps for x³² + x²² + x² + x + 1 (maximal length).
    const TAPS: u32 = 0x8020_0003;

    /// Creates an LFSR; a zero seed is mapped to the all-ones state (an
    /// LFSR must never be zero).
    pub fn new(seed: u32) -> Lfsr32 {
        Lfsr32 {
            state: if seed == 0 { 0xFFFF_FFFF } else { seed },
        }
    }

    /// Advances one step and returns the new state.
    pub fn next(&mut self) -> u32 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb != 0 {
            self.state ^= Self::TAPS;
        }
        self.state
    }

    /// Advances a full word period (32 steps) and returns the state: the
    /// hardware clocks the LFSR once per bit time, i.e. 32 steps per
    /// segment, so successive per-segment samples share no register bits.
    pub(crate) fn next_word(&mut self) -> u32 {
        for _ in 0..31 {
            self.next();
        }
        self.next()
    }
}

/// Configuration of the random (SEU) injection unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomInject {
    /// Per-32-bit-segment flip probability, as a numerator over 2³²
    /// (integer, so the config stays `Eq` and matches the hardware's
    /// threshold-register design).
    pub threshold: u32,
}

impl RandomInject {
    /// A unit whose per-segment flip probability approximates `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub(crate) fn with_probability(p: f64) -> RandomInject {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        RandomInject {
            threshold: (p * u32::MAX as f64) as u32,
        }
    }
}

/// The runtime state of the random injector: LFSR + threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RandomUnit {
    config: RandomInject,
    lfsr: Lfsr32,
}

impl RandomUnit {
    /// Creates a unit with the given configuration and LFSR seed.
    pub fn new(config: RandomInject, seed: u32) -> RandomUnit {
        RandomUnit {
            config,
            lfsr: Lfsr32::new(seed),
        }
    }

    /// Decides, for one 32-bit segment, whether to flip a bit; returns the
    /// bit index (0–31) to flip, if any.
    pub(crate) fn draw(&mut self) -> Option<u32> {
        if self.config.threshold == 0 {
            return None;
        }
        let roll = self.lfsr.next_word();
        if roll < self.config.threshold {
            Some(self.lfsr.next_word() & 31)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_never_zero_and_periodic() {
        let mut l = Lfsr32::new(1);
        let mut seen_zero = false;
        for _ in 0..100_000 {
            if l.next() == 0 {
                seen_zero = true;
            }
        }
        assert!(!seen_zero);
        // Zero seed handled.
        let mut z = Lfsr32::new(0);
        assert_ne!(z.next(), 0);
    }

    #[test]
    fn lfsr_deterministic() {
        let mut a = Lfsr32::new(42);
        let mut b = Lfsr32::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn zero_threshold_never_fires() {
        let mut u = RandomUnit::new(RandomInject { threshold: 0 }, 7);
        for _ in 0..10_000 {
            assert_eq!(u.draw(), None);
        }
    }

    #[test]
    fn full_threshold_always_fires() {
        let mut u = RandomUnit::new(RandomInject { threshold: u32::MAX }, 7);
        for _ in 0..1_000 {
            let bit = u.draw();
            assert!(bit.is_some());
            assert!(bit.unwrap() < 32);
        }
    }

    #[test]
    fn hit_rate_tracks_threshold() {
        let p = 0.125;
        let mut u = RandomUnit::new(RandomInject::with_probability(p), 99);
        let n = 200_000;
        let hits = (0..n).filter(|_| u.draw().is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn probability_roundtrip() {
        let r = RandomInject::with_probability(0.25);
        assert!((f64::from(r.threshold) / f64::from(u32::MAX) - 0.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let _ = RandomInject::with_probability(1.5);
    }
}
