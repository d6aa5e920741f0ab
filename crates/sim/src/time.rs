//! Simulated time.
//!
//! Time is kept in **picoseconds** as a `u64`. That gives a little over 213
//! days of simulated time, with exact representation of the quantities the
//! paper cares about: a Myrinet character period of 12.5 ns at 80 MB/s
//! (12_500 ps), cable propagation of ~5 ns/m, and multi-second mapping
//! rounds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant in simulated time, measured in picoseconds from the start of
/// the simulation.
///
/// # Example
///
/// ```
/// use netfi_sim::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_ns(12) + SimDuration::from_ps(500);
/// assert_eq!(t.as_ps(), 12_500);
/// assert_eq!(format!("{t}"), "12.500ns");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in picoseconds.
///
/// # Example
///
/// ```
/// use netfi_sim::SimDuration;
/// let char_period = SimDuration::from_ps(12_500); // 12.5 ns @ 80 MB/s
/// assert_eq!(char_period * 16, SimDuration::from_ns(200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ps` picoseconds after the origin.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant `ns` nanoseconds after the origin.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates an instant `us` microseconds after the origin.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates an instant `ms` milliseconds after the origin.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates an instant `s` seconds after the origin.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Picoseconds since the origin.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; checked_duration_since is the fallible form"
    )]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Time elapsed since `earlier`, or `None` if `earlier > self`.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Saturating subtraction of a duration (clamps at the origin).
    pub fn saturating_sub_duration(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Creates a duration of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000_000)
    }

    /// The time needed to transfer `bits` at `bits_per_sec`, rounded up to
    /// the next picosecond.
    ///
    /// # Example
    ///
    /// ```
    /// use netfi_sim::SimDuration;
    /// // One 9-bit Myrinet character at 1.28 Gb/s link signalling and
    /// // 8 data bits per character period of 12.5ns:
    /// let d = SimDuration::from_bits(8, 640_000_000);
    /// assert_eq!(d, SimDuration::from_ps(12_500));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; a >213-day transfer is a caller bug"
    )]
    pub fn from_bits(bits: u64, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "bits_per_sec must be non-zero");
        // ps = bits * 1e12 / bps. Any realistic transfer (bits < ~1.8e7,
        // i.e. anything under ~2 MB) fits the product in u64, where the
        // rounded-up division is a single hardware divide; the u128 path
        // (a software `__udivti3` call) is only the overflow fallback.
        if let Some(product) = bits.checked_mul(1_000_000_000_000) {
            return SimDuration(product.div_ceil(bits_per_sec));
        }
        let ps = (bits as u128 * 1_000_000_000_000u128).div_ceil(bits_per_sec as u128);
        SimDuration(u64::try_from(ps).expect("duration overflows u64 picoseconds"))
    }

    /// Picoseconds in this duration.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds in this duration, as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds in this duration, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; overflow is a bug"
    )]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; underflow is a bug"
    )]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.duration_since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; overflow is a bug"
    )]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; underflow is a bug"
    )]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimDuration underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; overflow is a bug"
    )]
    fn mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(n).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    fn div(self, other: SimDuration) -> u64 {
        self.0 / other.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 % other.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == 0 {
        return write!(f, "0ps");
    }
    if ps.is_multiple_of(1_000_000_000_000) {
        write!(f, "{}s", ps / 1_000_000_000_000)
    } else if ps >= 1_000_000_000_000 {
        write!(f, "{:.6}s", ps as f64 / 1e12)
    } else if ps >= 1_000_000_000 {
        write!(f, "{:.3}ms", ps as f64 / 1e9)
    } else if ps >= 1_000_000 {
        write!(f, "{:.3}us", ps as f64 / 1e6)
    } else if ps >= 1_000 {
        write!(f, "{:.3}ns", ps as f64 / 1e3)
    } else {
        write!(f, "{ps}ps")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
        assert_eq!(SimDuration::from_ns(5).as_ps(), 5_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(30);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.duration_since(SimTime::ZERO), SimDuration::from_ns(100));
    }

    #[test]
    fn duration_since_checked() {
        let early = SimTime::from_ns(1);
        let late = SimTime::from_ns(2);
        assert_eq!(late.checked_duration_since(early), Some(SimDuration::from_ns(1)));
        assert_eq!(early.checked_duration_since(late), None);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::from_ns(1).duration_since(SimTime::from_ns(2));
    }

    #[test]
    fn from_bits_matches_character_period() {
        // Paper: at 80 MB/s a character period is roughly 12.5 ns.
        let d = SimDuration::from_bits(8, 640_000_000);
        assert_eq!(d.as_ps(), 12_500);
        // 1.28 Gb/s data rate: a 32-bit segment takes 25 ns.
        let seg = SimDuration::from_bits(32, 1_280_000_000);
        assert_eq!(seg.as_ps(), 25_000);
    }

    #[test]
    fn from_bits_rounds_up() {
        // 1 bit at 3 bps = 333_333_333_333.33.. ps, rounds up.
        let d = SimDuration::from_bits(1, 3);
        assert_eq!(d.as_ps(), 333_333_333_334);
    }

    #[test]
    fn duration_division_and_modulo() {
        let d = SimDuration::from_ns(100);
        assert_eq!(d / SimDuration::from_ns(30), 3);
        assert_eq!(d % SimDuration::from_ns(30), SimDuration::from_ns(10));
        assert_eq!(d / 4, SimDuration::from_ns(25));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::ZERO), "0ps");
        assert_eq!(format!("{}", SimDuration::from_ps(17)), "17ps");
        assert_eq!(format!("{}", SimDuration::from_ps(12_500)), "12.500ns");
        assert_eq!(format!("{}", SimDuration::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }
}
