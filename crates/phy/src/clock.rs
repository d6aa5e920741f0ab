//! Two-phase clocking for the FIFO injector datapath.
//!
//! The paper's injector uses a two-phase operation (Figures 2 and 3): on the
//! *odd* clock cycle data is pushed onto / pulled from the FIFO and shifted
//! into the compare registers; on the *even* cycle the compare result is
//! available and matching data is overwritten in the FIFO. This module gives
//! that clocking a small, testable model used by `netfi-core`.

use netfi_sim::SimDuration;

/// The phase of the injector's two-phase clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockPhase {
    /// FIFO push and pull; compare starts (paper Figure 2).
    Odd,
    /// Compare result available; inject/overwrite in the FIFO (Figure 3).
    Even,
}

impl ClockPhase {
    /// The other phase.
    pub(crate) const fn toggled(self) -> ClockPhase {
        match self {
            ClockPhase::Odd => ClockPhase::Even,
            ClockPhase::Even => ClockPhase::Odd,
        }
    }
}

/// A free-running two-phase clock generator.
///
/// # Example
///
/// ```
/// use netfi_phy::clock::{ClockGenerator, ClockPhase};
/// use netfi_sim::SimDuration;
///
/// // A 100 MHz FPGA clock: 10 ns per cycle.
/// let mut clk = ClockGenerator::new(SimDuration::from_ns(10));
/// assert_eq!(clk.tick(), ClockPhase::Odd);
/// assert_eq!(clk.tick(), ClockPhase::Even);
/// assert_eq!(clk.cycles(), 2);
/// assert_eq!(clk.elapsed(), SimDuration::from_ns(20));
/// ```
#[derive(Debug, Clone)]
pub struct ClockGenerator {
    period: SimDuration,
    next_phase: ClockPhase,
    cycles: u64,
}

impl ClockGenerator {
    /// Creates a generator with the given cycle period, starting on the odd
    /// phase.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> ClockGenerator {
        assert!(period > SimDuration::ZERO, "clock period must be non-zero");
        ClockGenerator {
            period,
            next_phase: ClockPhase::Odd,
            cycles: 0,
        }
    }

    /// Creates a generator from a frequency in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u64) -> ClockGenerator {
        assert!(hz > 0, "clock frequency must be non-zero");
        ClockGenerator::new(SimDuration::from_bits(1, hz))
    }

    /// The cycle period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Advances one cycle, returning the phase of the cycle just started.
    pub fn tick(&mut self) -> ClockPhase {
        let phase = self.next_phase;
        self.next_phase = phase.toggled();
        self.cycles += 1;
        phase
    }

    /// Total cycles ticked.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total time covered by the ticked cycles.
    pub fn elapsed(&self) -> SimDuration {
        self.period * self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_alternate() {
        let mut clk = ClockGenerator::new(SimDuration::from_ns(5));
        let phases: Vec<ClockPhase> = (0..6).map(|_| clk.tick()).collect();
        assert_eq!(
            phases,
            vec![
                ClockPhase::Odd,
                ClockPhase::Even,
                ClockPhase::Odd,
                ClockPhase::Even,
                ClockPhase::Odd,
                ClockPhase::Even,
            ]
        );
    }

    #[test]
    fn toggled_is_involutive() {
        assert_eq!(ClockPhase::Odd.toggled().toggled(), ClockPhase::Odd);
        assert_eq!(ClockPhase::Even.toggled(), ClockPhase::Odd);
    }

    #[test]
    fn from_hz_derives_period() {
        // The Virtex parts offer up to 200 MHz (paper §3.4): 5 ns period.
        let clk = ClockGenerator::from_hz(200_000_000);
        assert_eq!(clk.period(), SimDuration::from_ns(5));
    }

    #[test]
    fn elapsed_tracks_cycles() {
        let mut clk = ClockGenerator::from_hz(125_000_000); // the SDRAM clock
        for _ in 0..10 {
            clk.tick();
        }
        assert_eq!(clk.cycles(), 10);
        assert_eq!(clk.elapsed(), SimDuration::from_ns(80));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = ClockGenerator::new(SimDuration::ZERO);
    }
}
