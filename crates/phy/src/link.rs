//! Point-to-point link model.
//!
//! A [`Link`] describes one full-duplex network segment: its signalling
//! rate and cable length (hence propagation delay). The link is a passive
//! descriptor — higher layers (the Myrinet network builder, the injector
//! device) consult it to schedule deliveries. Bit errors come from the
//! injector device, not from the link.

use netfi_sim::SimDuration;

/// Signal propagation speed in copper, ~5 ns/m (0.2 m/ns).
pub(crate) const PROPAGATION_PS_PER_METER: u64 = 5_000;

/// A full-duplex point-to-point link.
///
/// # Example
///
/// ```
/// use netfi_phy::Link;
/// // The paper's Myrinet LAN: 1.28 Gb/s links, ~3 m cables.
/// let link = Link::myrinet_san(3.0);
/// assert_eq!(link.data_rate_bps(), 1_280_000_000);
/// assert_eq!(link.propagation_delay().as_ps(), 15_000); // 15 ns
/// // One 8-bit character at 1.28 Gb/s: 6.25 ns.
/// assert_eq!(link.char_period().as_ps(), 6_250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    data_rate_bps: u64,
    cable_meters: f64,
    // Serialization/propagation times are consulted on every frame hop,
    // so the division by the data rate is decomposed once at construction:
    // one character is 8e12 / bps picoseconds, held as quotient and
    // remainder. `transfer_time` then reproduces the exact rounded-up
    // division with a multiply (plus one u64 divide only when the rate
    // does not divide 8e12 evenly — both Myrinet rates do).
    char8_q: u64,
    char8_r: u64,
    prop_ps: u64,
}

impl Link {
    /// Creates a link with the given data rate and cable length.
    ///
    /// # Panics
    ///
    /// Panics if `data_rate_bps` is zero or `cable_meters` is negative/NaN.
    pub fn new(data_rate_bps: u64, cable_meters: f64) -> Link {
        assert!(data_rate_bps > 0, "data rate must be non-zero");
        assert!(
            cable_meters >= 0.0 && cable_meters.is_finite(),
            "cable length must be a non-negative finite number"
        );
        const CHAR_BITS_PS: u64 = 8 * 1_000_000_000_000;
        Link {
            data_rate_bps,
            cable_meters,
            char8_q: CHAR_BITS_PS / data_rate_bps,
            char8_r: CHAR_BITS_PS % data_rate_bps,
            prop_ps: (cable_meters * PROPAGATION_PS_PER_METER as f64).round() as u64,
        }
    }

    /// The paper's primary target: Myrinet SAN at 1.28 Gb/s.
    pub fn myrinet_san(cable_meters: f64) -> Link {
        Link::new(1_280_000_000, cable_meters)
    }

    /// The paper's footnote-5 configuration: 640 Mb/s data rate (80 MB/s),
    /// where a character period is ~12.5 ns.
    pub fn myrinet_640(cable_meters: f64) -> Link {
        Link::new(640_000_000, cable_meters)
    }

    /// Data rate in bits per second.
    pub fn data_rate_bps(&self) -> u64 {
        self.data_rate_bps
    }

    /// Cable length in meters.
    pub fn cable_meters(&self) -> f64 {
        self.cable_meters
    }

    /// One-way propagation delay down the cable.
    pub fn propagation_delay(&self) -> SimDuration {
        SimDuration::from_ps(self.prop_ps)
    }

    /// The time one 8-bit character occupies the wire.
    pub fn char_period(&self) -> SimDuration {
        self.transfer_time(1)
    }

    /// The time `bytes` occupy the wire (serialization delay).
    ///
    /// Exactly `SimDuration::from_bits(bytes * 8, rate)` — with
    /// `8e12 = q·rate + r`, `ceil(n·8e12 / rate) = n·q + ceil(n·r / rate)`
    /// — but the division is precomputed, so the common case is a single
    /// multiply.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        let n = bytes as u64;
        match (n.checked_mul(self.char8_q), n.checked_mul(self.char8_r)) {
            (Some(whole), Some(0)) => SimDuration::from_ps(whole),
            (Some(whole), Some(rem)) => {
                SimDuration::from_ps(whole.saturating_add(rem.div_ceil(self.data_rate_bps)))
            }
            _ => SimDuration::from_bits(n * 8, self.data_rate_bps),
        }
    }

    /// Total first-bit-in to last-bit-out latency for a `bytes`-long frame.
    pub fn frame_latency(&self, bytes: usize) -> SimDuration {
        self.propagation_delay() + self.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_rates() {
        assert_eq!(Link::myrinet_san(1.0).data_rate_bps(), 1_280_000_000);
        assert_eq!(Link::myrinet_640(1.0).data_rate_bps(), 640_000_000);
    }

    #[test]
    fn char_period_matches_paper_footnote() {
        // Paper: at 80 MB/s (640 Mb/s) a character period is roughly 12.5 ns.
        assert_eq!(Link::myrinet_640(1.0).char_period().as_ps(), 12_500);
    }

    #[test]
    fn propagation_scales_with_length() {
        // Paper: "the latency caused by the extra 1 m of cable (which is
        // negligible)" — 5 ns here.
        assert_eq!(Link::myrinet_san(1.0).propagation_delay().as_ps(), 5_000);
        assert_eq!(Link::myrinet_san(10.0).propagation_delay().as_ps(), 50_000);
        assert_eq!(Link::myrinet_san(0.0).propagation_delay().as_ps(), 0);
    }

    #[test]
    fn transfer_time_is_linear_in_bytes() {
        let link = Link::myrinet_san(0.0);
        assert_eq!(link.transfer_time(0), SimDuration::ZERO);
        assert_eq!(link.transfer_time(16).as_ps(), 100_000); // 128 bits @ 1.28Gb/s
        assert_eq!(
            link.frame_latency(16),
            link.transfer_time(16) + link.propagation_delay()
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_rate() {
        let _ = Link::new(0, 1.0);
    }
}
