//! The sampled parameter space: what one injection point *is*, and how
//! points are drawn.
//!
//! A statistical campaign does not enumerate faults — it draws them. Each
//! [`InjectionPoint`] is one experiment: arm the injector's trigger at a
//! drawn simulated time, on a drawn link direction, against a drawn
//! 32-bit window of the campaign datagram (or a drawn control-symbol
//! swap), with a drawn corruption function and a drawn CRC-refresh
//! setting. The draw is a pure function of `(seed, index)`: point `i` is
//! read from its own [`DetRng`] substream (`DetRng::new(seed).fork(i)`),
//! so growing a campaign from 512 to 2048 points extends it without
//! re-rolling the first 512, and any worker may draw any point without
//! coordination.

use netfi_core::command::DirSelect;
use netfi_phy::ControlSymbol;
use netfi_sim::DetRng;

/// Which datapath the drawn fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The packet datapath: a 32-bit compare window over the campaign
    /// datagram's wire bytes, corrupted in the FIFO.
    Data,
    /// The control-symbol path: one drawn symbol swap (GAP/STOP/GO/IDLE),
    /// the paper's §4.3.1 fault family.
    Control,
}

/// The drawn corruption function for a data-plane point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Toggle a single drawn bit of the matched 32-bit segment — never
    /// aliases the UDP one's-complement checksum.
    Toggle,
    /// Replace the matched segment with its two 16-bit halves swapped —
    /// the paper's §4.3.4 aliasing corruption. When the window is aligned
    /// to the datagram's 16-bit word grid the checksum is order-invariant
    /// and the corruption is delivered; misaligned, it is detected.
    WordSwap,
}

/// The nine control-symbol swap rows of the paper's Table 4, in a fixed
/// draw order.
pub(crate) const CONTROL_SWAPS: [(ControlSymbol, ControlSymbol); 9] = [
    (ControlSymbol::Stop, ControlSymbol::Idle),
    (ControlSymbol::Stop, ControlSymbol::Gap),
    (ControlSymbol::Stop, ControlSymbol::Go),
    (ControlSymbol::Gap, ControlSymbol::Go),
    (ControlSymbol::Gap, ControlSymbol::Idle),
    (ControlSymbol::Gap, ControlSymbol::Stop),
    (ControlSymbol::Go, ControlSymbol::Idle),
    (ControlSymbol::Go, ControlSymbol::Gap),
    (ControlSymbol::Go, ControlSymbol::Stop),
];

/// One drawn fault-injection experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionPoint {
    /// Position in the campaign (the draw's substream key).
    pub index: u64,
    /// Arming delay, in nanoseconds after the fault stream begins. The
    /// trigger is armed `Once` at this instant over the device's serial
    /// line; draws beyond the stream's tail are expected to stay masked.
    pub t_arm_ns: u64,
    /// Which link direction of the intercepted host the trigger watches.
    pub dir: DirSelect,
    /// Data-segment or control-symbol fault.
    pub plane: Plane,
    /// Byte offset of the 32-bit compare window into the campaign
    /// datagram's wire image (header + payload).
    pub offset: usize,
    /// Bit position (0–31) toggled by [`CorruptKind::Toggle`].
    pub bit: u32,
    /// The drawn corruption function.
    pub mode: CorruptKind,
    /// Whether the device recomputes the link CRC-8 after corrupting, so
    /// the fault survives the link layer.
    pub crc_refresh: bool,
    /// Index into `CONTROL_SWAPS` for control-plane points.
    pub control_swap: usize,
}

impl InjectionPoint {
    /// The control-symbol pair a control-plane point swaps.
    pub fn swap(&self) -> (ControlSymbol, ControlSymbol) {
        CONTROL_SWAPS[self.control_swap % CONTROL_SWAPS.len()]
    }
}

/// Number of distinct 32-bit windows over a wire image of `len` bytes.
pub(crate) fn window_count(len: usize) -> usize {
    len.saturating_sub(3)
}

/// Draws point `index` of the campaign keyed by `seed`, over a datagram
/// wire image of `wire_len` bytes and an arming window of `arm_span_ns`
/// nanoseconds.
///
/// Every dimension comes from the point's private [`DetRng`] substream in
/// a fixed order, so the draw is independent of worker count, batch size
/// and campaign length.
///
/// # Panics
///
/// Panics if `wire_len < 4` or `arm_span_ns == 0`.
pub fn draw_point(seed: u64, index: u64, wire_len: usize, arm_span_ns: u64) -> InjectionPoint {
    assert!(wire_len >= 4, "wire image too short for a 32-bit window");
    let mut rng = DetRng::new(seed).fork(index);
    // Both directions carry a campaign stream (forward into the
    // intercepted host, reverse out of it), so the direction draw is
    // even; the masked population comes from late arming draws and
    // control swaps whose symbol never occurs.
    let dir = if rng.gen_bool(0.5) {
        DirSelect::B
    } else {
        DirSelect::A
    };
    let plane = if rng.gen_bool(0.75) {
        Plane::Data
    } else {
        Plane::Control
    };
    let offset = rng.gen_index(window_count(wire_len));
    let bit = rng.gen_range(0..32) as u32;
    let mode = if rng.gen_bool(0.5) {
        CorruptKind::Toggle
    } else {
        CorruptKind::WordSwap
    };
    let crc_refresh = rng.gen_bool(0.5);
    let control_swap = rng.gen_index(CONTROL_SWAPS.len());
    let t_arm_ns = rng.gen_range(0..arm_span_ns);
    InjectionPoint {
        index,
        t_arm_ns,
        dir,
        plane,
        offset,
        bit,
        mode,
        crc_refresh,
        control_swap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_deterministic_and_index_keyed() {
        let a = draw_point(11, 7, 26, 1_000_000);
        let b = draw_point(11, 7, 26, 1_000_000);
        assert_eq!(a, b);
        let c = draw_point(11, 8, 26, 1_000_000);
        assert_ne!(a, c);
    }

    #[test]
    fn growing_the_campaign_preserves_early_points() {
        // Points are substream-keyed, not drawn from one shared stream:
        // the first 16 points of a 512-point campaign are the 16-point
        // campaign.
        let small: Vec<_> = (0..16).map(|i| draw_point(3, i, 26, 1_000)).collect();
        let large: Vec<_> = (0..512).map(|i| draw_point(3, i, 26, 1_000)).collect();
        assert_eq!(small[..], large[..16]);
    }

    #[test]
    fn draws_cover_the_space() {
        let points: Vec<_> = (0..512).map(|i| draw_point(11, i, 26, 1_000_000)).collect();
        assert!(points.iter().any(|p| p.dir == DirSelect::A));
        assert!(points.iter().any(|p| p.dir == DirSelect::B));
        assert!(points.iter().any(|p| p.plane == Plane::Control));
        assert!(points.iter().any(|p| p.mode == CorruptKind::Toggle));
        assert!(points.iter().any(|p| p.mode == CorruptKind::WordSwap));
        assert!(points.iter().any(|p| p.crc_refresh));
        assert!(points.iter().any(|p| !p.crc_refresh));
        // Every window offset of the 26-byte campaign datagram is drawn.
        let mut seen = [false; 23];
        for p in &points {
            seen[p.offset] = true;
            assert!(p.bit < 32);
            assert!(p.t_arm_ns < 1_000_000);
        }
        assert!(seen.iter().all(|&s| s), "offsets missed: {seen:?}");
    }
}
