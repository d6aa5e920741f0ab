//! N_Port pairs with buffer-to-buffer credit flow control.
//!
//! Fibre Channel class-3 flow control: a sender may transmit one frame per
//! buffer-to-buffer credit; the receiver returns an `R_RDY` primitive for
//! each buffer it frees. This is FC's analogue of Myrinet's STOP/GO slack
//! buffer, and gives the injector's FC interface a second flow-control
//! protocol to observe and corrupt.

use std::collections::VecDeque;

use crate::frame::FcFrame;

/// Counters for one port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PortStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Frames accepted into receive buffers.
    pub rx_frames: u64,
    /// Frames discarded because no receive buffer was free (class 3 has
    /// no retransmission — the frame is simply lost).
    pub rx_discards: u64,
    /// R_RDY primitives emitted.
    pub r_rdy_sent: u64,
    /// R_RDY primitives consumed (credits returned).
    pub r_rdy_received: u64,
}

/// One end of a Fibre Channel link.
#[derive(Debug, Clone)]
pub struct NPort {
    /// Credits currently available for transmission.
    credits: u32,
    /// Configured login credit (BB_Credit).
    bb_credit: u32,
    /// Frames waiting for credit.
    tx_queue: VecDeque<FcFrame>,
    /// Receive buffers: frames awaiting the host.
    rx_buffers: VecDeque<FcFrame>,
    /// Number of receive buffers advertised.
    rx_capacity: usize,
    stats: PortStats,
}

impl NPort {
    /// Creates a port with the given login credit / buffer count.
    ///
    /// # Panics
    ///
    /// Panics if `bb_credit` is zero.
    pub fn new(bb_credit: u32) -> NPort {
        assert!(bb_credit > 0, "BB_Credit must be at least 1");
        NPort {
            credits: bb_credit,
            bb_credit,
            tx_queue: VecDeque::new(),
            rx_buffers: VecDeque::new(),
            rx_capacity: bb_credit as usize,
            stats: PortStats::default(),
        }
    }

    /// Available transmit credits.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Frames waiting for credit.
    pub fn tx_backlog(&self) -> usize {
        self.tx_queue.len()
    }

    /// Queues a frame and returns every frame that may be transmitted now
    /// (the queued one and/or earlier backlog, credit permitting).
    pub fn send(&mut self, frame: FcFrame) -> Vec<FcFrame> {
        self.tx_queue.push_back(frame);
        self.drain_tx()
    }

    /// Consumes one received `R_RDY`, returning newly transmittable
    /// frames.
    pub fn on_r_rdy(&mut self) -> Vec<FcFrame> {
        self.stats.r_rdy_received += 1;
        // Credits never exceed the login value.
        if self.credits < self.bb_credit {
            self.credits += 1;
        }
        self.drain_tx()
    }

    /// Handles an arriving frame. Returns `true` and records an `R_RDY`
    /// obligation if a buffer was free; `false` (frame lost) otherwise.
    pub fn receive(&mut self, frame: FcFrame) -> bool {
        if self.rx_buffers.len() >= self.rx_capacity {
            self.stats.rx_discards += 1;
            return false;
        }
        self.rx_buffers.push_back(frame);
        self.stats.rx_frames += 1;
        true
    }

    /// The host drains one received frame, freeing a buffer; the freed
    /// buffer generates an `R_RDY` to send back (counted here).
    pub fn deliver(&mut self) -> Option<FcFrame> {
        let frame = self.rx_buffers.pop_front()?;
        self.stats.r_rdy_sent += 1;
        Some(frame)
    }

    fn drain_tx(&mut self) -> Vec<FcFrame> {
        let mut out = Vec::new();
        while self.credits > 0 {
            let Some(frame) = self.tx_queue.pop_front() else {
                break;
            };
            self.credits -= 1;
            self.stats.tx_frames += 1;
            out.push(frame);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FcAddress;

    fn frame(n: u16) -> FcFrame {
        FcFrame::data(FcAddress::new(1), FcAddress::new(2), n, vec![n as u8; 8])
    }

    #[test]
    fn credit_limits_in_flight_frames() {
        let mut port = NPort::new(2);
        let sent: usize = (0..5).map(|i| port.send(frame(i)).len()).sum();
        assert_eq!(sent, 2, "only BB_Credit frames may fly");
        assert_eq!(port.tx_backlog(), 3);
        assert_eq!(port.credits(), 0);
    }

    #[test]
    fn r_rdy_releases_backlog() {
        let mut port = NPort::new(1);
        assert_eq!(port.send(frame(0)).len(), 1);
        assert_eq!(port.send(frame(1)).len(), 0);
        let released = port.on_r_rdy();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].header.seq_cnt, 1);
    }

    #[test]
    fn credits_capped_at_login_value() {
        let mut port = NPort::new(2);
        // Spurious extra R_RDYs (e.g. injected by the device) must not
        // inflate credit beyond the login value.
        for _ in 0..10 {
            let _ = port.on_r_rdy();
        }
        assert_eq!(port.credits(), 2);
    }

    #[test]
    fn receive_discards_when_buffers_full() {
        let mut port = NPort::new(2);
        assert!(port.receive(frame(0)));
        assert!(port.receive(frame(1)));
        assert!(!port.receive(frame(2)), "no buffer, class-3 discard");
        assert_eq!(port.stats.rx_discards, 1);
        // Draining frees buffers and owes an R_RDY.
        assert!(port.deliver().is_some());
        assert_eq!(port.stats.r_rdy_sent, 1);
        assert!(port.receive(frame(3)));
    }

    #[test]
    fn lost_r_rdy_starves_the_sender() {
        // The FC analogue of a corrupted GO symbol: if the device eats
        // R_RDYs, the sender eventually cannot transmit at all.
        let mut sender = NPort::new(2);
        let mut flying = 0;
        for i in 0..4 {
            flying += sender.send(frame(i)).len();
        }
        assert_eq!(flying, 2);
        // No R_RDY ever arrives: backlog never drains.
        assert_eq!(sender.tx_backlog(), 2);
        assert_eq!(sender.credits(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_credit_rejected() {
        let _ = NPort::new(0);
    }
}
