//! Link transmission units.
//!
//! At frame granularity a Myrinet link carries two kinds of unit (paper
//! Figure 8): data packets — each normally terminated by a GAP control
//! symbol — and standalone control symbols (STOP / GO / IDLE) interleaved
//! with the packet stream by the flow-control hardware.
//!
//! The terminator travels *with* the packet frame here, as a raw control
//! code, so the fault injector can corrupt it exactly as the hardware
//! device corrupts the GAP character on the wire: a packet whose
//! terminator no longer decodes as GAP leaves its wormhole path occupied
//! (§4.3.1, "source blocking").
//!
//! A receiver that holds its sender stopped repeats STOP every 12
//! character periods. That repetition travels as one [`Frame::Train`]: the
//! first STOP names when the repeats come ([`TrainMark::Open`]), and the
//! GO that releases the sender — or a bare train end — says where they
//! stopped ([`TrainMark::Close`]). DESIGN.md §6 has the model.

use netfi_phy::ControlSymbol;
use netfi_sim::{SharedBytes, SimDuration, SimTime};

/// A packet as it travels a link: its raw wire image plus the control
/// symbol that terminates it.
///
/// The wire image is a [`SharedBytes`], so cloning a frame (switch
/// fan-out, capture snapshots, retransmission queues) bumps a reference
/// count instead of copying the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketFrame {
    /// The wire image: route bytes, type, payload, trailing CRC.
    pub bytes: SharedBytes,
    /// Raw code of the terminating control symbol, if one was transmitted.
    /// Normally `Some(0x0C)` (GAP); the injector may corrupt or swallow it.
    pub terminator: Option<u8>,
}

impl PacketFrame {
    /// A packet frame with the normal GAP terminator.
    pub fn new(bytes: impl Into<SharedBytes>) -> PacketFrame {
        PacketFrame {
            bytes: bytes.into(),
            terminator: Some(ControlSymbol::Gap.encode()),
        }
    }

    /// `true` if the terminator still decodes (tolerantly) as GAP.
    pub fn gap_terminated(&self) -> bool {
        self.terminator
            .and_then(ControlSymbol::decode_tolerant)
            == Some(ControlSymbol::Gap)
    }

    /// Wire length in characters: packet bytes plus the terminator.
    pub fn wire_len(&self) -> usize {
        self.bytes.len() + usize::from(self.terminator.is_some())
    }
}

/// What a [`Frame::Train`] says about the STOP repeats it stands for.
///
/// Times are picoseconds in a `u32`, which keeps [`Frame`] — and with it
/// every queued event — at its size; a refresh period of 12 character
/// periods fits for any link faster than 23 kb/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMark {
    /// The STOP this mark rides on opens a train: repeats arrive `first`
    /// after it, then every `period`, until a close.
    Open {
        /// Picoseconds from this STOP to the first repeat (at most one
        /// period).
        first: u32,
        /// Picoseconds between repeats.
        period: u32,
    },
    /// The train ends here: no repeat arrives after this frame.
    Close {
        /// Whether a repeat arriving at this frame's own instant, ahead of
        /// it, still belongs to the train (repeats at earlier instants
        /// always do).
        same_instant: bool,
    },
}

impl TrainMark {
    /// An [`Open`](TrainMark::Open) mark: the first repeat `first` after
    /// the STOP, then one every `period`.
    pub fn open(first: SimDuration, period: SimDuration) -> TrainMark {
        let ps = |d: SimDuration| u32::try_from(d.as_ps()).unwrap_or(u32::MAX);
        TrainMark::Open {
            first: ps(first),
            period: ps(period),
        }
    }
}

/// The repeats of an open train as seen at one place: the first arrives at
/// `first`, then one every `period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeats {
    /// Arrival of the first repeat.
    pub first: SimTime,
    /// Time between repeats.
    pub period: SimDuration,
}

impl Repeats {
    /// The repeats an [`Open`](TrainMark::Open) mark announces, seen from
    /// the instant `now` it arrives at. `None` for any other mark.
    pub fn announced(mark: TrainMark, now: SimTime) -> Option<Repeats> {
        match mark {
            TrainMark::Open { first, period } => Some(Repeats {
                first: now + SimDuration::from_ps(first.into()),
                period: SimDuration::from_ps(period.into()),
            }),
            TrainMark::Close { .. } => None,
        }
    }

    /// Arrival of repeat number `k` (from 0).
    pub fn at(&self, k: u64) -> SimTime {
        self.first + self.period * k
    }

    /// How many repeats arrive before `t`, or at `t` too when `inclusive`.
    pub fn count(&self, t: SimTime, inclusive: bool) -> u64 {
        let Some(span) = t.checked_duration_since(self.first) else {
            return 0;
        };
        let period = self.period.as_ps().max(1);
        match (span.as_ps(), inclusive) {
            (0, false) => 0,
            (span, true) => span / period + 1,
            (span, false) => (span - 1) / period + 1,
        }
    }

    /// Whether a repeat arrives at `t` exactly.
    pub(crate) fn falls_at(&self, t: SimTime) -> bool {
        self.count(t, true) != self.count(t, false)
    }
}

/// The standalone GAPs a receiver has seen on one link: the latest to
/// arrive, which truncates a packet whose serialization window it landed
/// in (DESIGN.md §6, decision 14), and how many have arrived, which ends a
/// wait for the GAP an unterminated packet owes. A GAP train — a STOP
/// train the injector swaps into GAP — counts as a GAP at each repeat
/// without a handler running for any: both answers are arithmetic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LastGap {
    /// The latest GAP of its own, or the last repeat of an ended train,
    /// unless a truncation consumed it.
    at: Option<SimTime>,
    /// GAPs of their own and repeats of ended trains that have arrived.
    seen: u64,
    /// The GAP train arriving, and how many of its repeats a truncation
    /// consumed.
    train: Option<(Repeats, u64)>,
}

impl LastGap {
    /// A GAP of its own arrived at `now`.
    pub(crate) fn arrive(&mut self, now: SimTime) {
        self.at = Some(now);
        self.seen += 1;
    }

    /// Handles the mark of a train frame arriving at `now` that carries
    /// `sym`: an open mark on a GAP starts a GAP train, and a close ends the
    /// one arriving. Call before handling the symbol itself.
    pub fn on_train(&mut self, now: SimTime, mark: TrainMark, sym: Option<ControlSymbol>) {
        match (Repeats::announced(mark, now), mark) {
            (Some(repeats), _) if sym == Some(ControlSymbol::Gap) => {
                self.train = Some((repeats, 0));
            }
            (None, TrainMark::Close { same_instant }) => self.close(now, same_instant),
            _ => {}
        }
    }

    /// Ends the GAP train arriving, if any, after the repeats that arrived
    /// before `now`, or by `now` when `inclusive`.
    pub fn close(&mut self, now: SimTime, inclusive: bool) {
        if let Some((repeats, _)) = self.train {
            self.at = self.latest(now, inclusive);
            self.seen += repeats.count(now, inclusive);
            self.train = None;
        }
    }

    /// The latest GAP to arrive before `now`, or by `now` when `inclusive`,
    /// unless a truncation consumed it.
    pub(crate) fn latest(&self, now: SimTime, inclusive: bool) -> Option<SimTime> {
        let repeat = self.train.and_then(|(repeats, consumed)| {
            let n = repeats.count(now, inclusive);
            (n > consumed).then(|| repeats.at(n - 1))
        });
        self.at.max(repeat)
    }

    /// A truncation at `now` consumed the latest GAP: no GAP that arrived
    /// before `now`, or by `now` when `inclusive`, truncates another packet.
    pub(crate) fn consume(&mut self, now: SimTime, inclusive: bool) {
        self.at = None;
        if let Some((repeats, consumed)) = &mut self.train {
            *consumed = repeats.count(now, inclusive);
        }
    }

    /// How many GAPs have arrived before `now`, or by `now` when
    /// `inclusive`: a wait for a GAP that began when this read `n` ended
    /// once it reads more.
    pub fn arrived(&self, now: SimTime, inclusive: bool) -> u64 {
        self.seen
            + self
                .train
                .map_or(0, |(repeats, _)| repeats.count(now, inclusive))
    }

    /// The GAP train arriving, if any.
    pub(crate) fn train(&self) -> Option<Repeats> {
        self.train.map(|(repeats, _)| repeats)
    }
}

/// One unit on a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A data packet (with its terminator).
    Packet(PacketFrame),
    /// A standalone control symbol, as a raw 8-bit code.
    Control(u8),
    /// A control symbol that opens or closes a STOP train, or a bare train
    /// end (`code: None`) that a cut cable, a dead receiver or the injector
    /// owes the sender in place of the repeats it no longer passes on.
    Train {
        /// The symbol on the wire, if any.
        code: Option<u8>,
        /// What the symbol says about the train.
        mark: TrainMark,
    },
}

impl Frame {
    /// A standalone control-symbol frame with the canonical encoding.
    pub fn control(sym: ControlSymbol) -> Frame {
        Frame::Control(sym.encode())
    }

    /// A GAP-terminated packet frame.
    pub fn packet(bytes: impl Into<SharedBytes>) -> Frame {
        Frame::Packet(PacketFrame::new(bytes))
    }

    /// Wire length in characters (a bare train end occupies none).
    pub fn wire_len(&self) -> usize {
        match self {
            Frame::Packet(p) => p.wire_len(),
            Frame::Control(_) => 1,
            Frame::Train { code, .. } => usize::from(code.is_some()),
        }
    }

    /// `true` for the frames flow control sends ahead of data.
    pub(crate) fn is_control(&self) -> bool {
        !matches!(self, Frame::Packet(_))
    }

    /// Decodes the control symbol a standalone or train frame carries
    /// (tolerantly).
    pub fn as_control(&self) -> Option<ControlSymbol> {
        match self {
            Frame::Control(code)
            | Frame::Train {
                code: Some(code), ..
            } => ControlSymbol::decode_tolerant(*code),
            Frame::Packet(_) | Frame::Train { code: None, .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_frame_defaults_to_gap() {
        let f = PacketFrame::new(vec![1, 2, 3]);
        assert!(f.gap_terminated());
        assert_eq!(f.wire_len(), 4);
    }

    #[test]
    fn corrupted_terminator_not_gap() {
        let mut f = PacketFrame::new(vec![1, 2, 3]);
        f.terminator = Some(ControlSymbol::Stop.encode());
        assert!(!f.gap_terminated());
        // A tolerated single 1->0 fault on GAP still reads as GAP.
        f.terminator = Some(0x04); // one bit from GAP (0x0C)
        assert!(f.gap_terminated());
    }

    #[test]
    fn swallowed_terminator() {
        let mut f = PacketFrame::new(vec![1, 2, 3]);
        f.terminator = None;
        assert!(!f.gap_terminated());
        assert_eq!(f.wire_len(), 3);
    }

    #[test]
    fn control_frame_decoding() {
        assert_eq!(
            Frame::control(ControlSymbol::Stop).as_control(),
            Some(ControlSymbol::Stop)
        );
        assert_eq!(Frame::Control(0xAA).as_control(), None);
        assert_eq!(Frame::packet(vec![1]).as_control(), None);
    }

    #[test]
    fn wire_lengths() {
        assert_eq!(Frame::control(ControlSymbol::Go).wire_len(), 1);
        assert_eq!(Frame::packet(vec![0; 10]).wire_len(), 11);
        let end = Frame::Train {
            code: None,
            mark: TrainMark::Close { same_instant: true },
        };
        assert_eq!((end.wire_len(), end.as_control()), (0, None));
    }

    #[test]
    fn repeats_count_by_arrival() {
        // A STOP at 1,000 ps announcing repeats 500 ps later, every 150.
        let mark = TrainMark::open(SimDuration::from_ps(500), SimDuration::from_ps(150));
        let r = Repeats::announced(mark, SimTime::from_ps(1_000)).unwrap();
        assert_eq!(
            (r.at(0), r.at(2)),
            (SimTime::from_ps(1_500), SimTime::from_ps(1_800))
        );
        let count = |ps, inclusive| r.count(SimTime::from_ps(ps), inclusive);
        assert_eq!(
            (count(1_499, true), count(1_500, false), count(1_500, true)),
            (0, 0, 1)
        );
        assert_eq!(
            (count(1_799, true), count(1_800, false), count(1_800, true)),
            (2, 2, 3)
        );
        assert_eq!(
            Repeats::announced(
                TrainMark::Close {
                    same_instant: false
                },
                SimTime::ZERO
            ),
            None
        );
    }
}
