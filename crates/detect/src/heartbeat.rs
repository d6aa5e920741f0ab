//! Heartbeat generation over the simulated datapath.
//!
//! The accrual detectors in [`crate::accrual`] judge *arrival streams*;
//! this module produces them. A [`Heartbeater`] is a simulation component
//! that commands each monitored host to send a small UDP datagram to its
//! peer every `interval` — the datagram rides the real host → NIC → leaf →
//! spine → leaf datapath, so link severs, power-offs and injector
//! corruption all silence it exactly the way they would silence real
//! traffic. Receivers need no new code: the host stack already counts and
//! flight-records every checksum-valid datagram, and the campaign's poll
//! loop reads those rings.
//!
//! The payload is 16 bytes: big-endian pair index and sequence number,
//! round-tripped by `heartbeat_payload` / [`decode_heartbeat`].

use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::egress::timer_class;
use netfi_myrinet::event::Ev;
use netfi_netstack::{HostCmd, UdpDatagram};
use netfi_sim::{Component, ComponentId, Context, SimDuration};

/// Destination UDP port heartbeats are addressed to. Unclaimed by the
/// host stack's services (echo, ping, sink), so arrivals are counted and
/// flight-recorded but never answered.
pub const HEARTBEAT_PORT: u16 = 4747;

/// Source port stamped on every heartbeat.
pub const HEARTBEAT_SRC_PORT: u16 = 4748;

/// Encoded heartbeat payload length.
pub(crate) const HEARTBEAT_LEN: usize = 16;

/// Timer kind the heartbeater schedules for itself: an app-defined class
/// with a zero port byte (the `timer_kind(class, 0)` encoding, spelled
/// out because `timer_kind` is not `const`).
const HEARTBEAT_TIMER: u32 = timer_class::APP_BASE + 3;

/// Encodes a heartbeat payload: big-endian pair index then sequence.
pub(crate) fn heartbeat_payload(pair: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEARTBEAT_LEN);
    out.extend_from_slice(&pair.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out
}

/// Decodes a heartbeat payload back into `(pair, seq)`.
///
/// Returns `None` unless the payload is exactly `HEARTBEAT_LEN` bytes —
/// a corrupted-but-checksum-valid delivery of some other datagram must
/// not masquerade as a heartbeat.
pub fn decode_heartbeat(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() != HEARTBEAT_LEN {
        return None;
    }
    let mut pair = [0u8; 8];
    let mut seq = [0u8; 8];
    pair.copy_from_slice(&payload[..8]);
    seq.copy_from_slice(&payload[8..]);
    Some((u64::from_be_bytes(pair), u64::from_be_bytes(seq)))
}

/// Control-plane commands for a [`Heartbeater`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatCmd {
    /// Begin the heartbeat schedule.
    Start,
}

/// What a [`Heartbeater`] drives: one entry per monitored pair.
#[derive(Debug)]
pub struct HeartbeatPlan {
    /// `(sending host component, destination MAC)` per pair; the pair
    /// index in this list is the index carried in the payload.
    pub pairs: Vec<(ComponentId, EthAddr)>,
    /// Beat period per pair.
    pub interval: SimDuration,
    /// Per-pair phase offset: pair `i` first beats at
    /// `start + i × stagger + interval`, so beats never synchronize into
    /// a burst.
    pub stagger: SimDuration,
}

netfi_sim::clone_in_place!(HeartbeatPlan {
    pairs,
    interval,
    stagger,
});

/// A simulation component that periodically commands hosts to emit
/// heartbeat datagrams.
///
/// One heartbeater drives every pair in its [`HeartbeatPlan`]; each beat
/// is an [`HostCmd::SendUdp`] sent to the pair's source host, which
/// transmits through its own configured route (the campaign uses the
/// stride peer, whose route the fabric generator already installed). A
/// powered-off host ignores the command — its heartbeats stop, which is
/// the point.
///
/// State is plain owned data, so `fork` is `Box::new(self.clone())`,
/// `fork_onto` copies over a resident heartbeater in place, and a
/// snapshot taken mid-schedule resumes bit-identically.
#[derive(Debug)]
pub struct Heartbeater {
    plan: HeartbeatPlan,
    /// Next sequence number per pair.
    seq: Vec<u64>,
}

netfi_sim::clone_in_place!(Heartbeater { plan, seq });

impl Heartbeater {
    /// Creates a heartbeater for `plan`. Send it
    /// [`HeartbeatCmd::Start`] (wrapped in [`Ev::App`]) to begin.
    pub fn new(plan: HeartbeatPlan) -> Heartbeater {
        let pairs = plan.pairs.len();
        Heartbeater {
            plan,
            seq: vec![0; pairs],
        }
    }

    fn beat(&mut self, ctx: &mut Context<'_, Ev>, pair: usize) {
        let (host, dest) = self.plan.pairs[pair];
        let datagram = UdpDatagram::new(
            HEARTBEAT_SRC_PORT,
            HEARTBEAT_PORT,
            heartbeat_payload(pair as u64, self.seq[pair]),
        );
        self.seq[pair] += 1;
        ctx.send_now(host, Ev::App(Box::new(HostCmd::SendUdp { dest, datagram })));
        ctx.send_self(
            self.plan.interval,
            Ev::Timer {
                kind: HEARTBEAT_TIMER,
                gen: pair as u64,
            },
        );
    }
}

impl Component<Ev> for Heartbeater {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, payload: Ev) {
        match payload {
            Ev::App(msg) => {
                if let Ok(cmd) = msg.downcast::<HeartbeatCmd>() {
                    match *cmd {
                        HeartbeatCmd::Start => {
                            for pair in 0..self.plan.pairs.len() {
                                let phase = self
                                    .plan
                                    .stagger
                                    .checked_mul(pair as u64)
                                    .unwrap_or(SimDuration::from_ps(0));
                                ctx.send_self(
                                    self.plan.interval + phase,
                                    Ev::Timer {
                                        kind: HEARTBEAT_TIMER,
                                        gen: pair as u64,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            Ev::Timer { kind, gen } if kind == HEARTBEAT_TIMER => {
                let pair = gen as usize;
                if pair < self.plan.pairs.len() {
                    self.beat(ctx, pair);
                }
            }
            _ => {}
        }
    }

    fn fork(&self) -> Box<dyn Component<Ev>> {
        Box::new(self.clone())
    }

    fn fork_onto(&self, dst: &mut Box<dyn Component<Ev>>) {
        netfi_sim::clone_onto(self, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        for (pair, seq) in [(0u64, 0u64), (7, 1), (99, u64::MAX), (u64::MAX, 42)] {
            let p = heartbeat_payload(pair, seq);
            assert_eq!(p.len(), HEARTBEAT_LEN);
            assert_eq!(decode_heartbeat(&p), Some((pair, seq)));
        }
    }

    #[test]
    fn wrong_length_is_rejected() {
        assert_eq!(decode_heartbeat(&[0u8; 15]), None);
        assert_eq!(decode_heartbeat(&[0u8; 17]), None);
        assert_eq!(decode_heartbeat(&[]), None);
    }

    #[test]
    fn heartbeat_datagram_survives_udp_encoding() {
        let d = UdpDatagram::new(
            HEARTBEAT_SRC_PORT,
            HEARTBEAT_PORT,
            heartbeat_payload(3, 12),
        );
        let wire = d.encode();
        let back = UdpDatagram::decode(&wire).expect("valid datagram");
        assert_eq!(back.dst_port, HEARTBEAT_PORT);
        assert_eq!(decode_heartbeat(&back.payload), Some((3, 12)));
    }
}
