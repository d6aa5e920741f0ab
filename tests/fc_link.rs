//! Engine-level Fibre Channel: two N_Ports exchanging class-3 frames and
//! R_RDY credits across the injector device — the board's second medium
//! (§3.4), exercised through the same event engine, links and device as
//! Myrinet.
//!
//! FC frame bodies travel as packet frames; the R_RDY primitive travels as
//! a control character whose code (0x95, the first data character of the
//! R_RDY ordered set) is not a Myrinet control symbol, so the device
//! forwards it untouched unless a campaign targets it.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;

use netfi::fc::frame::{FcAddress, FcFrame};
use netfi::fc::NPort;
use netfi::injector::config::InjectorConfig;
use netfi::injector::{Direction, InjectorDevice, MatchMode};
use netfi::myrinet::egress::{split_timer_kind, timer_class, EgressPort};
use netfi::myrinet::event::{connect, Attach, Ev, PortPeer};
use netfi::myrinet::frame::Frame;
use netfi::phy::Link;
use netfi::sim::{Component, ComponentId, Context, Engine, SimDuration, SimTime};

/// The on-wire code used for the R_RDY primitive in this harness.
const R_RDY_CODE: u8 = 0x95;

/// An FC endpoint: an N_Port with credit flow control over the engine.
#[derive(Clone)]
struct FcEndpoint {
    port: NPort,
    egress: EgressPort,
    to_send: VecDeque<FcFrame>,
    delivered: Vec<FcFrame>,
    crc_rejects: u64,
}

impl FcEndpoint {
    fn new(bb_credit: u32) -> FcEndpoint {
        FcEndpoint {
            port: NPort::new(bb_credit),
            egress: EgressPort::new(0),
            to_send: VecDeque::new(),
            delivered: Vec::new(),
            crc_rejects: 0,
        }
    }

    fn push_releases(&mut self, ctx: &mut Context<'_, Ev>, released: Vec<FcFrame>) {
        for frame in released {
            self.egress.enqueue(ctx, Frame::packet(frame.body()));
        }
    }
}

impl Attach for FcEndpoint {
    fn attach_port(&mut self, _port: u8, peer: PortPeer) {
        self.egress.attach(peer);
    }
}

#[derive(Clone)]
enum Cmd {
    Queue(Vec<FcFrame>),
}

impl Component<Ev> for FcEndpoint {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Rx { frame, .. } => match frame {
                Frame::Packet(pf) => {
                    // Body integrity first (the line code is behind the
                    // PHY in this harness; the CRC-32 travels in-body).
                    if !netfi::fc::crc32::verify(&pf.bytes) {
                        self.crc_rejects += 1;
                        return;
                    }
                    let header: [u8; 24] =
                        pf.bytes[..24].try_into().expect("header present");
                    let rx = FcFrame {
                        sof: netfi::fc::frame::Sof::Normal3,
                        header: netfi::fc::frame::FcHeader::decode(&header),
                        payload: pf.bytes.slice(24..pf.bytes.len() - 4),
                        eof: netfi::fc::frame::Eof::Normal,
                    };
                    if self.port.receive(rx) {
                        // Host drains immediately; the freed buffer owes an
                        // R_RDY to the sender.
                        if let Some(frame) = self.port.deliver() {
                            self.delivered.push(frame);
                        }
                        self.egress.enqueue_control(ctx, R_RDY_CODE);
                    }
                }
                Frame::Control(code) if code == R_RDY_CODE => {
                    let released = self.port.on_r_rdy();
                    self.push_releases(ctx, released);
                }
                // FC has no STOP trains: R_RDY credits replace STOP/GO.
                Frame::Control(_) | Frame::Train { .. } => {}
            },
            Ev::Timer { kind, gen } => {
                let (class, _) = split_timer_kind(kind);
                match class {
                    timer_class::TX_DONE => self.egress.on_tx_done(ctx),
                    timer_class::STOP_TIMEOUT => self.egress.on_stop_timeout(ctx, gen),
                    _ => {}
                }
            }
            Ev::App(any) => {
                if let Ok(cmd) = any.downcast::<Cmd>() {
                    let Cmd::Queue(frames) = *cmd;
                    self.to_send.extend(frames);
                    while let Some(frame) = self.to_send.pop_front() {
                        let released = self.port.send(frame);
                        self.push_releases(ctx, released);
                    }
                }
            }
            _ => {}
        }
    }
    fn fork(&self) -> Box<dyn Component<Ev>> {
        Box::new(self.clone())
    }
}

fn build(bb_credit: u32) -> (Engine<Ev>, ComponentId, ComponentId, ComponentId) {
    let mut engine: Engine<Ev> = Engine::new();
    let a = engine.add_component(Box::new(FcEndpoint::new(bb_credit)));
    let b = engine.add_component(Box::new(FcEndpoint::new(bb_credit)));
    let dev = engine.add_component(Box::new(InjectorDevice::with_name("fc-fi")));
    let link = Link::fibre_channel(5.0);
    connect::<FcEndpoint, InjectorDevice, _>(&mut engine, (a, 0), (dev, 0), &link).unwrap();
    connect::<InjectorDevice, FcEndpoint, _>(&mut engine, (dev, 1), (b, 0), &link).unwrap();
    (engine, a, b, dev)
}

fn frames(n: u16) -> Vec<FcFrame> {
    (0..n)
        .map(|seq| {
            FcFrame::data(
                FcAddress::new(0x020202),
                FcAddress::new(0x010101),
                seq,
                format!("fc payload {seq}").into_bytes(),
            )
        })
        .collect()
}

#[test]
fn credit_paced_transfer_through_passthrough_device() {
    let (mut engine, a, b, _) = build(2);
    let sent = frames(20);
    engine.schedule(SimTime::ZERO, a, Ev::App(Box::new(Cmd::Queue(sent.clone()))));
    engine.run_until(SimTime::from_ms(10));
    let eb = engine.component_as::<FcEndpoint>(b).unwrap();
    assert_eq!(eb.delivered.len(), 20, "all frames arrive");
    // The SOF/EOF delimiters are not carried through this harness (only
    // the body is), so compare headers and payloads.
    for (rx, tx) in eb.delivered.iter().zip(&sent) {
        assert_eq!(rx.header, tx.header, "in order, intact");
        assert_eq!(rx.payload, tx.payload);
    }
    assert_eq!(eb.crc_rejects, 0);
    // Credit conservation held throughout: the sender never had more than
    // BB_Credit frames outstanding (checked inside NPort), and ends full.
    let ea = engine.component_as::<FcEndpoint>(a).unwrap();
    assert_eq!(ea.port.credits(), 2);
    assert_eq!(ea.port.tx_backlog(), 0);
}

#[test]
fn injector_corrupts_fc_payload_and_crc32_catches_it() {
    let (mut engine, a, b, dev) = build(4);
    engine
        .component_as_mut::<InjectorDevice>(dev)
        .unwrap()
        .configure(
            Direction::AToB,
            InjectorConfig::builder()
                .match_mode(MatchMode::Once)
                .compare(u32::from_be_bytes(*b"fc p"), 0xFFFF_FFFF)
                .corrupt_toggle(0x0000_2000)
                .recompute_crc(false) // the device's CRC-8 fixer is the wrong code anyway
                .build(),
        );
    engine.schedule(SimTime::ZERO, a, Ev::App(Box::new(Cmd::Queue(frames(10)))));
    engine.run_until(SimTime::from_ms(10));
    let eb = engine.component_as::<FcEndpoint>(b).unwrap();
    assert_eq!(eb.crc_rejects, 1, "exactly one frame corrupted (once mode)");
    assert_eq!(eb.delivered.len(), 9);
    // Class 3 has no retransmission: the frame is simply gone, and its
    // credit came back with the next R_RDY-less... in this harness the
    // receiver only credits accepted frames, so the sender ends one short.
    let ea = engine.component_as::<FcEndpoint>(a).unwrap();
    assert_eq!(ea.port.credits(), 3, "one credit lost with the dead frame");
}

#[test]
fn eating_r_rdy_credits_starves_the_sender() {
    // The FC analogue of GO corruption: the injector swallows R_RDY
    // primitives (corrupting them into an unused code), and the sender
    // stalls once its login credit is spent.
    let (mut engine, a, b, dev) = build(2);
    engine
        .component_as_mut::<InjectorDevice>(dev)
        .unwrap()
        .configure(
            Direction::BToA,
            InjectorConfig::builder()
                .match_mode(MatchMode::On)
                .control_swap(R_RDY_CODE, 0x00)
                .build(),
        );
    engine.schedule(SimTime::ZERO, a, Ev::App(Box::new(Cmd::Queue(frames(10)))));
    engine.run_until(SimTime::from_ms(20));
    let eb = engine.component_as::<FcEndpoint>(b).unwrap();
    assert_eq!(
        eb.delivered.len(),
        2,
        "only the initial BB_Credit frames ever fly"
    );
    let ea = engine.component_as::<FcEndpoint>(a).unwrap();
    assert_eq!(ea.port.credits(), 0);
    assert_eq!(ea.port.tx_backlog(), 8, "the rest starve for credit");
    // Stop the corruption: credits flow again and the backlog drains.
    engine
        .component_as_mut::<InjectorDevice>(dev)
        .unwrap()
        .configure(Direction::BToA, InjectorConfig::passthrough());
    // Nudge with a fresh credit from the receiver side (the stranded
    // R_RDYs are gone forever; the endpoint re-credits on its next accept,
    // so send one more frame after repair).
    engine.schedule(
        engine.now() + SimDuration::from_ms(1),
        a,
        Ev::App(Box::new(Cmd::Queue(vec![]))),
    );
    engine.run_until(engine.now() + SimDuration::from_ms(20));
    // Deadlock: with all credits eaten, nothing moves without recovery —
    // exactly why real FC ports re-login (credit recovery) after errors.
    let ea = engine.component_as::<FcEndpoint>(a).unwrap();
    assert_eq!(ea.port.tx_backlog(), 8, "credit loss is permanent in class 3");
}
