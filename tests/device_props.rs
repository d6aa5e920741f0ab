//! Engine-level property tests of the device: a pass-through injector is
//! observationally equivalent to a longer cable, for arbitrary frame
//! sequences. Driven by seeded loops over `DetRng` (no external
//! dependencies).

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::injector::InjectorDevice;
use netfi::myrinet::egress::{split_timer_kind, timer_class, EgressPort};
use netfi::myrinet::event::{connect, Attach, Ev, PortPeer};
use netfi::myrinet::frame::Frame;
use netfi::phy::{ControlSymbol, Link};
use netfi::sim::{Component, Context, DetRng, Engine, SimTime};

const CASES: usize = 32;

/// Endpoint that transmits queued frames and records arrivals.
#[derive(Clone)]
struct Probe {
    egress: EgressPort,
    rx: Vec<Frame>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            egress: EgressPort::new(0),
            rx: Vec::new(),
        }
    }
}

impl Attach for Probe {
    fn attach_port(&mut self, _port: u8, peer: PortPeer) {
        self.egress.attach(peer);
    }
}

impl Component<Ev> for Probe {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Rx { frame, .. } => self.rx.push(frame),
            Ev::Timer { kind, gen } => {
                let (class, _) = split_timer_kind(kind);
                match class {
                    timer_class::TX_DONE => self.egress.on_tx_done(ctx),
                    timer_class::STOP_TIMEOUT => self.egress.on_stop_timeout(ctx, gen),
                    _ => {}
                }
            }
            Ev::App(any) => {
                if let Ok(frame) = any.downcast::<Frame>() {
                    self.egress.enqueue(ctx, *frame);
                }
            }
            _ => {}
        }
    }
    fn fork(&self) -> Box<dyn Component<Ev>> {
        Box::new(self.clone())
    }
}

fn random_frame(rng: &mut DetRng) -> Frame {
    match rng.gen_index(3) {
        0 => {
            let len = 6 + rng.gen_index(58);
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            Frame::packet(bytes)
        }
        // Any control code but those tolerant decoding reads as STOP or GO,
        // which would perturb flow control: GAP, IDLE, their one-bit
        // neighbours and codes that are no Myrinet symbol at all (0x95
        // starts Fibre Channel's R_RDY), so the sender never pauses and
        // ordering is trivially comparable.
        _ => loop {
            let code = rng.next_u32() as u8;
            if !matches!(
                ControlSymbol::decode_tolerant(code),
                Some(ControlSymbol::Stop | ControlSymbol::Go)
            ) {
                break Frame::Control(code);
            }
        },
    }
}

fn run(frames: &[Frame], with_device: bool) -> Vec<Frame> {
    let mut engine: Engine<Ev> = Engine::new();
    let a = engine.add_component(Box::new(Probe::new()));
    let b = engine.add_component(Box::new(Probe::new()));
    let link = Link::myrinet_640(1.0);
    if with_device {
        let dev = engine.add_component(Box::new(InjectorDevice::with_name("prop")));
        connect::<Probe, InjectorDevice, _>(&mut engine, (a, 0), (dev, 0), &link).unwrap();
        connect::<InjectorDevice, Probe, _>(&mut engine, (dev, 1), (b, 0), &link).unwrap();
    } else {
        connect::<Probe, Probe, _>(&mut engine, (a, 0), (b, 0), &link).unwrap();
    }
    for (i, frame) in frames.iter().enumerate() {
        engine.schedule(
            SimTime::from_us(i as u64),
            a,
            Ev::App(Box::new(frame.clone())),
        );
    }
    engine.run();
    let mut probe_b: Vec<Frame> = Vec::new();
    std::mem::swap(
        &mut engine.component_as_mut::<Probe>(b).expect("probe").rx,
        &mut probe_b,
    );
    probe_b
}

/// Pass-through transparency, as a property: for any frame sequence, the
/// receiver sees exactly the same frames in the same order with and
/// without the device in the path.
#[test]
fn passthrough_device_is_a_longer_cable() {
    let mut rng = DetRng::new(0xDE71_CE01);
    let mut foreign = 0;
    for _ in 0..CASES {
        let frames: Vec<Frame> = (0..1 + rng.gen_index(23))
            .map(|_| random_frame(&mut rng))
            .collect();
        foreign += frames
            .iter()
            .filter(
                |f| matches!(f, Frame::Control(c) if ControlSymbol::decode_tolerant(*c).is_none()),
            )
            .count();
        let direct = run(&frames, false);
        let through_device = run(&frames, true);
        assert_eq!(direct.len(), frames.len());
        assert_eq!(direct, through_device);
    }
    println!("{foreign} control codes that are no Myrinet symbol");
    assert!(
        foreign > 0,
        "the draw reached no code outside Myrinet's four"
    );
}
