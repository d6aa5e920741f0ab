//! The event vocabulary shared by every component in a Myrinet simulation.
//!
//! The engine is instantiated as `Engine<Ev>`; switches, host interfaces,
//! the fault injector and traffic generators all exchange [`Ev`] values.
//! Wiring is by *ports*: each component numbers its link attachment points,
//! and [`connect`] ties two ports together over a [`Link`], after which the
//! sender schedules `Ev::Rx` events at the peer with serialization plus
//! propagation delay.

use std::any::Any;
use std::fmt;

use netfi_phy::Link;
use netfi_sim::{ComponentId, Engine, Probe, SharedBytes, SimDuration};

use crate::addr::EthAddr;
use crate::frame::Frame;

/// A type-erased application message carried by [`Ev::App`].
///
/// Blanket-implemented for every `Any + Send + Sync + Clone` type, so call
/// sites construct messages exactly as they would a `Box<dyn Any>`:
/// `Ev::App(Box::new(value))`. The extra [`fork_app`](AppMsg::fork_app)
/// method is the type-erased seam that lets [`Ev`] derive `Clone`: an
/// engine snapshot must deep-copy pending app events without knowing
/// their concrete types.
pub trait AppMsg: Any + Send + Sync {
    /// Deep, deterministic copy of the message (the concrete type's
    /// `Clone`).
    fn fork_app(&self) -> Box<dyn AppMsg>;
    /// Converts the box into `Box<dyn Any>` for downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Send + Sync + Clone> AppMsg for T {
    fn fork_app(&self) -> Box<dyn AppMsg> {
        Box::new(self.clone())
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl dyn AppMsg {
    /// Downcasts the boxed message to a concrete type, mirroring
    /// `Box<dyn Any>::downcast` so receiver call sites keep their shape.
    ///
    /// # Errors
    ///
    /// Returns the message back (as `Box<dyn Any>`) if it is not a `T`.
    pub fn downcast<T: Any>(self: Box<Self>) -> Result<Box<T>, Box<dyn Any>> {
        self.into_any().downcast()
    }
}

impl Clone for Box<dyn AppMsg> {
    fn clone(&self) -> Self {
        // Through the box: with this impl `Box<dyn AppMsg>` meets the
        // blanket `AppMsg` impl's bounds itself, so `self.fork_app()` would
        // resolve there and call this function again.
        (**self).fork_app()
    }
}

/// An event delivered to a component.
///
/// `Clone` is the engine-snapshot copy: `SharedBytes` clones by
/// reference-count bump, which is a correct deep copy because the buffers
/// are copy-on-write (writers copy first), so forks stay independent.
#[derive(Clone)]
pub enum Ev {
    /// A frame arriving on one of the component's input ports.
    Rx {
        /// The receiving port on the destination component.
        port: u8,
        /// The arriving frame.
        frame: Frame,
    },
    /// A timer the component scheduled for itself. `kind` namespaces the
    /// timer, `gen` is a generation counter for cancellation-by-staleness.
    Timer {
        /// Component-defined timer class.
        kind: u32,
        /// Generation at scheduling time; stale generations are ignored.
        gen: u64,
    },
    /// A received payload crossing from the NIC to the host's application
    /// layer (scheduled after the receive overhead). The hot receive path:
    /// carried inline, no boxing.
    Deliver {
        /// Source physical address.
        src: EthAddr,
        /// Bytes above the link header — a window into the wire image.
        data: SharedBytes,
    },
    /// A transmit request crossing from the host's application layer to
    /// the NIC (scheduled after the send overhead). The hot send path:
    /// carried inline, no boxing. `tag` is opaque application context
    /// (netstack packs the UDP port pair into it).
    Send {
        /// Destination physical address.
        dest: EthAddr,
        /// Application-defined context carried alongside the payload.
        tag: u32,
        /// Payload bytes to transmit.
        payload: SharedBytes,
    },
    /// A byte arriving on a serial (RS-232) configuration line.
    Serial(u8),
    /// An application-level event; hosts downcast to their own types.
    /// Control-plane only (workload start, harness commands) — the
    /// per-packet paths use [`Ev::Deliver`] and [`Ev::Send`]. [`AppMsg`]
    /// is `Send` (so the vocabulary crosses shard-worker boundaries),
    /// `Sync` (so a snapshot holding pending app events can be shared by
    /// campaign workers) and forkable (so those events survive the
    /// snapshot).
    App(Box<dyn AppMsg>),
}

impl fmt::Debug for Ev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ev::Rx { port, frame } => f.debug_struct("Rx").field("port", port).field("frame", frame).finish(),
            Ev::Timer { kind, gen } => f.debug_struct("Timer").field("kind", kind).field("gen", gen).finish(),
            Ev::Deliver { src, data } => f
                .debug_struct("Deliver")
                .field("src", src)
                .field("len", &data.len())
                .finish(),
            Ev::Send { dest, tag, payload } => f
                .debug_struct("Send")
                .field("dest", dest)
                .field("tag", tag)
                .field("len", &payload.len())
                .finish(),
            Ev::Serial(b) => f.debug_tuple("Serial").field(b).finish(),
            Ev::App(_) => f.write_str("App(..)"),
        }
    }
}

/// The far side of a wired port.
#[derive(Debug, Clone, Copy)]
pub struct PortPeer {
    /// Component on the other end of the link.
    pub dst: ComponentId,
    /// The peer's port number.
    pub dst_port: u8,
    /// The link's physical parameters (bandwidth, propagation, BER).
    pub link: Link,
}

impl PortPeer {
    /// Serialization time for `chars` characters on this link.
    pub(crate) fn tx_time(&self, chars: usize) -> SimDuration {
        self.link.transfer_time(chars)
    }

    /// One-way propagation delay of the link.
    pub fn propagation(&self) -> SimDuration {
        self.link.propagation_delay()
    }
}

/// Implemented by every component that exposes wirable ports.
pub trait Attach: 'static {
    /// Installs the peer for `port`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `port` is out of range for the component.
    fn attach_port(&mut self, port: u8, peer: PortPeer);
}

/// Error from [`connect`]: a component id did not resolve to the expected
/// concrete type (stale id, or the wrong type parameter at the call site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectError {
    /// The offending component id.
    pub id: ComponentId,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component {} is not the expected type", self.id)
    }
}

impl std::error::Error for ConnectError {}

/// Wires `a.port_a` to `b.port_b` over `link`, in both directions.
///
/// # Errors
///
/// Returns [`ConnectError`] if either component id does not refer to a
/// component of the given concrete type. The first endpoint may already be
/// attached when the second one fails.
pub fn connect<A: Attach, B: Attach, P: Probe>(
    engine: &mut Engine<Ev, P>,
    (a, port_a): (ComponentId, u8),
    (b, port_b): (ComponentId, u8),
    link: &Link,
) -> Result<(), ConnectError> {
    let ca = engine
        .component_as_mut::<A>(a)
        .ok_or(ConnectError { id: a })?;
    ca.attach_port(
        port_a,
        PortPeer {
            dst: b,
            dst_port: port_b,
            link: *link,
        },
    );
    let cb = engine
        .component_as_mut::<B>(b)
        .ok_or(ConnectError { id: b })?;
    cb.attach_port(
        port_b,
        PortPeer {
            dst: a,
            dst_port: port_a,
            link: *link,
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_phy::ControlSymbol;
    use netfi_sim::{Component, Context};

    #[derive(Clone)]
    struct Probe {
        ports: Vec<Option<PortPeer>>,
        rx: Vec<(u8, Frame)>,
    }

    impl Probe {
        fn new(nports: usize) -> Probe {
            Probe {
                ports: vec![None; nports],
                rx: Vec::new(),
            }
        }
    }

    impl Attach for Probe {
        fn attach_port(&mut self, port: u8, peer: PortPeer) {
            self.ports[port as usize] = Some(peer);
        }
    }

    impl Component<Ev> for Probe {
        fn on_event(&mut self, _ctx: &mut Context<'_, Ev>, ev: Ev) {
            if let Ev::Rx { port, frame } = ev {
                self.rx.push((port, frame));
            }
        }
        fn fork(&self) -> Box<dyn Component<Ev>> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn connect_wires_both_directions() {
        let mut engine: Engine<Ev> = Engine::new();
        let a = engine.add_component(Box::new(Probe::new(2)));
        let b = engine.add_component(Box::new(Probe::new(1)));
        let link = Link::myrinet_san(3.0);
        connect::<Probe, Probe, _>(&mut engine, (a, 1), (b, 0), &link).unwrap();

        let pa = engine.component_as::<Probe>(a).unwrap();
        let peer = pa.ports[1].as_ref().unwrap();
        assert_eq!(peer.dst, b);
        assert_eq!(peer.dst_port, 0);

        let pb = engine.component_as::<Probe>(b).unwrap();
        let peer = pb.ports[0].as_ref().unwrap();
        assert_eq!(peer.dst, a);
        assert_eq!(peer.dst_port, 1);
    }

    struct NotAProbe;

    impl Component<Ev> for NotAProbe {
        fn on_event(&mut self, _ctx: &mut Context<'_, Ev>, _ev: Ev) {}
        fn fork(&self) -> Box<dyn Component<Ev>> {
            Box::new(NotAProbe)
        }
    }

    #[test]
    fn connect_reports_wrong_type() {
        let mut engine: Engine<Ev> = Engine::new();
        let a = engine.add_component(Box::new(Probe::new(1)));
        let b = engine.add_component(Box::new(NotAProbe));
        let link = Link::myrinet_san(1.0);
        let err = connect::<Probe, Probe, _>(&mut engine, (a, 0), (b, 0), &link).unwrap_err();
        assert_eq!(err.id, b);
        assert!(err.to_string().contains("not the expected type"));
    }

    #[test]
    fn port_peer_timing() {
        let peer = PortPeer {
            dst: {
                let mut e: Engine<Ev> = Engine::new();
                e.add_component(Box::new(Probe::new(1)))
            },
            dst_port: 0,
            link: Link::myrinet_san(2.0),
        };
        assert_eq!(peer.propagation().as_ps(), 10_000);
        assert_eq!(peer.tx_time(16).as_ps(), 100_000);
    }

    #[test]
    fn rx_event_delivery() {
        let mut engine: Engine<Ev> = Engine::new();
        let a = engine.add_component(Box::new(Probe::new(1)));
        engine.schedule(
            netfi_sim::SimTime::ZERO,
            a,
            Ev::Rx {
                port: 0,
                frame: Frame::control(ControlSymbol::Go),
            },
        );
        engine.run();
        let p = engine.component_as::<Probe>(a).unwrap();
        assert_eq!(p.rx.len(), 1);
        assert_eq!(p.rx[0].0, 0);
        assert_eq!(p.rx[0].1.as_control(), Some(ControlSymbol::Go));
    }

    #[test]
    fn ev_debug_representations() {
        let s = format!("{:?}", Ev::Serial(0x41));
        assert!(s.contains("Serial"));
        let t = format!("{:?}", Ev::Timer { kind: 3, gen: 9 });
        assert!(t.contains("Timer"));
        let a = format!("{:?}", Ev::App(Box::new(5u32)));
        assert!(a.contains("App"));
    }

    #[test]
    fn ev_clone_preserves_every_variant() {
        let rx = Ev::Rx {
            port: 2,
            frame: Frame::control(ControlSymbol::Go),
        };
        match rx.clone() {
            Ev::Rx { port, frame } => {
                assert_eq!(port, 2);
                assert_eq!(frame.as_control(), Some(ControlSymbol::Go));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let app = Ev::App(Box::new(42u32));
        match app.clone() {
            Ev::App(msg) => assert_eq!(*msg.downcast::<u32>().unwrap(), 42),
            other => panic!("wrong variant: {other:?}"),
        }
        // The original is still intact after the clone.
        match app {
            Ev::App(msg) => assert_eq!(*msg.downcast::<u32>().unwrap(), 42),
            other => panic!("wrong variant: {other:?}"),
        }
        // A heap-owning payload: the clone is deep, and getting here at
        // all means `Box<dyn AppMsg>::clone` did not recurse into itself.
        let app = Ev::App(Box::new(vec![1u8, 2, 3]));
        let Ev::App(msg) = app.clone() else {
            panic!("wrong variant");
        };
        let mut copy = msg.downcast::<Vec<u8>>().unwrap();
        copy[0] = 9;
        let Ev::App(msg) = app else {
            panic!("wrong variant");
        };
        assert_eq!(*msg.downcast::<Vec<u8>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(*copy, vec![9, 2, 3]);
        let send = Ev::Send {
            dest: EthAddr::myricom(7),
            tag: 9,
            payload: SharedBytes::from(vec![1, 2, 3]),
        };
        match send.clone() {
            Ev::Send { dest, tag, payload } => {
                assert_eq!(dest, EthAddr::myricom(7));
                assert_eq!(tag, 9);
                assert_eq!(&*payload, &[1, 2, 3]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
