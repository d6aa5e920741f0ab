//! What a packet through an armed device asks of the allocator, pinned as
//! counts.
//!
//! Table 4's rows, `faulty stop`, `gap loss` and the fork grid arm a
//! control-symbol swap and leave the data comparator at its default
//! compare mask of 0, which matches every byte-sliding window. The device
//! therefore fires its default corruption, toggle 0 without a CRC
//! recompute, at every offset of every packet it passes while armed, and
//! the bytes never change. Such a packet must cost the same whatever its
//! length: the plan carries the run of offsets as a range, a plan that
//! writes nothing never copies the packet, and the capture memory keeps
//! the run and the bytes it reads, not one record per offset.
//!
//! At the parent of this guard, one packet through a device armed with
//! `InjectorConfig::control_swap` made 73 requests for 3,236 bytes at
//! 64 B and 1,041 for 54,116 bytes at 1,024 B, one copy-on-write copy of
//! the packet each: a `to_vec` per captured offset, two growing offset
//! vectors and the copy.
//!
//! The counts come from the counting allocator in `tests/common/`, which
//! counts only the thread that opened the region.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;

use common::{counted, Asked};
use netfi::injector::config::InjectorConfig;
use netfi::injector::{Direction, InjectorDevice};
use netfi::myrinet::event::{connect, Attach, Ev, PortPeer};
use netfi::myrinet::frame::Frame;
use netfi::myrinet::packet::{route_to_host, Packet, PacketType};
use netfi::phy::{ControlSymbol, Link};
use netfi::sim::bytes::SharedBytes;
use netfi::sim::{Component, Context, Engine};

/// What a region asked of the allocator, and the copy-on-write copies of a
/// wire image it made.
fn counted_with_copies(region: impl FnOnce()) -> (Asked, u64) {
    let copies = SharedBytes::copy_count();
    let ((), asked) = counted(0, region);
    (asked, SharedBytes::copy_count() - copies)
}

/// A link end that swallows what it receives.
#[derive(Clone)]
struct Sink;

impl Attach for Sink {
    fn attach_port(&mut self, _port: u8, _peer: PortPeer) {}
}

impl Component<Ev> for Sink {
    fn on_event(&mut self, _ctx: &mut Context<'_, Ev>, _ev: Ev) {}
    fn fork(&self) -> Box<dyn Component<Ev>> {
        Box::new(self.clone())
    }
}

/// A DATA packet `len` bytes long on the wire.
fn wire(len: usize) -> Vec<u8> {
    // One route byte, four type bytes and the CRC-8 around the payload.
    let payload: Vec<u8> = (0..len - 6).map(|i| b'a' + (i % 26) as u8).collect();
    let wire = Packet::new(vec![route_to_host(1)], PacketType::DATA, payload).encode();
    assert_eq!(wire.len(), len);
    wire
}

#[test]
fn an_armed_packet_costs_the_same_at_any_length() {
    let mut engine: Engine<Ev> = Engine::new();
    let sink = engine.add_component(Box::new(Sink));
    let dev = engine.add_component(Box::new(InjectorDevice::with_name("fi0")));
    connect::<InjectorDevice, Sink, _>(&mut engine, (dev, 1), (sink, 0), &Link::myrinet_640(1.0))
        .expect("wire the device to the sink");
    let swap =
        InjectorConfig::control_swap(ControlSymbol::Stop.encode(), ControlSymbol::Gap.encode());
    assert_eq!(
        swap.compare.compare_mask, 0,
        "the swap leaves the comparator at match-everything"
    );
    engine
        .component_as_mut::<InjectorDevice>(dev)
        .unwrap()
        .configure(Direction::AToB, swap);

    // One packet entering port 0, through the device, into the sink. The
    // wire image is built before counting starts.
    let mut one = |len: usize| {
        let frame = Frame::packet(wire(len));
        counted_with_copies(|| {
            engine.schedule(engine.now(), dev, Ev::Rx { port: 0, frame });
            engine.run();
        })
    };
    // Settle: fill the capture memory past its capacity and let every
    // buffer on the path grow to what it needs.
    for _ in 0..4 {
        one(1024);
        one(64);
    }
    let (small, small_copies) = one(64);
    let (large, large_copies) = one(1024);
    println!(
        "armed packet: 64 B {small:?}, {small_copies} copies; \
         1,024 B {large:?}, {large_copies} copies"
    );
    assert_eq!(
        one(64),
        (small, small_copies),
        "a packet's requests repeat exactly"
    );
    assert_eq!(small.requests, large.requests, "{small:?} vs {large:?}");
    // Once the path's buffers have grown, a packet asks for nothing at all.
    assert_eq!(large.requests, 0, "{large:?}");
    assert_eq!(
        (small_copies, large_copies),
        (0, 0),
        "a no-op plan copied the packet"
    );

    let dev = engine.component_as::<InjectorDevice>(dev).unwrap();
    let stats = dev.fifo_stats(Direction::AToB);
    // Every window still matches and every match still fires.
    assert_eq!(stats.matches, stats.injections);
    assert_eq!(stats.injections, 4 * (1021 + 61) + 61 + 1021 + 61);
}
