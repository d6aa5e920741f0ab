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
//! An integration test is its own binary, so the `#[global_allocator]`
//! below counts nothing but this file; it holds a single `#[test]`, so no
//! sibling test thread allocates while a region is being counted.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use netfi::injector::config::InjectorConfig;
use netfi::injector::{Direction, InjectorDevice};
use netfi::myrinet::event::{connect, Attach, Ev, PortPeer};
use netfi::myrinet::frame::Frame;
use netfi::myrinet::packet::{route_to_host, Packet, PacketType};
use netfi::phy::{ControlSymbol, Link};
use netfi::sim::bytes::SharedBytes;
use netfi::sim::{Component, Context, Engine};

/// The system allocator, counting every request made while `COUNTING`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::SeqCst) {
        REQUESTS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(size, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one packet asked for: allocator requests, bytes, and copy-on-write
/// copies of a wire image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Asked {
    requests: usize,
    bytes: usize,
    copies: u64,
}

fn counted(region: impl FnOnce()) -> Asked {
    REQUESTS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    let copies = SharedBytes::copy_count();
    COUNTING.store(true, Ordering::SeqCst);
    region();
    COUNTING.store(false, Ordering::SeqCst);
    Asked {
        requests: REQUESTS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
        copies: SharedBytes::copy_count() - copies,
    }
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
        counted(|| {
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
    let small = one(64);
    let large = one(1024);
    println!("armed packet: 64 B {small:?}; 1,024 B {large:?}");
    assert_eq!(one(64), small, "a packet's requests repeat exactly");
    assert_eq!(small.requests, large.requests, "{small:?} vs {large:?}");
    // Once the path's buffers have grown, a packet asks for nothing at all.
    assert_eq!(large.requests, 0, "{large:?}");
    assert_eq!(
        (small.copies, large.copies),
        (0, 0),
        "a no-op plan copied the packet"
    );

    let dev = engine.component_as::<InjectorDevice>(dev).unwrap();
    let stats = dev.fifo_stats(Direction::AToB);
    // Every window still matches and every match still fires.
    assert_eq!(stats.matches, stats.injections);
    assert_eq!(stats.injections, 4 * (1021 + 61) + 61 + 1021 + 61);
}
