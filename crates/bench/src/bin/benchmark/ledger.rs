//! The per-layer ledger: timed calls into each layer's public functions.
//!
//! These rows do not depend on the workload being traced, so every traced
//! run measures all of them; what they buy is the cost of one layer in
//! isolation, next to the span rows that say how often a workload pays it.

use crate::simload;
use crate::stats::median;
use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::corrupt::CorruptUnit;
use netfi_core::fifo::{FifoInjector, FifoPipeline};
use netfi_core::trigger::CompareUnit;
use netfi_core::InjectorDevice;
use netfi_detect::{analyze, Phi, SuspicionMonitor};
use netfi_fc::{decode_line, FcAddress, FcFrame};
use netfi_myrinet::event::Ev;
use netfi_myrinet::packet::{route_to_host, route_to_switch, wire, Packet, PacketType};
use netfi_netstack::UdpDatagram;
use netfi_nftape::runner::{commands_for_config, script_bytes};
use netfi_nftape::{build_fabric, fabric_graph, TopoOptions};
use netfi_obs::{FlightRecorder, Registry};
use netfi_phy::b8b10::{Byte8, Decoder, Encoder};
use netfi_phy::clock::ClockGenerator;
use netfi_phy::serial::UartConfig;
use netfi_sample::{campaign_wire, classify, draw_point, RunEvidence, ARM_SPAN_NS};
use netfi_sim::queue::{SLOT_PS, WHEEL_SPAN};
use netfi_sim::{Engine, RunOutcome, SharedBytes, SimTime, TimingWheel};
use std::hint::black_box;
use std::time::Instant;

/// Collects `(name, value)` rows; `smoke` cuts every timing to one short
/// batch so the debug-build tests only prove each row is produced.
pub struct Ledger {
    smoke: bool,
    rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Median nanoseconds per call of `f` over calibrated batches.
    fn ns_per_call(&self, mut f: impl FnMut()) -> f64 {
        let (batch_ns, batches) = if self.smoke { (20_000.0, 1) } else { (1e6, 5) };
        let start = Instant::now();
        f();
        let once = (start.elapsed().as_nanos() as f64).max(1.0);
        let iters = ((batch_ns / once) as u64).clamp(1, 1 << 22);
        let samples: Vec<f64> = (0..batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        median(&samples)
    }

    fn ns(&mut self, name: &'static str, f: impl FnMut()) {
        let v = self.ns_per_call(f);
        self.rows.push((name, v));
    }

    fn us(&mut self, name: &'static str, f: impl FnMut()) {
        let v = self.ns_per_call(f) / 1e3;
        self.rows.push((name, v));
    }

    /// Throughput of `f` over `bytes` bytes per call.
    fn mib_s(&mut self, name: &'static str, bytes: usize, f: impl FnMut()) {
        let ns = self.ns_per_call(f);
        self.rows
            .push((name, bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9)));
    }

    /// One pass over every ledger row, in a fixed order.
    pub fn run_all(smoke: bool, seed: u64) -> Vec<(&'static str, f64)> {
        let mut ledger = Ledger {
            smoke,
            rows: Vec::new(),
        };
        ledger.wheel();
        ledger.snapshot_fork(seed);
        ledger.bytes();
        ledger.core();
        ledger.myrinet();
        ledger.netstack();
        ledger.phy_fc();
        ledger.obs();
        ledger.sample(seed);
        ledger.detect();
        ledger.rows
    }

    fn wheel(&mut self) {
        // Steady depth 32, one event every third bucket: the test bed's
        // queue shape.
        let stride = 3 * SLOT_PS;
        let mut w: TimingWheel<u64> = TimingWheel::new();
        let mut seq = 0u64;
        for i in 0..32 {
            w.push(SimTime::from_ps(i * stride), seq, seq);
            seq += 1;
        }
        self.ns("sim.wheel.push_pop_ns", || {
            let (t, _, item) = w.pop().expect("wheel holds 32 entries");
            w.push(
                SimTime::from_ps(t.as_ps() + 32 * stride),
                seq,
                black_box(item),
            );
            seq += 1;
        });

        // 1,024 entries resident in the bucket being drained, each pop
        // followed by an insert somewhere into the same bucket: the
        // 1,000-host fabric's same-tick pattern. A fresh wheel per
        // 4,096 operations keeps every insert inside one bucket.
        let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
        let per_wheel = 4_096u64;
        let ns = self.ns_per_call(|| {
            let mut w: TimingWheel<u64> = TimingWheel::new();
            for i in 0..1_024u64 {
                w.push(SimTime::from_ps(i * 1_024), i, i);
            }
            for seq in 1_024..1_024 + per_wheel {
                let (t, _, item) = w.pop().expect("bucket holds 1,024 entries");
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let ahead = 1 + (lcg >> 44); // < 2^20 ps: stays in the bucket
                w.push(SimTime::from_ps(t.as_ps() + ahead), seq, black_box(item));
            }
        });
        // The 1,024 fills ride along: 5,120 wheel operations per call.
        self.rows
            .push(("sim.wheel.same_bucket_ns", ns / (per_wheel + 1_024) as f64));

        // Every push lands beyond the wheel's horizon, in the overflow
        // heap, and cascades back into a bucket before it is popped.
        let stride = WHEEL_SPAN / 16;
        let mut w: TimingWheel<u64> = TimingWheel::new();
        let mut seq = 0u64;
        for i in 0..32 {
            w.push(SimTime::from_ps(i * stride), seq, seq);
            seq += 1;
        }
        self.ns("sim.wheel.overflow_ns", || {
            let (t, _, item) = w.pop().expect("wheel holds 32 entries");
            w.push(
                SimTime::from_ps(t.as_ps() + 2 * WHEEL_SPAN),
                seq,
                black_box(item),
            );
            seq += 1;
        });
    }

    fn snapshot_fork(&mut self, seed: u64) {
        let mut testbed = simload::build_testbed3(seed, false).engine;
        testbed.run_until(SimTime::from_ms(10));
        self.snapshot_fork_rows("sim.snapshot_us.testbed3", "sim.fork_us.testbed3", &testbed);
        for (hosts, snap, fork) in [
            (100, "sim.snapshot_us.fabric100", "sim.fork_us.fabric100"),
            (
                1_000,
                "sim.snapshot_us.fabric1000",
                "sim.fork_us.fabric1000",
            ),
        ] {
            let options = TopoOptions {
                seed,
                ..TopoOptions::sized(hosts)
            };
            let mut engine = build_fabric(&options, |_, _| {})
                .expect("fabric wires")
                .engine;
            engine.run_until(SimTime::from_ms(1));
            self.snapshot_fork_rows(snap, fork, &engine);
        }
    }

    fn snapshot_fork_rows(&mut self, snap: &'static str, fork: &'static str, engine: &Engine<Ev>) {
        self.us(snap, || {
            black_box(engine.snapshot());
        });
        let snapshot = engine.snapshot();
        self.us(fork, || {
            black_box(snapshot.fork());
        });
    }

    fn bytes(&mut self) {
        let shared: SharedBytes = vec![0x5Au8; 1024].into();
        self.ns("sim.bytes.clone_ns", || {
            black_box(black_box(&shared).clone());
        });
        for (name, len) in [("sim.bytes.cow_ns.64", 64), ("sim.bytes.cow_ns.1024", 1024)] {
            let shared: SharedBytes = vec![0x5Au8; len].into();
            self.ns(name, || {
                let mut copy = shared.clone();
                copy.make_mut()[0] ^= 1;
                black_box(copy);
            });
        }
    }

    fn core(&mut self) {
        for (pass, armed, len) in [
            ("core.fifo.passthrough_ns.64", "core.fifo.armed_ns.64", 64),
            (
                "core.fifo.passthrough_ns.1024",
                "core.fifo.armed_ns.1024",
                1024,
            ),
        ] {
            let wire = data_packet_wire(len);
            let mut injector = FifoInjector::new(InjectorConfig::passthrough());
            self.ns(pass, || {
                let mut bytes = wire.clone();
                black_box(injector.process_packet_shared(&mut bytes));
            });
            // The armed workload's configuration: every matched byte is
            // replaced by itself, so the packet is copied, rewritten and
            // its CRC-8 repaired while the wire bytes stay the same.
            let mut injector = FifoInjector::new(simload::armed_config());
            self.ns(armed, || {
                let mut bytes = wire.clone();
                black_box(injector.process_packet_shared(&mut bytes));
            });
        }

        let haystack = pattern(4096, 251);
        let compare = CompareUnit::new(0xDEAD_BEEF, 0xFFFF_FFFF);
        self.mib_s("core.trigger.scan_mib_s", haystack.len(), || {
            let mut hits = 0u64;
            compare.scan_each(black_box(&haystack), |_| hits += 1);
            black_box(hits);
        });

        let mut pipeline = FifoPipeline::new(
            64,
            2,
            CompareUnit::new(0xFFFF_FFFF, u32::MAX),
            CorruptUnit::toggle(0),
            ClockGenerator::from_hz(200_000_000),
        );
        let mut x = 0u32;
        self.ns("core.pipeline.cycle_ns", || {
            x = x.wrapping_add(1);
            let out = pipeline.step_odd(Some(black_box(x)));
            black_box((out, pipeline.step_even()));
        });

        // One full programming script through the device's serial path
        // (command decoder and configuration write), per byte.
        let script = script_bytes(&commands_for_config(
            DirSelect::Both,
            &simload::armed_config(),
        ));
        let mut device = InjectorDevice::with_name("ledger");
        let per_script = self.ns_per_call(|| device.feed_serial(black_box(&script)));
        self.rows
            .push(("core.command.feed_ns", per_script / script.len() as f64));
    }

    fn myrinet(&mut self) {
        for (name, len) in [
            ("myrinet.crc8.mib_s.64", 64),
            ("myrinet.crc8.mib_s.4096", 4096),
        ] {
            let data = pattern(len, 256);
            self.mib_s(name, len, || {
                black_box(netfi_myrinet::crc8::checksum(black_box(&data)));
            });
        }
        for (enc, parse, strip, len) in [
            (
                "myrinet.packet.encode_ns.64",
                "myrinet.packet.parse_ns.64",
                "myrinet.packet.route_strip_ns.64",
                64,
            ),
            (
                "myrinet.packet.encode_ns.1024",
                "myrinet.packet.parse_ns.1024",
                "myrinet.packet.route_strip_ns.1024",
                1024,
            ),
        ] {
            let packet = Packet::new(vec![route_to_host(3)], PacketType::DATA, pattern(len, 251));
            self.ns(enc, || {
                black_box(black_box(&packet).encode());
            });
            let delivered: SharedBytes = packet.encode().into();
            self.ns(parse, || {
                black_box(Packet::parse_delivered_shared(black_box(&delivered)).is_ok());
            });
            let routed = Packet::new(
                vec![route_to_switch(1), route_to_host(3)],
                PacketType::DATA,
                pattern(len, 251),
            )
            .encode();
            self.ns(strip, || {
                black_box(wire::strip_route_byte(black_box(&routed)).is_ok());
            });
        }
    }

    fn netstack(&mut self) {
        for (name, len) in [
            ("netstack.checksum.mib_s.64", 64),
            ("netstack.checksum.mib_s.1024", 1024),
        ] {
            let data = pattern(len, 256);
            self.mib_s(name, len, || {
                black_box(netfi_netstack::checksum::checksum(black_box(&data)));
            });
        }
        let datagram = UdpDatagram::new(6_000, 7, pattern(64, 251));
        self.ns("netstack.udp.encode_ns", || {
            black_box(black_box(&datagram).encode());
        });
        let encoded: SharedBytes = datagram.encode().into();
        self.ns("netstack.udp.decode_ns", || {
            black_box(UdpDatagram::decode_shared(black_box(&encoded)).is_ok());
        });
    }

    fn phy_fc(&mut self) {
        let data = pattern(4096, 256);
        self.mib_s("phy.b8b10.encode_mib_s", data.len(), || {
            let mut encoder = Encoder::new();
            black_box(encoder.push_data(black_box(&data)).is_ok());
        });
        let line = Encoder::new().push_data(&data).expect("data bytes encode");
        self.mib_s("phy.b8b10.decode_mib_s", data.len(), || {
            let mut decoder = Decoder::new();
            let mut sum = 0u64;
            for &code in black_box(&line) {
                if let Ok(Byte8::Data(b)) = decoder.push(code) {
                    sum += u64::from(b);
                }
            }
            black_box(sum);
        });
        let uart = UartConfig::rs232_115200();
        let mut byte = 0u8;
        self.ns("phy.serial.frame_ns", || {
            byte = byte.wrapping_add(1);
            let frame = uart.frame(black_box(byte));
            black_box(uart.deframe(&frame).is_ok());
        });

        let data = pattern(2048, 256);
        self.mib_s("fc.crc32.mib_s.2048", data.len(), || {
            black_box(netfi_fc::crc32::checksum(black_box(&data)));
        });
        let frame = FcFrame::data(
            FcAddress::new(0x010203),
            FcAddress::new(0x040506),
            1,
            pattern(512, 251),
        );
        self.ns("fc.frame.line_roundtrip_ns", || {
            let line = frame.to_line(&mut Encoder::new()).expect("frame encodes");
            black_box(decode_line(&line, &mut Decoder::new()).is_ok());
        });
    }

    fn obs(&mut self) {
        let mut registry = Registry::new();
        let mut v = 0u64;
        self.ns("obs.registry.record_ns", || {
            v = v.wrapping_add(977);
            registry.record("ledger.latency_ns", black_box(v & 0xFFFF));
        });
        let mut flight: FlightRecorder<u64> = FlightRecorder::new(1024);
        let mut t = 0u64;
        self.ns("obs.flight.push_ns", || {
            t += 1;
            flight.push(SimTime::from_ps(t), black_box(t));
        });
    }

    fn sample(&mut self, seed: u64) {
        let wire_len = campaign_wire().len();
        let mut index = 0u64;
        self.ns("sample.space.draw_ns", || {
            index += 1;
            black_box(draw_point(seed, black_box(index), wire_len, ARM_SPAN_NS));
        });
        let baseline = RunEvidence {
            outcome: RunOutcome::DeadlineReached,
            injections: 0,
            obs_injects: 0,
            crc_detections: 0,
            timeout_detections: 0,
            delivered: 12,
            corrupt_payloads: 0,
        };
        let run = RunEvidence {
            injections: 1,
            crc_detections: 1,
            delivered: 11,
            ..baseline
        };
        self.ns("sample.classify_ns", || {
            black_box(classify(black_box(&run), black_box(&baseline)));
        });
    }

    fn detect(&mut self) {
        let pairs = 100;
        let thresholds = [Phi::from_int(2), Phi::from_int(5), Phi::from_int(8)];
        let mut monitor = SuspicionMonitor::new(pairs, 16, &thresholds);
        // Fill every window at a 10 ms beat, then keep the beat going.
        let beat_ps = 10_000_000_000u64;
        let mut seq = 0u64;
        for _ in 0..17 {
            seq += 1;
            for pair in 0..pairs {
                monitor.arrival(pair, seq, SimTime::from_ps(seq * beat_ps));
            }
        }
        let mut pair = 0usize;
        self.ns("detect.accrual.arrival_ns", || {
            if pair == 0 {
                seq += 1;
            }
            black_box(monitor.arrival(pair, seq, SimTime::from_ps(seq * beat_ps)));
            pair = (pair + 1) % pairs;
        });
        let mut now = seq * beat_ps;
        let per_poll = self.ns_per_call(|| {
            now += 1_000_000; // 1 µs later: suspicion is recomputed, nothing flips
            monitor.poll(SimTime::from_ps(now));
        });
        self.rows
            .push(("detect.accrual.poll_ns_per_pair", per_poll / pairs as f64));

        for (name, hosts) in [
            ("detect.topo.analyze_us.100", 100),
            ("detect.topo.analyze_us.1000", 1_000),
        ] {
            let graph = fabric_graph(&TopoOptions::sized(hosts));
            self.us(name, || {
                black_box(analyze(black_box(&graph)));
            });
        }
    }
}

/// `len` bytes of a repeating arithmetic pattern, period `modulus`.
fn pattern(len: usize, modulus: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 % modulus) as u8).collect()
}

/// The wire image of a DATA packet with a `len`-byte payload that holds
/// the armed configuration's trigger byte mid-payload.
fn data_packet_wire(len: usize) -> SharedBytes {
    let mut payload = pattern(len, 251);
    payload[len / 2] = simload::ARMED_BYTE;
    Packet::new(vec![route_to_host(1)], PacketType::DATA, payload)
        .encode()
        .into()
}
