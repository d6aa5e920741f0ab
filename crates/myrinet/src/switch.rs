//! The Myrinet crossbar switch.
//!
//! Packets are routed with relative addressing: "at each switch, the first
//! byte of the header designates the outgoing port. Once the packet is
//! routed, the byte used by the current switch is stripped off … after each
//! byte is removed, the trailing CRC-8 is recomputed" (§4.1). A route byte
//! with its MSB set targets another switch and is stripped here; the final
//! route byte (MSB clear) is left for the destination interface to consume.
//!
//! Each input port has a slack buffer (paper Figure 9) that generates
//! STOP/GO flow control toward its upstream sender, through the output
//! port on the same link — the STOP as the head of a STOP train (see
//! [`crate::egress`]); a severed port sends none. Output ports implement
//! wormhole path reclamation: a packet that arrives without its terminating
//! GAP leaves its output path *held* — "the path followed by the packet
//! will remain occupied since it is normally reclaimed with the terminating
//! GAP" — until a GAP arrives on the same input or the long-period timeout
//! (~4 million character periods, ≈50 ms at 80 MB/s) fires and the path is
//! reclaimed (§4.3.1).
//!
//! # Arbitration
//!
//! The crossbar is arbitrated round-robin over the inputs, and the arbiter
//! is event-driven: it looks only at inputs that something has *woken*.
//! Three words carry that. `occupied` has a bit per input whose queue is
//! non-empty. `want[i]` caches the output the head packet of input `i` asks
//! for — one cache line for 64 inputs, rewritten only when a head changes
//! (a push into an empty queue, a pop). `candidates` has a bit per input
//! that *may* be actionable. A bit is set by exactly what can make a head
//! actionable: the packet becoming the head of its input (that one bit);
//! output `p` possibly becoming free — `TX_DONE(p)`, GO on `p`,
//! `STOP_TIMEOUT(p)`, a GAP or `HOLD_RELEASE` releasing `p`, a flow symbol
//! pumped out of `p` — which wakes the occupied inputs with `want[i] == p`;
//! and [`Switch::sever_port`] / `attach_port`, which wake every occupied
//! input. `service` takes the first candidate in cyclic order from the
//! round-robin cursor, tries it, and clears its bit when it cannot move.
//! An attempt that does not move a packet changes nothing, and
//! `candidates` is always a superset of the actionable inputs, so the first
//! candidate that moves is the first actionable input from the cursor: the
//! forwarding order is that of a walk over every input, at the cost of the
//! inputs that were woken. Debug builds check the superset after every
//! event; [`Switch::arbitration`] counts the attempts.

use std::collections::VecDeque;

use netfi_obs::Recorder;
use netfi_phy::ControlSymbol;
use netfi_sim::{Component, ComponentId, Context, SimDuration, SimTime};

use crate::egress::{
    split_timer_kind, timer_class, timer_kind, Cut, EgressPort, EgressStats, FlowState,
    STOP_TIMEOUT_CHARS,
};
use crate::event::{Attach, Ev, PortPeer};
use crate::frame::{Frame, LastGap, PacketFrame, TrainMark};
use crate::packet::{wire, ROUTE_SWITCH_FLAG};
use crate::sbuf::{Accept, SlackBuffer};

/// Configuration for a [`Switch`].
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Slack buffer capacity per input port, bytes.
    pub sbuf_capacity: usize,
    /// High watermark (STOP threshold).
    pub sbuf_high: usize,
    /// Low watermark (GO threshold).
    pub sbuf_low: usize,
    /// Long-period forward-progress timeout for held paths. The paper gives
    /// roughly four million character transmission periods, ~50 ms at
    /// 80 MB/s.
    pub long_timeout: SimDuration,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        // Headroom above the high watermark must absorb frames already in
        // flight when STOP reaches the sender (at frame granularity that is
        // a couple of maximum-size frames).
        SwitchConfig {
            sbuf_capacity: 8192,
            sbuf_high: 4096,
            sbuf_low: 1024,
            long_timeout: SimDuration::from_ms(50),
        }
    }
}

/// Aggregate switch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets forwarded to an output port.
    pub forwarded: u64,
    /// Packets lost to input slack-buffer overflow.
    pub overflow_drops: u64,
    /// Packets lost to head/tail misinterpretation after a missing GAP.
    pub framing_drops: u64,
    /// Packets truncated by a spurious GAP landing inside them.
    pub truncation_drops: u64,
    /// Packets lost to a route byte naming an unwired port.
    pub misroute_drops: u64,
    /// Packets too short to route.
    pub malformed_drops: u64,
    /// Held paths reclaimed by the long-period timeout.
    pub long_timeout_releases: u64,
    /// Held paths reclaimed by a late GAP.
    pub gap_releases: u64,
    /// Frames discarded at a severed port (fault-grid link deactivation).
    pub severed_drops: u64,
}

/// What arbitrating the crossbar cost, as counts that repeat exactly for a
/// seed. Not part of [`SwitchStats`]: the fabric digests hash that struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arbitration {
    /// Head-of-line inspections (`try_forward` calls), moved or not.
    pub attempts: u64,
}

/// `want` of a head packet that has no route byte.
const NO_OUTPUT: u8 = u8::MAX;

/// The output port `head` asks for: its route byte less the switch flag.
fn wanted_output(head: &PacketFrame) -> u8 {
    wire::peek_route_byte(&head.bytes).map_or(NO_OUTPUT, |b| b & !ROUTE_SWITCH_FLAG)
}

#[derive(Debug)]
struct InputPort {
    sbuf: SlackBuffer,
    queue: VecDeque<PacketFrame>,
    /// While the input waits for the GAP an unterminated packet owes: how
    /// many standalone GAPs had arrived when it began (any more ends it).
    awaiting_gap: Option<u64>,
    /// Output port currently held open by an unterminated packet from this
    /// input.
    holding: Option<u8>,
    /// The standalone GAPs this input has seen. They only arise from
    /// corrupted flow symbols or late terminator retransmissions; one
    /// arriving *during* a packet's serialization window truncates that
    /// packet (a GAP inside a packet ends it early).
    gaps: LastGap,
}

netfi_sim::clone_in_place!(InputPort {
    sbuf,
    queue,
    awaiting_gap,
    holding,
    gaps,
});

impl InputPort {
    /// Whether the input still waits for a GAP at `now`, ahead of a frame
    /// arriving then (a GAP-train repeat of that instant sorts after it).
    fn awaiting_gap(&self, now: SimTime) -> bool {
        self.awaiting_gap
            .is_some_and(|n| n == self.gaps.arrived(now, false))
    }
}

/// An N-port Myrinet crossbar switch.
#[derive(Debug)]
pub struct Switch {
    name: String,
    inputs: Vec<InputPort>,
    egress: Vec<EgressPort>,
    hold_gen: Vec<u64>,
    /// Ports severed by a fault-grid [`sever_port`](Switch::sever_port):
    /// frames arriving on or routed out of a severed port are discarded,
    /// modelling a cut cable without rewiring the topology.
    severed: Vec<bool>,
    config: SwitchConfig,
    stats: SwitchStats,
    rr_cursor: usize,
    /// Inputs whose queue is non-empty, bit `i` for input `i`.
    occupied: u64,
    /// The output the head packet of each occupied input asks for
    /// ([`NO_OUTPUT`] if it has no route byte); stale for an empty input.
    want: [u8; 64],
    /// Inputs that may be actionable: a superset of the inputs whose head
    /// [`try_forward`](Switch::try_forward) would move or drop.
    candidates: u64,
    arbitration: Arbitration,
    /// Whether the event being handled sorts after the STOP refreshes due
    /// at its instant: a frame from a component with a higher id, or the
    /// arbitration a sever schedules at an instant that has run (see
    /// [`EgressPort::run_refresh`]).
    late: bool,
    /// The component the event being handled comes from: the far end of
    /// the port a frame arrives on, this switch for a timer.
    source: Option<ComponentId>,
    /// The latest instant this switch handled an event at, and the highest
    /// id an event of that instant came from. With `gap_release`, what the
    /// debug-build check of GAP-train releases reads.
    seen: Option<(SimTime, ComponentId)>,
    /// The instant a GAP train's timer last released a hold, the input the
    /// train arrives on, and the component it comes from.
    gap_release: Option<(SimTime, usize, ComponentId)>,
    /// Arbitrate by the linear walk, the oracle of the differential test.
    #[cfg(test)]
    by_walk: bool,
    /// Forward frames too short for STOP trains without complaint: the
    /// differential test of arbitration compares two switches of one model
    /// of STOP repeats, not the model with the per-symbol one.
    #[cfg(test)]
    short_frames: bool,
    /// Observability recorder (scope `"switch"`). Disarmed by default, so
    /// plain simulations pay a `None` branch per drop and nothing else.
    obs: Recorder,
}

netfi_sim::clone_in_place!(Switch {
    name,
    inputs,
    egress,
    hold_gen,
    severed,
    config,
    stats,
    rr_cursor,
    occupied,
    want,
    candidates,
    arbitration,
    late,
    source,
    seen,
    gap_release,
    #[cfg(test)]
    by_walk,
    #[cfg(test)]
    short_frames,
    obs,
});

impl Switch {
    /// Creates a switch with `ports` ports (the paper's test bed uses an
    /// 8-port switch).
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or exceeds 64 (the route-byte port space).
    pub fn new(name: impl Into<String>, ports: usize, config: SwitchConfig) -> Switch {
        assert!(ports > 0 && ports <= 64, "switch ports must be 1..=64");
        Switch {
            source: None,
            seen: None,
            gap_release: None,
            name: name.into(),
            inputs: (0..ports)
                .map(|_| InputPort {
                    sbuf: SlackBuffer::new(
                        config.sbuf_capacity,
                        config.sbuf_high,
                        config.sbuf_low,
                    ),
                    queue: VecDeque::new(),
                    awaiting_gap: None,
                    holding: None,
                    gaps: LastGap::default(),
                })
                .collect(),
            egress: (0..ports).map(|p| EgressPort::new(p as u8)).collect(),
            hold_gen: vec![0; ports],
            severed: vec![false; ports],
            config,
            stats: SwitchStats::default(),
            rr_cursor: 0,
            occupied: 0,
            want: [NO_OUTPUT; 64],
            candidates: 0,
            arbitration: Arbitration::default(),
            late: false,
            #[cfg(test)]
            by_walk: false,
            #[cfg(test)]
            short_frames: false,
            obs: Recorder::disarmed(),
        }
    }

    /// The switch's observability recorder.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable access to the recorder (arm it before an observed run).
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// The switch's name (for monitoring output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.egress.len()
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// What arbitration has cost so far.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }

    /// Slack-buffer overflow count summed over inputs.
    pub(crate) fn total_sbuf_overflows(&self) -> u64 {
        self.inputs.iter().map(|i| i.sbuf.overflows()).sum()
    }

    /// Flow-control symbols generated toward upstream senders.
    pub(crate) fn total_stops_generated(&self) -> u64 {
        self.inputs.iter().map(|i| i.sbuf.stops_sent()).sum()
    }

    /// The counters of output `port` as of `now` (see
    /// [`EgressPort::stats`]).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn egress_stats(&self, port: u8, now: SimTime) -> EgressStats {
        self.egress[usize::from(port)].stats(now)
    }

    /// Severs `port` at `now`, every event due by `now` having run: every
    /// frame arriving on it or routed out of it is silently discarded from
    /// now on, and it sends no flow control, modelling a cut cable. Used by
    /// the fault grid to deactivate links on a forked engine without
    /// rewiring. A GAP train arriving on the port ends with the repeats
    /// that arrived by `now`. Returns what the cut owes, for the harness to
    /// schedule: the ends of the link's two STOP trains ([`EgressPort::cut`]) and,
    /// if packets wait for the port, an arbitration now, at which they
    /// enter the dead link and vanish.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn sever_port(&mut self, now: SimTime, port: u8) -> Cut {
        let p = usize::from(port);
        self.severed[p] = true;
        self.candidates |= self.occupied;
        self.inputs[p].gaps.close(now, true);
        let mut cut = self.egress[p].cut(now, self.inputs[p].sbuf.upstream_stopped());
        let waiting = (0..self.inputs.len())
            .any(|i| self.occupied >> i & 1 != 0 && usize::from(self.want[i]) == p);
        if waiting {
            let kind = timer_kind(timer_class::SEVERED, port);
            cut.near.insert(0, (now, Ev::Timer { kind, gen: 0 }));
        }
        cut
    }

    /// Switches every port to the per-symbol model of STOP repeats, the
    /// oracle of the STOP-train differential test. Call before the
    /// simulation starts.
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_per_symbol(&mut self) {
        for (p, egress) in self.egress.iter_mut().enumerate() {
            egress.set_per_symbol(timer_kind(timer_class::STOP_REFRESH, p as u8));
        }
    }

    fn on_control(&mut self, ctx: &mut Context<'_, Ev>, port: usize, code: u8) {
        match ControlSymbol::decode_tolerant(code) {
            Some(ControlSymbol::Stop) => self.egress[port].on_flow(ctx, ControlSymbol::Stop),
            Some(ControlSymbol::Go) => {
                self.egress[port].on_flow(ctx, ControlSymbol::Go);
                self.wake_output(port);
                self.service(ctx);
            }
            Some(ControlSymbol::Gap) => {
                // A late GAP reclaims the path this input was holding and
                // resynchronizes framing. Its arrival time is remembered:
                // if a packet was mid-serialization on this input, the GAP
                // physically landed inside it (see on_packet).
                self.inputs[port].gaps.arrive(ctx.now());
                self.inputs[port].awaiting_gap = None;
                self.release_by_gap(ctx, port);
                self.service(ctx);
            }
            Some(ControlSymbol::Idle) | None => {}
        }
    }

    /// A GAP arrived on input `port`: reclaims the path the input was
    /// holding, if any. Returns whether it did.
    fn release_by_gap(&mut self, ctx: &mut Context<'_, Ev>, port: usize) -> bool {
        let Some(out) = self.inputs[port].holding.take() else {
            return false;
        };
        self.hold_gen[out as usize] += 1; // cancel pending timeout
        self.egress[out as usize].release(ctx);
        self.stats.gap_releases += 1;
        self.obs.instant(ctx.now(), "switch", "gap_release", u64::from(out));
        self.wake_output(out as usize);
        true
    }

    /// Input `i` has just taken a hold while a GAP train arrives on it: the
    /// train's next repeat releases it, as that GAP would, at a timer due
    /// when the repeat arrives — the one event a GAP train costs.
    fn arm_gap_repeat(&mut self, ctx: &mut Context<'_, Ev>, i: usize) {
        let Some(repeats) = self.inputs[i].gaps.train() else {
            return;
        };
        // A repeat due now has arrived if it sorted ahead of this event.
        let peer = self.egress[i].peer().map(|p| p.dst);
        let arrived = peer.is_some() && self.source > peer;
        let now = ctx.now();
        let next = repeats.at(repeats.count(now, arrived));
        let kind = timer_kind(timer_class::GAP_REPEAT, i as u8);
        let delay = next.checked_duration_since(now).unwrap_or_default();
        ctx.send_self(delay, Ev::Timer { kind, gen: 0 });
    }

    fn on_packet(&mut self, ctx: &mut Context<'_, Ev>, port: usize, pf: PacketFrame) {
        let now = ctx.now();
        let gap_ok = pf.gap_terminated();
        // A standalone GAP that arrived while this packet was still
        // serializing landed *inside* the packet: the characters before it
        // form a truncated packet (bad CRC) and the rest a garbage head.
        // Both are lost. (A GAP-train repeat due now sorts after it.)
        if let Some(gap_at) = self.inputs[port].gaps.latest(now, false) {
            let window = self
                .egress
                .get(port)
                .and_then(|e| e.peer())
                .map(|p| p.link.transfer_time(pf.wire_len()))
                .unwrap_or_default();
            if gap_at > now.saturating_sub_duration(window) {
                self.inputs[port].gaps.consume(now, false);
                self.stats.truncation_drops += 1;
                self.obs.instant(now, "switch", "truncation_drop", port as u64);
                return;
            }
        }
        {
            let input = &mut self.inputs[port];
            if input.awaiting_gap(now) {
                // The head of this packet is misinterpreted as the tail of
                // the unterminated predecessor (§4.3.1): it is lost. Its
                // own GAP, if present, resynchronizes the stream.
                self.stats.framing_drops += 1;
                self.obs.instant(now, "switch", "framing_drop", port as u64);
                if gap_ok {
                    input.awaiting_gap = None;
                    if self.release_by_gap(ctx, port) {
                        self.service(ctx);
                    }
                }
                return;
            }
            self.egress[port].run_refresh(now, self.late, input.sbuf.upstream_stopped());
            match input.sbuf.try_accept(pf.wire_len()) {
                Accept::Overflow => {
                    self.stats.overflow_drops += 1;
                    self.obs.instant(now, "switch", "overflow_drop", port as u64);
                    return;
                }
                Accept::Stored => {}
            }
            if !gap_ok {
                input.awaiting_gap = Some(input.gaps.arrived(now, false));
            }
            input.queue.push_back(pf);
            if input.queue.len() == 1 {
                self.head_changed(port);
            }
        }
        self.poll_flow(ctx, port);
        self.service(ctx);
    }

    /// Arbitrates the crossbar: moves every packet that can move, round-robin
    /// over the inputs. Each turn goes to the first candidate in cyclic
    /// order from the cursor; one that moves (forwarded or dropped) puts the
    /// cursor just past itself, so no input can monopolize an output, and
    /// stays a candidate for its next head; one that cannot move leaves the
    /// set until something wakes it (module header, "Arbitration").
    fn service(&mut self, ctx: &mut Context<'_, Ev>) {
        #[cfg(test)]
        if self.by_walk {
            return self.service_by_walk(ctx);
        }
        while self.candidates != 0 {
            let ahead = self.candidates & (u64::MAX << self.rr_cursor);
            let first = if ahead != 0 { ahead } else { self.candidates };
            let i = first.trailing_zeros() as usize;
            if self.try_forward(ctx, i) {
                self.rr_cursor = (i + 1) % self.inputs.len();
                self.head_changed(i);
            } else {
                self.candidates &= !(1 << i);
            }
        }
    }

    /// The parent of `service`: a walk over every input from the cursor,
    /// started again after each packet that moves.
    #[cfg(test)]
    fn service_by_walk(&mut self, ctx: &mut Context<'_, Ev>) {
        let nports = self.inputs.len();
        let mut progress = true;
        while progress {
            progress = false;
            let start = self.rr_cursor;
            for offset in 0..nports {
                let i = (start + offset) % nports;
                if self.try_forward(ctx, i) {
                    self.rr_cursor = (i + 1) % nports;
                    self.head_changed(i);
                    progress = true;
                    break;
                }
            }
        }
    }

    /// Input `i` has a new head packet, or none: refreshes its three
    /// arbitration entries. A new head is a candidate.
    fn head_changed(&mut self, i: usize) {
        let bit = 1u64 << i;
        match self.inputs[i].queue.front() {
            Some(head) => {
                self.want[i] = wanted_output(head);
                self.occupied |= bit;
                self.candidates |= bit;
            }
            None => {
                self.occupied &= !bit;
                self.candidates &= !bit;
            }
        }
    }

    /// Output `p` may have become free: every input whose head asks for it
    /// is a candidate again.
    fn wake_output(&mut self, p: usize) {
        let mut waiting = self.occupied;
        while waiting != 0 {
            let i = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            if usize::from(self.want[i]) == p {
                self.candidates |= 1 << i;
            }
        }
    }

    /// The debug-build invariant the equivalence with the walk rests on:
    /// `occupied` and `want` agree with the queues, and every input whose
    /// head `try_forward` would move or drop is a candidate.
    fn check_arbitration(&self) {
        let name = &self.name;
        for (i, input) in self.inputs.iter().enumerate() {
            let occupied = self.occupied >> i & 1 != 0;
            assert_eq!(occupied, !input.queue.is_empty(), "{name}: occupied, input {i}");
            let Some(head) = input.queue.front() else {
                continue;
            };
            assert_eq!(self.want[i], wanted_output(head), "{name}: want, input {i}");
            let out = usize::from(self.want[i]);
            let actionable = out >= self.egress.len()
                || self.severed[out]
                || !self.egress[out].is_attached()
                || self.output_ready(out);
            let woken = self.candidates >> i & 1 != 0;
            assert!(woken || !actionable, "{name}: input {i} can move to {out}, not woken");
        }
    }

    /// The debug-build check of the last assumption STOP trains rest on
    /// (DESIGN.md §6): a STOP timeout a train end armed expires at no
    /// instant another output's does, since the per-symbol model may have
    /// ordered the two the other way round.
    fn check_stop_timeouts(&self) {
        for (p, e) in self.egress.iter().enumerate() {
            let Some((due, true)) = e.pending_timeout() else {
                continue;
            };
            let tie = self.egress.iter().enumerate().position(|(q, other)| {
                q != p && other.pending_timeout().is_some_and(|(at, _)| at == due)
            });
            assert!(
                tie.is_none(),
                "{}: STOP timeouts of outputs {p} and {tie:?} expire together at {due}",
                self.name
            );
        }
    }

    /// Whether output `out` takes a packet now: idle, in GO state and not
    /// held.
    fn output_ready(&self, out: usize) -> bool {
        let eg = &self.egress[out];
        !eg.is_held() && eg.flow_state() == FlowState::Go && eg.queue_len() == 0
    }

    /// Attempts to forward the head packet of input `i`. Returns `true` if
    /// it left the input — forwarded, or dropped as malformed, misrouted or
    /// bound for a severed port — and `false`, having changed nothing but
    /// the attempt count, if the input is empty or its output is not ready.
    fn try_forward(&mut self, ctx: &mut Context<'_, Ev>, i: usize) -> bool {
        self.arbitration.attempts += 1;
        let Some(head) = self.inputs[i].queue.front() else {
            return false;
        };
        let Some(route_byte) = wire::peek_route_byte(&head.bytes) else {
            let Some(pf) = self.inputs[i].queue.pop_front() else {
                return false;
            };
            self.drain_input(ctx, i, pf.wire_len());
            self.stats.malformed_drops += 1;
            self.obs.instant(ctx.now(), "switch", "malformed_drop", i as u64);
            return true;
        };
        let out = (route_byte & !ROUTE_SWITCH_FLAG) as usize;
        if out < self.severed.len() && self.severed[out] {
            // The outgoing cable is cut: the packet enters the dead link
            // and vanishes.
            let Some(pf) = self.inputs[i].queue.pop_front() else {
                return false;
            };
            self.drain_input(ctx, i, pf.wire_len());
            self.stats.severed_drops += 1;
            self.obs.instant(ctx.now(), "switch", "severed_drop", i as u64);
            return true;
        }
        if out >= self.egress.len() || !self.egress[out].is_attached() {
            // "directing packets to the wrong ports on the switch … resulted
            // in the expected packet losses" (§4.3.2).
            let Some(pf) = self.inputs[i].queue.pop_front() else {
                return false;
            };
            self.drain_input(ctx, i, pf.wire_len());
            self.stats.misroute_drops += 1;
            self.obs.instant(ctx.now(), "switch", "misroute_drop", i as u64);
            return true;
        }
        // Backpressure: forward only when the output is idle, in GO state
        // and not held, so congestion accumulates in the input slack buffer
        // and propagates STOP upstream.
        if !self.output_ready(out) {
            return false;
        }
        let Some(pf) = self.inputs[i].queue.pop_front() else {
            return false;
        };
        let chars = pf.wire_len();
        // Strip switch-bound route bytes; leave the final (host) byte.
        let bytes = if route_byte & ROUTE_SWITCH_FLAG != 0 {
            match wire::strip_route_byte(&pf.bytes) {
                Ok(b) => b.into(),
                Err(_) => {
                    self.drain_input(ctx, i, chars);
                    self.stats.malformed_drops += 1;
                    self.obs.instant(ctx.now(), "switch", "malformed_drop", i as u64);
                    return true;
                }
            }
        } else {
            pf.bytes.clone()
        };
        let forwarded = PacketFrame {
            bytes,
            terminator: pf.terminator,
        };
        // The TX_DONE this frame sets must sort ahead of the STOP refreshes
        // and STOP timeouts of its instant, as in the per-symbol model of
        // STOP repeats: it is set earlier only if the frame is longer than
        // the 16-character timeout (DESIGN.md §6).
        #[cfg(test)]
        let short_frames = self.short_frames;
        #[cfg(not(test))]
        let short_frames = false;
        debug_assert!(
            forwarded.wire_len() as u64 > STOP_TIMEOUT_CHARS
                || short_frames
                || !self.egress.iter().any(EgressPort::in_stop_train),
            "{}: a {}-character frame is too short for STOP trains",
            self.name,
            forwarded.wire_len()
        );
        if !forwarded.gap_terminated() {
            // Hold the wormhole path until a GAP or the long timeout.
            self.egress[out].hold();
            self.inputs[i].holding = Some(out as u8);
            self.hold_gen[out] += 1;
            let gen = self.hold_gen[out];
            ctx.send_self(
                self.config.long_timeout,
                Ev::Timer {
                    kind: timer_kind(timer_class::HOLD_RELEASE, out as u8),
                    gen,
                },
            );
            self.arm_gap_repeat(ctx, i);
        }
        self.egress[out].enqueue(ctx, Frame::Packet(forwarded));
        self.drain_input(ctx, i, chars);
        self.stats.forwarded += 1;
        true
    }

    fn drain_input(&mut self, ctx: &mut Context<'_, Ev>, i: usize, chars: usize) {
        let input = &mut self.inputs[i];
        self.egress[i].run_refresh(ctx.now(), self.late, input.sbuf.upstream_stopped());
        input.sbuf.drain(chars);
        self.poll_flow(ctx, i);
    }

    /// Sends upstream the STOP or GO that input `i`'s slack buffer owes its
    /// sender, if any, unless the link is severed. The symbol leaves through
    /// output `i`, whose pump may start a queued packet on the way and so
    /// free the output.
    fn poll_flow(&mut self, ctx: &mut Context<'_, Ev>, i: usize) {
        let Some(sym) = self.inputs[i].sbuf.poll_flow() else {
            return;
        };
        match sym {
            ControlSymbol::Stop => self.obs.begin(ctx.now(), "switch", "stopped", i as u64),
            ControlSymbol::Go => self.obs.end(ctx.now(), "switch", "stopped", i as u64),
            _ => {}
        }
        if self.severed[i] {
            return;
        }
        match sym {
            ControlSymbol::Stop => self.egress[i].send_stop(ctx),
            _ => self.egress[i].send_go(ctx),
        }
        self.wake_output(i);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Ev>, kind: u32, gen: u64) {
        let (class, port) = split_timer_kind(kind);
        let port = port as usize;
        match class {
            timer_class::TX_DONE => {
                self.egress[port].on_tx_done(ctx);
                self.wake_output(port);
                self.service(ctx);
            }
            timer_class::STOP_TIMEOUT => {
                self.egress[port].on_stop_timeout(ctx, gen);
                self.wake_output(port);
                self.service(ctx);
            }
            #[cfg(any(test, feature = "oracle"))]
            timer_class::STOP_REFRESH => {
                let stopped = self.inputs[port].sbuf.upstream_stopped() && !self.severed[port];
                if self.egress[port].on_refresh_timer(ctx, stopped) {
                    self.wake_output(port);
                }
            }
            timer_class::SEVERED => self.service(ctx),
            timer_class::HOLD_RELEASE
                if gen == self.hold_gen[port] && self.egress[port].is_held() => {
                    // "The network will recover from this occurrence with a
                    // long-period timeout" (§4.3.1).
                    self.egress[port].release(ctx);
                    self.stats.long_timeout_releases += 1;
                    self.obs.instant(ctx.now(), "switch", "long_timeout_release", port as u64);
                    for input in &mut self.inputs {
                        if input.holding == Some(port as u8) {
                            input.holding = None;
                            input.awaiting_gap = None;
                        }
                    }
                    self.wake_output(port);
                    self.service(ctx);
                }
            timer_class::GAP_REPEAT => {
                let released = self.gap_repeat_due(ctx, port);
                if released {
                    self.check_gap_release(ctx.now(), port);
                }
            }
            _ => {}
        }
    }

    /// A repeat of the GAP train arriving on input `port` may be due now:
    /// if so, and the input holds an output, the repeat releases it, as a
    /// GAP of its own would. Returns whether it did.
    fn gap_repeat_due(&mut self, ctx: &mut Context<'_, Ev>, port: usize) -> bool {
        let input = &self.inputs[port];
        let due = input.gaps.train().is_some_and(|r| r.falls_at(ctx.now()));
        if !due || !self.release_by_gap(ctx, port) {
            return false;
        }
        self.service(ctx);
        true
    }

    /// The debug-build check of the assumption a GAP train's release timer
    /// rests on: it runs where the repeat it stands for would have, among
    /// this switch's events of its instant — after every one from a
    /// component with a lower id than the train's source (the far end of
    /// `port`) and its frames, and before every other but the close of the
    /// train the repeat belongs to. So no event from a component with a
    /// higher id may have run at this instant yet, and every later one of
    /// the instant must come from one (see `on_event`).
    fn check_gap_release(&mut self, now: SimTime, port: usize) {
        if !cfg!(debug_assertions) {
            return;
        }
        let Some(peer) = self.egress[port].peer().map(|p| p.dst) else {
            return;
        };
        let ran = self.seen.filter(|&(at, _)| at == now).map(|(_, id)| id);
        assert!(
            !matches!(ran, Some(id) if id > peer),
            "{}: an event from {ran:?} ran ahead of a GAP repeat from {peer} at {now}",
            self.name
        );
        self.gap_release = Some((now, port, peer));
    }

    /// The other half of [`check_gap_release`](Switch::check_gap_release),
    /// before each event: one at the instant a GAP train's timer released a
    /// hold comes from a component with a higher id than the train's
    /// source, or is the close of that train with its repeat of the
    /// instant.
    fn check_after_gap_release(&self, now: SimTime, source: ComponentId, ev: &Ev) {
        let Some((_, port, peer)) = self.gap_release.filter(|&(at, ..)| at == now) else {
            return;
        };
        let closes_with_repeat = matches!(ev, Ev::Rx {
            port: p,
            frame: Frame::Train { mark: TrainMark::Close { same_instant: true }, .. },
        } if usize::from(*p) == port);
        assert!(
            source > peer || closes_with_repeat,
            "{}: an event from {source} ran after a GAP repeat from {peer} at {now}",
            self.name
        );
    }
}

impl Attach for Switch {
    fn attach_port(&mut self, port: u8, peer: PortPeer) {
        // The refresh periods, STOP timeouts and frame times of STOP trains
        // line up with the per-symbol model's only on links of one rate.
        debug_assert!(
            self.egress
                .iter()
                .filter_map(EgressPort::peer)
                .all(|p| p.link.char_period() == peer.link.char_period()),
            "{}: port {port} runs at another rate than the others",
            self.name
        );
        self.egress[port as usize].attach(peer);
        self.candidates |= self.occupied;
    }
}

impl Component<Ev> for Switch {
    fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        let now = ctx.now();
        let from_peer = match &ev {
            Ev::Rx { port, .. } => self
                .egress
                .get(usize::from(*port))
                .and_then(EgressPort::peer)
                .map(|peer| peer.dst),
            _ => None,
        };
        let source = from_peer.unwrap_or(ctx.self_id());
        self.source = Some(source);
        self.late = match &ev {
            Ev::Rx { .. } => source > ctx.self_id(),
            Ev::Timer { kind, .. } => split_timer_kind(*kind).0 == timer_class::SEVERED,
            _ => false,
        };
        if cfg!(debug_assertions) {
            self.check_after_gap_release(now, source, &ev);
        }
        match ev {
            Ev::Rx { port, frame } => {
                // A severed input is a cut cable: whatever was in flight on
                // it never arrives.
                if self.severed[port as usize] {
                    if matches!(frame, Frame::Packet(_)) {
                        self.stats.severed_drops += 1;
                        self.obs.instant(ctx.now(), "switch", "severed_drop", u64::from(port));
                    }
                    return;
                }
                let port = usize::from(port);
                match frame {
                    Frame::Control(code) => self.on_control(ctx, port, code),
                    Frame::Packet(pf) => self.on_packet(ctx, port, pf),
                    Frame::Train { code, mark } => {
                        let sym = code.and_then(ControlSymbol::decode_tolerant);
                        if mark == (TrainMark::Close { same_instant: true }) {
                            // The train's repeat of this instant, if any,
                            // arrived just ahead of its close.
                            self.gap_repeat_due(ctx, port);
                        }
                        self.egress[port].on_train(ctx, mark, sym);
                        self.inputs[port].gaps.on_train(now, mark, sym);
                        if let Some(code) = code {
                            self.on_control(ctx, port, code);
                        }
                    }
                }
            }
            Ev::Timer { kind, gen } => self.on_timer(ctx, kind, gen),
            _ => {}
        }
        if cfg!(debug_assertions) {
            self.check_arbitration();
            self.check_stop_timeouts();
            self.seen = match self.seen {
                Some((at, id)) if at == now => Some((at, id.max(source))),
                _ => Some((now, source)),
            };
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
    use crate::event::connect;
    use crate::frame::Repeats;
    use crate::packet::{route_to_host, route_to_switch, Packet, PacketType};
    use netfi_phy::Link;
    use netfi_sim::{ComponentId, DetRng, Engine, SimTime};

    /// A host-like endpoint that records everything it receives and can be
    /// told to send packets.
    #[derive(Clone)]
    struct Endpoint {
        egress: EgressPort,
        rx_packets: Vec<PacketFrame>,
        rx_controls: Vec<u8>,
    }

    impl Endpoint {
        fn new() -> Endpoint {
            Endpoint {
                egress: EgressPort::new(0),
                rx_packets: Vec::new(),
                rx_controls: Vec::new(),
            }
        }
    }

    impl Endpoint {
        fn on_symbol(&mut self, ctx: &mut Context<'_, Ev>, c: u8) {
            if let Some(sym) = ControlSymbol::decode_tolerant(c) {
                self.egress.on_flow(ctx, sym);
            }
            self.rx_controls.push(c);
        }
    }

    impl Attach for Endpoint {
        fn attach_port(&mut self, port: u8, peer: PortPeer) {
            assert_eq!(port, 0);
            self.egress.attach(peer);
        }
    }

    impl Component<Ev> for Endpoint {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Rx { frame, .. } => match frame {
                    Frame::Packet(pf) => self.rx_packets.push(pf),
                    Frame::Control(c) => self.on_symbol(ctx, c),
                    Frame::Train { code, mark } => {
                        let sym = code.and_then(ControlSymbol::decode_tolerant);
                        self.egress.on_train(ctx, mark, sym);
                        if let Some(c) = code {
                            self.on_symbol(ctx, c);
                        }
                    }
                },
                Ev::Timer { kind, gen } => {
                    let (class, _) = split_timer_kind(kind);
                    match class {
                        timer_class::TX_DONE => self.egress.on_tx_done(ctx),
                        timer_class::STOP_TIMEOUT => self.egress.on_stop_timeout(ctx, gen),
                        _ => {}
                    }
                }
                Ev::App(frame) => {
                    if let Ok(f) = frame.downcast::<Frame>() {
                        self.egress.enqueue(ctx, *f);
                    }
                }
                _ => {}
            }
        }
        fn fork(&self) -> Box<dyn Component<Ev>> {
            Box::new(self.clone())
        }
    }

    /// Engine with hosts a,b,c on switch ports 0,1,2.
    fn three_host_net() -> (Engine<Ev>, ComponentId, [ComponentId; 3]) {
        let mut engine: Engine<Ev> = Engine::new();
        let sw = engine.add_component(Box::new(Switch::new(
            "sw0",
            8,
            SwitchConfig::default(),
        )));
        let link = Link::myrinet_640(1.0);
        let hosts = [(); 3].map(|_| engine.add_component(Box::new(Endpoint::new())));
        for (i, &h) in hosts.iter().enumerate() {
            connect::<Endpoint, Switch, _>(&mut engine, (h, 0), (sw, i as u8), &link)
                .expect("wire host");
        }
        (engine, sw, hosts)
    }

    fn send_from(engine: &mut Engine<Ev>, host: ComponentId, frame: Frame) {
        engine.schedule(engine.now(), host, Ev::App(Box::new(frame)));
    }

    fn data_packet(dest_port: u8, payload: &[u8]) -> Frame {
        let pkt = Packet::new(
            vec![route_to_host(dest_port)],
            PacketType::DATA,
            payload.to_vec(),
        );
        Frame::packet(pkt.encode())
    }

    #[test]
    fn forwards_packet_between_hosts() {
        let (mut engine, sw, hosts) = three_host_net();
        send_from(&mut engine, hosts[0], data_packet(1, b"hello"));
        engine.run();
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert_eq!(h1.rx_packets.len(), 1);
        let delivered = Packet::parse_delivered(&h1.rx_packets[0].bytes).unwrap();
        assert_eq!(delivered.payload, b"hello");
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert_eq!(s.stats().forwarded, 1);
    }

    #[test]
    fn final_route_byte_is_not_stripped() {
        let (mut engine, _, hosts) = three_host_net();
        send_from(&mut engine, hosts[0], data_packet(2, b"x"));
        engine.run();
        let h2 = engine.component_as::<Endpoint>(hosts[2]).unwrap();
        // Host sees [route, type(4), payload, crc].
        assert_eq!(h2.rx_packets[0].bytes[0], route_to_host(2));
        assert!(wire::crc_ok(&h2.rx_packets[0].bytes));
    }

    #[test]
    fn switch_bound_byte_stripped_and_crc_recomputed() {
        // Two switches in a row.
        let mut engine: Engine<Ev> = Engine::new();
        let link = Link::myrinet_640(1.0);
        let sw0 = engine.add_component(Box::new(Switch::new("sw0", 4, SwitchConfig::default())));
        let sw1 = engine.add_component(Box::new(Switch::new("sw1", 4, SwitchConfig::default())));
        let src = engine.add_component(Box::new(Endpoint::new()));
        let dst = engine.add_component(Box::new(Endpoint::new()));
        connect::<Endpoint, Switch, _>(&mut engine, (src, 0), (sw0, 0), &link).expect("wire src");
        connect::<Switch, Switch, _>(&mut engine, (sw0, 3), (sw1, 3), &link).expect("wire trunk");
        connect::<Endpoint, Switch, _>(&mut engine, (dst, 0), (sw1, 1), &link).expect("wire dst");
        let pkt = Packet::new(
            vec![route_to_switch(3), route_to_host(1)],
            PacketType::DATA,
            b"across".to_vec(),
        );
        send_from(&mut engine, src, Frame::packet(pkt.encode()));
        engine.run();
        let d = engine.component_as::<Endpoint>(dst).unwrap();
        assert_eq!(d.rx_packets.len(), 1);
        let delivered = Packet::parse_delivered(&d.rx_packets[0].bytes).unwrap();
        assert_eq!(delivered.payload, b"across");
        assert_eq!(delivered.route, vec![route_to_host(1)]);
    }

    #[test]
    fn misrouted_packet_dropped_without_propagation() {
        let (mut engine, sw, hosts) = three_host_net();
        // Port 7 is unwired.
        send_from(&mut engine, hosts[0], data_packet(7, b"lost"));
        engine.run();
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert_eq!(s.stats().misroute_drops, 1);
        assert_eq!(s.stats().forwarded, 0);
        for h in hosts {
            assert!(engine.component_as::<Endpoint>(h).unwrap().rx_packets.is_empty());
        }
    }

    #[test]
    fn unterminated_packet_holds_path_until_long_timeout() {
        let (mut engine, sw, hosts) = three_host_net();
        let mut f = data_packet(1, b"no gap");
        if let Frame::Packet(pf) = &mut f {
            pf.terminator = None;
        }
        send_from(&mut engine, hosts[0], f);
        engine.run_until(SimTime::from_ms(1));
        // Packet delivered but path held.
        assert!(engine.component_as::<Switch>(sw).unwrap().egress[1].is_held());
        // A second packet to the same output is stuck.
        send_from(&mut engine, hosts[2], data_packet(1, b"queued"));
        engine.run_until(SimTime::from_ms(10));
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert_eq!(h1.rx_packets.len(), 1, "second packet must be blocked");
        // After the 50 ms long timeout the path is reclaimed.
        engine.run_until(SimTime::from_ms(60));
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert!(!s.egress[1].is_held());
        assert_eq!(s.stats().long_timeout_releases, 1);
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert_eq!(h1.rx_packets.len(), 2, "blocked packet flows after reclaim");
    }

    #[test]
    fn late_gap_releases_held_path() {
        let (mut engine, sw, hosts) = three_host_net();
        let mut f = data_packet(1, b"no gap");
        if let Frame::Packet(pf) = &mut f {
            pf.terminator = None;
        }
        send_from(&mut engine, hosts[0], f);
        engine.run_until(SimTime::from_ms(1));
        assert!(engine.component_as::<Switch>(sw).unwrap().egress[1].is_held());
        // The sender eventually transmits the missing GAP.
        send_from(&mut engine, hosts[0], Frame::control(ControlSymbol::Gap));
        engine.run_until(SimTime::from_ms(2));
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert!(!s.egress[1].is_held());
        assert_eq!(s.stats().gap_releases, 1);
        assert_eq!(s.stats().long_timeout_releases, 0);
    }

    #[test]
    fn head_after_missing_gap_is_lost() {
        let (mut engine, sw, hosts) = three_host_net();
        let mut f = data_packet(1, b"no gap");
        if let Frame::Packet(pf) = &mut f {
            pf.terminator = None;
        }
        send_from(&mut engine, hosts[0], f);
        engine.run_until(SimTime::from_us(100));
        // Next packet from the same input: its head is misread as the tail
        // of the previous packet.
        send_from(&mut engine, hosts[0], data_packet(2, b"casualty"));
        engine.run_until(SimTime::from_ms(1));
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert_eq!(s.stats().framing_drops, 1);
        let h2 = engine.component_as::<Endpoint>(hosts[2]).unwrap();
        assert!(h2.rx_packets.is_empty());
        // But its GAP resynchronized the stream: a third packet flows
        // (to an unheld output).
        send_from(&mut engine, hosts[0], data_packet(2, b"survivor"));
        engine.run_until(SimTime::from_ms(2));
        let h2 = engine.component_as::<Endpoint>(hosts[2]).unwrap();
        assert_eq!(h2.rx_packets.len(), 1);
    }

    #[test]
    fn spurious_gap_inside_serialization_window_truncates() {
        let (mut engine, sw, hosts) = three_host_net();
        // A 200-byte packet serializes for ~2.6 µs at 640 Mb/s. A GAP
        // landing mid-window (as an interleaved corrupted flow symbol
        // would) truncates it.
        send_from(&mut engine, hosts[0], data_packet(1, &[0x55; 200]));
        // The control frame interleaves past the packet (sent immediately)
        // so it arrives first — i.e. inside the packet's window.
        send_from(&mut engine, hosts[0], Frame::control(ControlSymbol::Gap));
        engine.run();
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert_eq!(s.stats().truncation_drops, 1);
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert!(h1.rx_packets.is_empty(), "truncated packet must be lost");
        // A GAP long before the next packet is harmless.
        send_from(&mut engine, hosts[0], Frame::control(ControlSymbol::Gap));
        engine.run_for(netfi_sim::SimDuration::from_ms(1));
        send_from(&mut engine, hosts[0], data_packet(1, &[0x66; 32]));
        engine.run();
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert_eq!(s.stats().truncation_drops, 1);
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert_eq!(h1.rx_packets.len(), 1);
    }

    #[test]
    fn contention_generates_stop_and_go() {
        let (mut engine, sw, hosts) = three_host_net();
        // Hosts 0 and 2 flood host 1 with large packets; the output port
        // saturates and input buffers fill, generating STOPs upstream.
        for round in 0..40 {
            let payload = vec![round as u8; 900];
            send_from(&mut engine, hosts[0], data_packet(1, &payload));
            send_from(&mut engine, hosts[2], data_packet(1, &payload));
        }
        engine.run_until(SimTime::from_ms(5));
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert!(
            s.total_stops_generated() > 0,
            "contention must generate STOP symbols"
        );
        engine.run_until(SimTime::from_ms(100));
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        // With backpressure (and senders honouring STOP) nothing is lost.
        assert_eq!(h1.rx_packets.len(), 80);
    }

    /// A cut cable carries nothing, flow control included: once the
    /// congested input is severed, its host hears no STOP repeat and no GO.
    #[test]
    fn severed_congested_input_sends_no_flow_control() {
        let (mut engine, sw, hosts) = three_host_net();
        // Hosts 0 and 2 flood host 1: output 1 runs at half their rate, so
        // inputs 0 and 2 fill past their high watermarks.
        for round in 0..40 {
            let payload = vec![round as u8; 900];
            send_from(&mut engine, hosts[0], data_packet(1, &payload));
            send_from(&mut engine, hosts[2], data_packet(1, &payload));
        }
        let stopped = |engine: &Engine<Ev>| {
            engine
                .component_as::<Endpoint>(hosts[0])
                .unwrap()
                .egress
                .flow_state()
                == FlowState::Stopped
        };
        while !stopped(&engine) {
            assert!(
                engine.now() < SimTime::from_ms(1),
                "input 0 never stopped host 0"
            );
            engine.run_for(SimDuration::from_us(1));
        }
        // Mid-stop: a few repeats later, the input is still above its low
        // watermark.
        engine.run_for(SimDuration::from_ns(500));
        assert!(stopped(&engine));
        sever(&mut engine, sw, 0);
        let heard = engine
            .component_as::<Endpoint>(hosts[0])
            .unwrap()
            .rx_controls
            .len();
        engine.run_until(SimTime::from_ms(100));
        let h0 = engine.component_as::<Endpoint>(hosts[0]).unwrap();
        assert_eq!(
            h0.rx_controls.len(),
            heard,
            "symbols after the cut: {:?}",
            &h0.rx_controls[heard..]
        );
        // Without repeats the host times out of STOP by itself.
        assert!(!stopped(&engine));
        assert_eq!(h0.egress.stats(engine.now()).timeout_recoveries, 1);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_too_many_ports() {
        let _ = Switch::new("bad", 65, SwitchConfig::default());
    }

    /// Severs `port` of `sw` now and schedules what the cut owes.
    fn sever(engine: &mut Engine<Ev>, sw: ComponentId, port: u8) {
        let now = engine.now();
        let cut = engine
            .component_as_mut::<Switch>(sw)
            .unwrap()
            .sever_port(now, port);
        cut.schedule(engine, sw);
    }

    #[test]
    fn severed_port_drops_both_directions() {
        let (mut engine, sw, hosts) = three_host_net();
        sever(&mut engine, sw, 1);
        // Inbound on the severed port: lost.
        send_from(&mut engine, hosts[1], data_packet(2, b"from cut"));
        // Outbound through the severed port: lost.
        send_from(&mut engine, hosts[0], data_packet(1, b"to cut"));
        // Control traffic between healthy ports still flows.
        send_from(&mut engine, hosts[0], data_packet(2, b"healthy"));
        engine.run();
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert!(s.severed[1]);
        assert_eq!(s.stats().severed_drops, 2);
        assert_eq!(s.stats().forwarded, 1);
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert!(h1.rx_packets.is_empty());
        let h2 = engine.component_as::<Endpoint>(hosts[2]).unwrap();
        assert_eq!(h2.rx_packets.len(), 1);
    }

    /// The framing casualty's own GAP releases the held output (§4.3.1); a
    /// packet queued for that output leaves at that instant, not at some
    /// later unrelated event. (The long-timeout timer it would otherwise
    /// wait for is stale by then and arbitrates nothing.)
    #[test]
    fn framing_casualty_gap_release_rearbitrates() {
        let (mut engine, sw, hosts) = three_host_net();
        let mut f = data_packet(1, b"no gap");
        if let Frame::Packet(pf) = &mut f {
            pf.terminator = None;
        }
        send_from(&mut engine, hosts[0], f);
        engine.run_until(SimTime::from_us(100));
        assert!(engine.component_as::<Switch>(sw).unwrap().egress[1].is_held());
        send_from(&mut engine, hosts[2], data_packet(1, b"queued"));
        engine.run_until(SimTime::from_us(200));
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert_eq!(h1.rx_packets.len(), 1, "second packet must be blocked");
        // Host 0's next packet is lost to framing, and its GAP frees output 1.
        send_from(&mut engine, hosts[0], data_packet(2, b"casualty"));
        engine.run_until(SimTime::from_us(300));
        let s = engine.component_as::<Switch>(sw).unwrap();
        assert_eq!((s.stats().framing_drops, s.stats().gap_releases), (1, 1));
        assert!(!s.egress[1].is_held());
        let h1 = engine.component_as::<Endpoint>(hosts[1]).unwrap();
        assert_eq!(h1.rx_packets.len(), 2, "queued packet leaves at the release");
    }

    /// The far end of every wired port of a switch under test: logs what
    /// the switch sends, in the order it sent it.
    #[derive(Clone, Default)]
    struct Tap {
        seen: Vec<(SimTime, u8, Frame)>,
    }

    impl Component<Ev> for Tap {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            if let Ev::Rx { port, frame } = ev {
                self.seen.push((ctx.now(), port, frame));
            }
        }
        fn fork(&self) -> Box<dyn Component<Ev>> {
            Box::new(self.clone())
        }
    }

    /// One character period at 640 Mb/s. Stimuli sit on this grid, so they
    /// often share an instant with each other and with a `TX_DONE`.
    const CHAR_PS: u64 = 12_500;

    /// A random packet for a switch of `n` ports: mostly to the `hot`
    /// output, sometimes to an unwired or out-of-range one, sometimes
    /// switch-bound (stripped), unterminated, or too short to strip.
    fn random_packet(rng: &mut DetRng, n: u64, hot: u8) -> PacketFrame {
        let out = if rng.gen_bool(0.6) { hot } else { rng.gen_range(0..n + 2) as u8 };
        let route = if rng.gen_bool(0.3) { out | ROUTE_SWITCH_FLAG } else { out };
        let mut bytes = vec![0; rng.gen_range(1..32) as usize];
        rng.fill_bytes(&mut bytes);
        bytes[0] = route;
        let mut pf = PacketFrame::new(bytes);
        if rng.gen_bool(0.04) {
            pf.terminator = None;
        }
        pf
    }

    /// A seeded stimulus stream: single packets, same-instant bursts from
    /// many inputs, STOP / GO / GAP on random ports, late GAPs behind
    /// unterminated packets, and heads with no route byte at all.
    fn random_stimuli(rng: &mut DetRng, ports: usize) -> Vec<(SimTime, Ev)> {
        let n = ports as u64;
        let hot = rng.gen_range(0..n - 1) as u8;
        let at = |chars: u64| SimTime::from_ps(chars * CHAR_PS);
        let rx = |port, frame| Ev::Rx { port, frame };
        let mut chars = 0;
        let mut stimuli = Vec::new();
        for _ in 0..rng.gen_range(150..350) {
            chars += rng.gen_range(0..12);
            let port = rng.gen_range(0..n) as u8;
            match rng.gen_range(0..100) {
                0..=3 => {
                    for k in 0..rng.gen_range(2..n + 1) {
                        let port = ((u64::from(port) + k) % n) as u8;
                        let frame = Frame::Packet(random_packet(rng, n, hot));
                        stimuli.push((at(chars), rx(port, frame)));
                    }
                }
                4..=69 => {
                    let pf = random_packet(rng, n, hot);
                    // Half the unterminated packets get their GAP late.
                    if !pf.gap_terminated() && rng.gen_bool(0.5) {
                        let late = at(chars + rng.gen_range(20..200));
                        stimuli.push((late, rx(port, Frame::control(ControlSymbol::Gap))));
                    }
                    stimuli.push((at(chars), rx(port, Frame::Packet(pf))));
                }
                70..=96 => {
                    let sym = [ControlSymbol::Stop, ControlSymbol::Go, ControlSymbol::Gap];
                    stimuli.push((at(chars), rx(port, Frame::control(sym[rng.gen_index(3)]))));
                }
                _ => stimuli.push((at(chars), rx(port, Frame::packet(Vec::new())))),
            }
        }
        stimuli
    }

    /// What the test compares after each event: the clock, the cursor, the
    /// counters, each input's queue length, and what has been sent so far.
    fn observe(
        engine: &Engine<Ev>,
        sw: ComponentId,
        tap: ComponentId,
    ) -> impl PartialEq + std::fmt::Debug + '_ {
        let s = engine.component_as::<Switch>(sw).unwrap();
        let sent = &engine.component_as::<Tap>(tap).unwrap().seen;
        let queued: Vec<_> = s.inputs.iter().map(|i| i.queue.len()).collect();
        (engine.now(), s.rr_cursor, s.stats, queued, sent.len(), sent.last())
    }

    /// Drives two clones of one switch with one stimulus stream, the first
    /// arbitrating from the wake list and the second by the walk, and
    /// compares them after every event. The line printed first is the
    /// one-line regression test of a failure.
    fn differential_case(seed: u64, ports: usize) {
        println!("differential_case({seed:#x}, {ports});");
        let mut rng = DetRng::new(seed);
        // A short long-period timeout, and in one case of three slack
        // buffers small enough to be in STOP for most of the run (a stopped
        // input repeats its STOP every 12 characters, which is most of that
        // case's events).
        let high = [64, 512, 4096][rng.gen_index(3)];
        let config = SwitchConfig {
            sbuf_capacity: 3 * high,
            sbuf_high: high,
            sbuf_low: high / 4,
            long_timeout: SimDuration::from_ns(600),
        };
        let mut engines = [Engine::<Ev>::new(), Engine::<Ev>::new()];
        let tap = engines.each_mut().map(|e| e.add_component(Box::new(Tap::default())))[0];
        // The last port stays unwired: a route byte naming it is a misroute.
        let mut switch = Switch::new("dut", ports, config);
        switch.short_frames = true;
        for p in 0..ports as u8 - 1 {
            let link = Link::myrinet_640(1.0);
            switch.attach_port(p, PortPeer { dst: tap, dst_port: p, link });
        }
        let mut oracle = switch.clone();
        oracle.by_walk = true;
        let [a, b] = &mut engines;
        let sw = a.add_component(Box::new(switch));
        assert_eq!(sw, b.add_component(Box::new(oracle)));
        for (at, ev) in random_stimuli(&mut rng, ports) {
            a.schedule(at, sw, ev.clone());
            b.schedule(at, sw, ev);
        }
        // In half the cases a cable is cut somewhere in the run.
        let sever = rng
            .gen_bool(0.5)
            .then(|| (rng.gen_range(0..2_000), rng.gen_index(ports) as u8));
        for step in 0..1_000_000 {
            if let Some((_, port)) = sever.filter(|&(at, _)| at == step) {
                for engine in [&mut *a, &mut *b] {
                    super::tests::sever(engine, sw, port);
                }
            }
            let more = (a.step(), b.step());
            assert_eq!(more.0, more.1, "step {step}: one switch has an event left");
            // Each thing sent is the tap's last entry after one step, so
            // this compares the whole sequence.
            assert_eq!(observe(a, sw, tap), observe(b, sw, tap), "step {step}");
            if !more.0 {
                return;
            }
        }
        panic!("the switch never drained");
    }

    #[test]
    fn wake_list_arbitration_forwards_exactly_as_the_walk() {
        for case in 0..256 {
            differential_case(0xA2B1_7000 + case, if case % 4 == 3 { 64 } else { 8 });
        }
    }

    /// Drives two clones of one switch with one stimulus stream and trains
    /// of `sym` on one port: the first receives each as a train, the second
    /// that symbol at the open and at every repeat instant, as when the
    /// injector handled each swapped STOP repeat. Compares them at every
    /// instant something arrives. Repeats fall off the character grid the
    /// stimuli sit on, so none ties with a stimulus or with a frame's end;
    /// the ties are the business of the debug-build checks. The line
    /// printed first is the one-line regression test of a failure.
    fn swapped_train_case(seed: u64, sym: ControlSymbol) {
        println!("swapped_train_case({seed:#x}, ControlSymbol::{sym:?});");
        let mut rng = DetRng::new(seed);
        let ports = 8;
        let high = [64, 512, 4096][rng.gen_index(3)];
        let config = SwitchConfig {
            sbuf_capacity: 3 * high,
            sbuf_high: high,
            sbuf_low: high / 4,
            long_timeout: SimDuration::from_ns(600),
        };
        let mut engines = [Engine::<Ev>::new(), Engine::<Ev>::new()];
        let tap = engines.each_mut().map(|e| e.add_component(Box::new(Tap::default())))[0];
        let mut switch = Switch::new("dut", ports, config);
        switch.short_frames = true;
        for p in 0..ports as u8 - 1 {
            let link = Link::myrinet_640(1.0);
            switch.attach_port(p, PortPeer { dst: tap, dst_port: p, link });
        }
        let [trains, symbols] = &mut engines;
        let sw = trains.add_component(Box::new(switch.clone()));
        assert_eq!(sw, symbols.add_component(Box::new(switch)));
        let port = rng.gen_index(ports - 1) as u8;
        // No STOP arrives on a port while the injector swaps its STOPs.
        let stimuli: Vec<(SimTime, Ev)> = random_stimuli(&mut rng, ports)
            .into_iter()
            .filter(|(_, ev)| {
                !matches!(ev, Ev::Rx { port: p, frame }
                    if *p == port && frame.as_control() == Some(ControlSymbol::Stop))
            })
            .collect();
        let mut instants: Vec<SimTime> = stimuli.iter().map(|&(t, _)| t).collect();
        let end = instants.last().copied().unwrap_or(SimTime::ZERO);
        for (at, ev) in stimuli {
            trains.schedule(at, sw, ev.clone());
            symbols.schedule(at, sw, ev);
        }
        let code = sym.encode();
        let rx = |frame| Ev::Rx { port, frame };
        // Repeats every 150 ns + 1 ps, the first train's a picosecond off
        // the grid: a repeat lands on it only after 12,500 of them.
        let period = SimDuration::from_ps(12 * CHAR_PS + 1);
        let mut open = SimTime::from_ps(rng.gen_range(0..200) * CHAR_PS + 1);
        while open < end {
            let first = SimDuration::from_ps(rng.gen_range(1..period.as_ps() + 1));
            let repeats = Repeats { first: open + first, period };
            let n = rng.gen_range(0..40);
            // The close falls on the last repeat, then belonging to the
            // train or not, or between two.
            let (close, same_instant) = match rng.gen_index(3) {
                0 => (repeats.at(n), true),
                1 => (repeats.at(n), false),
                _ => (repeats.at(n) + period / 2, false),
            };
            let closing = [None, Some(ControlSymbol::Go.encode()), Some(code)][rng.gen_index(3)];
            let mark = TrainMark::open(first, period);
            trains.schedule(open, sw, rx(Frame::Train { code: Some(code), mark }));
            let mark = TrainMark::Close { same_instant };
            trains.schedule(close, sw, rx(Frame::Train { code: closing, mark }));
            symbols.schedule(open, sw, rx(Frame::Control(code)));
            for k in 0..repeats.count(close, same_instant) {
                symbols.schedule(repeats.at(k), sw, rx(Frame::Control(code)));
                instants.push(repeats.at(k));
            }
            if let Some(closing) = closing {
                symbols.schedule(close, sw, rx(Frame::Control(closing)));
            }
            // Packets short enough to slip between two repeats, some
            // unterminated: the input holds an output while the train runs.
            for _ in 0..rng.gen_range(0..6) {
                let mut pf = random_packet(&mut rng, ports as u64, port ^ 1);
                pf.terminator = pf.terminator.filter(|_| rng.gen_bool(0.3));
                let chars = rng.gen_range(0..(close - open).as_ps() / CHAR_PS + 1);
                let at = SimTime::from_ps((open.as_ps() / CHAR_PS + chars) * CHAR_PS);
                trains.schedule(at, sw, rx(Frame::Packet(pf.clone())));
                symbols.schedule(at, sw, rx(Frame::Packet(pf)));
                instants.push(at);
            }
            instants.extend([open, close]);
            open = close + SimDuration::from_ps(rng.gen_range(100..400) * CHAR_PS);
        }
        instants.sort();
        instants.dedup();
        let view = |engine: &Engine<Ev>| {
            let now = engine.now();
            let s = engine.component_as::<Switch>(sw).unwrap();
            let egress: Vec<_> = (0..ports as u8).map(|p| s.egress_stats(p, now)).collect();
            let queued: Vec<_> = s.inputs.iter().map(|i| i.queue.len()).collect();
            let sent = engine.component_as::<Tap>(tap).unwrap().seen.clone();
            (now, s.rr_cursor, s.stats, egress, queued, sent)
        };
        for at in instants.into_iter().chain([SimTime::MAX]) {
            trains.run_until(at);
            symbols.run_until(at);
            assert_eq!(view(trains), view(symbols), "at {at}");
        }
    }

    #[test]
    fn trains_of_swapped_stops_act_as_their_repeats() {
        for case in 0..192 {
            let sym = [ControlSymbol::Gap, ControlSymbol::Go, ControlSymbol::Idle][case % 3];
            swapped_train_case(0x5A7E_0000 + case as u64, sym);
        }
    }
}
