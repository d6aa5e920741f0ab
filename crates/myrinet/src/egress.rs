//! The sending side of a link attachment.
//!
//! Every component that transmits on a Myrinet link — host interface,
//! switch output port, the fault injector's retransmit side — owns an
//! [`EgressPort`] per attachment. It serializes frames at link rate,
//! honours STOP/GO flow control, and implements the paper's short-period
//! timeout: "the timeout counter is set to 16 character periods … if the
//! counter times out, the sender transitions itself to the GO stage"
//! (§4.3.1), which is how Myrinet recovers from corrupted GO and STOP
//! symbols.
//!
//! # STOP trains
//!
//! A receiver that holds its sender stopped must repeat STOP inside that
//! timeout; it does so every 12 character periods for as long as its slack
//! buffer stays above the low watermark. The port sends those repeats as
//! one train ([`Frame::Train`]): the STOP that stops the peer names when
//! the repeats fall due, the GO that releases it says whether a repeat due
//! at its own instant went first, and neither end handles the repeats in
//! between — the refresh timer runs in arithmetic (`run_refresh`), the
//! held sender keeps `Stopped` with no timeout pending, and the counters
//! that count single STOPs are derived from the open train when read
//! ([`stats`]). A train that ends without its GO — swapped away by the
//! injector, or the cable cut or the receiver dead ([`cut`]) — ends with a
//! train end instead, and the sender resumes 16 characters after the last
//! STOP that reached it, as it would have. A train the injector swapped
//! into GO acts once, at its open — every later repeat would find the port
//! already sending — and its repeats are counted as the GOs they are. A
//! train of any other symbol holds nothing. DESIGN.md §6 has the argument
//! that this is exact.
//!
//! [`stats`]: EgressPort::stats
//! [`cut`]: EgressPort::cut

use std::collections::VecDeque;

use netfi_phy::ControlSymbol;
use netfi_sim::{ComponentId, Context, SimDuration, SimTime, Simulation};

use crate::event::{Ev, PortPeer};
use crate::frame::{Frame, Repeats, TrainMark};

/// Timer classes used by components in this crate (low 16 bits of the
/// timer `kind`; the owning port number goes in the high 16 bits).
pub mod timer_class {
    /// An egress transmission completed; pump the queue.
    pub const TX_DONE: u32 = 1;
    /// The STOP short-period timeout expired.
    pub const STOP_TIMEOUT: u32 = 2;
    /// A held (blocked) path's long-period timeout expired.
    pub(crate) const HOLD_RELEASE: u32 = 3;
    /// Periodic mapping round (host interfaces).
    pub(crate) const MAPPING_ROUND: u32 = 4;
    /// End of a scout-collection window (mapper).
    pub(crate) const SCOUT_WINDOW: u32 = 5;
    /// Mapper-election takeover timer.
    pub(crate) const TAKEOVER: u32 = 6;
    /// Periodic STOP refresh of a switch input, in the per-symbol model
    /// the STOP-train differential test keeps as its oracle.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) const STOP_REFRESH: u32 = 7;
    /// A host interface's receive buffer finished draining one packet.
    pub(crate) const RX_DRAIN: u32 = 8;
    /// STOP refresh of a host interface's receive slack buffer, in the
    /// per-symbol oracle.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) const RX_STOP_REFRESH: u32 = 9;
    /// The injector acts on the STOP-train repeats due by now that it
    /// corrupts or logs one by one (port = the direction's input port).
    pub const TRAIN_REPEAT: u32 = 10;
    /// A switch port was severed between events: the packets waiting for
    /// it are dropped now.
    pub(crate) const SEVERED: u32 = 11;
    /// A repeat of the GAP train a switch input receives falls due while
    /// the input holds an output (port = the input).
    pub(crate) const GAP_REPEAT: u32 = 12;
    /// First application-defined class; higher layers start here.
    pub const APP_BASE: u32 = 0x100;
}

/// Packs a timer class and port number into a timer `kind`.
pub fn timer_kind(class: u32, port: u8) -> u32 {
    ((port as u32) << 16) | (class & 0xFFFF)
}

/// Unpacks a timer `kind` into `(class, port)`.
pub fn split_timer_kind(kind: u32) -> (u32, u8) {
    (kind & 0xFFFF, (kind >> 16) as u8)
}

/// Number of character periods in the short-period (STOP) timeout.
pub(crate) const STOP_TIMEOUT_CHARS: u64 = 16;

/// Character periods between repeats of a held STOP: comfortably inside
/// the sender's 16-character timeout.
pub(crate) const REFRESH_CHARS: u64 = 12;

/// Flow-control state of a sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowState {
    /// Transmitting normally.
    Go,
    /// Paused by a STOP symbol, until a GO, the end of the STOP train, or
    /// the 16-character timeout.
    Stopped,
}

/// Counters exposed by an egress port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EgressStats {
    /// Frames transmitted (a STOP repeat counts as one).
    pub sent_frames: u64,
    /// Characters transmitted (packet bytes + terminators + control).
    pub sent_chars: u64,
    /// STOP symbols acted upon, repeats included.
    pub stops_received: u64,
    /// GO symbols acted upon.
    pub gos_received: u64,
    /// Recoveries via the 16-character timeout ("acting as if it received
    /// a GO").
    pub timeout_recoveries: u64,
    /// Frames dropped because the port was never wired.
    pub unwired_drops: u64,
}

/// The refresh timer of the slack buffer a port speaks for, and the STOP
/// train it is sending.
#[derive(Debug, Clone, Copy, Default)]
struct Refresh {
    /// When the refresh timer fires next, while it is armed. It is armed
    /// while the slack buffer holds the peer stopped and lapses at the
    /// first fire that finds the buffer released, so a STOP before that
    /// fire keeps its phase.
    next: Option<SimTime>,
    /// The first repeat of the train being sent, while one is open (from
    /// the STOP that stopped the peer to the GO that releases it).
    train: Option<SimTime>,
}

/// The train the peer sends a port, while one is open.
#[derive(Debug, Clone, Copy)]
enum Received {
    /// A STOP train: it holds the port stopped.
    Stop(Holding),
    /// A GO train, STOPs the injector swapped: its GO acted at the open,
    /// and each repeat is counted as a GO.
    Go(Repeats),
}

/// The STOP train the peer holds a port stopped with.
#[derive(Debug, Clone, Copy)]
struct Holding {
    /// When the repeats arrive.
    repeats: Repeats,
    /// Arrival of the latest STOP that came as a frame of its own (the
    /// one that opened the train, or one more from the peer's buffer).
    last_frame: SimTime,
}

/// What a harness owes the simulation after cutting a link between events
/// (see [`EgressPort::cut`]): the train end the far side would have
/// inferred from the repeats no longer coming, and the events the cut
/// component owes itself — the STOP timeout the last repeat that did come
/// started, and, at a switch, dropping what waits for the cut port.
#[derive(Debug, Default)]
#[must_use = "a cut train is only ended once its events are scheduled"]
pub struct Cut {
    /// Deliver `ev` to `dst` at the given instant.
    pub far: Option<(SimTime, ComponentId, Ev)>,
    /// Deliver each `ev` to the cut component itself at its instant.
    pub near: Vec<(SimTime, Ev)>,
}

impl Cut {
    /// Schedules every event on `sim`; `this` is the component that was
    /// cut.
    pub fn schedule(self, sim: &mut impl Simulation<Ev>, this: ComponentId) {
        if let Some((at, dst, ev)) = self.far {
            sim.schedule(at, dst, ev);
        }
        for (at, ev) in self.near {
            sim.schedule(at, this, ev);
        }
    }
}

/// The sending half of one link attachment.
#[derive(Debug)]
pub struct EgressPort {
    port: u8,
    peer: Option<PortPeer>,
    queue: VecDeque<Frame>,
    flow: FlowState,
    held: bool,
    busy_until: SimTime,
    flow_gen: u64,
    stats: EgressStats,
    /// The STOP train this port sends for its slack buffer.
    refresh: Refresh,
    /// The STOP or GO train the peer sends this port.
    received: Option<Received>,
    /// The live STOP timeout, if one is pending: when it expires, and
    /// whether a train end armed it.
    timeout: Option<(SimTime, bool)>,
    /// The refresh timer kind of the per-symbol model: while set, this
    /// port sends every repeat as a STOP of its own off a real timer, and
    /// never a train.
    #[cfg(any(test, feature = "oracle"))]
    per_symbol: Option<u32>,
}

netfi_sim::clone_in_place!(EgressPort {
    port,
    peer,
    queue,
    flow,
    held,
    busy_until,
    flow_gen,
    stats,
    refresh,
    received,
    timeout,
    #[cfg(any(test, feature = "oracle"))]
    per_symbol,
});

impl EgressPort {
    /// Creates an unwired egress port with the given local port number.
    pub fn new(port: u8) -> EgressPort {
        EgressPort {
            port,
            peer: None,
            queue: VecDeque::new(),
            flow: FlowState::Go,
            held: false,
            busy_until: SimTime::ZERO,
            flow_gen: 0,
            stats: EgressStats::default(),
            refresh: Refresh::default(),
            received: None,
            timeout: None,
            #[cfg(any(test, feature = "oracle"))]
            per_symbol: None,
        }
    }

    /// Switches this port to the per-symbol model of STOP repeats — a
    /// `kind` timer per repeat, which the owner routes to
    /// [`on_refresh_timer`](EgressPort::on_refresh_timer) — the oracle the
    /// STOP-train differential test compares against. Call before the
    /// simulation starts.
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_per_symbol(&mut self, kind: u32) {
        self.per_symbol = Some(kind);
    }

    /// Wires the port to its peer.
    pub fn attach(&mut self, peer: PortPeer) {
        self.peer = Some(peer);
    }

    /// `true` once wired.
    pub(crate) fn is_attached(&self) -> bool {
        self.peer.is_some()
    }

    /// The peer, if wired.
    pub fn peer(&self) -> Option<&PortPeer> {
        self.peer.as_ref()
    }

    /// Current flow-control state.
    pub(crate) fn flow_state(&self) -> FlowState {
        self.flow
    }

    /// Counters as of `now`, every event due by `now` having run: the STOP
    /// repeats this port has sent and received by then are counted, as if
    /// each had been a frame of its own.
    pub fn stats(&self, now: SimTime) -> EgressStats {
        let mut stats = self.stats;
        if let Some(first) = self.refresh.train {
            let period = self.refresh_period();
            let n = Repeats { first, period }.count(now, true);
            Self::count_sent_repeats(&mut stats, self.peer.is_some(), n);
        }
        match &self.received {
            Some(Received::Stop(holding)) => {
                stats.stops_received += holding.repeats.count(now, true);
            }
            Some(Received::Go(go)) => stats.gos_received += go.count(now, true),
            None => {}
        }
        stats
    }

    /// Counts `n` repeats sent: on the wire if the port is `wired`, dropped
    /// with the rest of an unwired port's frames otherwise.
    fn count_sent_repeats(stats: &mut EgressStats, wired: bool, n: u64) {
        if wired {
            stats.sent_frames += n;
            stats.sent_chars += n;
        } else {
            stats.unwired_drops += n;
        }
    }

    /// The time between repeats of a STOP this port sends: 12 character
    /// periods of its link.
    pub(crate) fn refresh_period(&self) -> SimDuration {
        match &self.peer {
            Some(peer) => peer.link.char_period() * REFRESH_CHARS,
            None => SimDuration::from_ns(150),
        }
    }

    /// `true` while a STOP train can fall due at the instant of another
    /// event on this link: the refresh timer of the slack buffer this port
    /// speaks for is armed, the peer holds this port with a train, or a
    /// train end armed the pending STOP timeout.
    pub(crate) fn in_stop_train(&self) -> bool {
        self.refresh.next.is_some()
            || matches!(self.received, Some(Received::Stop(_)))
            || matches!(self.timeout, Some((_, true)))
    }

    /// The STOP timeout pending on this port, if any: when it expires, and
    /// whether a train end armed it. The per-symbol model armed that one
    /// at the last STOP, so among the owner's events of its instant it may
    /// have sorted earlier than it does here (DESIGN.md §6).
    pub(crate) fn pending_timeout(&self) -> Option<(SimTime, bool)> {
        self.timeout
    }

    /// Frames waiting (not yet on the wire).
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// `true` while the wormhole path through this port is held.
    pub(crate) fn is_held(&self) -> bool {
        self.held
    }

    /// Queues a frame for transmission.
    pub fn enqueue(&mut self, ctx: &mut Context<'_, Ev>, frame: Frame) {
        self.queue.push_back(frame);
        self.pump(ctx);
    }

    /// Queues a control symbol at the *front* of the queue. Flow-control
    /// symbols jump ahead of data and are transmitted even while this
    /// sender is itself stopped (control symbols interleave with data on
    /// the real link).
    pub(crate) fn enqueue_control(&mut self, ctx: &mut Context<'_, Ev>, code: u8) {
        self.enqueue_flow(ctx, Frame::Control(code));
    }

    /// [`enqueue_control`](EgressPort::enqueue_control) for any control
    /// frame, train frames included.
    fn enqueue_flow(&mut self, ctx: &mut Context<'_, Ev>, frame: Frame) {
        self.queue.push_front(frame);
        self.pump(ctx);
    }

    /// Runs the refresh timer of the slack buffer this port speaks for up
    /// to the event being handled. Every fire before `now` — and at `now`
    /// when the event sorts after the timer (`late`: a frame from a
    /// component with a higher id; the timer was set a refresh period ago,
    /// before anything else this component schedules for `now`) — finds the
    /// buffer `stopped` as it has been since the previous call: it repeats
    /// the STOP, which the open train already announced, or it finds the
    /// buffer released and lapses. Call before every change to the
    /// buffer's state.
    pub(crate) fn run_refresh(&mut self, now: SimTime, late: bool, stopped: bool) {
        #[cfg(any(test, feature = "oracle"))]
        if self.per_symbol.is_some() {
            return;
        }
        let Some(next) = self.refresh.next else {
            return;
        };
        if next > now || (next == now && !late) {
            return;
        }
        self.refresh.next = stopped.then(|| {
            let due = Repeats {
                first: next,
                period: self.refresh_period(),
            };
            due.at(due.count(now, late))
        });
    }

    /// Sends the STOP the slack buffer this port speaks for has generated.
    /// The STOP that stops the peer opens a train whose repeats fall on the
    /// refresh timer — armed now, or still armed from the previous stop;
    /// one more while the train is open (a frame landed above the high
    /// watermark) goes as a STOP of its own.
    pub(crate) fn send_stop(&mut self, ctx: &mut Context<'_, Ev>) {
        let code = ControlSymbol::Stop.encode();
        #[cfg(any(test, feature = "oracle"))]
        if let Some(kind) = self.per_symbol {
            self.enqueue_control(ctx, code);
            if self.refresh.next.is_none() {
                self.arm_refresh(ctx, kind);
            }
            return;
        }
        if self.refresh.train.is_some() {
            return self.enqueue_control(ctx, code);
        }
        let now = ctx.now();
        let period = self.refresh_period();
        let first = *self.refresh.next.get_or_insert(now + period);
        self.refresh.train = Some(first);
        let mark = TrainMark::open(first - now, period);
        self.enqueue_flow(
            ctx,
            Frame::Train {
                code: Some(code),
                mark,
            },
        );
    }

    /// Sends the GO the slack buffer this port speaks for has generated,
    /// closing the open train: its repeats are the timer's fires from the
    /// first up to `now` (call [`run_refresh`](EgressPort::run_refresh)
    /// first), and one due at `now` itself went ahead of the GO if the
    /// timer has moved past `now`.
    pub(crate) fn send_go(&mut self, ctx: &mut Context<'_, Ev>) {
        let code = Some(ControlSymbol::Go.encode());
        let (Some(first), Some(next)) = (self.refresh.train.take(), self.refresh.next) else {
            return self.enqueue_control(ctx, ControlSymbol::Go.encode());
        };
        let n = Repeats {
            first,
            period: self.refresh_period(),
        }
        .count(next, false);
        Self::count_sent_repeats(&mut self.stats, self.peer.is_some(), n);
        let mark = TrainMark::Close {
            same_instant: next > ctx.now(),
        };
        self.enqueue_flow(ctx, Frame::Train { code, mark });
    }

    /// The per-symbol model's refresh timer fired: with the buffer still
    /// `stopped`, repeats the STOP and re-arms; otherwise lapses. Returns
    /// whether it sent.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) fn on_refresh_timer(&mut self, ctx: &mut Context<'_, Ev>, stopped: bool) -> bool {
        self.refresh.next = None;
        let Some(kind) = self.per_symbol.filter(|_| stopped) else {
            return false;
        };
        self.enqueue_control(ctx, ControlSymbol::Stop.encode());
        self.arm_refresh(ctx, kind);
        true
    }

    #[cfg(any(test, feature = "oracle"))]
    fn arm_refresh(&mut self, ctx: &mut Context<'_, Ev>, kind: u32) {
        let period = self.refresh_period();
        self.refresh.next = Some(ctx.now() + period);
        ctx.send_self(period, Ev::Timer { kind, gen: 0 });
    }

    /// Ends both STOP trains of this attachment at `now`, every event due
    /// by `now` having run, the way a cut cable or a dead receiver ends
    /// them: the refresh timer of the slack buffer (`stopped` as it is)
    /// lapses and the train it was sending closes after the repeats fired
    /// by `now`; the train the peer holds this port with, or sends it as
    /// GOs, stops after the repeats that arrived by `now`. Returns the bare
    /// train end the peer is owed — it arrives when a symbol sent at `now`
    /// would — and the STOP timeout the last STOP to arrive here started.
    pub fn cut(&mut self, now: SimTime, stopped: bool) -> Cut {
        #[cfg(any(test, feature = "oracle"))]
        if self.per_symbol.is_some() {
            return Cut::default();
        }
        let mut cut = Cut::default();
        self.run_refresh(now, true, stopped);
        if let Some(first) = self.refresh.train.take() {
            let n = Repeats {
                first,
                period: self.refresh_period(),
            }
            .count(now, true);
            Self::count_sent_repeats(&mut self.stats, self.peer.is_some(), n);
            cut.far = self.peer.map(|peer| {
                let frame = Frame::Train {
                    code: None,
                    mark: TrainMark::Close { same_instant: true },
                };
                let ev = Ev::Rx {
                    port: peer.dst_port,
                    frame,
                };
                (now + peer.tx_time(1) + peer.propagation(), peer.dst, ev)
            });
        }
        self.refresh.next = None;
        if let Some(last) = self.end_received(now, true) {
            let kind = timer_kind(timer_class::STOP_TIMEOUT, self.port);
            let ev = Ev::Timer {
                kind,
                gen: self.flow_gen,
            };
            let due = last + self.stop_timeout();
            self.timeout = Some((due, true));
            cut.near.push((due, ev));
        }
        cut
    }

    /// Handles the train mark of a flow-control frame from the peer, ahead
    /// of the symbol it rides on (`sym`, which the owner then handles as
    /// usual). An open mark on a STOP holds this port stopped, with no
    /// timeout, until the train closes; on a GO it opens a train whose
    /// repeats are counted, the GO that opens it having acted for them all;
    /// on any other symbol it holds nothing. A close counts the repeats
    /// that arrived and — if a STOP train ends and `sym` is not itself a
    /// STOP or GO, which would supersede it — starts the timeout the last
    /// STOP to arrive started: "the sender transitions itself to the GO
    /// stage" 16 characters after it.
    pub fn on_train(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mark: TrainMark,
        sym: Option<ControlSymbol>,
    ) {
        let now = ctx.now();
        if let Some(repeats) = Repeats::announced(mark, now) {
            match sym {
                Some(ControlSymbol::Stop) => {
                    self.check_no_go_train("a STOP train");
                    self.received = Some(Received::Stop(Holding {
                        repeats,
                        last_frame: now,
                    }));
                }
                Some(ControlSymbol::Go) => self.received = Some(Received::Go(repeats)),
                _ => {}
            }
            return;
        }
        let TrainMark::Close { same_instant } = mark else {
            return;
        };
        let Some(last) = self.end_received(now, same_instant) else {
            return;
        };
        if !matches!(sym, Some(ControlSymbol::Stop | ControlSymbol::Go)) {
            let delay = (last + self.stop_timeout()).checked_duration_since(now);
            self.arm_stop_timeout(ctx, delay.unwrap_or_default(), true);
        }
    }

    /// Ends the train the peer sends this port, counting the repeats that
    /// arrived before `now` (and at `now` when `inclusive`). Returns the
    /// arrival of the last STOP of the train, if a STOP train was open.
    fn end_received(&mut self, now: SimTime, inclusive: bool) -> Option<SimTime> {
        let holding = match self.received.take()? {
            Received::Stop(holding) => holding,
            Received::Go(go) => {
                self.stats.gos_received += go.count(now, inclusive);
                return None;
            }
        };
        let repeats = holding.repeats.count(now, inclusive);
        self.stats.stops_received += repeats;
        Some(match repeats.checked_sub(1) {
            Some(last) => holding.last_frame.max(holding.repeats.at(last)),
            None => holding.last_frame,
        })
    }

    /// The debug-build check of the assumption GO trains rest on: no STOP
    /// reaches this port while a GO train from the same peer is open. The
    /// train applied its GO once, at its open; a STOP in between would
    /// have been undone by the next repeat.
    fn check_no_go_train(&self, what: &str) {
        debug_assert!(
            !matches!(self.received, Some(Received::Go(_))),
            "port {}: {what} arrived while a GO train is open",
            self.port
        );
    }

    /// Arms the STOP timeout of the current flow generation to expire after
    /// `delay`; `by_train_end` if a train end arms it.
    fn arm_stop_timeout(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        delay: SimDuration,
        by_train_end: bool,
    ) {
        self.timeout = Some((ctx.now() + delay, by_train_end));
        ctx.send_self(
            delay,
            Ev::Timer {
                kind: timer_kind(timer_class::STOP_TIMEOUT, self.port),
                gen: self.flow_gen,
            },
        );
    }

    /// Holds the port: the wormhole path is occupied by an unterminated
    /// packet, so the owner must not admit further packets to it (§4.3.1
    /// source blocking). Advisory — frames already queued still drain.
    pub(crate) fn hold(&mut self) {
        self.held = true;
    }

    /// Releases a held port (a GAP arrived or the long-period timeout
    /// fired) and resumes pumping.
    pub(crate) fn release(&mut self, ctx: &mut Context<'_, Ev>) {
        if self.held {
            self.held = false;
            self.pump(ctx);
        }
    }

    /// Handles a STOP or GO symbol received from the peer. A STOP inside a
    /// train starts no timeout: the train's next repeat is due first.
    pub(crate) fn on_flow(&mut self, ctx: &mut Context<'_, Ev>, sym: ControlSymbol) {
        match sym {
            ControlSymbol::Stop => {
                self.check_no_go_train("a STOP");
                self.stats.stops_received += 1;
                self.flow = FlowState::Stopped;
                self.flow_gen += 1;
                self.timeout = None;
                match &mut self.received {
                    Some(Received::Stop(holding)) => holding.last_frame = ctx.now(),
                    _ => self.arm_stop_timeout(ctx, self.stop_timeout(), false),
                }
            }
            ControlSymbol::Go => {
                self.stats.gos_received += 1;
                self.flow = FlowState::Go;
                self.flow_gen += 1; // cancels any pending timeout
                self.timeout = None;
                self.pump(ctx);
            }
            _ => {}
        }
    }

    /// Handles the STOP short-period timeout. Stale generations (a GO or a
    /// refreshed STOP arrived since) are ignored.
    pub fn on_stop_timeout(&mut self, ctx: &mut Context<'_, Ev>, gen: u64) {
        if gen != self.flow_gen {
            return;
        }
        self.timeout = None;
        if self.flow != FlowState::Stopped {
            return;
        }
        // "the sender transitions itself to the GO stage"
        self.flow = FlowState::Go;
        self.stats.timeout_recoveries += 1;
        self.pump(ctx);
    }

    /// Handles the TX_DONE timer: the previous frame has left; send more.
    pub fn on_tx_done(&mut self, ctx: &mut Context<'_, Ev>) {
        // A GO repeat due now sorts after this timer, as the per-symbol
        // model's did: had it come first, its pump would have sent what
        // this one sends. (The peer's events of an instant sort after this
        // component's own if its id is higher.)
        debug_assert!(
            !matches!(self.received, Some(Received::Go(go)) if go.falls_at(ctx.now()))
                || self.queue.is_empty()
                || self.peer.is_some_and(|peer| peer.dst > ctx.self_id()),
            "port {}: a GO repeat sorts ahead of the TX_DONE of its instant",
            self.port
        );
        self.pump(ctx);
    }

    /// The short-period timeout duration: 16 character periods at this
    /// link's rate (12.5 ns × 16 = 200 ns at 80 MB/s).
    pub(crate) fn stop_timeout(&self) -> SimDuration {
        match &self.peer {
            Some(peer) => peer.link.char_period() * STOP_TIMEOUT_CHARS,
            None => SimDuration::from_ns(200),
        }
    }

    /// Transmits as much of the queue as flow control and the wire allow.
    fn pump(&mut self, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        let Some(peer) = self.peer else {
            // Unwired: discard (counts as drops).
            self.stats.unwired_drops += self.queue.len() as u64;
            self.queue.clear();
            return;
        };
        // Control symbols interleave with data characters on the real wire
        // (paper Figure 8): transmit them immediately, even while a data
        // frame occupies the line — flow control must outrun the sender's
        // 16-character STOP timeout.
        while self.queue.front().is_some_and(Frame::is_control) {
            let Some(frame) = self.queue.pop_front() else {
                break;
            };
            ctx.send(
                peer.dst,
                peer.tx_time(1) + peer.propagation(),
                Ev::Rx {
                    port: peer.dst_port,
                    frame,
                },
            );
            self.stats.sent_frames += 1;
            self.stats.sent_chars += 1;
        }
        if self.busy_until > now {
            return; // TX_DONE will re-enter
        }
        // Decide whether the head frame may go. Note the hold flag does not
        // gate the queue: it marks the wormhole path as occupied so the
        // *owner* stops admitting new packets, while frames already
        // admitted (the unterminated packet itself) drain normally.
        let may_send = match self.queue.front() {
            None => false,
            Some(Frame::Packet(_)) => self.flow == FlowState::Go,
            Some(_) => true,
        };
        if !may_send {
            return;
        }
        let Some(frame) = self.queue.pop_front() else {
            return;
        };
        let chars = frame.wire_len();
        let tx = peer.tx_time(chars);
        ctx.send(
            peer.dst,
            tx + peer.propagation(),
            Ev::Rx {
                port: peer.dst_port,
                frame,
            },
        );
        self.stats.sent_frames += 1;
        self.stats.sent_chars += chars as u64;
        self.busy_until = now + tx;
        ctx.send_self(
            tx,
            Ev::Timer {
                kind: timer_kind(timer_class::TX_DONE, self.port),
                gen: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_phy::Link;
    use netfi_sim::{Component, ComponentId, Engine};

    /// A component wrapping one egress port, for driving in tests.
    #[derive(Clone)]
    struct Sender {
        egress: EgressPort,
    }

    impl Component<Ev> for Sender {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Timer { kind, gen } => {
                    let (class, _port) = split_timer_kind(kind);
                    match class {
                        timer_class::TX_DONE => self.egress.on_tx_done(ctx),
                        timer_class::STOP_TIMEOUT => self.egress.on_stop_timeout(ctx, gen),
                        _ => {}
                    }
                }
                Ev::Rx { frame, .. } => {
                    if let Some(sym) = frame.as_control() {
                        self.egress.on_flow(ctx, sym);
                    }
                }
                Ev::App(cmd) => {
                    // Test harness: App(Frame) means "enqueue this frame",
                    // App(u8) means "enqueue control code".
                    if let Ok(frame) = cmd.downcast::<Frame>() {
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

    #[derive(Clone)]
    struct Sink {
        rx: Vec<(SimTime, Frame)>,
    }

    impl Component<Ev> for Sink {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            if let Ev::Rx { frame, .. } = ev {
                self.rx.push((ctx.now(), frame));
            }
        }
        fn fork(&self) -> Box<dyn Component<Ev>> {
            Box::new(self.clone())
        }
    }

    fn setup() -> (Engine<Ev>, ComponentId, ComponentId) {
        let mut engine: Engine<Ev> = Engine::new();
        let sink = engine.add_component(Box::new(Sink { rx: Vec::new() }));
        let mut egress = EgressPort::new(0);
        egress.attach(PortPeer {
            dst: sink,
            dst_port: 0,
            link: Link::myrinet_640(1.0),
        });
        let sender = engine.add_component(Box::new(Sender { egress }));
        (engine, sender, sink)
    }

    fn push_packet(engine: &mut Engine<Ev>, sender: ComponentId, len: usize) {
        engine.schedule(
            engine.now(),
            sender,
            Ev::App(Box::new(Frame::packet(vec![0u8; len]))),
        );
    }

    #[test]
    fn frames_serialize_back_to_back() {
        let (mut engine, sender, sink) = setup();
        push_packet(&mut engine, sender, 7); // 8 chars with terminator
        push_packet(&mut engine, sender, 7);
        engine.run();
        let sink = engine.component_as::<Sink>(sink).unwrap();
        assert_eq!(sink.rx.len(), 2);
        // char period 12.5ns, 8 chars = 100ns tx, 5ns propagation.
        assert_eq!(sink.rx[0].0, SimTime::from_ns(105));
        assert_eq!(sink.rx[1].0, SimTime::from_ns(205));
    }

    #[test]
    fn stop_pauses_then_timeout_resumes() {
        let (mut engine, sender, sink) = setup();
        // Deliver a STOP first, then try to send.
        engine.schedule(
            SimTime::ZERO,
            sender,
            Ev::Rx {
                port: 0,
                frame: Frame::control(ControlSymbol::Stop),
            },
        );
        push_packet(&mut engine, sender, 7);
        engine.run();
        let s = engine.component_as::<Sender>(sender).unwrap();
        assert_eq!(s.egress.stats(engine.now()).stops_received, 1);
        assert_eq!(s.egress.stats(engine.now()).timeout_recoveries, 1);
        let sink = engine.component_as::<Sink>(sink).unwrap();
        // 16 chars * 12.5 ns = 200 ns stopped, then 100 ns tx + 5 ns prop.
        assert_eq!(sink.rx[0].0, SimTime::from_ns(305));
    }

    #[test]
    fn go_resumes_before_timeout() {
        let (mut engine, sender, sink) = setup();
        engine.schedule(
            SimTime::ZERO,
            sender,
            Ev::Rx {
                port: 0,
                frame: Frame::control(ControlSymbol::Stop),
            },
        );
        push_packet(&mut engine, sender, 7);
        engine.schedule(
            SimTime::from_ns(50),
            sender,
            Ev::Rx {
                port: 0,
                frame: Frame::control(ControlSymbol::Go),
            },
        );
        engine.run();
        let s = engine.component_as::<Sender>(sender).unwrap();
        assert_eq!(s.egress.stats(engine.now()).timeout_recoveries, 0);
        let sink = engine.component_as::<Sink>(sink).unwrap();
        assert_eq!(sink.rx[0].0, SimTime::from_ns(155));
    }

    #[test]
    fn refreshed_stop_extends_pause() {
        let (mut engine, sender, sink) = setup();
        engine.schedule(
            SimTime::ZERO,
            sender,
            Ev::Rx {
                port: 0,
                frame: Frame::control(ControlSymbol::Stop),
            },
        );
        // A second STOP arrives at 150 ns, before the first timeout at 200.
        engine.schedule(
            SimTime::from_ns(150),
            sender,
            Ev::Rx {
                port: 0,
                frame: Frame::control(ControlSymbol::Stop),
            },
        );
        push_packet(&mut engine, sender, 7);
        engine.run();
        let sink = engine.component_as::<Sink>(sink).unwrap();
        // Resumes at 150+200 = 350 ns, arrival 455 ns.
        assert_eq!(sink.rx[0].0, SimTime::from_ns(455));
        let s = engine.component_as::<Sender>(sender).unwrap();
        assert_eq!(s.egress.stats(engine.now()).timeout_recoveries, 1);
        assert_eq!(s.egress.stats(engine.now()).stops_received, 2);
    }

    #[test]
    fn hold_is_advisory_and_release_clears_it() {
        let (mut engine, sender, sink) = setup();
        engine
            .component_as_mut::<Sender>(sender)
            .unwrap()
            .egress
            .hold();
        // A frame already admitted to the queue still drains: the hold only
        // tells the owner to stop admitting new packets.
        push_packet(&mut engine, sender, 7);
        engine.run();
        assert_eq!(engine.component_as::<Sink>(sink).unwrap().rx.len(), 1);
        let s = engine.component_as::<Sender>(sender).unwrap();
        assert!(s.egress.is_held());
        // (Admission gating on the hold flag is exercised in switch tests.)
    }

    #[test]
    fn control_frames_bypass_stop_state() {
        let (mut engine, sender, sink) = setup();
        engine.schedule(
            SimTime::ZERO,
            sender,
            Ev::Rx {
                port: 0,
                frame: Frame::control(ControlSymbol::Stop),
            },
        );
        // Owner wants to emit its own flow symbol upstream while stopped.
        engine.schedule(SimTime::from_ns(10), sender, Ev::App(Box::new(())));
        // enqueue a control frame directly:
        engine
            .component_as_mut::<Sender>(sender)
            .unwrap()
            .egress
            .queue
            .push_back(Frame::control(ControlSymbol::Go));
        // Poke the pump via a TX_DONE timer event.
        engine.schedule(
            SimTime::from_ns(20),
            sender,
            Ev::Timer {
                kind: timer_kind(timer_class::TX_DONE, 0),
                gen: 0,
            },
        );
        engine.run();
        let sink = engine.component_as::<Sink>(sink).unwrap();
        assert_eq!(sink.rx.len(), 1, "control frame must pass while stopped");
    }

    #[test]
    fn unwired_port_drops_and_counts() {
        let mut engine: Engine<Ev> = Engine::new();
        let sender = engine.add_component(Box::new(Sender {
            egress: EgressPort::new(0),
        }));
        push_packet(&mut engine, sender, 3);
        engine.run();
        let s = engine.component_as::<Sender>(sender).unwrap();
        assert_eq!(s.egress.stats(engine.now()).unwired_drops, 1);
        assert_eq!(s.egress.queue_len(), 0);
    }

    #[test]
    fn timer_kind_packing() {
        let k = timer_kind(timer_class::STOP_TIMEOUT, 7);
        assert_eq!(split_timer_kind(k), (timer_class::STOP_TIMEOUT, 7));
        let k2 = timer_kind(timer_class::TX_DONE, 0);
        assert_eq!(split_timer_kind(k2), (timer_class::TX_DONE, 0));
    }

    #[test]
    fn stop_timeout_is_16_character_periods() {
        let (engine, sender, _) = setup();
        let s = engine.component_as::<Sender>(sender).unwrap();
        // 12.5 ns char period at 640 Mb/s × 16 = 200 ns.
        assert_eq!(s.egress.stop_timeout(), SimDuration::from_ns(200));
    }
}
