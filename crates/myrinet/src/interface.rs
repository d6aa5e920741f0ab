//! The Myrinet host interface (LANai NIC + MCP firmware).
//!
//! "The Myrinet host interface is connected to the host I/O bus … The
//! interface also contains a 32-bit SRAM chip that holds the Myrinet
//! Control Program (MCP). The MCP is responsible for sending messages
//! between the network and the host" (§4.1). This type models that
//! interface: one link attachment with flow control, reception checks
//! (CRC, route MSB, physical address), a routing table, and the MCP's
//! mapping protocol with highest-address mapper election.
//!
//! It is a plain struct, embedded by a host component (see
//! `netfi-netstack`); the host routes engine events into
//! [`HostInterface::handle_rx`] / [`HostInterface::handle_timer`] and
//! receives app-bound payloads back as [`Delivery`] values.
//!
//! Fault hooks for the §4.3.3 campaigns: [`HostInterface::set_eth_addr`]
//! corrupts the node's physical-address register (sender-address
//! corruption, controller-address collision, non-existent address).

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use netfi_obs::Recorder;
use netfi_phy::ControlSymbol;
use netfi_sim::{Context, DetRng, SimDuration, SimTime};

use crate::addr::{EthAddr, NodeAddress};
use crate::crc8;
use crate::egress::{timer_class, timer_kind, Cut, EgressPort, EgressStats};
use crate::sbuf::{Accept, SlackBuffer};
use crate::event::{Ev, PortPeer};
use crate::frame::{Frame, LastGap, PacketFrame};
use crate::mapper::{Attachment, NetworkMap, NodeInfo, Topology};
use crate::mcp::MapMsg;
use crate::packet::{Packet, PacketError, PacketType};

/// The Ethernet-style header at the start of every DATA payload: the
/// 48-bit physical destination and source addresses (§4.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination physical address.
    pub dest: EthAddr,
    /// Source physical address.
    pub src: EthAddr,
}

impl EthHeader {
    /// Encoded size in bytes.
    pub const LEN: usize = 12;

    /// Serializes to 12 bytes.
    pub fn encode(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[..6].copy_from_slice(&self.dest.octets());
        out[6..].copy_from_slice(&self.src.octets());
        out
    }

    /// Reads a header from the front of `buf`.
    pub fn from_slice(buf: &[u8]) -> Option<EthHeader> {
        Some(EthHeader {
            dest: EthAddr::from_slice(buf)?,
            src: EthAddr::from_slice(buf.get(6..)?)?,
        })
    }
}

/// A DATA payload delivered to the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Source physical address.
    pub src: EthAddr,
    /// Destination physical address (ours, or broadcast).
    pub dest: EthAddr,
    /// Bytes above the Ethernet-style header — a zero-copy window into
    /// the received wire image.
    pub data: netfi_sim::SharedBytes,
}

/// Error returned by [`HostInterface::send_data_parts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination is not in the routing table — the node is currently
    /// "out of the network" (§4.3.2).
    NoRoute(EthAddr),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::NoRoute(a) => write!(f, "no route to {a}"),
        }
    }
}

impl Error for SendError {}

/// Interface counters, in the spirit of the paper's `mmon` registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterfaceStats {
    /// DATA packets transmitted.
    pub tx_data: u64,
    /// Sends refused for lack of a route.
    pub tx_no_route: u64,
    /// DATA packets delivered to the host.
    pub rx_delivered: u64,
    /// Packets dropped on CRC-8 failure.
    pub rx_crc_drops: u64,
    /// Packets "consumed and handled as an error" for a set route MSB.
    pub rx_route_errors: u64,
    /// DATA packets dropped as misaddressed.
    pub rx_misaddressed: u64,
    /// Packets with unrecognized type fields.
    pub rx_unknown_type: u64,
    /// Truncated/garbled packets.
    pub rx_malformed: u64,
    /// Packets lost to NIC receive-buffer overflow.
    pub rx_overflow_drops: u64,
    /// Packets truncated by a spurious GAP landing inside them.
    pub rx_truncated: u64,
    /// Scout messages answered.
    pub scouts_answered: u64,
    /// Mapping rounds completed as mapper.
    pub maps_built: u64,
    /// Maps that differed from the previous round's map.
    pub inconsistent_maps: u64,
    /// Routing tables installed from Routes messages.
    pub routes_installed: u64,
}

/// Mapping period — "performed once every second".
const MAPPING_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// How long the mapper waits for scout replies.
const SCOUT_WINDOW: SimDuration = SimDuration::from_ms(20);

/// How long a deferring MCP waits before reclaiming the mapper role.
const DEFERENCE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Receive slack-buffer capacity in bytes (paper Figures 7 and 9).
const RX_CAPACITY: usize = 8192;
/// Receive-buffer high watermark (STOP threshold).
const RX_HIGH: usize = 4096;
/// Receive-buffer low watermark (GO threshold).
const RX_LOW: usize = 1024;
/// Host drain rate (DMA / host bus), bits per second: the paper's hosts
/// are slower than the 640 Mb/s link.
const RX_DRAIN_BPS: u64 = 400_000_000;

/// XORed into the MCP address to seed the mapper's confusion behaviour
/// (Figure 11): `"netfi_if"`.
const SEED_SALT: u64 = 0x6e65_7466_695f_6966;

/// Where a [`HostInterface`] sits: its addresses, its attachment and the
/// fabric it maps. The interface takes part in mapper election unless
/// [`HostInterface::set_can_map`] turns that off, keeps the paper's
/// receive buffer (8 KiB, 4 KiB / 1 KiB watermarks, 400 Mb/s drain) unless
/// [`HostInterface::set_rx_params`] replaces it, and seeds its mapper from
/// `addr`.
#[derive(Debug)]
pub struct InterfaceConfig {
    /// The MCP's unique 64-bit address (election key).
    pub addr: NodeAddress,
    /// The factory physical address.
    pub eth: EthAddr,
    /// Where this interface plugs into the fabric.
    pub attachment: Attachment,
    /// The switch fabric (builder-provided; see module docs in
    /// [`crate::mapper`]).
    pub topology: Topology,
}

netfi_sim::clone_in_place!(InterfaceConfig {
    addr,
    eth,
    attachment,
    topology,
});

impl InterfaceConfig {
    /// The configuration of an interface at `attachment` in `topology`.
    pub fn new(
        addr: NodeAddress,
        eth: EthAddr,
        attachment: Attachment,
        topology: Topology,
    ) -> InterfaceConfig {
        InterfaceConfig {
            addr,
            eth,
            attachment,
            topology,
        }
    }
}

/// The host interface.
#[derive(Debug)]
pub struct HostInterface {
    config: InterfaceConfig,
    /// Whether this MCP participates in mapper election.
    can_map: bool,
    /// Rate at which the host drains the receive buffer, bits per second.
    rx_drain_bps: u64,
    eth_addr: EthAddr,
    egress: EgressPort,
    rx_sbuf: SlackBuffer,
    rx_queue: VecDeque<PacketFrame>,
    rx_draining: bool,
    /// The standalone GAPs the link has delivered: one that landed inside
    /// a packet's serialization window truncates it.
    gaps: LastGap,
    routing: BTreeMap<EthAddr, Vec<u8>>,
    stats: InterfaceStats,
    /// Observability recorder (scope `"interface"`), disarmed by default.
    obs: Recorder,
    // --- mapper state ---
    mapping_active: bool,
    epoch: u32,
    round_pending: BTreeMap<Attachment, NodeInfo>,
    confused: bool,
    last_map: Option<NetworkMap>,
    rng: DetRng,
    defer_gen: u64,
    window_gen: u64,
    round_gen: u64,
    last_present: Vec<EthAddr>,
}

netfi_sim::clone_in_place!(HostInterface {
    config,
    can_map,
    rx_drain_bps,
    eth_addr,
    egress,
    rx_sbuf,
    rx_queue,
    rx_draining,
    gaps,
    routing => netfi_sim::clone::btree_map_from,
    stats,
    obs,
    mapping_active,
    epoch,
    round_pending => netfi_sim::clone::btree_map_from,
    confused,
    last_map,
    rng,
    defer_gen,
    window_gen,
    round_gen,
    last_present,
});

impl HostInterface {
    /// Creates an interface (unwired; attach via the owning component).
    pub fn new(config: InterfaceConfig) -> HostInterface {
        let rng = DetRng::new(config.addr.0 ^ SEED_SALT);
        HostInterface {
            can_map: true,
            rx_drain_bps: RX_DRAIN_BPS,
            eth_addr: config.eth,
            egress: EgressPort::new(0),
            rx_sbuf: SlackBuffer::new(RX_CAPACITY, RX_HIGH, RX_LOW),
            rx_queue: VecDeque::new(),
            rx_draining: false,
            gaps: LastGap::default(),
            routing: BTreeMap::new(),
            stats: InterfaceStats::default(),
            obs: Recorder::disarmed(),
            mapping_active: true,
            epoch: 0,
            round_pending: BTreeMap::new(),
            confused: false,
            last_map: None,
            rng,
            defer_gen: 0,
            window_gen: 0,
            round_gen: 0,
            last_present: Vec::new(),
            config,
        }
    }

    /// Wires the interface's single port.
    pub fn attach(&mut self, peer: PortPeer) {
        self.egress.attach(peer);
    }

    /// Kicks off periodic mapping (call once, at simulation start).
    pub fn start(&mut self, ctx: &mut Context<'_, Ev>) {
        if self.can_map {
            self.round_gen += 1;
            ctx.send_self(
                MAPPING_INTERVAL,
                Ev::Timer {
                    kind: timer_kind(timer_class::MAPPING_ROUND, 0),
                    gen: self.round_gen,
                },
            );
        }
    }

    /// The MCP's 64-bit address.
    pub(crate) fn node_addr(&self) -> NodeAddress {
        self.config.addr
    }

    /// The live physical-address register.
    pub fn eth_addr(&self) -> EthAddr {
        self.eth_addr
    }

    /// FAULT HOOK: corrupts the physical-address register (§4.3.3). The
    /// node will now drop incoming packets addressed to its old address —
    /// "since the node doesn't see its own address, it drops all packets as
    /// being misaddressed" — while continuing to answer mapping packets.
    pub fn set_eth_addr(&mut self, eth: EthAddr) {
        self.eth_addr = eth;
    }

    /// Enables or disables this MCP's participation in mapping (call
    /// before the simulation starts). Campaigns that corrupt every frame
    /// from a node run with static routes instead, as mapping cannot
    /// survive total framing loss.
    pub fn set_can_map(&mut self, on: bool) {
        self.can_map = on;
        self.mapping_active = on;
    }

    /// Reconfigures the receive slack buffer and drain rate (call before
    /// the simulation starts).
    ///
    /// # Panics
    ///
    /// Panics on invalid watermark geometry or a zero drain rate.
    pub fn set_rx_params(&mut self, capacity: usize, high: usize, low: usize, drain_bps: u64) {
        assert!(drain_bps > 0, "drain rate must be non-zero");
        self.rx_sbuf = SlackBuffer::new(capacity, high, low);
        self.rx_drain_bps = drain_bps;
    }

    /// Counters.
    pub fn stats(&self) -> InterfaceStats {
        self.stats
    }

    /// The interface's observability recorder.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable access to the recorder (arm it before an observed run).
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// The current routing table.
    pub fn routing_table(&self) -> &BTreeMap<EthAddr, Vec<u8>> {
        &self.routing
    }

    /// Installs a static route (for tests and for running without mapping).
    pub fn install_route(&mut self, dest: EthAddr, route: Vec<u8>) {
        self.routing.insert(dest, route);
    }

    /// The most recent map this node built (mappers only).
    pub fn last_map(&self) -> Option<&NetworkMap> {
        self.last_map.as_ref()
    }

    /// Whether this MCP currently holds the mapper role.
    pub fn is_mapper(&self) -> bool {
        self.mapping_active
    }

    /// Physical addresses present in the last Routes message received.
    pub(crate) fn present_nodes(&self) -> &[EthAddr] {
        &self.last_present
    }

    /// Egress statistics (flow-control behaviour) as of `now` (see
    /// [`EgressPort::stats`]).
    pub fn egress_stats(&self, now: SimTime) -> EgressStats {
        self.egress.stats(now)
    }

    /// Ends the link's STOP trains at `now` because the host died (see
    /// [`EgressPort::cut`]). A dead host owes itself no timeout, so only
    /// the train end for the far side is left to schedule.
    pub fn cut(&mut self, now: SimTime) -> Cut {
        Cut {
            far: self.egress.cut(now, self.rx_sbuf.upstream_stopped()).far,
            near: Vec::new(),
        }
    }

    /// Switches the receive buffer's STOP repeats to the per-symbol model,
    /// the oracle of the STOP-train differential test. Call before the
    /// simulation starts.
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_per_symbol(&mut self) {
        self.egress
            .set_per_symbol(timer_kind(timer_class::RX_STOP_REFRESH, 1));
    }

    /// Sends the concatenation of `parts` to `dest` as a DATA packet.
    ///
    /// A caller with a scattered payload (e.g. a protocol header plus a
    /// shared payload buffer) skips assembling an intermediate buffer:
    /// the full wire image — route,
    /// type, Ethernet-style header, data, CRC — is built in one
    /// allocation, and every later hop shares it.
    ///
    /// # Errors
    ///
    /// [`SendError::NoRoute`] if the routing table has no entry for `dest`.
    pub fn send_data_parts(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        dest: EthAddr,
        parts: &[&[u8]],
    ) -> Result<(), SendError> {
        let Some(route) = self.routing.get(&dest) else {
            self.stats.tx_no_route += 1;
            return Err(SendError::NoRoute(dest));
        };
        let header = EthHeader {
            dest,
            src: self.eth_addr,
        };
        let data_len: usize = parts.iter().map(|p| p.len()).sum();
        let mut wire =
            Vec::with_capacity(route.len() + 4 + EthHeader::LEN + data_len + 1);
        wire.extend_from_slice(route);
        wire.extend_from_slice(&PacketType::DATA.to_bytes());
        wire.extend_from_slice(&header.encode());
        for part in parts {
            wire.extend_from_slice(part);
        }
        wire.push(crc8::checksum(&wire));
        self.egress.enqueue(ctx, Frame::packet(wire));
        self.stats.tx_data += 1;
        Ok(())
    }

    /// Handles a frame arriving from the link.
    ///
    /// Packets enter the NIC's receive slack buffer (Figures 7/9) and are
    /// drained at the host-bus rate; a [`Delivery`] for a completed packet
    /// is returned from [`HostInterface::handle_timer`] when its drain finishes.
    pub fn handle_rx(&mut self, ctx: &mut Context<'_, Ev>, frame: Frame) -> Option<Delivery> {
        match frame {
            Frame::Control(code) => {
                self.on_symbol(ctx, code);
                None
            }
            Frame::Train { code, mark } => {
                let sym = code.and_then(ControlSymbol::decode_tolerant);
                self.egress.on_train(ctx, mark, sym);
                self.gaps.on_train(ctx.now(), mark, sym);
                if let Some(code) = code {
                    self.on_symbol(ctx, code);
                }
                None
            }
            Frame::Packet(pf) => {
                // A GAP-train repeat due now sorts after the packet.
                let now = ctx.now();
                if let Some(gap_at) = self.gaps.latest(now, false) {
                    let window = self
                        .egress
                        .peer()
                        .map(|p| p.link.transfer_time(pf.wire_len()))
                        .unwrap_or_default();
                    if gap_at > now.saturating_sub_duration(window) {
                        self.gaps.consume(now, false);
                        self.stats.rx_truncated += 1;
                        return None;
                    }
                }
                // A frame from a component with a higher id sorts after
                // this component's own timers of its instant.
                let late = self.egress.peer().is_some_and(|p| p.dst > ctx.self_id());
                self.egress
                    .run_refresh(ctx.now(), late, self.rx_sbuf.upstream_stopped());
                match self.rx_sbuf.try_accept(pf.wire_len()) {
                    Accept::Overflow => {
                        self.stats.rx_overflow_drops += 1;
                        return None;
                    }
                    Accept::Stored => {}
                }
                self.poll_flow(ctx);
                self.rx_queue.push_back(pf);
                self.start_drain(ctx);
                None
            }
        }
    }

    /// Handles a control symbol from the link.
    fn on_symbol(&mut self, ctx: &mut Context<'_, Ev>, code: u8) {
        match ControlSymbol::decode_tolerant(code) {
            Some(sym @ (ControlSymbol::Stop | ControlSymbol::Go)) => {
                self.egress.on_flow(ctx, sym);
            }
            Some(ControlSymbol::Gap) => {
                // Remembered: a standalone GAP arriving during a packet's
                // serialization window truncated it.
                self.gaps.arrive(ctx.now());
            }
            _ => {}
        }
    }

    /// Sends the switch the STOP or GO the receive buffer owes it, if any.
    fn poll_flow(&mut self, ctx: &mut Context<'_, Ev>) {
        match self.rx_sbuf.poll_flow() {
            Some(ControlSymbol::Stop) => self.egress.send_stop(ctx),
            Some(_) => self.egress.send_go(ctx),
            None => {}
        }
    }

    /// Time to move `chars` characters across the host bus.
    fn drain_time(&self, chars: usize) -> netfi_sim::SimDuration {
        netfi_sim::SimDuration::from_bits(chars as u64 * 8, self.rx_drain_bps)
    }

    fn start_drain(&mut self, ctx: &mut Context<'_, Ev>) {
        if self.rx_draining {
            return;
        }
        let Some(front) = self.rx_queue.front() else {
            return;
        };
        self.rx_draining = true;
        let dt = self.drain_time(front.wire_len());
        ctx.send_self(
            dt,
            Ev::Timer {
                kind: timer_kind(timer_class::RX_DRAIN, 1),
                gen: 0,
            },
        );
    }

    fn handle_packet(&mut self, ctx: &mut Context<'_, Ev>, pf: PacketFrame) -> Option<Delivery> {
        let pkt = match Packet::parse_delivered_shared(&pf.bytes) {
            Ok(p) => p,
            Err(PacketError::BadCrc) => {
                self.stats.rx_crc_drops += 1;
                self.obs.instant(ctx.now(), "interface", "crc_drop", pf.wire_len() as u64);
                return None;
            }
            Err(PacketError::RouteMsbSet) => {
                // "consumed and handled as an error" — dropped "without
                // incident, and without causing delays or other errors".
                self.stats.rx_route_errors += 1;
                return None;
            }
            Err(_) => {
                self.stats.rx_malformed += 1;
                return None;
            }
        };
        match pkt.ptype {
            PacketType::DATA => {
                let Some(header) = EthHeader::from_slice(&pkt.payload) else {
                    self.stats.rx_malformed += 1;
                    return None;
                };
                if header.dest != self.eth_addr && !header.dest.is_broadcast() {
                    // "the node drops incoming packets that are
                    // misaddressed" (§4.3.3).
                    self.stats.rx_misaddressed += 1;
                    self.obs.instant(ctx.now(), "interface", "misaddressed", 0);
                    return None;
                }
                self.stats.rx_delivered += 1;
                Some(Delivery {
                    src: header.src,
                    dest: header.dest,
                    data: pkt.payload.slice(EthHeader::LEN..),
                })
            }
            PacketType::MAPPING => {
                match MapMsg::decode(&pkt.payload) {
                    Ok(msg) => self.handle_map_msg(ctx, msg),
                    Err(_) => self.stats.rx_malformed += 1,
                }
                None
            }
            _ => {
                // §4.3.2: corrupted-type packets are "dropped by the
                // receiving node and not recognized"; internal structures
                // remain unchanged.
                self.stats.rx_unknown_type += 1;
                None
            }
        }
    }

    /// Handles one of this component's timers (route by class).
    ///
    /// Returns a [`Delivery`] when the receive buffer finished draining a
    /// DATA packet addressed to this node.
    pub fn handle_timer(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        kind: u32,
        gen: u64,
    ) -> Option<Delivery> {
        let (class, _port) = crate::egress::split_timer_kind(kind);
        match class {
            timer_class::TX_DONE => self.egress.on_tx_done(ctx),
            timer_class::STOP_TIMEOUT => self.egress.on_stop_timeout(ctx, gen),
            timer_class::RX_DRAIN => {
                self.rx_draining = false;
                if let Some(pf) = self.rx_queue.pop_front() {
                    // Set a drain time ago, longer than a refresh period:
                    // ahead of the refresh due now.
                    debug_assert!(
                        !self.egress.in_stop_train()
                            || self.drain_time(pf.wire_len()) > self.egress.refresh_period(),
                        "a {}-character frame drains faster than STOP repeats",
                        pf.wire_len()
                    );
                    self.egress
                        .run_refresh(ctx.now(), false, self.rx_sbuf.upstream_stopped());
                    self.rx_sbuf.drain(pf.wire_len());
                    self.poll_flow(ctx);
                    let delivery = self.handle_packet(ctx, pf);
                    self.start_drain(ctx);
                    return delivery;
                }
            }
            #[cfg(any(test, feature = "oracle"))]
            timer_class::RX_STOP_REFRESH => {
                self.egress
                    .on_refresh_timer(ctx, self.rx_sbuf.upstream_stopped());
            }
            timer_class::MAPPING_ROUND => {
                if gen != self.round_gen {
                    return None;
                }
                if self.mapping_active {
                    self.start_round(ctx);
                }
                ctx.send_self(
                    MAPPING_INTERVAL,
                    Ev::Timer {
                        kind: timer_kind(timer_class::MAPPING_ROUND, 0),
                        gen: self.round_gen,
                    },
                );
            }
            timer_class::SCOUT_WINDOW
                if gen == self.window_gen && self.mapping_active => {
                    self.finish_round(ctx);
                }
            timer_class::TAKEOVER
                if gen == self.defer_gen && self.can_map && !self.mapping_active => {
                    // The higher-addressed mapper went quiet: reclaim.
                    self.mapping_active = true;
                    self.round_gen += 1;
                    self.start_round(ctx);
                    ctx.send_self(
                        MAPPING_INTERVAL,
                        Ev::Timer {
                            kind: timer_kind(timer_class::MAPPING_ROUND, 0),
                            gen: self.round_gen,
                        },
                    );
                }
            _ => {}
        }
        None
    }

    // --- mapping protocol ---

    fn send_mapping(&mut self, ctx: &mut Context<'_, Ev>, route: Vec<u8>, msg: &MapMsg) {
        let payload = msg.encode();
        let mut wire = Vec::with_capacity(route.len() + 4 + payload.len() + 1);
        wire.extend_from_slice(&route);
        wire.extend_from_slice(&PacketType::MAPPING.to_bytes());
        wire.extend_from_slice(&payload);
        wire.push(crc8::checksum(&wire));
        self.egress.enqueue(ctx, Frame::packet(wire));
    }

    fn start_round(&mut self, ctx: &mut Context<'_, Ev>) {
        self.epoch += 1;
        self.round_pending.clear();
        self.confused = false;
        let own = self.config.attachment;
        let targets = self.config.topology.host_ports();
        for target in targets {
            if target == own {
                continue;
            }
            let Some(route) = self.config.topology.route_between(own, target) else {
                continue;
            };
            let Some(reply_route) = self.config.topology.route_between(target, own) else {
                continue;
            };
            let msg = MapMsg::Scout {
                epoch: self.epoch,
                mapper: self.config.addr,
                target,
                reply_route,
            };
            self.send_mapping(ctx, route, &msg);
        }
        self.window_gen += 1;
        ctx.send_self(
            SCOUT_WINDOW,
            Ev::Timer {
                kind: timer_kind(timer_class::SCOUT_WINDOW, 0),
                gen: self.window_gen,
            },
        );
    }

    fn defer_to(&mut self, ctx: &mut Context<'_, Ev>, mapper: NodeAddress) {
        if mapper > self.config.addr {
            // "the MCP with the highest address is responsible": stand down
            // and watch for the higher mapper to disappear.
            self.mapping_active = false;
            self.defer_gen += 1;
            if self.can_map {
                ctx.send_self(
                    DEFERENCE_TIMEOUT,
                    Ev::Timer {
                        kind: timer_kind(timer_class::TAKEOVER, 0),
                        gen: self.defer_gen,
                    },
                );
            }
        }
    }

    fn handle_map_msg(&mut self, ctx: &mut Context<'_, Ev>, msg: MapMsg) {
        match msg {
            MapMsg::Scout {
                epoch,
                mapper,
                target,
                reply_route,
            } => {
                self.defer_to(ctx, mapper);
                self.stats.scouts_answered += 1;
                let reply = MapMsg::Reply {
                    epoch,
                    target,
                    addr: self.config.addr,
                    // The *live* register: a corrupted address register
                    // propagates into the map (§4.3.3).
                    eth: self.eth_addr,
                };
                self.send_mapping(ctx, reply_route, &reply);
            }
            MapMsg::Reply {
                epoch,
                target,
                addr,
                eth,
            } => {
                if !self.mapping_active || epoch != self.epoch {
                    return;
                }
                // A corrupted-but-CRC-valid reply can advertise an
                // attachment outside the fabric; the mapper ignores it.
                if !self.config.topology.contains(target)
                    || self.config.topology.is_trunk_port(target)
                {
                    self.stats.rx_malformed += 1;
                    return;
                }
                if addr == self.config.addr || eth == self.eth_addr {
                    // "The controller is confused by the appearance of what
                    // it believes is another controller" (§4.3.3).
                    self.confused = true;
                }
                self.round_pending.insert(target, NodeInfo { addr, eth });
            }
            MapMsg::Routes {
                epoch: _,
                mapper,
                entries,
                present,
            } => {
                self.defer_to(ctx, mapper);
                self.routing = entries.into_iter().collect();
                self.last_present = present;
                self.stats.routes_installed += 1;
            }
        }
    }

    fn finish_round(&mut self, ctx: &mut Context<'_, Ev>) {
        let mut map = NetworkMap::new(self.epoch);
        map.nodes.insert(
            self.config.attachment,
            NodeInfo {
                addr: self.config.addr,
                eth: self.eth_addr,
            },
        );
        for (&at, &info) in &self.round_pending {
            map.nodes.insert(at, info);
        }
        if self.confused {
            self.damage_map(&mut map);
        }
        self.stats.maps_built += 1;
        self.obs.instant(ctx.now(), "interface", "mapping_round", self.stats.maps_built);
        if let Some(prev) = &self.last_map {
            if !prev.consistent_with(&map) {
                self.stats.inconsistent_maps += 1;
            }
        }
        // Distribute per-node routing tables.
        let nodes: Vec<(Attachment, NodeInfo)> =
            map.nodes.iter().map(|(&a, &i)| (a, i)).collect();
        let present: Vec<EthAddr> = nodes.iter().map(|(_, i)| i.eth).collect();
        for (at, _info) in &nodes {
            let entries: Vec<(EthAddr, Vec<u8>)> = nodes
                .iter()
                .filter(|(other_at, _)| other_at != at)
                .filter_map(|(other_at, other)| {
                    self.config
                        .topology
                        .route_between(*at, *other_at)
                        .map(|r| (other.eth, r))
                })
                .collect();
            if *at == self.config.attachment {
                self.routing = entries.into_iter().collect();
                self.last_present = present.clone();
                self.stats.routes_installed += 1;
            } else {
                let Some(route) = self
                    .config
                    .topology
                    .route_between(self.config.attachment, *at)
                else {
                    continue;
                };
                let msg = MapMsg::Routes {
                    epoch: self.epoch,
                    mapper: self.config.addr,
                    entries,
                    present: present.clone(),
                };
                self.send_mapping(ctx, route, &msg);
            }
        }
        self.last_map = Some(map);
    }

    /// When another node claims the controller's identity, the mapper
    /// "is unable to generate a consistent map. Each attempt to resolve the
    /// network fails in an apparently random fashion … each subsequent
    /// mapping attempt resulted in a similarly damaged map" (§4.3.3).
    fn damage_map(&mut self, map: &mut NetworkMap) {
        let own = self.config.attachment;
        let victims: Vec<Attachment> = map
            .nodes
            .keys()
            .copied()
            .filter(|&at| at != own)
            .collect();
        for at in victims {
            let roll = self.rng.gen_f64();
            if roll < 0.4 {
                map.nodes.remove(&at);
            } else if roll < 0.65 {
                // Re-home the node to a random (possibly wrong) port.
                if let Some(info) = map.nodes.remove(&at) {
                    let candidates = self.config.topology.host_ports();
                    let slot = candidates[self.rng.gen_index(candidates.len())];
                    map.nodes.entry(slot).or_insert(info);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egress::split_timer_kind;
    use crate::event::{connect, Attach};
    use crate::switch::{Switch, SwitchConfig};
    use netfi_phy::Link;
    use netfi_sim::{Component, ComponentId, Engine, SimTime};

    /// Minimal host wrapping a HostInterface (netfi-netstack provides the
    /// full-featured version).
    #[derive(Clone)]
    struct TestHost {
        nic: HostInterface,
        delivered: Vec<Delivery>,
    }

    #[derive(Clone)]
    enum Cmd {
        Start,
        Send(EthAddr, Vec<u8>),
    }

    impl Attach for TestHost {
        fn attach_port(&mut self, port: u8, peer: PortPeer) {
            assert_eq!(port, 0);
            self.nic.attach(peer);
        }
    }

    impl Component<Ev> for TestHost {
        fn on_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Rx { frame, .. } => {
                    if let Some(d) = self.nic.handle_rx(ctx, frame) {
                        self.delivered.push(d);
                    }
                }
                Ev::Timer { kind, gen } => {
                    if let Some(d) = self.nic.handle_timer(ctx, kind, gen) {
                        self.delivered.push(d);
                    }
                }
                Ev::App(cmd) => match *cmd.downcast::<Cmd>().expect("test cmd") {
                    Cmd::Start => self.nic.start(ctx),
                    Cmd::Send(dest, ref data) => {
                        let _ = self.nic.send_data_parts(ctx, dest, &[data]);
                    }
                },
                _ => {}
            }
        }
        fn fork(&self) -> Box<dyn Component<Ev>> {
            Box::new(self.clone())
        }
    }

    fn build_net(n: usize) -> (Engine<Ev>, ComponentId, Vec<ComponentId>) {
        let mut engine: Engine<Ev> = Engine::new();
        let topo = Topology::single_switch(8);
        let sw = engine.add_component(Box::new(Switch::new("sw0", 8, SwitchConfig::default())));
        let link = Link::myrinet_640(1.0);
        let mut hosts = Vec::new();
        for i in 0..n {
            let cfg = InterfaceConfig::new(
                NodeAddress(100 + i as u64),
                EthAddr::myricom(i as u32 + 1),
                (0, i as u8),
                topo.clone(),
            );
            let h = engine.add_component(Box::new(TestHost {
                nic: HostInterface::new(cfg),
                delivered: Vec::new(),
            }));
            connect::<TestHost, Switch, _>(&mut engine, (h, 0), (sw, i as u8), &link)
                .expect("wire host");
            engine.schedule(SimTime::ZERO, h, Ev::App(Box::new(Cmd::Start)));
            hosts.push(h);
        }
        (engine, sw, hosts)
    }

    fn nic(engine: &Engine<Ev>, h: ComponentId) -> &HostInterface {
        &engine.component_as::<TestHost>(h).unwrap().nic
    }

    #[test]
    fn mapping_converges_to_highest_address() {
        let (mut engine, _, hosts) = build_net(3);
        engine.run_until(SimTime::from_secs(3));
        // Host 2 has the highest address (102) and must be the mapper.
        assert!(nic(&engine, hosts[2]).is_mapper());
        assert!(!nic(&engine, hosts[0]).is_mapper());
        assert!(!nic(&engine, hosts[1]).is_mapper());
        // Everyone has routes to everyone.
        for (i, &h) in hosts.iter().enumerate() {
            let table = nic(&engine, h).routing_table();
            assert_eq!(table.len(), 2, "host {i} table: {table:?}");
        }
        // And the mapper's map holds all three nodes.
        let map = nic(&engine, hosts[2]).last_map().unwrap();
        assert_eq!(map.node_count(), 3);
    }

    #[test]
    fn data_flows_after_mapping() {
        let (mut engine, _, hosts) = build_net(3);
        engine.run_until(SimTime::from_secs(2));
        engine.schedule(
            engine.now(),
            hosts[0],
            Ev::App(Box::new(Cmd::Send(EthAddr::myricom(2), b"ping".to_vec()))),
        );
        engine.run_until(SimTime::from_secs(2) + SimDuration::from_ms(1));
        let h1 = engine.component_as::<TestHost>(hosts[1]).unwrap();
        assert_eq!(h1.delivered.len(), 1);
        assert_eq!(h1.delivered[0].data, b"ping");
        assert_eq!(h1.delivered[0].src, EthAddr::myricom(1));
    }

    #[test]
    fn send_without_route_fails() {
        let (mut engine, _, hosts) = build_net(2);
        // Before any mapping round, tables are empty.
        engine.schedule(
            SimTime::from_ms(1),
            hosts[0],
            Ev::App(Box::new(Cmd::Send(EthAddr::myricom(2), b"x".to_vec()))),
        );
        engine.run_until(SimTime::from_ms(2));
        assert_eq!(nic(&engine, hosts[0]).stats().tx_no_route, 1);
    }

    #[test]
    fn misaddressed_packets_dropped() {
        let (mut engine, _, hosts) = build_net(3);
        engine.run_until(SimTime::from_secs(2));
        // Corrupt host 1's address register: it no longer sees its address.
        engine
            .component_as_mut::<TestHost>(hosts[1])
            .unwrap()
            .nic
            .set_eth_addr(EthAddr::myricom(99));
        engine.schedule(
            engine.now(),
            hosts[0],
            Ev::App(Box::new(Cmd::Send(EthAddr::myricom(2), b"lost".to_vec()))),
        );
        engine.run_until(engine.now() + SimDuration::from_ms(5));
        let h1 = engine.component_as::<TestHost>(hosts[1]).unwrap();
        assert!(h1.delivered.is_empty());
        assert_eq!(h1.nic.stats().rx_misaddressed, 1);
    }

    #[test]
    fn corrupted_node_still_answers_mapping() {
        // §4.3.3: "the node still responds correctly to mapping packets".
        let (mut engine, _, hosts) = build_net(3);
        engine.run_until(SimTime::from_secs(2));
        engine
            .component_as_mut::<TestHost>(hosts[0])
            .unwrap()
            .nic
            .set_eth_addr(EthAddr::myricom(0x50));
        engine.run_until(SimTime::from_secs(4));
        // The mapper's newest map carries the *corrupted* address at the
        // same attachment.
        let map = nic(&engine, hosts[2]).last_map().unwrap();
        assert_eq!(map.nodes[&(0, 0)].eth, EthAddr::myricom(0x50));
    }

    #[test]
    fn controller_address_collision_corrupts_maps() {
        let (mut engine, _, hosts) = build_net(3);
        engine.run_until(SimTime::from_secs(3));
        let healthy = nic(&engine, hosts[2]).last_map().unwrap().clone();
        assert_eq!(healthy.node_count(), 3);
        // Host 0 claims the controller's physical address.
        let controller_eth = nic(&engine, hosts[2]).eth_addr();
        engine
            .component_as_mut::<TestHost>(hosts[0])
            .unwrap()
            .nic
            .set_eth_addr(controller_eth);
        engine.run_until(SimTime::from_secs(8));
        let mapper = nic(&engine, hosts[2]);
        let damaged = mapper.last_map().unwrap();
        // Maps become inconsistent across rounds.
        assert!(
            mapper.stats().inconsistent_maps >= 2,
            "inconsistent_maps = {}",
            mapper.stats().inconsistent_maps
        );
        // And the damaged map does not match the healthy one.
        assert!(!damaged.consistent_with(&healthy) || damaged.node_count() < 3);
    }

    #[test]
    fn unknown_packet_type_counted_and_tables_unchanged() {
        let (mut engine, _, hosts) = build_net(2);
        engine.run_until(SimTime::from_secs(2));
        let table_before = nic(&engine, hosts[0]).routing_table().clone();
        // Hand-deliver a packet with a corrupted type (0x0005 -> 0x0009).
        let pkt = Packet::new(
            vec![crate::packet::route_to_host(0)],
            PacketType(0x0009),
            b"garbage".to_vec(),
        );
        engine.schedule(
            engine.now(),
            hosts[0],
            Ev::Rx {
                port: 0,
                frame: Frame::packet(pkt.encode()),
            },
        );
        engine.run_until(engine.now() + SimDuration::from_ms(1));
        let n = nic(&engine, hosts[0]);
        assert_eq!(n.stats().rx_unknown_type, 1);
        assert_eq!(n.routing_table(), &table_before);
    }

    #[test]
    fn route_msb_error_consumed_quietly() {
        let (mut engine, _, hosts) = build_net(2);
        let pkt = Packet::new(
            vec![crate::packet::route_to_switch(0)], // MSB set on final byte
            PacketType::DATA,
            vec![0u8; 16],
        );
        engine.schedule(
            SimTime::from_ms(1),
            hosts[0],
            Ev::Rx {
                port: 0,
                frame: Frame::packet(pkt.encode()),
            },
        );
        engine.run_until(SimTime::from_ms(2));
        let n = nic(&engine, hosts[0]);
        assert_eq!(n.stats().rx_route_errors, 1);
        assert_eq!(n.stats().rx_delivered, 0);
    }

    #[test]
    fn mapper_failover_to_next_highest_address() {
        let (mut engine, _, hosts) = build_net(3);
        engine.run_until(SimTime::from_secs(3));
        assert!(nic(&engine, hosts[2]).is_mapper());
        assert!(!nic(&engine, hosts[1]).is_mapper());
        // The mapper "dies" (stops mapping). After the deference timeout
        // (3 s) the next-highest address reclaims the role.
        engine
            .component_as_mut::<TestHost>(hosts[2])
            .unwrap()
            .nic
            .set_can_map(false);
        engine.run_until(SimTime::from_secs(9));
        assert!(
            nic(&engine, hosts[1]).is_mapper(),
            "host 1 must take over mapping"
        );
        assert!(!nic(&engine, hosts[0]).is_mapper());
        // And the network keeps working: fresh maps exist.
        let map = nic(&engine, hosts[1]).last_map().unwrap();
        assert_eq!(map.node_count(), 3);
    }

    #[test]
    fn nic_rx_buffer_overflows_without_flow_control() {
        // Bypass the network: deliver packets directly, faster than the
        // drain rate, with a tiny buffer and no STOP path (unwired egress
        // drops the flow symbols) — the receive buffer must overflow.
        let cfg = InterfaceConfig::new(
            NodeAddress(1),
            EthAddr::myricom(1),
            (0, 0),
            Topology::single_switch(4),
        );
        let mut engine: Engine<Ev> = Engine::new();
        let h = engine.add_component(Box::new(TestHost {
            nic: {
                let mut n = HostInterface::new(cfg);
                n.set_rx_params(2048, 1536, 512, 100_000_000);
                n
            },
            delivered: Vec::new(),
        }));
        let payload = {
            let header = EthHeader {
                dest: EthAddr::myricom(1),
                src: EthAddr::myricom(2),
            };
            let mut p = header.encode().to_vec();
            p.extend_from_slice(&[0u8; 500]);
            p
        };
        let pkt = Packet::new(vec![crate::packet::route_to_host(0)], PacketType::DATA, payload);
        for k in 0..8u64 {
            engine.schedule(
                SimTime::from_us(k), // 8 packets in 8 µs >> drain rate
                h,
                Ev::Rx {
                    port: 0,
                    frame: Frame::packet(pkt.encode()),
                },
            );
        }
        engine.run_until(SimTime::from_ms(2));
        let n = nic(&engine, h);
        assert!(n.stats().rx_overflow_drops > 0, "{:?}", n.stats());
        // Everything not overflowed was eventually delivered.
        let h_ref = engine.component_as::<TestHost>(h).unwrap();
        assert_eq!(
            h_ref.delivered.len() as u64 + n.stats().rx_overflow_drops,
            8
        );
    }

    #[test]
    fn spurious_gap_truncates_packet_at_nic() {
        let (mut engine, _, hosts) = build_net(2);
        engine.run_until(SimTime::from_secs(2));
        // Deliver a GAP, then a packet whose serialization window covers
        // the GAP's arrival time.
        let t = engine.now();
        engine.schedule(
            t + SimDuration::from_ns(100),
            hosts[0],
            Ev::Rx {
                port: 0,
                frame: Frame::control(netfi_phy::ControlSymbol::Gap),
            },
        );
        let pkt = Packet::new(
            vec![crate::packet::route_to_host(0)],
            PacketType::DATA,
            {
                let header = EthHeader {
                    dest: EthAddr::myricom(1),
                    src: EthAddr::myricom(2),
                };
                let mut p = header.encode().to_vec();
                p.extend_from_slice(&[0u8; 400]); // ~5 µs window at 640 Mb/s
                p
            },
        );
        engine.schedule(
            t + SimDuration::from_us(2),
            hosts[0],
            Ev::Rx {
                port: 0,
                frame: Frame::packet(pkt.encode()),
            },
        );
        engine.run_until(t + SimDuration::from_ms(1));
        let n = nic(&engine, hosts[0]);
        assert_eq!(n.stats().rx_truncated, 1, "{:?}", n.stats());
        assert_eq!(n.stats().rx_delivered, 0);
    }

    #[test]
    fn eth_header_roundtrip() {
        let h = EthHeader {
            dest: EthAddr::myricom(1),
            src: EthAddr::myricom(2),
        };
        let enc = h.encode();
        assert_eq!(EthHeader::from_slice(&enc), Some(h));
        assert_eq!(EthHeader::from_slice(&enc[..11]), None);
    }

    #[test]
    fn timer_routing_ignores_stale_generations() {
        let (mut engine, _, hosts) = build_net(2);
        engine.run_until(SimTime::from_secs(2));
        let built_before = nic(&engine, hosts[1]).stats().maps_built;
        // A stale SCOUT_WINDOW timer must not rebuild the map.
        engine.schedule(
            engine.now(),
            hosts[1],
            Ev::Timer {
                kind: timer_kind(timer_class::SCOUT_WINDOW, 0),
                gen: 0,
            },
        );
        engine.run_until(engine.now() + SimDuration::from_ms(1));
        assert_eq!(nic(&engine, hosts[1]).stats().maps_built, built_before);
        // sanity: kinds split correctly
        assert_eq!(
            split_timer_kind(timer_kind(timer_class::SCOUT_WINDOW, 0)),
            (timer_class::SCOUT_WINDOW, 0)
        );
    }
}
