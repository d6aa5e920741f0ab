//! Generated leaf–spine Myrinet fabrics: parameterized multi-switch
//! topologies that scale the paper's 3-host test bed to 1,000+ hosts.
//!
//! [`build_fabric`] wires real [`Host`]s, [`Switch`]es and interface
//! components into an [`Engine`] from one knob, the host count; the
//! fabric's shape follows from it. The layout is the classic two-tier fat
//! tree: every leaf switch carries `radix − 2` hosts on its low ports and
//! one uplink to each of the two spines on its high ports; every spine
//! carries one port per leaf. The radix ([`TopoOptions::radix`]) is the
//! smallest standard one (8, 16 or 64) that keeps the fabric within 64
//! leaves: 10 hosts at radix 8 is 2 leaves, 100 at radix 16 is 8, and
//! 1,000 at radix 64 is 17, inside the 64-port switch cap and the `u8`
//! switch-id space.
//!
//! **Routing at scale.** The paper's mapper recomputes every pairwise
//! route each mapping round — O(N²) work that the 3-host test bed never
//! notices and a 1,000-host fabric cannot afford (and real deployments
//! precompute static routes for exactly this reason). Generated fabrics
//! therefore disable mapping (`set_can_map(false)`) and install static
//! source routes at build time — cross-leaf flows spread over the spines
//! by source host (deterministic ECMP) — so traffic starts at t = 0 with
//! no discovery phase and every trunk carries load.
//!
//! **Traffic.** Each host `i` runs one fixed-interval [`Workload::Sender`]
//! to host `(i + hosts_per_leaf) mod hosts` — a deterministic stride
//! pattern that forces every flow through a leaf→spine→leaf path (the
//! stride skips exactly one leaf's worth of hosts), exercising trunk
//! contention and STOP/GO flow control rather than staying switch-local.
//!
//! **Sharding.** The fabric derives its own affinity partition: one shard
//! per leaf switch together with its hosts, and one shard per spine
//! switch — under the stride pattern a spine alone forwards about 1.6
//! leaves' worth of events, so it is the heaviest shard as it is. The
//! only cross-shard links are the leaf–spine trunks, so the conservative
//! lookahead is the *trunk* link's propagation delay — which is why
//! host cables (3 m) and trunks (100 m) differ in length: short host
//! cables keep per-hop latency realistic while longer trunk runs
//! (machine-room scale) buy the sharded executor a wide synchronization
//! window.
//!
//! **Determinism oracle.** [`fabric_digest`] folds every host's and
//! switch's end-of-run counters plus the engine clock and delivery count
//! into one FNV-1a hash. The digest is a pure function of simulation
//! state, so serial and sharded runs of the same fabric must produce the
//! same 64 bits at any worker count — pinned in `tests/determinism.rs`
//! for the 10-, 100- and 1,000-host fabrics and cross-checked in-run by
//! the benchmark's `fabric1000` workload.

use netfi_core::InjectorDevice;
use netfi_myrinet::addr::{EthAddr, NodeAddress};
use netfi_myrinet::event::{connect, ConnectError, Ev};
use netfi_myrinet::interface::InterfaceConfig;
use netfi_myrinet::mapper::Topology;
use netfi_myrinet::packet::{route_to_host, route_to_switch};
use netfi_myrinet::switch::{Switch, SwitchConfig};
use netfi_netstack::{Host, HostCmd, HostConfig, Workload, SINK_PORT};
use netfi_phy::Link;
use netfi_sim::shard::ShardSpec;
use netfi_sim::{
    ComponentId, Engine, Fnv1a, NullProbe, Probe, SimDuration, SimTime, Simulation,
};

/// Spine switches of a multi-leaf fabric.
const SPINES: usize = 2;

/// Host ↔ leaf cable length in meters (short server-room cables).
const HOST_CABLE_M: f64 = 3.0;

/// Leaf ↔ spine trunk length in meters: a 100 m machine-room run, ~500 ns
/// of propagation — the fabric's conservative lookahead, the window the
/// sharded executor batches within.
const TRUNK_CABLE_M: f64 = 100.0;

/// Payload bytes of each host's datagrams.
const PAYLOAD_LEN: usize = 64;

/// Parameters for [`build_fabric`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoOptions {
    /// Number of hosts; the radix, leaf and spine counts follow from it.
    pub hosts: usize,
    /// Base RNG seed, decorrelated per host.
    pub seed: u64,
    /// Interval between each host's sends (one 64-byte datagram each).
    pub interval: SimDuration,
    /// Splice an [`InjectorDevice`] into this host's link to its leaf
    /// (direction A = host → leaf). `None` leaves the fabric untouched —
    /// component order, and therefore every pinned fabric digest, is
    /// unchanged unless a host is intercepted.
    pub intercept_host: Option<usize>,
}

impl Default for TopoOptions {
    fn default() -> Self {
        TopoOptions {
            hosts: 10,
            seed: 0x6661_6272_6963,
            interval: SimDuration::from_us(500),
            intercept_host: None,
        }
    }
}

impl TopoOptions {
    /// The default options at `hosts` hosts.
    pub fn sized(hosts: usize) -> TopoOptions {
        TopoOptions {
            hosts,
            ..TopoOptions::default()
        }
    }

    /// Ports per leaf switch: the smallest standard radix (8, 16 or 64)
    /// that carries `hosts` without exceeding 64 leaves.
    pub fn radix(&self) -> usize {
        if self.hosts <= 48 {
            8
        } else if self.hosts <= 448 {
            16
        } else {
            64
        }
    }

    /// Hosts carried per leaf switch: the ports the spine uplinks leave.
    pub(crate) fn hosts_per_leaf(&self) -> usize {
        self.radix() - SPINES
    }

    /// Leaf switches needed for `hosts`.
    pub fn leaves(&self) -> usize {
        self.hosts.div_ceil(self.hosts_per_leaf())
    }

    /// Spine switches built: none when one leaf suffices — a
    /// single-switch fabric has no trunks.
    pub(crate) fn spines(&self) -> usize {
        if self.leaves() > 1 {
            SPINES
        } else {
            0
        }
    }
}

/// A generated fabric: the engine plus every handle a harness needs to
/// drive it, shard it, and digest its end state.
#[derive(Debug)]
pub struct Fabric<P: Probe = NullProbe> {
    /// The event engine, wired and ready to run (hosts start at t = 0).
    pub engine: Engine<Ev, P>,
    /// Host component ids, in host-index order.
    pub hosts: Vec<ComponentId>,
    /// Leaf switch ids, in leaf order.
    pub leaves: Vec<ComponentId>,
    /// Spine switch ids (empty for single-leaf fabrics).
    pub spines: Vec<ComponentId>,
    /// Host physical addresses, aligned with `hosts`.
    pub eth: Vec<EthAddr>,
    /// The spliced injector device, when `intercept_host` asked for one.
    pub injector: Option<ComponentId>,
    /// Shard id per component index: leaf `l`, its hosts and a spliced
    /// injector are shard `l`; spine `s` is shard `leaves + s`.
    pub affinity: Vec<u16>,
    /// The conservative window bound: the trunk link's propagation
    /// delay, since trunks are the only cross-shard links.
    pub lookahead: SimDuration,
}

impl<P: Probe> Fabric<P> {
    /// Number of affinity groups the fabric partitions into: one per
    /// leaf plus one per spine.
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.affinity.iter().map(|&s| s as usize + 1).max().unwrap_or(1)
    }

    /// The topology-derived [`ShardSpec`] at a given worker count.
    pub fn shard_spec(&self, workers: usize) -> ShardSpec {
        ShardSpec {
            affinity: self.affinity.clone(),
            lookahead: self.lookahead,
            workers,
        }
    }
}

/// Builds a leaf–spine fabric per `options` (see the [module docs](self)
/// for the layout, routing and traffic model). `customize` runs once per
/// host, after its workload and static routes are installed and before
/// it is boxed into the engine.
///
/// # Errors
///
/// Returns [`ConnectError`] if wiring fails — impossible for components
/// this function itself creates, but surfaced rather than panicking.
///
/// # Panics
///
/// Panics if the options are unsatisfiable: zero hosts, or more than 64
/// leaves (the spine port space; more than 3,968 hosts).
pub fn build_fabric(
    options: &TopoOptions,
    customize: impl FnMut(usize, &mut Host),
) -> Result<Fabric, ConnectError> {
    build_fabric_probed(options, NullProbe, customize)
}

/// [`build_fabric`], with an observation [`Probe`] installed on the
/// engine. Observation never feeds back into the simulation, so a probed
/// fabric follows the exact trajectory of an unprobed one.
///
/// # Errors
///
/// Returns [`ConnectError`] if wiring fails (see [`build_fabric`]).
///
/// # Panics
///
/// Panics on unsatisfiable options (see [`build_fabric`]).
pub fn build_fabric_probed<P: Probe>(
    options: &TopoOptions,
    probe: P,
    mut customize: impl FnMut(usize, &mut Host),
) -> Result<Fabric<P>, ConnectError> {
    assert!(options.hosts > 0, "a fabric needs at least one host");
    let radix = options.radix();
    let hosts_per_leaf = options.hosts_per_leaf();
    let leaves = options.leaves();
    let spines = options.spines();
    assert!(
        leaves <= 64,
        "spine switches are capped at 64 ports (one per leaf)"
    );
    let host_link = Link::myrinet_640(HOST_CABLE_M);
    let trunk_link = Link::myrinet_640(TRUNK_CABLE_M);

    // Ground-truth switch fabric: leaves 0..L, spines L..L+S. Leaf l's
    // uplink to spine s leaves on port (radix − spines + s) and lands on
    // spine port l.
    let mut switch_ports: Vec<u8> = vec![radix as u8; leaves];
    switch_ports.extend(std::iter::repeat_n(leaves as u8, spines));
    let mut trunks = Vec::new();
    for l in 0..leaves {
        for s in 0..spines {
            let leaf_port = (radix - spines + s) as u8;
            trunks.push(((l as u8, leaf_port), ((leaves + s) as u8, l as u8)));
        }
    }
    let topo = Topology {
        switch_ports,
        trunks: trunks.clone(),
    };

    let mut engine: Engine<Ev, P> = Engine::with_probe(probe);
    let mut affinity: Vec<u16> = Vec::new();

    let leaf_ids: Vec<ComponentId> = (0..leaves)
        .map(|l| {
            affinity.push(l as u16);
            engine.add_component(Box::new(Switch::new(
                format!("leaf{l}"),
                radix,
                SwitchConfig::default(),
            )))
        })
        .collect();
    let spine_ids: Vec<ComponentId> = (0..spines)
        .map(|s| {
            // One shard per spine, after the per-leaf shards.
            affinity.push((leaves + s) as u16);
            engine.add_component(Box::new(Switch::new(
                format!("spine{s}"),
                leaves,
                SwitchConfig::default(),
            )))
        })
        .collect();
    for ((leaf, leaf_port), (spine, spine_port)) in trunks {
        connect::<Switch, Switch, _>(
            &mut engine,
            (leaf_ids[leaf as usize], leaf_port),
            (spine_ids[spine as usize - leaves], spine_port),
            &trunk_link,
        )?;
    }

    // The attachment of host i: its leaf's low ports, in host order.
    let attachment = |i: usize| ((i / hosts_per_leaf) as u8, (i % hosts_per_leaf) as u8);
    let mac = |i: usize| EthAddr::myricom(i as u32 + 1);
    let mut host_ids = Vec::new();
    let mut eth = Vec::new();
    let mut injector = None;
    for i in 0..options.hosts {
        let (leaf, port) = attachment(i);
        let iface = InterfaceConfig::new(
            NodeAddress(100 + i as u64),
            mac(i),
            (leaf, port),
            topo.clone(),
        );
        let mut host = Host::new(HostConfig::fast(
            iface,
            options.seed.wrapping_add(i as u64),
        ));
        // Static routing: mapping's per-round O(N²) route recomputation
        // is the test bed's luxury, not the fabric's (module docs).
        // Cross-leaf routes spread over the spines by source host
        // (deterministic ECMP), so every trunk carries traffic instead
        // of the BFS-first spine carrying it all.
        host.nic_mut().set_can_map(false);
        let peer = (i + hosts_per_leaf) % options.hosts;
        if peer != i {
            let (leaf_to, port_to) = attachment(peer);
            let route = if leaf == leaf_to {
                vec![route_to_host(port_to)]
            } else {
                let s = i % spines;
                let uplink = (radix - spines + s) as u8;
                vec![
                    route_to_switch(uplink),
                    route_to_switch(leaf_to),
                    route_to_host(port_to),
                ]
            };
            host.nic_mut().install_route(mac(peer), route);
            host.add_workload(Workload::Sender {
                dest: mac(peer),
                interval: options.interval,
                payload_len: PAYLOAD_LEN,
                forbidden: vec![],
                burst: 1,
            });
        }
        customize(i, &mut host);
        affinity.push(leaf as u16);
        let h = engine.add_component(Box::new(host));
        if options.intercept_host == Some(i) {
            // Splice the injector into this host's access link, exactly
            // like the test bed does (net.rs): direction A is host →
            // leaf on ports 0 → 1. The device lives in the host's leaf
            // shard — both its links are host-link length, so the trunk
            // lookahead argument is untouched.
            let dev = engine
                .add_component(Box::new(InjectorDevice::with_name(format!("fi-host{i}"))));
            affinity.push(leaf as u16);
            connect::<Host, InjectorDevice, _>(&mut engine, (h, 0), (dev, 0), &host_link)?;
            connect::<InjectorDevice, Switch, _>(
                &mut engine,
                (dev, 1),
                (leaf_ids[leaf as usize], port),
                &host_link,
            )?;
            injector = Some(dev);
        } else {
            connect::<Host, Switch, _>(
                &mut engine,
                (h, 0),
                (leaf_ids[leaf as usize], port),
                &host_link,
            )?;
        }
        engine.schedule(SimTime::ZERO, h, Ev::App(Box::new(HostCmd::Start)));
        host_ids.push(h);
        eth.push(mac(i));
    }

    Ok(Fabric {
        engine,
        hosts: host_ids,
        leaves: leaf_ids,
        spines: spine_ids,
        eth,
        injector,
        affinity,
        lookahead: trunk_link.propagation_delay(),
    })
}

/// Folds a fabric run's end state into one FNV-1a hash: the engine clock
/// and delivery count, then every host's sink deliveries, sender count,
/// UDP counters and NIC counters, then every switch's forwarding
/// counters, all in component order. Serial and sharded runs of the same
/// fabric must agree on all 64 bits at any worker count — this is the
/// scaling benchmark's determinism oracle.
pub fn fabric_digest(
    sim: &impl Simulation<Ev>,
    hosts: &[ComponentId],
    switches: &[ComponentId],
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(sim.events_processed());
    h.write_u64(sim.now().as_ps());
    for &id in hosts {
        match sim.component_as::<Host>(id) {
            Some(host) => {
                h.write_u64(host.rx_count(SINK_PORT));
                h.write_u64(host.sender_sent());
                // Debug renderings of plain counter structs: stable,
                // field-complete, and allocation is fine post-run.
                h.write(format!("{:?}", host.udp_stats()).as_bytes());
                h.write(format!("{:?}", host.nic().stats()).as_bytes());
            }
            None => h.write(b"missing-host"),
        }
    }
    for &id in switches {
        match sim.component_as::<Switch>(id) {
            Some(switch) => h.write(format!("{:?}", switch.stats()).as_bytes()),
            None => h.write(b"missing-switch"),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_sim::shard::ShardedEngine;

    #[test]
    fn sized_presets_fit_the_switch_limits() {
        for hosts in [1, 10, 48, 100, 448, 1000] {
            let o = TopoOptions::sized(hosts);
            assert!(o.leaves() <= 64, "hosts={hosts}");
            assert!(o.hosts_per_leaf() >= 1, "hosts={hosts}");
        }
        assert_eq!(TopoOptions::sized(10).leaves(), 2);
        assert_eq!(TopoOptions::sized(100).leaves(), 8);
        assert_eq!(TopoOptions::sized(1000).leaves(), 17);
    }

    #[test]
    fn fabric_carries_stride_traffic_without_mapping() {
        let options = TopoOptions::sized(10);
        let mut fabric = build_fabric(&options, |_, _| {}).unwrap();
        fabric.engine.run_until(SimTime::from_ms(20));
        // Every host's stride peer heard from it, with mapping disabled.
        for (i, &id) in fabric.hosts.iter().enumerate() {
            let host = fabric.engine.component_as::<Host>(id).unwrap();
            assert!(!host.nic().is_mapper(), "host {i} must not map");
            assert!(host.rx_count(SINK_PORT) > 10, "host {i} heard nothing");
            assert!(host.sender_sent() > 10, "host {i} sent nothing");
        }
        // The stride crosses leaves, so the spines forwarded traffic.
        for &id in &fabric.spines {
            let sw = fabric.engine.component_as::<Switch>(id).unwrap();
            assert!(sw.stats().forwarded > 0, "idle spine");
        }
    }

    #[test]
    fn affinity_groups_leaves_with_their_hosts() {
        let options = TopoOptions::sized(10);
        let fabric = build_fabric(&options, |_, _| {}).unwrap();
        // 2 leaf shards + 2 spine shards.
        assert_eq!(fabric.shard_count(), 4);
        for (i, &id) in fabric.hosts.iter().enumerate() {
            let leaf = i / options.hosts_per_leaf();
            assert_eq!(fabric.affinity[id.index()], leaf as u16, "host {i}");
            assert_eq!(
                fabric.affinity[fabric.leaves[leaf].index()],
                leaf as u16
            );
        }
        for (s, &id) in fabric.spines.iter().enumerate() {
            assert_eq!(
                fabric.affinity[id.index()],
                (fabric.leaves.len() + s) as u16,
                "spine {s}"
            );
        }
    }

    #[test]
    fn every_cross_shard_link_is_a_trunk() {
        for hosts in [10, 100] {
            let options = TopoOptions::sized(hosts);
            let fabric = build_fabric(&options, |_, _| {}).unwrap();
            let shard = |id: ComponentId| fabric.affinity[id.index()];
            // No host ↔ leaf link crosses a shard …
            for (i, &host) in fabric.hosts.iter().enumerate() {
                let leaf = fabric.leaves[i / options.hosts_per_leaf()];
                assert_eq!(shard(host), shard(leaf), "{hosts} hosts: host {i}");
            }
            // … every switch has a shard to itself, so only leaf ↔ spine
            // trunks are left to cross …
            let mut switch_shards: Vec<u16> = fabric
                .leaves
                .iter()
                .chain(&fabric.spines)
                .map(|&id| shard(id))
                .collect();
            switch_shards.sort_unstable();
            switch_shards.dedup();
            assert_eq!(switch_shards.len(), fabric.leaves.len() + fabric.spines.len());
            assert_eq!(switch_shards.len(), fabric.shard_count());
            // … and the window is what a trunk guarantees.
            assert_eq!(fabric.lookahead, Link::myrinet_640(TRUNK_CABLE_M).propagation_delay());
        }
    }

    #[test]
    fn a_shard_per_spine_lowers_the_imbalance() {
        let fabric = build_fabric(&TopoOptions::sized(100), |_, _| {}).unwrap();
        let spec = fabric.shard_spec(1);
        let mut sharded = ShardedEngine::from_engine(fabric.engine, spec, |_| NullProbe);
        sharded.run_until(SimTime::from_ms(5));
        let events: Vec<u64> = (0..sharded.shard_count())
            .map(|s| sharded.shard_events(s))
            .collect();
        // Seven full leaves, the short one, two spines.
        assert_eq!(events, [1288, 1288, 1288, 1288, 1288, 1288, 1288, 184, 900, 900]);
        // max / mean = max × shards / total and the total is shared, so
        // compare max × shards: as built, and with both spines in one
        // shard.
        let (leaves, spines) = events.split_at(fabric.leaves.len());
        let merged: u64 = spines.iter().sum();
        let as_built = events.iter().max().unwrap() * events.len() as u64;
        let one_spine_shard = merged.max(*leaves.iter().max().unwrap()) * (leaves.len() + 1) as u64;
        assert_eq!((as_built, one_spine_shard), (12_880, 16_200));
        assert!(as_built < one_spine_shard);
    }

    #[test]
    fn sharded_fabric_matches_serial_digest() {
        let options = TopoOptions::sized(10);
        let deadline = SimTime::from_ms(10);

        let mut serial = build_fabric(&options, |_, _| {}).unwrap();
        serial.engine.run_until(deadline);
        let want = fabric_digest(&serial.engine, &serial.hosts, &serial.leaves);

        for workers in [1, 2] {
            let fabric = build_fabric(&options, |_, _| {}).unwrap();
            let hosts = fabric.hosts.clone();
            let leaves = fabric.leaves.clone();
            let spec = fabric.shard_spec(workers);
            let mut sharded =
                ShardedEngine::from_engine(fabric.engine, spec, |_| NullProbe);
            sharded.run_until(deadline);
            assert_eq!(
                fabric_digest(&sharded, &hosts, &leaves),
                want,
                "workers={workers}"
            );
            assert!(sharded.cross_events() > 0, "stride traffic must cross shards");
        }
    }

    #[test]
    fn intercepted_fabric_splices_an_injector() {
        let options = TopoOptions {
            intercept_host: Some(1),
            ..TopoOptions::sized(10)
        };
        let mut fabric = build_fabric(&options, |_, _| {}).unwrap();
        let dev = fabric.injector.expect("injector spliced");
        // The device shares host 1's leaf shard, so the trunk-lookahead
        // sharding argument is untouched.
        assert_eq!(fabric.affinity[dev.index()], 0);
        fabric.engine.run_until(SimTime::from_ms(10));
        // Host 1's stride traffic flows through the spliced device and
        // still reaches its peer.
        let host = fabric
            .engine
            .component_as::<Host>(fabric.hosts[1])
            .unwrap();
        assert!(host.sender_sent() > 0);
        let peer = (1 + options.hosts_per_leaf()) % options.hosts;
        let peer_host = fabric
            .engine
            .component_as::<Host>(fabric.hosts[peer])
            .unwrap();
        assert!(peer_host.rx_count(SINK_PORT) > 0, "peer heard nothing");
        // An unintercepted build reports no injector.
        let plain = build_fabric(&TopoOptions::sized(10), |_, _| {}).unwrap();
        assert!(plain.injector.is_none());
    }

    #[test]
    fn single_leaf_fabric_degenerates_cleanly() {
        let options = TopoOptions::sized(4);
        let mut fabric = build_fabric(&options, |_, _| {}).unwrap();
        assert!(fabric.spines.is_empty());
        assert_eq!(fabric.shard_count(), 1);
        fabric.engine.run_until(SimTime::from_ms(5));
        let host = fabric.engine.component_as::<Host>(fabric.hosts[0]).unwrap();
        assert!(host.sender_sent() > 0);
    }
}
