//! Network maps and route computation.
//!
//! "Each MCP on a network is given a unique 64-bit address, and the MCP
//! with the highest address is responsible for mapping the network, a
//! process which is performed once every second" (§4.1). The mapper probes
//! switch ports with scout packets, collects replies, and builds a
//! [`NetworkMap`]; routes are then computed over the switch fabric and
//! distributed. Figure 11 of the paper contrasts a healthy map with the
//! corrupted maps produced when a node's address collides with the
//! controller's — [`NetworkMap::render`] reproduces that view.
//!
//! A modelling note: real Myrinet mappers discover switch adjacency by
//! recursive scouting; here the static switch fabric (a [`Topology`]) is
//! given to the mapper by the network builder, while *host* discovery still
//! happens with real scout/reply packets that the fault injector can
//! corrupt. This preserves every §4.3.2/§4.3.3 behaviour the paper
//! exercises.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::addr::{EthAddr, NodeAddress};
use crate::packet::{route_to_host, route_to_switch};

/// A host attachment point: `(switch index, port)`.
pub type Attachment = (u8, u8);

/// Static description of the switch fabric.
#[derive(Debug, Default)]
pub struct Topology {
    /// Ports per switch, indexed by switch id.
    pub switch_ports: Vec<u8>,
    /// Inter-switch cables: pairs of attachments.
    pub trunks: Vec<(Attachment, Attachment)>,
}

netfi_sim::clone_in_place!(Topology { switch_ports, trunks });

impl Topology {
    /// A single switch with `ports` ports — the paper's test bed (Fig 10).
    pub fn single_switch(ports: u8) -> Topology {
        Topology {
            switch_ports: vec![ports],
            trunks: Vec::new(),
        }
    }

    /// Two switches joined by one trunk.
    pub fn dual_switch(ports: u8, trunk_a: u8, trunk_b: u8) -> Topology {
        Topology {
            switch_ports: vec![ports, ports],
            trunks: vec![((0, trunk_a), (1, trunk_b))],
        }
    }

    /// Number of switches.
    pub(crate) fn switch_count(&self) -> usize {
        self.switch_ports.len()
    }

    /// `true` if `(switch, port)` is one end of an inter-switch trunk.
    pub(crate) fn is_trunk_port(&self, at: Attachment) -> bool {
        self.trunks.iter().any(|&(a, b)| a == at || b == at)
    }

    /// `true` if `(switch, port)` exists in this fabric.
    pub fn contains(&self, at: Attachment) -> bool {
        self.switch_ports
            .get(at.0 as usize)
            .is_some_and(|&ports| at.1 < ports)
    }

    /// Every `(switch, port)` that could hold a host (non-trunk ports).
    pub(crate) fn host_ports(&self) -> Vec<Attachment> {
        let mut out = Vec::new();
        for (s, &nports) in self.switch_ports.iter().enumerate() {
            for p in 0..nports {
                let at = (s as u8, p);
                if !self.is_trunk_port(at) {
                    out.push(at);
                }
            }
        }
        out
    }

    /// The port sequence (per switch) from switch `from` to switch `to`,
    /// found by breadth-first search over trunks. Empty when `from == to`;
    /// `None` when unreachable.
    fn switch_path(&self, from: u8, to: u8) -> Option<Vec<u8>> {
        if from == to {
            return Some(Vec::new());
        }
        let n = self.switch_count();
        let mut prev: Vec<Option<(u8, u8)>> = vec![None; n]; // (prev switch, exit port)
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[from as usize] = true;
        queue.push_back(from);
        while let Some(s) = queue.pop_front() {
            for &((sa, pa), (sb, pb)) in &self.trunks {
                for ((s1, p1), (s2, _)) in [((sa, pa), (sb, pb)), ((sb, pb), (sa, pa))] {
                    if s1 == s && !seen[s2 as usize] {
                        seen[s2 as usize] = true;
                        prev[s2 as usize] = Some((s, p1));
                        queue.push_back(s2);
                    }
                }
            }
        }
        if !seen[to as usize] {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, exit) = prev[cur as usize]?;
            path.push(exit);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Computes the source route from a host at `from` to a host at `to`.
    ///
    /// The result is the byte sequence placed at the head of a packet:
    /// switch-bound bytes (MSB set) for each inter-switch hop, then the
    /// final host byte (MSB clear).
    ///
    /// Returns `None` if the switches are not connected or `from == to`.
    pub fn route_between(&self, from: Attachment, to: Attachment) -> Option<Vec<u8>> {
        if from == to {
            return None;
        }
        // Defensive: corrupted mapping traffic can advertise attachments
        // outside the fabric; those are unroutable, not panics.
        if !self.contains(from) || !self.contains(to) {
            return None;
        }
        let hops = self.switch_path(from.0, to.0)?;
        let mut route: Vec<u8> = hops.into_iter().map(route_to_switch).collect();
        route.push(route_to_host(to.1));
        Some(route)
    }
}

/// What the mapper learned about one attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's 64-bit MCP address.
    pub addr: NodeAddress,
    /// The node's 48-bit physical address.
    pub eth: EthAddr,
}

/// One generation of the network map.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct NetworkMap {
    /// Mapping round that produced this map.
    pub epoch: u32,
    /// Nodes by attachment. Keyed by port, not by address — "the network
    /// map is developed using relative destination ports, instead of unique
    /// addresses" (§4.3.3).
    pub nodes: BTreeMap<Attachment, NodeInfo>,
}

netfi_sim::clone_in_place!(NetworkMap {
    epoch,
    nodes => netfi_sim::clone::btree_map_from,
});

impl NetworkMap {
    /// Creates an empty map for `epoch`.
    pub fn new(epoch: u32) -> NetworkMap {
        NetworkMap {
            epoch,
            nodes: BTreeMap::new(),
        }
    }

    /// Number of mapped nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when both maps contain the same nodes at the same
    /// attachments (epochs may differ) — the consistency check used to
    /// reproduce Figure 11's "unable to generate a consistent map".
    pub(crate) fn consistent_with(&self, other: &NetworkMap) -> bool {
        self.nodes == other.nodes
    }

    /// Renders the map in the style of Figure 11.
    pub fn render(&self, topology: &Topology) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "network map (epoch {})", self.epoch);
        for (s, &nports) in topology.switch_ports.iter().enumerate() {
            let _ = write!(out, "  sw{s}:");
            for p in 0..nports {
                let at = (s as u8, p);
                if topology.is_trunk_port(at) {
                    let _ = write!(out, " p{p}=<trunk>");
                } else if let Some(info) = self.nodes.get(&at) {
                    let _ = write!(out, " p{p}={}", info.eth);
                } else {
                    let _ = write!(out, " p{p}=-");
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

impl fmt::Display for NetworkMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "map[epoch={} nodes={}]", self.epoch, self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(n: u64) -> NodeInfo {
        NodeInfo {
            addr: NodeAddress(n),
            eth: EthAddr::myricom(n as u32),
        }
    }

    #[test]
    fn single_switch_routes() {
        let topo = Topology::single_switch(8);
        let route = topo.route_between((0, 0), (0, 3)).unwrap();
        assert_eq!(route, vec![route_to_host(3)]);
        assert_eq!(topo.route_between((0, 2), (0, 2)), None);
    }

    #[test]
    fn dual_switch_routes_cross_trunk() {
        let topo = Topology::dual_switch(8, 7, 7);
        // host at (0,0) to host at (1,2): exit sw0 via port 7, then host 2.
        let route = topo.route_between((0, 0), (1, 2)).unwrap();
        assert_eq!(route, vec![route_to_switch(7), route_to_host(2)]);
        // same-switch stays local.
        let local = topo.route_between((1, 0), (1, 1)).unwrap();
        assert_eq!(local, vec![route_to_host(1)]);
    }

    #[test]
    fn disconnected_switches_unroutable() {
        let topo = Topology {
            switch_ports: vec![4, 4],
            trunks: Vec::new(),
        };
        assert_eq!(topo.route_between((0, 0), (1, 0)), None);
    }

    #[test]
    fn host_ports_exclude_trunks() {
        let topo = Topology::dual_switch(4, 3, 0);
        let ports = topo.host_ports();
        assert!(!ports.contains(&(0, 3)));
        assert!(!ports.contains(&(1, 0)));
        assert_eq!(ports.len(), 6);
    }

    #[test]
    fn map_consistency_ignores_the_epoch() {
        let mut a = NetworkMap::new(1);
        a.nodes.insert((0, 0), info(1));
        a.nodes.insert((0, 1), info(2));
        let mut b = NetworkMap::new(2);
        b.nodes.insert((0, 0), info(1));
        b.nodes.insert((0, 1), info(2));
        assert!(a.consistent_with(&b)); // epoch ignored
        b.nodes.remove(&(0, 1));
        assert!(!a.consistent_with(&b));
    }

    #[test]
    fn render_shows_nodes_and_gaps() {
        let topo = Topology::single_switch(4);
        let mut m = NetworkMap::new(7);
        m.nodes.insert((0, 1), info(5));
        let s = m.render(&topo);
        assert!(s.contains("epoch 7"));
        assert!(s.contains("p1=00:60:dd:00:00:05"));
        assert!(s.contains("p0=-"));
    }

    #[test]
    fn render_marks_trunks() {
        let topo = Topology::dual_switch(2, 1, 1);
        let m = NetworkMap::new(0);
        let s = m.render(&topo);
        assert!(s.contains("p1=<trunk>"));
        assert!(s.contains("sw1:"));
    }

    #[test]
    fn three_switch_chain_routes() {
        let topo = Topology {
            switch_ports: vec![4, 4, 4],
            trunks: vec![((0, 3), (1, 0)), ((1, 3), (2, 0))],
        };
        let route = topo.route_between((0, 0), (2, 2)).unwrap();
        assert_eq!(
            route,
            vec![route_to_switch(3), route_to_switch(3), route_to_host(2)]
        );
    }
}
