//! The network topology graph.
//!
//! Mirrors the data structures of the paper's Figure 2:
//!
//! ```text
//! Host            { host_name; LinkedList interfaces; … }
//! Interface       { localName; … }
//! HostPairConnection { Host host1; Interface if1; Host host2; Interface if2; }
//! NetworkTopology { LinkedList hosts; LinkedList hostPairConnections; }
//! ```
//!
//! with two deliberate generalisations: nodes carry a [`NodeKind`] (the
//! paper distinguishes hubs/switches informally — "B and D can be hosts
//! with multiple network connections, or network devices such as switches
//! or hubs"), and interfaces carry their static speed so bandwidth math
//! does not need a live `ifSpeed` query for every computation.

use crate::error::TopologyError;
use crate::ids::{ConnId, DomainId, IfIx, NodeId};
use crate::index::{Forest, Station, TopoIndex};
use crate::kind::NodeKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One network interface on a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interface {
    /// Local name unique within the owning node (e.g. `eth0`, `p3`).
    pub local_name: String,
    /// Static interface bandwidth in bits per second (MIB-II `ifSpeed`).
    pub speed_bps: u64,
    /// Connection this interface participates in, if any.
    pub connection: Option<ConnId>,
}

/// A host or network device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// System-wide unique node name.
    pub name: String,
    /// Role of the node (host / switch / hub / router).
    pub kind: NodeKind,
    /// Interfaces in `ifIndex` order (interface *i* has `ifIndex == i + 1`).
    pub interfaces: Vec<Interface>,
    /// Whether an SNMP agent is reachable on this node. Nodes without an
    /// agent (e.g. hosts S3–S6 of the paper's testbed) are monitored from
    /// the far end of their connections.
    pub snmp_capable: bool,
    /// SNMP community string used when polling this node.
    pub snmp_community: String,
}

/// One end of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    /// Node the interface belongs to.
    pub node: NodeId,
    /// Interface index within the node.
    pub ifix: IfIx,
}

impl Endpoint {
    /// Convenience constructor.
    #[inline]
    pub fn new(node: NodeId, ifix: IfIx) -> Self {
        Endpoint { node, ifix }
    }
}

impl From<(NodeId, IfIx)> for Endpoint {
    fn from((node, ifix): (NodeId, IfIx)) -> Self {
        Endpoint { node, ifix }
    }
}

/// A physical 1-to-1 connection between two interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Connection {
    /// First endpoint.
    pub a: Endpoint,
    /// Second endpoint.
    pub b: Endpoint,
}

impl Connection {
    /// Returns the endpoint on `node`, if the connection touches it.
    pub fn endpoint_on(&self, node: NodeId) -> Option<Endpoint> {
        if self.a.node == node {
            Some(self.a)
        } else if self.b.node == node {
            Some(self.b)
        } else {
            None
        }
    }

    /// Returns the endpoint *not* on `node`, if the connection touches
    /// `node`.
    pub fn other_end(&self, node: NodeId) -> Option<Endpoint> {
        if self.a.node == node {
            Some(self.b)
        } else if self.b.node == node {
            Some(self.a)
        } else {
            None
        }
    }

    /// True if the connection touches `node`.
    pub fn touches(&self, node: NodeId) -> bool {
        self.a.node == node || self.b.node == node
    }
}

/// The complete network topology of the real-time system under management.
///
/// Normally constructed from a DeSiDeRaTa specification file (see the
/// `netqos-spec` crate) but may also be built programmatically.
///
/// Adjacency, dense interface slots and shared-medium domains are derived
/// tables: built once on the first query after a mutation, dropped by the
/// next `add_node` / `add_interface` / `connect`. The spanning forest that
/// answers path queries is built on the first path query and dropped
/// with them. Build the topology
/// first and query it afterwards; alternating the two rebuilds the
/// tables every time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetworkTopology {
    nodes: Vec<Node>,
    connections: Vec<Connection>,
    #[serde(skip)]
    name_index: HashMap<String, NodeId>,
    #[serde(skip)]
    index: OnceLock<TopoIndex>,
}

impl NetworkTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node; the name must be unique within the topology.
    ///
    /// SNMP capability defaults to `false` with community `"public"`; use
    /// [`NetworkTopology::set_snmp`] to enable polling.
    pub fn add_node(&mut self, name: &str, kind: NodeKind) -> Result<NodeId, TopologyError> {
        if self.name_index.contains_key(name) {
            return Err(TopologyError::DuplicateNodeName(name.to_owned()));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.to_owned(),
            kind,
            interfaces: Vec::new(),
            snmp_capable: false,
            snmp_community: "public".to_owned(),
        });
        self.name_index.insert(name.to_owned(), id);
        self.index.take();
        Ok(id)
    }

    /// Marks a node as SNMP-capable with the given community string.
    pub fn set_snmp(&mut self, node: NodeId, community: &str) -> Result<(), TopologyError> {
        let n = self.node_mut(node)?;
        n.snmp_capable = true;
        n.snmp_community = community.to_owned();
        Ok(())
    }

    /// Adds an interface to a node; the local name must be unique within
    /// that node. Returns the interface's index ([`IfIx`]).
    pub fn add_interface(
        &mut self,
        node: NodeId,
        local_name: &str,
        speed_bps: u64,
    ) -> Result<IfIx, TopologyError> {
        let n = self.node_mut(node)?;
        if n.interfaces.iter().any(|i| i.local_name == local_name) {
            return Err(TopologyError::DuplicateInterfaceName {
                node: n.name.clone(),
                interface: local_name.to_owned(),
            });
        }
        let ifix = IfIx(n.interfaces.len() as u32);
        n.interfaces.push(Interface {
            local_name: local_name.to_owned(),
            speed_bps,
            connection: None,
        });
        self.index.take();
        Ok(ifix)
    }

    /// Connects two interfaces. Both must exist and be unconnected: the LAN
    /// model requires connections to be strictly 1-to-1 (paper §3.2: "one
    /// interface may only be connected to one interface on another
    /// host/device").
    pub fn connect(
        &mut self,
        a: impl Into<Endpoint>,
        b: impl Into<Endpoint>,
    ) -> Result<ConnId, TopologyError> {
        let (a, b) = (a.into(), b.into());
        if a == b {
            let node = self.node(a.node)?.name.clone();
            let interface = self.interface(a.node, a.ifix)?.local_name.clone();
            return Err(TopologyError::SelfConnection { node, interface });
        }
        for ep in [a, b] {
            let iface = self.interface(ep.node, ep.ifix)?;
            if iface.connection.is_some() {
                return Err(TopologyError::InterfaceAlreadyConnected {
                    node: self.nodes[ep.node.index()].name.clone(),
                    interface: iface.local_name.clone(),
                });
            }
        }
        let id = ConnId(self.connections.len() as u32);
        self.connections.push(Connection { a, b });
        self.nodes[a.node.index()].interfaces[a.ifix.index()].connection = Some(id);
        self.nodes[b.node.index()].interfaces[b.ifix.index()].connection = Some(id);
        self.index.take();
        Ok(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Iterates over `(NodeId, &Node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over `(ConnId, &Connection)` pairs.
    pub fn connections(&self) -> impl Iterator<Item = (ConnId, &Connection)> {
        self.connections
            .iter()
            .enumerate()
            .map(|(i, c)| (ConnId(i as u32), c))
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> Result<&Node, TopologyError> {
        self.nodes
            .get(id.index())
            .ok_or(TopologyError::NoSuchNode(id))
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, TopologyError> {
        self.nodes
            .get_mut(id.index())
            .ok_or(TopologyError::NoSuchNode(id))
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId, TopologyError> {
        self.name_index
            .get(name)
            .copied()
            .ok_or_else(|| TopologyError::NoSuchNodeName(name.to_owned()))
    }

    /// Looks up an interface by node id and interface index.
    pub fn interface(&self, node: NodeId, ifix: IfIx) -> Result<&Interface, TopologyError> {
        let n = self.node(node)?;
        n.interfaces
            .get(ifix.index())
            .ok_or_else(|| TopologyError::NoSuchInterface {
                node: n.name.clone(),
                ifix,
            })
    }

    /// Looks up an interface index by its local name on a node.
    pub fn interface_by_name(&self, node: NodeId, name: &str) -> Result<IfIx, TopologyError> {
        let n = self.node(node)?;
        n.interfaces
            .iter()
            .position(|i| i.local_name == name)
            .map(|i| IfIx(i as u32))
            .ok_or_else(|| TopologyError::NoSuchInterfaceName {
                node: n.name.clone(),
                interface: name.to_owned(),
            })
    }

    /// Looks up a connection by id.
    pub fn connection(&self, id: ConnId) -> Result<&Connection, TopologyError> {
        self.connections
            .get(id.index())
            .ok_or(TopologyError::NoSuchConnection(id))
    }

    fn index(&self) -> &TopoIndex {
        self.index
            .get_or_init(|| TopoIndex::build(&self.nodes, &self.connections))
    }

    pub(crate) fn forest(&self) -> &Forest {
        self.index().forest()
    }

    /// All connections that touch `node`, in connection-id order.
    pub fn connections_of(&self, node: NodeId) -> impl Iterator<Item = ConnId> + '_ {
        self.neighbors(node).iter().map(|&(_, conn)| conn)
    }

    /// The nodes adjacent to `node` (one hop over any connection), with the
    /// connection that reaches them, in connection-id order. Empty for an
    /// unknown node.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, ConnId)] {
        self.index().neighbors(node)
    }

    /// Position of an interface in a table with one slot per interface
    /// of the topology (see [`NetworkTopology::interface_slot_count`]);
    /// `None` for an unknown node or interface.
    pub fn interface_slot(&self, node: NodeId, ifix: IfIx) -> Option<usize> {
        self.index().interface_slot(node, ifix)
    }

    /// Total number of interfaces over all nodes.
    pub fn interface_slot_count(&self) -> usize {
        self.index().interface_slot_count()
    }

    /// The shared-medium domain `hub` belongs to: the hub plus every hub
    /// cascaded to it (hub-to-hub cables join collision domains). `None`
    /// when `hub` is not a shared-medium node.
    pub fn shared_domain_of(&self, hub: NodeId) -> Option<DomainId> {
        self.index().domain_of(hub)
    }

    /// Number of shared-medium domains.
    pub fn shared_domain_count(&self) -> usize {
        self.index().domain_count()
    }

    /// The stations whose traffic sums to a domain's used bandwidth, in
    /// evaluation order: hubs by node id, each hub's cables by connection
    /// id. Uplinks to switches and routers and the hub-to-hub cables are
    /// not stations.
    pub fn shared_domain_stations(&self, domain: DomainId) -> &[Station] {
        self.index().domain_stations(domain)
    }

    /// Speed (bits/s) of a connection: the minimum of its two interface
    /// speeds, i.e. the rate the physical link actually negotiates.
    pub fn connection_speed(&self, id: ConnId) -> Result<u64, TopologyError> {
        let c = self.connection(id)?;
        let sa = self.interface(c.a.node, c.a.ifix)?.speed_bps;
        let sb = self.interface(c.b.node, c.b.ifix)?.speed_bps;
        Ok(sa.min(sb))
    }

    /// Human-readable description of a connection, e.g. `L.eth0 <-> sw.p1`.
    pub fn describe_connection(&self, id: ConnId) -> String {
        let mut out = String::new();
        self.describe_connection_into(id, &mut out);
        out
    }

    /// [`NetworkTopology::describe_connection`] written over `out`: a
    /// description that fits `out`'s capacity allocates nothing.
    pub fn describe_connection_into(&self, id: ConnId, out: &mut String) {
        out.clear();
        let Ok(c) = self.connection(id) else {
            let _ = write!(out, "{id}");
            return;
        };
        let push_endpoint = |out: &mut String, ep: &Endpoint| {
            match self.node(ep.node) {
                Ok(n) => out.push_str(&n.name),
                Err(_) => {
                    let _ = write!(out, "{}", ep.node);
                }
            }
            out.push('.');
            match self.interface(ep.node, ep.ifix) {
                Ok(i) => out.push_str(&i.local_name),
                Err(_) => {
                    let _ = write!(out, "{}", ep.ifix);
                }
            }
        };
        push_endpoint(out, &c.a);
        out.push_str(" <-> ");
        push_endpoint(out, &c.b);
    }

    /// Rebuilds the name index and the derived adjacency, interface-slot
    /// and shared-domain tables (the forest follows on the next path
    /// query). Needed after deserializing a topology with `serde`,
    /// because none of them is serialized.
    pub fn rebuild_index(&mut self) {
        self.name_index = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), NodeId(i as u32)))
            .collect();
        self.index = OnceLock::from(TopoIndex::build(&self.nodes, &self.connections));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hosts_one_switch() -> (NetworkTopology, NodeId, NodeId, NodeId) {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        let sw = t.add_node("SW", NodeKind::Switch).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        let a0 = t.add_interface(a, "eth0", 100_000_000).unwrap();
        let p1 = t.add_interface(sw, "p1", 100_000_000).unwrap();
        let p2 = t.add_interface(sw, "p2", 100_000_000).unwrap();
        let b0 = t.add_interface(b, "eth0", 10_000_000).unwrap();
        t.connect((a, a0), (sw, p1)).unwrap();
        t.connect((sw, p2), (b, b0)).unwrap();
        (t, a, sw, b)
    }

    #[test]
    fn duplicate_node_name_rejected() {
        let mut t = NetworkTopology::new();
        t.add_node("A", NodeKind::Host).unwrap();
        assert_eq!(
            t.add_node("A", NodeKind::Switch),
            Err(TopologyError::DuplicateNodeName("A".into()))
        );
    }

    #[test]
    fn duplicate_interface_name_rejected() {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        t.add_interface(a, "eth0", 1).unwrap();
        assert_eq!(
            t.add_interface(a, "eth0", 1),
            Err(TopologyError::DuplicateInterfaceName {
                node: "A".into(),
                interface: "eth0".into()
            })
        );
        assert_eq!(
            t.add_interface(NodeId(7), "eth0", 1),
            Err(TopologyError::NoSuchNode(NodeId(7)))
        );
    }

    #[test]
    fn connect_is_one_to_one() {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        let c = t.add_node("C", NodeKind::Host).unwrap();
        let a0 = t.add_interface(a, "eth0", 1).unwrap();
        let b0 = t.add_interface(b, "eth0", 1).unwrap();
        let c0 = t.add_interface(c, "eth0", 1).unwrap();
        t.connect((a, a0), (b, b0)).unwrap();
        // a0 and b0 are now taken; a second connection through either
        // must fail, naming it.
        assert_eq!(
            t.connect((a, a0), (c, c0)),
            Err(TopologyError::InterfaceAlreadyConnected {
                node: "A".into(),
                interface: "eth0".into()
            })
        );
        assert_eq!(
            t.connect((c, c0), (b, b0)),
            Err(TopologyError::InterfaceAlreadyConnected {
                node: "B".into(),
                interface: "eth0".into()
            })
        );
        assert_eq!(
            t.connect((c, c0), (NodeId(7), a0)),
            Err(TopologyError::NoSuchNode(NodeId(7)))
        );
    }

    #[test]
    fn self_connection_rejected() {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        let a0 = t.add_interface(a, "eth0", 1).unwrap();
        assert!(matches!(
            t.connect((a, a0), (a, a0)),
            Err(TopologyError::SelfConnection { .. })
        ));
    }

    #[test]
    fn two_interfaces_same_node_may_connect() {
        // A node may loop to itself through two distinct interfaces;
        // path traversal must still terminate (loop detection).
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Switch).unwrap();
        let p1 = t.add_interface(a, "p1", 1).unwrap();
        let p2 = t.add_interface(a, "p2", 1).unwrap();
        assert!(t.connect((a, p1), (a, p2)).is_ok());
    }

    #[test]
    fn neighbors_and_connections_of() {
        let (t, a, sw, b) = two_hosts_one_switch();
        let n = t.neighbors(sw);
        assert_eq!(n.len(), 2);
        assert!(n.iter().any(|(id, _)| *id == a));
        assert!(n.iter().any(|(id, _)| *id == b));
        assert_eq!(t.connections_of(a).count(), 1);
        assert_eq!(t.connections_of(sw).count(), 2);
    }

    #[test]
    fn connection_speed_is_min_of_ends() {
        let (t, _, _, _) = two_hosts_one_switch();
        // Connection 1 joins a 100 Mb/s switch port and a 10 Mb/s NIC.
        assert_eq!(t.connection_speed(ConnId(1)).unwrap(), 10_000_000);
        assert_eq!(t.connection_speed(ConnId(0)).unwrap(), 100_000_000);
    }

    #[test]
    fn describe_connection_names_both_ends() {
        let (t, _, _, _) = two_hosts_one_switch();
        assert_eq!(t.describe_connection(ConnId(0)), "A.eth0 <-> SW.p1");
    }

    #[test]
    fn lookup_by_name() {
        let (t, a, _, _) = two_hosts_one_switch();
        assert_eq!(t.node_by_name("A").unwrap(), a);
        assert!(t.node_by_name("Z").is_err());
        let ix = t.interface_by_name(a, "eth0").unwrap();
        assert_eq!(ix, IfIx(0));
        assert!(t.interface_by_name(a, "eth9").is_err());
    }

    #[test]
    fn snmp_flag_set() {
        let (mut t, a, _, _) = two_hosts_one_switch();
        assert!(!t.node(a).unwrap().snmp_capable);
        t.set_snmp(a, "lirtss").unwrap();
        let n = t.node(a).unwrap();
        assert!(n.snmp_capable);
        assert_eq!(n.snmp_community, "lirtss");
    }

    #[test]
    fn serde_round_trip_with_index_rebuild() {
        let (t, a, _, _) = two_hosts_one_switch();
        let json = serde_json_like(&t);
        // We avoid a serde_json dependency: round-trip through the type's
        // Clone + rebuild_index path instead, and check the index works.
        let mut t2 = t.clone();
        t2.rebuild_index();
        assert_eq!(t2.node_by_name("A").unwrap(), a);
        assert!(!json.is_empty());
    }

    #[test]
    fn unknown_connection_is_reported_as_such() {
        let (t, _, _, _) = two_hosts_one_switch();
        assert_eq!(
            t.connection(ConnId(2)).unwrap_err(),
            TopologyError::NoSuchConnection(ConnId(2))
        );
        assert_eq!(
            t.connection_speed(ConnId(9)).unwrap_err(),
            TopologyError::NoSuchConnection(ConnId(9))
        );
    }

    #[test]
    fn mutation_after_a_query_is_seen_by_the_next_query() {
        let (mut t, a, sw, _) = two_hosts_one_switch();
        assert_eq!(t.neighbors(sw).len(), 2);
        let p3 = t.add_interface(sw, "p3", 100_000_000).unwrap();
        let c = t.add_node("C", NodeKind::Host).unwrap();
        assert!(t.neighbors(c).is_empty());
        let c0 = t.add_interface(c, "eth0", 100_000_000).unwrap();
        let conn = t.connect((c, c0), (sw, p3)).unwrap();
        assert_eq!(t.neighbors(c), [(sw, conn)]);
        assert_eq!(t.neighbors(sw).last(), Some(&(c, conn)));
        assert_eq!(t.interface_slot_count(), 6);
        assert_eq!(t.interface_slot(c, c0), Some(5));
        assert_eq!(t.interface_slot(a, IfIx(1)), None);
        // Unknown nodes have no neighbours rather than panicking.
        assert!(t.neighbors(NodeId(99)).is_empty());
    }

    #[test]
    fn rebuilt_clone_answers_identically() {
        use crate::bandwidth::{path_bandwidth, IfRates, MapRates};
        use crate::path::find_path;
        // sw -- hub1 == hub2 -- {N1, N2}; A on the switch.
        let (mut t, a, sw, _) = two_hosts_one_switch();
        let up = t.add_interface(sw, "p3", 10_000_000).unwrap();
        let mut hubs = Vec::new();
        for name in ["hub1", "hub2"] {
            let h = t.add_node(name, NodeKind::Hub).unwrap();
            for i in 0..3 {
                t.add_interface(h, &format!("h{i}"), 10_000_000).unwrap();
            }
            hubs.push(h);
        }
        t.connect((sw, up), (hubs[0], IfIx(0))).unwrap();
        t.connect((hubs[0], IfIx(1)), (hubs[1], IfIx(0))).unwrap();
        let mut rates = MapRates::new();
        let mut stations = Vec::new();
        for (i, name) in ["N1", "N2"].iter().enumerate() {
            let n = t.add_node(name, NodeKind::Host).unwrap();
            let n0 = t.add_interface(n, "eth0", 10_000_000).unwrap();
            t.connect((n, n0), (hubs[1], IfIx(1 + i as u32))).unwrap();
            let bps = 1_000_000 * (i as u64 + 1);
            rates.set(
                n,
                n0,
                IfRates {
                    in_bps: bps,
                    out_bps: 0,
                },
            );
            stations.push(n);
        }
        rates.set(a, IfIx(0), IfRates::default());

        let mut rebuilt = t.clone();
        rebuilt.rebuild_index();
        for (id, _) in t.nodes() {
            assert_eq!(t.neighbors(id), rebuilt.neighbors(id));
        }
        assert_eq!(t.shared_domain_count(), 1);
        assert_eq!(rebuilt.shared_domain_count(), 1);
        let p = find_path(&t, a, stations[1]).unwrap();
        assert_eq!(find_path(&rebuilt, a, stations[1]).unwrap(), p);
        let bw = path_bandwidth(&t, &p, &rates).unwrap();
        assert_eq!(path_bandwidth(&rebuilt, &p, &rates).unwrap(), bw);
        assert_eq!(bw.used_bps, 3_000_000);
    }

    #[test]
    fn a_deserialized_topology_answers_paths_like_the_original_once_rebuilt() {
        use crate::path::{find_path, find_unique_path};
        // A tree (A - SW - B), a triangle of switches with a host, and a
        // lone host.
        let (mut t, _, _, _) = two_hosts_one_switch();
        let s: Vec<_> = (0..3)
            .map(|i| t.add_node(&format!("t{i}"), NodeKind::Switch).unwrap())
            .collect();
        for &sw in &s {
            for p in 0..3 {
                t.add_interface(sw, &format!("p{p}"), 100).unwrap();
            }
        }
        t.connect((s[0], IfIx(0)), (s[1], IfIx(0))).unwrap();
        t.connect((s[1], IfIx(1)), (s[2], IfIx(0))).unwrap();
        t.connect((s[2], IfIx(1)), (s[0], IfIx(1))).unwrap();
        let h = t.add_node("H", NodeKind::Host).unwrap();
        let h0 = t.add_interface(h, "eth0", 100).unwrap();
        t.connect((h, h0), (s[2], IfIx(2))).unwrap();
        t.add_node("lone", NodeKind::Host).unwrap();
        let n = t.node_count() as u32;
        // Answer on the original first, so its forest is built.
        let answers = |t: &NetworkTopology| {
            let mut out = Vec::new();
            for a in (0..n).map(NodeId) {
                for b in (0..n).map(NodeId) {
                    out.push((find_path(t, a, b), find_unique_path(t, a, b)));
                }
            }
            out
        };
        let expected = answers(&t);

        // What serde's derive yields: the two serialized lists, and the
        // skipped name index and derived tables at their defaults.
        let mut restored = NetworkTopology {
            nodes: t.nodes.clone(),
            connections: t.connections.clone(),
            ..NetworkTopology::default()
        };
        restored.rebuild_index();
        assert_eq!(restored.node_by_name("H").unwrap(), h);
        assert_eq!(answers(&restored), expected);
    }

    // Tiny stand-in used by the test above so we exercise the Serialize
    // derive without pulling in serde_json.
    fn serde_json_like(t: &NetworkTopology) -> String {
        format!("{:?}", t)
    }
}
