//! Derived lookup tables of a [`NetworkTopology`](crate::NetworkTopology):
//! per-node adjacency, dense interface slots, shared-medium domains, and
//! a spanning forest for path queries.
//!
//! Everything here is a pure function of the node and connection lists.
//! The topology builds it on first use and drops it on every mutation
//! (`add_node`, `add_interface`, `connect`), so queries between two
//! mutations cost O(degree) or O(1) instead of a scan of every
//! connection. All tables are flat (one `Vec` each, CSR-style offsets):
//! a monitor holds several topology clones, and a `Vec` per node would
//! cost a heap block per host. The forest is built on the first path
//! query, not with the rest, so a clone that never asks for a path never
//! pays for it.

use crate::graph::{Connection, Endpoint, Node};
use crate::ids::{ConnId, DomainId, IfIx, NodeId};
use crate::path::CommPath;
use std::sync::OnceLock;

/// One station of a shared-medium domain: a host interface cabled to a
/// hub port. The station's own counters are preferred; the hub port's
/// mirrored counters substitute when the station runs no agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Station {
    /// The station's interface.
    pub station: Endpoint,
    /// The hub port it is cabled to.
    pub hub_port: Endpoint,
}

#[derive(Debug, Clone)]
pub(crate) struct TopoIndex {
    /// Node `n`'s neighbours are `adj[adj_start[n]..adj_start[n + 1]]`,
    /// in connection-id order — the order `find_path` documents.
    adj_start: Vec<u32>,
    adj: Vec<(NodeId, ConnId)>,
    /// Interface `(n, i)` has slot `if_base[n] + i`.
    if_base: Vec<u32>,
    /// Domain of every hub, sorted by node id.
    hub_domains: Vec<(NodeId, DomainId)>,
    /// Domain `d`'s stations are
    /// `stations[domain_start[d]..domain_start[d + 1]]`.
    domain_start: Vec<u32>,
    stations: Vec<Station>,
    forest: OnceLock<Forest>,
}

impl TopoIndex {
    pub(crate) fn build(nodes: &[Node], connections: &[Connection]) -> TopoIndex {
        let n = nodes.len();
        let mut adj_start = vec![0u32; n + 1];
        for c in connections {
            adj_start[c.a.node.index() + 1] += 1;
            if c.b.node != c.a.node {
                adj_start[c.b.node.index() + 1] += 1;
            }
        }
        for i in 0..n {
            adj_start[i + 1] += adj_start[i];
        }
        let mut cursor = adj_start.clone();
        let mut adj = vec![(NodeId(0), ConnId(0)); adj_start[n] as usize];
        // Connections are visited in id order, so each node's entries
        // land in id order. A cable from a node to itself is one entry.
        for (i, c) in connections.iter().enumerate() {
            let id = ConnId(i as u32);
            let mut put = |at: NodeId, peer: NodeId| {
                let slot = &mut cursor[at.index()];
                adj[*slot as usize] = (peer, id);
                *slot += 1;
            };
            put(c.a.node, c.b.node);
            if c.b.node != c.a.node {
                put(c.b.node, c.a.node);
            }
        }

        let mut if_base = Vec::with_capacity(n + 1);
        let mut slots = 0u32;
        if_base.push(0);
        for node in nodes {
            slots += node.interfaces.len() as u32;
            if_base.push(slots);
        }

        // Shared-medium domains: hubs joined by hub-to-hub cables. Each
        // domain lists its stations with hubs in node-id order and each
        // hub's cables in connection-id order, skipping hub-to-hub cables
        // and uplinks to selective forwarders (their traffic is already
        // counted at the stations). The first station without a rate is
        // the one a `MissingRate` error names, so this order is part of
        // the contract.
        let neighbors = |node: NodeId| {
            &adj[adj_start[node.index()] as usize..adj_start[node.index() + 1] as usize]
        };
        let is_hub = |id: NodeId| nodes[id.index()].kind.is_shared_medium();
        let mut hub_domains = Vec::new();
        let mut domain_start = vec![0u32];
        let mut stations = Vec::new();
        let mut assigned = vec![false; n];
        for start in (0..n as u32).map(NodeId) {
            if !is_hub(start) || assigned[start.index()] {
                continue;
            }
            assigned[start.index()] = true;
            let mut members = vec![start];
            let mut stack = vec![start];
            while let Some(hub) = stack.pop() {
                for &(next, _) in neighbors(hub) {
                    if is_hub(next) && !assigned[next.index()] {
                        assigned[next.index()] = true;
                        members.push(next);
                        stack.push(next);
                    }
                }
            }
            members.sort();
            let domain = DomainId(domain_start.len() as u32 - 1);
            for &hub in &members {
                hub_domains.push((hub, domain));
                for &(far_node, conn) in neighbors(hub) {
                    let far_kind = nodes[far_node.index()].kind;
                    if far_kind.is_shared_medium() || far_kind.forwards_selectively() {
                        continue;
                    }
                    let c = &connections[conn.index()];
                    let (hub_port, station) = if c.a.node == hub {
                        (c.a, c.b)
                    } else {
                        (c.b, c.a)
                    };
                    stations.push(Station { station, hub_port });
                }
            }
            domain_start.push(stations.len() as u32);
        }
        hub_domains.sort_by_key(|&(hub, _)| hub);

        TopoIndex {
            adj_start,
            adj,
            if_base,
            hub_domains,
            domain_start,
            stations,
            forest: OnceLock::new(),
        }
    }

    pub(crate) fn forest(&self) -> &Forest {
        self.forest.get_or_init(|| Forest::build(self))
    }

    pub(crate) fn neighbors(&self, node: NodeId) -> &[(NodeId, ConnId)] {
        let n = node.index();
        match (self.adj_start.get(n), self.adj_start.get(n + 1)) {
            (Some(&lo), Some(&hi)) => &self.adj[lo as usize..hi as usize],
            _ => &[],
        }
    }

    pub(crate) fn interface_slot(&self, node: NodeId, ifix: IfIx) -> Option<usize> {
        let n = node.index();
        let base = *self.if_base.get(n)?;
        let end = *self.if_base.get(n + 1)?;
        let slot = base.checked_add(ifix.0)?;
        (slot < end).then_some(slot as usize)
    }

    pub(crate) fn interface_slot_count(&self) -> usize {
        self.if_base.last().copied().unwrap_or(0) as usize
    }

    pub(crate) fn domain_of(&self, hub: NodeId) -> Option<DomainId> {
        self.hub_domains
            .binary_search_by_key(&hub, |&(h, _)| h)
            .ok()
            .map(|i| self.hub_domains[i].1)
    }

    pub(crate) fn domain_count(&self) -> usize {
        self.domain_start.len() - 1
    }

    pub(crate) fn domain_stations(&self, domain: DomainId) -> &[Station] {
        let d = domain.index();
        match (self.domain_start.get(d), self.domain_start.get(d + 1)) {
            (Some(&lo), Some(&hi)) => &self.stations[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// A node's place in the spanning forest: its parent, the cable to the
/// parent, and its depth below the root. A root is its own parent.
#[derive(Debug, Clone, Copy)]
struct TreeLink {
    parent: NodeId,
    conn: ConnId,
    depth: u32,
}

/// A spanning forest: one breadth-first tree per connected component,
/// rooted at the component's lowest node id.
///
/// A component is a tree when it has one cable fewer than nodes, not
/// counting cables from a node to itself (a self-loop is never on a
/// simple path). There the simple path between two nodes is unique, so
/// it runs up both parent chains to where they meet, and it is the path
/// a depth-first search finds. A component with a loop is listed by its
/// root (two cables between the same pair are a loop), and its path
/// queries go to the depth-first search.
#[derive(Debug, Clone)]
pub(crate) struct Forest {
    links: Vec<TreeLink>,
    /// Roots of the components with a loop, sorted.
    cyclic: Vec<NodeId>,
}

/// What the forest answers for a pair of nodes.
pub(crate) enum Route {
    /// The nodes lie in different components: there is no path.
    Apart,
    /// They share a component with a loop: the forest does not say.
    Loop,
    /// The unique simple path between them.
    Tree(CommPath),
}

impl Forest {
    fn build(index: &TopoIndex) -> Forest {
        const UNSEEN: NodeId = NodeId(u32::MAX);
        let n = index.adj_start.len() - 1;
        let mut links = vec![
            TreeLink {
                parent: UNSEEN,
                conn: ConnId(u32::MAX),
                depth: 0,
            };
            n
        ];
        let mut cyclic = Vec::new();
        let mut queue = Vec::new();
        for root in (0..n as u32).map(NodeId) {
            if links[root.index()].parent != UNSEEN {
                continue;
            }
            links[root.index()].parent = root;
            queue.clear();
            queue.push(root);
            // Every cable between two nodes is seen once from each end.
            let mut ends = 0;
            let mut head = 0;
            while let Some(&at) = queue.get(head) {
                head += 1;
                let depth = links[at.index()].depth + 1;
                for &(next, conn) in index.neighbors(at) {
                    if next == at {
                        continue;
                    }
                    ends += 1;
                    if links[next.index()].parent == UNSEEN {
                        links[next.index()] = TreeLink {
                            parent: at,
                            conn,
                            depth,
                        };
                        queue.push(next);
                    }
                }
            }
            if ends != 2 * (queue.len() - 1) {
                cyclic.push(root);
            }
        }
        Forest { links, cyclic }
    }

    /// The route from `from` to `to`, both nodes of the topology: climb
    /// the deeper end, then both, until the chains meet.
    pub(crate) fn route(&self, from: NodeId, to: NodeId) -> Route {
        let link = |node: NodeId| self.links[node.index()];
        let (mut a, mut b) = (from, to);
        while link(a).depth > link(b).depth {
            a = link(a).parent;
        }
        while link(b).depth > link(a).depth {
            b = link(b).parent;
        }
        while a != b {
            if link(a).parent == a {
                return Route::Apart; // two roots
            }
            a = link(a).parent;
            b = link(b).parent;
        }
        let mut root = a;
        while link(root).parent != root {
            root = link(root).parent;
        }
        if self.cyclic.binary_search(&root).is_ok() {
            return Route::Loop;
        }
        let up = (link(from).depth - link(a).depth) as usize;
        let hops = up + (link(to).depth - link(a).depth) as usize;
        let mut nodes = vec![a; hops + 1];
        let mut connections = vec![ConnId(0); hops];
        let mut at = from;
        for (node, conn) in nodes[..up].iter_mut().zip(&mut connections[..up]) {
            (*node, *conn) = (at, link(at).conn);
            at = link(at).parent;
        }
        at = to;
        for (node, conn) in nodes[up + 1..].iter_mut().zip(&mut connections[up..]).rev() {
            (*node, *conn) = (at, link(at).conn);
            at = link(at).parent;
        }
        Route::Tree(CommPath {
            from,
            to,
            connections,
            nodes,
        })
    }
}
