//! Communication-path traversal.
//!
//! Implements the paper's §3.3 traversal: "A simple recursive algorithm is
//! designed to traverse the path, with a necessary infinite-loop detecting
//! function implemented. The result of the path is described as a series of
//! network connections."
//!
//! In a correctly-specified LAN (a tree) the path between two hosts is
//! unique. The topology keeps a spanning forest (one parent, connection
//! and depth per node), and on a component that is a tree [`find_path`]
//! and [`find_unique_path`] climb both parent chains to where they meet:
//! O(path length), whatever the size of the LAN. On a component with a
//! loop both fall back to [`enumerate_paths`], a depth-first search over
//! connections in connection-id order with a visited set on nodes (the
//! paper's loop detection): [`find_path`] returns the first path found,
//! and [`find_unique_path`] reports [`TopologyError::AmbiguousPath`] when
//! a second one exists. On a tree the depth-first search would find the
//! same path, so the forest changes no answer, only its cost.

use crate::error::TopologyError;
use crate::graph::NetworkTopology;
use crate::ids::{ConnId, NodeId};
use crate::index::Route;
use serde::{Deserialize, Serialize};

/// A communication path between two nodes: the ordered list of connections
/// crossed, plus the node sequence for convenience.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommPath {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Connections crossed, in order from `from` to `to`.
    pub connections: Vec<ConnId>,
    /// Nodes visited, in order; `nodes.len() == connections.len() + 1`,
    /// `nodes[0] == from`, `nodes.last() == to`.
    pub nodes: Vec<NodeId>,
}

impl CommPath {
    /// Number of connections (hops) in the path.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// True for a degenerate zero-hop path (from == to).
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Renders the path as `A -(A.eth0 <-> SW.p1)-> SW -...-> B`.
    pub fn describe(&self, topo: &NetworkTopology) -> String {
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let name = topo
                .node(*node)
                .map(|n| n.name.clone())
                .unwrap_or_else(|_| node.to_string());
            out.push_str(&name);
            if let Some(conn) = self.connections.get(i) {
                out.push_str(&format!(" -({})-> ", topo.describe_connection(*conn)));
            }
        }
        out
    }
}

/// Finds a communication path from `from` to `to`: the unique one on a
/// component that is a tree, else the first one a depth-first search
/// finds in deterministic (connection-id) order.
///
/// Errors with [`TopologyError::NoPath`] when the nodes are disconnected.
pub fn find_path(
    topo: &NetworkTopology,
    from: NodeId,
    to: NodeId,
) -> Result<CommPath, TopologyError> {
    match route(topo, from, to)? {
        Route::Tree(p) => Ok(p),
        Route::Apart => no_path(topo, from, to),
        Route::Loop => match enumerate_paths(topo, from, to, 1)?.pop() {
            Some(p) => Ok(p),
            None => no_path(topo, from, to),
        },
    }
}

/// Like [`find_path`] but verifies the path is unique; a second distinct
/// path yields [`TopologyError::AmbiguousPath`]. Use this when loading a
/// topology that is supposed to be a tree (no redundant links), so that a
/// mis-specified loop is caught at startup rather than silently picking an
/// arbitrary route.
pub fn find_unique_path(
    topo: &NetworkTopology,
    from: NodeId,
    to: NodeId,
) -> Result<CommPath, TopologyError> {
    match route(topo, from, to)? {
        Route::Tree(p) => Ok(p),
        Route::Apart => no_path(topo, from, to),
        Route::Loop => {
            let mut paths = enumerate_paths(topo, from, to, 2)?;
            match paths.len() {
                0 => no_path(topo, from, to),
                1 => Ok(paths.pop().expect("len checked")),
                _ => Err(TopologyError::AmbiguousPath {
                    from: topo.node(from)?.name.clone(),
                    to: topo.node(to)?.name.clone(),
                }),
            }
        }
    }
}

/// The spanning forest's answer, once both ends are known nodes.
fn route(topo: &NetworkTopology, from: NodeId, to: NodeId) -> Result<Route, TopologyError> {
    topo.node(from)?;
    topo.node(to)?;
    Ok(topo.forest().route(from, to))
}

fn no_path<T>(topo: &NetworkTopology, from: NodeId, to: NodeId) -> Result<T, TopologyError> {
    Err(TopologyError::NoPath {
        from: topo.node(from)?.name.clone(),
        to: topo.node(to)?.name.clone(),
    })
}

/// Enumerates up to `limit` simple paths from `from` to `to` (DFS with a
/// visited set on nodes — the loop-detection function of the paper).
/// With `limit` 1 and 2 it is the reference the tests hold
/// [`find_path`] and [`find_unique_path`] to.
///
/// `limit == 0` enumerates all simple paths.
pub fn enumerate_paths(
    topo: &NetworkTopology,
    from: NodeId,
    to: NodeId,
    limit: usize,
) -> Result<Vec<CommPath>, TopologyError> {
    // Validate endpoints exist up front so errors carry names.
    topo.node(from)?;
    topo.node(to)?;

    let mut out = Vec::new();
    if from == to {
        out.push(CommPath {
            from,
            to,
            connections: Vec::new(),
            nodes: vec![from],
        });
        return Ok(out);
    }

    let mut visited = vec![false; topo.node_count()];
    let mut conn_stack: Vec<ConnId> = Vec::new();
    let mut node_stack: Vec<NodeId> = vec![from];
    visited[from.index()] = true;
    dfs(
        topo,
        from,
        to,
        limit,
        &mut visited,
        &mut conn_stack,
        &mut node_stack,
        &mut out,
    );
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    topo: &NetworkTopology,
    at: NodeId,
    to: NodeId,
    limit: usize,
    visited: &mut [bool],
    conn_stack: &mut Vec<ConnId>,
    node_stack: &mut Vec<NodeId>,
    out: &mut Vec<CommPath>,
) {
    if limit != 0 && out.len() >= limit {
        return;
    }
    for &(next, conn) in topo.neighbors(at) {
        if limit != 0 && out.len() >= limit {
            return;
        }
        if visited[next.index()] {
            continue; // infinite-loop detection: never revisit a node
        }
        conn_stack.push(conn);
        node_stack.push(next);
        if next == to {
            out.push(CommPath {
                from: node_stack[0],
                to,
                connections: conn_stack.clone(),
                nodes: node_stack.clone(),
            });
        } else {
            visited[next.index()] = true;
            dfs(topo, next, to, limit, visited, conn_stack, node_stack, out);
            visited[next.index()] = false;
        }
        conn_stack.pop();
        node_stack.pop();
    }
}

/// Computes paths between every unordered pair of **hosts** in the
/// topology. Pairs with no path are skipped; use the returned list's length
/// against the expected `n*(n-1)/2` to detect partitions.
pub fn all_host_pairs(topo: &NetworkTopology) -> Vec<CommPath> {
    let hosts: Vec<NodeId> = topo
        .nodes()
        .filter(|(_, n)| n.kind.is_host())
        .map(|(id, _)| id)
        .collect();
    let mut out = Vec::new();
    for (i, &a) in hosts.iter().enumerate() {
        for &b in &hosts[i + 1..] {
            if let Ok(p) = find_path(topo, a, b) {
                out.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::NodeKind;

    /// Builds the paper's Figure 3 testbed: switch with L, S1..S6 and an
    /// uplink to a hub carrying N1, N2.
    fn lirtss() -> NetworkTopology {
        let mut t = NetworkTopology::new();
        let sw = t.add_node("switch", NodeKind::Switch).unwrap();
        let hub = t.add_node("hub", NodeKind::Hub).unwrap();
        for i in 1..=9 {
            t.add_interface(sw, &format!("p{i}"), 100_000_000).unwrap();
        }
        for i in 1..=3 {
            t.add_interface(hub, &format!("h{i}"), 10_000_000).unwrap();
        }
        for (port, name) in ["L", "S1", "S2", "S3", "S4", "S5", "S6"]
            .into_iter()
            .enumerate()
        {
            let h = t.add_node(name, NodeKind::Host).unwrap();
            let h0 = t.add_interface(h, "eth0", 100_000_000).unwrap();
            t.connect((h, h0), (sw, crate::ids::IfIx(port as u32)))
                .unwrap();
        }
        // switch p8 <-> hub h1
        t.connect((sw, crate::ids::IfIx(7)), (hub, crate::ids::IfIx(0)))
            .unwrap();
        for (i, name) in ["N1", "N2"].iter().enumerate() {
            let h = t.add_node(name, NodeKind::Host).unwrap();
            let h0 = t.add_interface(h, "eth0", 10_000_000).unwrap();
            t.connect((h, h0), (hub, crate::ids::IfIx(1 + i as u32)))
                .unwrap();
        }
        t
    }

    #[test]
    fn path_s1_to_n1_crosses_switch_and_hub() {
        let t = lirtss();
        let s1 = t.node_by_name("S1").unwrap();
        let n1 = t.node_by_name("N1").unwrap();
        let p = find_path(&t, s1, n1).unwrap();
        // S1 -> switch -> hub -> N1 : 3 connections, 4 nodes.
        assert_eq!(p.len(), 3);
        assert_eq!(p.nodes.len(), 4);
        let names: Vec<_> = p
            .nodes
            .iter()
            .map(|n| t.node(*n).unwrap().name.clone())
            .collect();
        assert_eq!(names, ["S1", "switch", "hub", "N1"]);
    }

    #[test]
    fn path_is_unique_in_tree() {
        let t = lirtss();
        let s1 = t.node_by_name("S1").unwrap();
        let s2 = t.node_by_name("S2").unwrap();
        let p = find_unique_path(&t, s1, s2).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn zero_hop_path_for_same_node() {
        let t = lirtss();
        let l = t.node_by_name("L").unwrap();
        let p = find_path(&t, l, l).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.nodes, vec![l]);
    }

    #[test]
    fn disconnected_nodes_report_no_path() {
        let mut t = lirtss();
        let x = t.add_node("X", NodeKind::Host).unwrap();
        t.add_interface(x, "eth0", 1).unwrap();
        let l = t.node_by_name("L").unwrap();
        assert!(matches!(
            find_path(&t, l, x),
            Err(TopologyError::NoPath { .. })
        ));
    }

    #[test]
    fn traversal_terminates_on_cyclic_topology() {
        // Triangle of switches with two hosts: traversal must not loop.
        let mut t = NetworkTopology::new();
        let s: Vec<_> = (0..3)
            .map(|i| t.add_node(&format!("sw{i}"), NodeKind::Switch).unwrap())
            .collect();
        for &sw in &s {
            for p in 0..3 {
                t.add_interface(sw, &format!("p{p}"), 100).unwrap();
            }
        }
        use crate::ids::IfIx;
        t.connect((s[0], IfIx(0)), (s[1], IfIx(0))).unwrap();
        t.connect((s[1], IfIx(1)), (s[2], IfIx(0))).unwrap();
        t.connect((s[2], IfIx(1)), (s[0], IfIx(1))).unwrap();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        let a0 = t.add_interface(a, "eth0", 100).unwrap();
        t.connect((a, a0), (s[0], IfIx(2))).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        let b0 = t.add_interface(b, "eth0", 100).unwrap();
        t.connect((b, b0), (s[1], IfIx(2))).unwrap();

        // Two distinct simple paths exist (clockwise / counter-clockwise).
        let all = enumerate_paths(&t, a, b, 0).unwrap();
        assert_eq!(all.len(), 2);
        assert!(matches!(
            find_unique_path(&t, a, b),
            Err(TopologyError::AmbiguousPath { .. })
        ));
        // find_path still succeeds deterministically.
        let p = find_path(&t, a, b).unwrap();
        assert!(p.len() == 2 || p.len() == 3);
    }

    #[test]
    fn self_loop_connection_does_not_hang_traversal() {
        let mut t = NetworkTopology::new();
        let sw = t.add_node("sw", NodeKind::Switch).unwrap();
        use crate::ids::IfIx;
        for p in 0..4 {
            t.add_interface(sw, &format!("p{p}"), 100).unwrap();
        }
        // Pathological: a cable from the switch to itself.
        t.connect((sw, IfIx(0)), (sw, IfIx(1))).unwrap();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        let a0 = t.add_interface(a, "eth0", 100).unwrap();
        t.connect((a, a0), (sw, IfIx(2))).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        let b0 = t.add_interface(b, "eth0", 100).unwrap();
        t.connect((b, b0), (sw, IfIx(3))).unwrap();
        let p = find_path(&t, a, b).unwrap();
        assert_eq!(p.len(), 2);
    }

    fn on_forest(t: &NetworkTopology, a: NodeId, b: NodeId) -> bool {
        matches!(t.forest().route(a, b), Route::Tree(_))
    }

    fn names(t: &NetworkTopology, p: &CommPath) -> Vec<String> {
        p.nodes
            .iter()
            .map(|n| t.node(*n).unwrap().name.clone())
            .collect()
    }

    #[test]
    fn a_connect_that_closes_a_loop_hands_the_component_to_the_search() {
        use crate::ids::IfIx;
        let mut t = lirtss();
        let (sw, hub) = (
            t.node_by_name("switch").unwrap(),
            t.node_by_name("hub").unwrap(),
        );
        let s1 = t.node_by_name("S1").unwrap();
        let n1 = t.node_by_name("N1").unwrap();
        let tree = find_path(&t, s1, n1).unwrap();
        assert!(on_forest(&t, s1, n1));

        // A second cable between the switch (p9) and the hub.
        let h4 = t.add_interface(hub, "h4", 10_000_000).unwrap();
        t.connect((sw, IfIx(8)), (hub, h4)).unwrap();
        assert!(matches!(t.forest().route(s1, n1), Route::Loop));
        let p = find_path(&t, s1, n1).unwrap();
        assert_eq!(Some(&p), enumerate_paths(&t, s1, n1, 1).unwrap().first());
        // The search goes in connection-id order: the older cable.
        assert_eq!(p, tree);
        assert!(matches!(
            find_unique_path(&t, s1, n1),
            Err(TopologyError::AmbiguousPath { .. })
        ));
    }

    #[test]
    fn a_connect_that_joins_two_components_lets_a_path_cross_them() {
        use crate::ids::IfIx;
        let mut t = lirtss();
        let sw = t.node_by_name("switch").unwrap();
        let l = t.node_by_name("L").unwrap();
        let sw2 = t.add_node("switch2", NodeKind::Switch).unwrap();
        for q in 0..3 {
            t.add_interface(sw2, &format!("q{q}"), 100_000_000).unwrap();
        }
        let x = t.add_node("X", NodeKind::Host).unwrap();
        let x0 = t.add_interface(x, "eth0", 100_000_000).unwrap();
        t.connect((x, x0), (sw2, IfIx(0))).unwrap();
        assert!(matches!(t.forest().route(l, x), Route::Apart));
        assert!(matches!(
            find_path(&t, l, x),
            Err(TopologyError::NoPath { .. })
        ));

        t.connect((sw, IfIx(8)), (sw2, IfIx(2))).unwrap();
        let p = find_unique_path(&t, l, x).unwrap();
        assert!(on_forest(&t, l, x));
        assert_eq!(names(&t, &p), ["L", "switch", "switch2", "X"]);
        assert_eq!(Some(&p), enumerate_paths(&t, l, x, 1).unwrap().first());
    }

    #[test]
    fn a_self_loop_leaves_a_tree_on_the_forest_and_a_second_cable_does_not() {
        use crate::ids::IfIx;
        let mut t = lirtss();
        let (sw, hub) = (
            t.node_by_name("switch").unwrap(),
            t.node_by_name("hub").unwrap(),
        );
        let s1 = t.node_by_name("S1").unwrap();
        let n2 = t.node_by_name("N2").unwrap();
        let a = t.add_interface(sw, "p10", 100_000_000).unwrap();
        let b = t.add_interface(sw, "p11", 100_000_000).unwrap();
        t.connect((sw, a), (sw, b)).unwrap();
        assert!(on_forest(&t, s1, n2));
        let p = find_unique_path(&t, s1, n2).unwrap();
        assert_eq!(names(&t, &p), ["S1", "switch", "hub", "N2"]);

        let h4 = t.add_interface(hub, "h4", 10_000_000).unwrap();
        t.connect((hub, h4), (sw, IfIx(8))).unwrap();
        assert!(!on_forest(&t, s1, n2));
        assert_eq!(find_path(&t, s1, n2).unwrap(), p);
    }

    #[test]
    fn all_host_pairs_counts() {
        let t = lirtss();
        let hosts = 9; // L, S1..S6, N1, N2
        let pairs = all_host_pairs(&t);
        assert_eq!(pairs.len(), hosts * (hosts - 1) / 2);
    }

    #[test]
    fn describe_path_mentions_all_nodes() {
        let t = lirtss();
        let s1 = t.node_by_name("S1").unwrap();
        let n1 = t.node_by_name("N1").unwrap();
        let p = find_path(&t, s1, n1).unwrap();
        let d = p.describe(&t);
        for name in ["S1", "switch", "hub", "N1"] {
            assert!(d.contains(name), "{d} should contain {name}");
        }
    }
}
