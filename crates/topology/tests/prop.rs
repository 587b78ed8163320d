//! Property-based tests for the topology crate: traversal termination on
//! arbitrary (possibly cyclic) topologies, paths from the spanning forest
//! equal to the depth-first search's, algebraic laws of the bandwidth
//! computation, and equivalence of the indexed, plan-compiled evaluation
//! with the linear-scan reference oracle.

mod oracle;

use netqos_topology::bandwidth::{self, IfRates, MapRates, PathBandwidth};
use netqos_topology::plan::{DomainSums, PathPlan};
use netqos_topology::{path, IfIx, NetworkTopology, NodeId, NodeKind, TopologyError};
use proptest::prelude::*;

/// Strategy: a random topology with `n` nodes of random kinds and a random
/// set of connections among free interfaces. May contain cycles,
/// partitions, and self-loops through distinct interfaces.
fn arb_topology(max_nodes: usize, max_conns: usize) -> impl Strategy<Value = NetworkTopology> {
    let kinds = vec![
        NodeKind::Host,
        NodeKind::Switch,
        NodeKind::Hub,
        NodeKind::Router,
    ];
    arb_topology_of(max_nodes, max_conns, kinds, vec![10_000_000])
}

/// [`arb_topology`] with each node's kind drawn from `kinds` and each
/// interface's speed from `speeds` (repeat an entry to weight it).
fn arb_topology_of(
    max_nodes: usize,
    max_conns: usize,
    kinds: Vec<NodeKind>,
    speeds: Vec<u64>,
) -> impl Strategy<Value = NetworkTopology> {
    let kinds = prop::sample::select(kinds);
    let ifaces = prop::collection::vec(prop::sample::select(speeds), 1..5);
    (
        prop::collection::vec((kinds, ifaces), 2..max_nodes),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..max_conns),
    )
        .prop_map(|(nodes, conn_seeds)| {
            let mut t = NetworkTopology::new();
            let mut ifaces: Vec<(NodeId, IfIx)> = Vec::new();
            for (i, (kind, speeds)) in nodes.into_iter().enumerate() {
                let id = t.add_node(&format!("n{i}"), kind).unwrap();
                for (j, speed) in speeds.into_iter().enumerate() {
                    let ifix = t.add_interface(id, &format!("if{j}"), speed).unwrap();
                    ifaces.push((id, ifix));
                }
            }
            for (sa, sb) in conn_seeds {
                if ifaces.len() < 2 {
                    break;
                }
                let a = ifaces[sa as usize % ifaces.len()];
                let b = ifaces[sb as usize % ifaces.len()];
                // Ignore failures (already connected / self connection):
                // the builder enforces the 1-to-1 rule.
                let _ = t.connect(a, b);
            }
            t
        })
}

/// Strategy: a LAN that is mostly a forest, so that most path queries are
/// answered by the spanning forest. Each node after the first is cabled
/// to a random earlier node, or (one time in ten) starts a component of
/// its own. Then now and then an extra cable joins two random nodes, a
/// node to itself, or a node to its parent a second time. Every cable
/// gets a fresh interface at each end.
fn arb_tree_topology(max_nodes: usize) -> impl Strategy<Value = NetworkTopology> {
    let kinds = prop::sample::select(vec![
        NodeKind::Host,
        NodeKind::Switch,
        NodeKind::Hub,
        NodeKind::Router,
    ]);
    (
        prop::collection::vec((kinds, any::<u32>()), 1..max_nodes),
        prop::collection::vec((0u8..10, any::<u32>(), any::<u32>()), 0..3),
    )
        .prop_map(|(nodes, extras)| {
            let mut t = NetworkTopology::new();
            let cable = |t: &mut NetworkTopology, a: NodeId, b: NodeId| {
                let mut port = |n: NodeId| {
                    let name = format!("if{}", t.node(n).unwrap().interfaces.len());
                    (n, t.add_interface(n, &name, 10_000_000).unwrap())
                };
                let (a, b) = (port(a), port(b));
                t.connect(a, b).unwrap();
            };
            let mut parent = Vec::new();
            for (i, (kind, seed)) in nodes.into_iter().enumerate() {
                let id = t.add_node(&format!("n{i}"), kind).unwrap();
                let up = (i > 0 && seed % 10 != 0).then(|| NodeId((seed / 10) % i as u32));
                if let Some(up) = up {
                    cable(&mut t, id, up);
                }
                parent.push(up);
            }
            let n = t.node_count() as u32;
            for (what, a, b) in extras {
                let (a, b) = (NodeId(a % n), NodeId(b % n));
                match (what, parent[a.index()]) {
                    (0, _) => cable(&mut t, a, b),
                    (1, _) => cable(&mut t, a, a),
                    (2, Some(up)) => cable(&mut t, a, up),
                    _ => {}
                }
            }
            t
        })
}

/// `find_path` returns what the depth-first search returns first, and
/// `find_unique_path` what the search's first two paths decide, for every
/// ordered pair of nodes: the same path or the same error.
fn paths_match_the_depth_first_search(t: &NetworkTopology) {
    let n = t.node_count() as u32;
    for a in (0..n).map(NodeId) {
        for b in (0..n).map(NodeId) {
            assert_eq!(
                path::find_path(t, a, b).ok(),
                path::enumerate_paths(t, a, b, 1).unwrap().pop(),
                "find_path {a:?} -> {b:?}"
            );
            let mut two = path::enumerate_paths(t, a, b, 2).unwrap();
            let expected = match two.len() {
                0 => Err(TopologyError::NoPath {
                    from: t.node(a).unwrap().name.clone(),
                    to: t.node(b).unwrap().name.clone(),
                }),
                1 => Ok(two.pop().unwrap()),
                _ => Err(TopologyError::AmbiguousPath {
                    from: t.node(a).unwrap().name.clone(),
                    to: t.node(b).unwrap().name.clone(),
                }),
            };
            assert_eq!(
                path::find_unique_path(t, a, b),
                expected,
                "find_unique_path {a:?} -> {b:?}"
            );
        }
    }
}

proptest! {
    /// On LANs with cycles, self-loops, partitions and parallel cables.
    #[test]
    fn paths_match_the_search_on_arbitrary_lans(t in arb_topology(12, 30)) {
        paths_match_the_depth_first_search(&t);
    }

    /// On LANs that are mostly forests, where the forest answers.
    #[test]
    fn paths_match_the_search_on_mostly_tree_lans(t in arb_tree_topology(16)) {
        paths_match_the_depth_first_search(&t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Both properties over enough LANs to be CI's release-mode gate
    /// (`cargo test --release -p netqos-topology --test prop -- --ignored`).
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn paths_match_the_search_on_arbitrary_lans_at_length(t in arb_topology(12, 30)) {
        paths_match_the_depth_first_search(&t);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn paths_match_the_search_on_mostly_tree_lans_at_length(t in arb_tree_topology(16)) {
        paths_match_the_depth_first_search(&t);
    }
}

proptest! {
    /// Path traversal always terminates and, when it finds a path, the
    /// path is simple (no repeated nodes) and well-formed.
    #[test]
    fn traversal_terminates_and_paths_are_simple(t in arb_topology(12, 30)) {
        let n = t.node_count() as u32;
        for from in 0..n {
            for to in 0..n {
                if let Ok(p) = path::find_path(&t, NodeId(from), NodeId(to)) {
                    prop_assert_eq!(p.nodes.len(), p.connections.len() + 1);
                    prop_assert_eq!(p.nodes[0], NodeId(from));
                    prop_assert_eq!(*p.nodes.last().unwrap(), NodeId(to));
                    // Simple path: no node repeats.
                    let mut seen = std::collections::HashSet::new();
                    for node in &p.nodes {
                        prop_assert!(seen.insert(*node), "node repeated in path");
                    }
                }
            }
        }
    }

    /// Enumerating all simple paths never yields duplicates and respects
    /// the limit parameter.
    #[test]
    fn enumerate_respects_limit(t in arb_topology(8, 16), limit in 1usize..4) {
        let n = t.node_count() as u32;
        for from in 0..n.min(4) {
            for to in 0..n.min(4) {
                if from == to { continue; }
                let some = path::enumerate_paths(&t, NodeId(from), NodeId(to), limit).unwrap();
                prop_assert!(some.len() <= limit);
                let all = path::enumerate_paths(&t, NodeId(from), NodeId(to), 0).unwrap();
                let mut dedup = all.clone();
                dedup.dedup_by(|a, b| a.connections == b.connections);
                prop_assert_eq!(dedup.len(), all.len(), "duplicate paths enumerated");
                prop_assert!(some.len() <= all.len());
            }
        }
    }

    /// Bandwidth invariants on every connection of a random topology with
    /// random rates: used + available == capacity, used <= capacity.
    #[test]
    fn bandwidth_partition_invariant(
        t in arb_topology(10, 20),
        seeds in prop::collection::vec(0u64..30_000_000, 64),
    ) {
        let mut rates = MapRates::new();
        let mut k = 0usize;
        for (id, node) in t.nodes() {
            for (i, _) in node.interfaces.iter().enumerate() {
                let r = IfRates {
                    in_bps: seeds[k % seeds.len()],
                    out_bps: seeds[(k + 1) % seeds.len()],
                };
                k += 2;
                rates.set(id, IfIx(i as u32), r);
            }
        }
        for (conn, _) in t.connections() {
            let bw = bandwidth::connection_bandwidth(&t, conn, &rates).unwrap();
            prop_assert!(bw.used_bps <= bw.capacity_bps);
            prop_assert_eq!(bw.used_bps + bw.available_bps, bw.capacity_bps);
            let u = bw.utilization();
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }

    /// Path available bandwidth equals the min over its connections and
    /// never exceeds any connection's capacity.
    #[test]
    fn path_available_is_min(t in arb_topology(10, 20), fill in 0u64..9_000_000) {
        let mut rates = MapRates::new();
        for (id, node) in t.nodes() {
            for (i, _) in node.interfaces.iter().enumerate() {
                rates.set(id, IfIx(i as u32), IfRates { in_bps: fill, out_bps: 0 });
            }
        }
        let n = t.node_count() as u32;
        for from in 0..n.min(5) {
            for to in 0..n.min(5) {
                if from == to { continue; }
                let Ok(p) = path::find_path(&t, NodeId(from), NodeId(to)) else { continue };
                let Ok(bw) = bandwidth::path_bandwidth(&t, &p, &rates) else { continue };
                let min = bw.connections.iter().map(|c| c.available_bps).min();
                prop_assert_eq!(Some(bw.available_bps), min);
                for c in &bw.connections {
                    prop_assert!(bw.available_bps <= c.capacity_bps);
                }
            }
        }
    }

    /// The adjacency index answers exactly what a scan of every
    /// connection answers, in the same (connection-id) order.
    #[test]
    fn neighbors_match_a_scan_of_all_connections(t in arb_topology(12, 30)) {
        for (id, _) in t.nodes() {
            prop_assert_eq!(t.neighbors(id).to_vec(), oracle::neighbors(&t, id));
            prop_assert_eq!(
                t.connections_of(id).collect::<Vec<_>>(),
                oracle::connections_of(&t, id)
            );
        }
        prop_assert!(t.neighbors(NodeId(t.node_count() as u32)).is_empty());
    }

    /// Plan evaluation equals the reference oracle on every path and
    /// every connection — `Ok` values and the exact error (the same
    /// `MissingRate` interface, `ZeroSpeed`) — with partial rate tables,
    /// zero-speed interfaces, cascaded hubs, cycles and self-loops. One
    /// `DomainSums` serves all paths of a topology, as in the monitor.
    #[test]
    fn plan_evaluation_matches_reference_oracle(
        t in arb_topology_of(
            10,
            24,
            // Hub-heavy, so cascaded domains with several stations are common.
            vec![NodeKind::Host, NodeKind::Host, NodeKind::Hub, NodeKind::Hub, NodeKind::Switch, NodeKind::Router],
            vec![10_000_000, 10_000_000, 100_000_000, 0],
        ),
        seeds in prop::collection::vec((0u64..30_000_000, 0u8..10), 64),
        // Between none and half of the interfaces have no rate.
        missing in 0u8..6,
    ) {
        let mut rates = MapRates::new();
        let mut k = 0usize;
        for (id, node) in t.nodes() {
            for (i, _) in node.interfaces.iter().enumerate() {
                let (bps, present) = seeds[k % seeds.len()];
                let (out_bps, _) = seeds[(k + 7) % seeds.len()];
                k += 1;
                if present >= missing {
                    rates.set(id, IfIx(i as u32), IfRates { in_bps: bps, out_bps });
                }
            }
        }
        for (conn, _) in t.connections() {
            prop_assert_eq!(
                bandwidth::connection_bandwidth(&t, conn, &rates),
                oracle::connection_bandwidth(&t, conn, &rates)
            );
        }
        let mut sums = DomainSums::new(&t);
        let mut out = PathBandwidth::default();
        let n = t.node_count() as u32;
        for from in 0..n {
            for to in 0..n {
                let Ok(p) = path::find_path(&t, NodeId(from), NodeId(to)) else { continue };
                let expected = oracle::path_bandwidth(&t, &p, &rates);
                prop_assert_eq!(bandwidth::path_bandwidth(&t, &p, &rates), expected.clone());
                let plan = PathPlan::compile(&t, &p).unwrap();
                let shared = plan
                    .evaluate(&t, &rates, &mut sums, &mut out)
                    .map(|()| out.clone())
                    .map_err(|e| e.into_topology_error(&t));
                prop_assert_eq!(shared, expected);
            }
        }
    }
}
