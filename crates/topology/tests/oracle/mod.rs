//! Reference oracle: the linear-scan bandwidth evaluation the library
//! used before it kept an adjacency/domain index and compiled path plans.
//!
//! Every step here scans `connections()` and rebuilds the hub domain from
//! scratch, so it is slow and obviously right; the differential tests
//! (`crates/topology/tests/prop.rs`, the root `tests/path_plans.rs`)
//! require the library's answers — `Ok` values and exact errors — to
//! equal these.

#![allow(dead_code)] // each including test crate uses its own subset

use netqos_topology::bandwidth::{
    BandwidthRule, ConnectionBandwidth, IfRates, PathBandwidth, RateProvider,
};
use netqos_topology::path::CommPath;
use netqos_topology::{ConnId, Endpoint, NetworkTopology, NodeId, TopologyError};

/// All connections that touch `node`, by scanning every connection.
pub fn connections_of(topo: &NetworkTopology, node: NodeId) -> Vec<ConnId> {
    topo.connections()
        .filter(|(_, c)| c.touches(node))
        .map(|(id, _)| id)
        .collect()
}

/// The nodes adjacent to `node`, by scanning every connection.
pub fn neighbors(topo: &NetworkTopology, node: NodeId) -> Vec<(NodeId, ConnId)> {
    topo.connections()
        .filter_map(|(id, c)| c.other_end(node).map(|ep| (ep.node, id)))
        .collect()
}

fn endpoint_rates(
    rates: &dyn RateProvider,
    at: Endpoint,
    other: Endpoint,
) -> Option<(IfRates, Endpoint)> {
    if let Some(r) = rates.rates(at.node, at.ifix) {
        return Some((r, at));
    }
    rates
        .rates(other.node, other.ifix)
        .map(|r| (r.mirrored(), other))
}

/// The full shared-medium domain containing `hub`: the hub itself plus
/// any hubs cascaded to it, sorted.
pub fn hub_domain(topo: &NetworkTopology, hub: NodeId) -> Vec<NodeId> {
    let mut domain = vec![hub];
    let mut stack = vec![hub];
    while let Some(h) = stack.pop() {
        for (next, _) in neighbors(topo, h) {
            if let Ok(n) = topo.node(next) {
                if n.kind.is_shared_medium() && !domain.contains(&next) {
                    domain.push(next);
                    stack.push(next);
                }
            }
        }
    }
    domain.sort();
    domain
}

fn shared_medium_used(
    topo: &NetworkTopology,
    domain: &[NodeId],
    rates: &dyn RateProvider,
) -> Result<u64, TopologyError> {
    let mut sum = 0u64;
    for &hub in domain {
        for conn_id in connections_of(topo, hub) {
            let conn = topo.connection(conn_id)?;
            let hub_end = conn.endpoint_on(hub).expect("connection touches hub");
            let far = conn.other_end(hub).expect("connection touches hub");
            let far_kind = topo.node(far.node)?.kind;
            if far_kind.is_shared_medium() {
                continue; // hub-to-hub cable inside the domain
            }
            if far_kind.forwards_selectively() {
                continue; // uplink: its traffic is already counted at stations
            }
            match endpoint_rates(rates, far, hub_end) {
                Some((r, _)) => sum = sum.saturating_add(r.total_bps()),
                None => {
                    return Err(TopologyError::MissingRate {
                        node: topo.node(far.node)?.name.clone(),
                        ifix: far.ifix,
                    })
                }
            }
        }
    }
    Ok(sum)
}

/// Bandwidth of one connection by the paper's two rules.
pub fn connection_bandwidth(
    topo: &NetworkTopology,
    conn_id: ConnId,
    rates: &dyn RateProvider,
) -> Result<ConnectionBandwidth, TopologyError> {
    let conn = *topo.connection(conn_id)?;
    let capacity = topo.connection_speed(conn_id)?;
    if capacity == 0 {
        let node = topo.node(conn.a.node)?;
        return Err(TopologyError::ZeroSpeed {
            node: node.name.clone(),
            interface: topo.interface(conn.a.node, conn.a.ifix)?.local_name.clone(),
        });
    }

    let a_kind = topo.node(conn.a.node)?.kind;
    let b_kind = topo.node(conn.b.node)?.kind;

    let (used, rule) = if a_kind.is_shared_medium() || b_kind.is_shared_medium() {
        let hub = if a_kind.is_shared_medium() {
            conn.a.node
        } else {
            conn.b.node
        };
        let domain = hub_domain(topo, hub);
        let sum = shared_medium_used(topo, &domain, rates)?;
        (sum, BandwidthRule::SharedMedium)
    } else {
        let (first, second) = if b_kind.is_network_device() && !a_kind.is_network_device() {
            (conn.a, conn.b)
        } else {
            (conn.b, conn.a)
        };
        match endpoint_rates(rates, first, second) {
            Some((r, _)) => (r.total_bps(), BandwidthRule::PointToPoint),
            None => {
                return Err(TopologyError::MissingRate {
                    node: topo.node(first.node)?.name.clone(),
                    ifix: first.ifix,
                })
            }
        }
    };

    let used = used.min(capacity);
    Ok(ConnectionBandwidth {
        conn: conn_id,
        capacity_bps: capacity,
        used_bps: used,
        available_bps: capacity - used,
        rule,
    })
}

/// Bandwidth of a whole path: `A = min(a_1 … a_n)`.
pub fn path_bandwidth(
    topo: &NetworkTopology,
    path: &CommPath,
    rates: &dyn RateProvider,
) -> Result<PathBandwidth, TopologyError> {
    let mut conns = Vec::with_capacity(path.connections.len());
    for &c in &path.connections {
        conns.push(connection_bandwidth(topo, c, rates)?);
    }
    let bottleneck = conns
        .iter()
        .min_by_key(|c| c.available_bps)
        .map(|c| (c.conn, c.available_bps, c.used_bps));
    match bottleneck {
        Some((conn, avail, used)) => Ok(PathBandwidth {
            available_bps: avail,
            used_bps: used,
            bottleneck: conn,
            connections: conns,
        }),
        None => Ok(PathBandwidth {
            available_bps: u64::MAX,
            used_bps: 0,
            bottleneck: ConnId(u32::MAX),
            connections: conns,
        }),
    }
}
