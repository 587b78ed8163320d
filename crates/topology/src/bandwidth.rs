//! Bandwidth calculation — the heart of the paper's §3.3.
//!
//! For a communication path of `n` connections with per-connection
//! available bandwidth `a_i`, the path's available bandwidth is
//!
//! ```text
//! A = min(a_1, a_2, …, a_n),          a_i = m_i − u_i
//! ```
//!
//! where `m_i` is the static capacity of connection *i* (MIB-II `ifSpeed`)
//! and `u_i` its used bandwidth. The used bandwidth is computed with two
//! different rules:
//!
//! * **Point-to-point rule** (switch or direct connections): "the amount of
//!   bandwidth used on a host connected to a switch is simply the amount of
//!   data transmitted as reported by SNMP polling from either the host or
//!   the switch": `u_i = t_i`, the traffic observed on either endpoint of
//!   the connection.
//! * **Shared-medium rule** (hub connections): "the amount of bandwidth
//!   used for a host connected to a hub is the sum of all the data sent to
//!   the hub": `u_i = t_1 + t_2 + … + t_n`, summed over every station
//!   attached to the hub's collision domain, and clamped so that "u_i
//!   cannot exceed the maximum speed of the hub".
//!
//! Traffic `t` for an interface is the sum of its receive and transmit
//! rates (`ifInOctets` + `ifOutOctets` deltas, in bits/s). This is the
//! paper's scalar model; per-direction rates remain accessible through
//! [`IfRates`] for full-duplex-aware consumers.
//!
//! A note on the shared-medium sum: like the paper's formula, traffic
//! exchanged between two stations on the *same* hub is counted at both
//! stations (once as transmit, once as receive). The paper's experiments —
//! and typical RM deployments — route hub traffic through the uplink, where
//! the sum is exact. Uplinks to selective forwarders (switches/routers) are
//! excluded from the sum precisely to avoid double-counting traffic that is
//! already observed at a station.

use crate::error::TopologyError;
use crate::graph::NetworkTopology;
use crate::ids::{ConnId, IfIx, NodeId};
use crate::path::CommPath;
use crate::plan::{DomainSums, PathPlan};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Observed traffic rates of one interface, in bits per second.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IfRates {
    /// Receive rate (from `ifInOctets` deltas).
    pub in_bps: u64,
    /// Transmit rate (from `ifOutOctets` deltas).
    pub out_bps: u64,
}

impl IfRates {
    /// Total traffic `t` of the interface: receive + transmit.
    #[inline]
    pub fn total_bps(&self) -> u64 {
        self.in_bps + self.out_bps
    }

    /// The same traffic as seen from the far end of the connection:
    /// transmit and receive swap roles.
    #[inline]
    pub fn mirrored(&self) -> IfRates {
        IfRates {
            in_bps: self.out_bps,
            out_bps: self.in_bps,
        }
    }
}

/// Source of live traffic rates. Implemented by the SNMP monitor
/// (`netqos-monitor`), by simulator ground-truth probes, and by test
/// fixtures.
pub trait RateProvider {
    /// Rates observed for the given interface, or `None` if this interface
    /// is not monitored (e.g. its node has no SNMP agent).
    fn rates(&self, node: NodeId, ifix: IfIx) -> Option<IfRates>;
}

/// Simple `HashMap`-backed [`RateProvider`] for tests and offline analysis.
#[derive(Debug, Clone, Default)]
pub struct MapRates {
    map: HashMap<(NodeId, IfIx), IfRates>,
}

impl MapRates {
    /// Creates an empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the rates of an interface.
    pub fn set(&mut self, node: NodeId, ifix: IfIx, rates: IfRates) {
        self.map.insert((node, ifix), rates);
    }

    /// Removes an interface's rates.
    pub fn clear(&mut self, node: NodeId, ifix: IfIx) {
        self.map.remove(&(node, ifix));
    }
}

impl RateProvider for MapRates {
    fn rates(&self, node: NodeId, ifix: IfIx) -> Option<IfRates> {
        self.map.get(&(node, ifix)).copied()
    }
}

/// Which accounting rule produced a connection's used bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandwidthRule {
    /// Own traffic only (switch / direct connections).
    PointToPoint,
    /// Sum of all traffic in the hub collision domain.
    SharedMedium,
}

/// Bandwidth figures for a single connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionBandwidth {
    /// The connection.
    pub conn: ConnId,
    /// Static capacity `m_i` in bits/s (min of the endpoint speeds).
    pub capacity_bps: u64,
    /// Used bandwidth `u_i` in bits/s (clamped to `capacity_bps`).
    pub used_bps: u64,
    /// Available bandwidth `a_i = m_i − u_i` in bits/s.
    pub available_bps: u64,
    /// Accounting rule applied.
    pub rule: BandwidthRule,
}

impl ConnectionBandwidth {
    /// Fractional utilisation `u_i / m_i` in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_bps == 0 {
            0.0
        } else {
            self.used_bps as f64 / self.capacity_bps as f64
        }
    }
}

/// Bandwidth figures for a whole communication path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathBandwidth {
    /// Available bandwidth of the path: `A = min(a_i)`.
    pub available_bps: u64,
    /// Used bandwidth at the bottleneck connection (the argmin of `a_i`).
    pub used_bps: u64,
    /// The bottleneck connection.
    pub bottleneck: ConnId,
    /// Per-connection detail, in path order.
    pub connections: Vec<ConnectionBandwidth>,
}

impl Default for PathBandwidth {
    /// The bandwidth of a zero-hop path: unbounded, no connections, and a
    /// bottleneck id that names no connection.
    fn default() -> Self {
        PathBandwidth {
            available_bps: u64::MAX,
            used_bps: 0,
            bottleneck: ConnId(u32::MAX),
            connections: Vec::new(),
        }
    }
}

/// Computes the bandwidth of one connection, applying the hub rule when
/// either endpoint is a shared-medium device.
pub fn connection_bandwidth(
    topo: &NetworkTopology,
    conn_id: ConnId,
    rates: &dyn RateProvider,
) -> Result<ConnectionBandwidth, TopologyError> {
    let plan = PathPlan::from_connections(topo, &[conn_id])?;
    let mut bw = evaluate_once(topo, &plan, rates)?;
    Ok(bw.connections.remove(0))
}

/// Computes the bandwidth of a whole communication path:
/// `A = min(a_1 … a_n)` with per-connection detail.
///
/// A zero-hop path (same source and destination host) yields an error-free
/// result with `available_bps == u64::MAX` and no connections; callers
/// normally guard against this case.
///
/// This compiles a [`PathPlan`] and evaluates it once; callers that
/// evaluate the same path on every poll should keep the plan.
pub fn path_bandwidth(
    topo: &NetworkTopology,
    path: &CommPath,
    rates: &dyn RateProvider,
) -> Result<PathBandwidth, TopologyError> {
    evaluate_once(topo, &PathPlan::compile(topo, path)?, rates)
}

fn evaluate_once(
    topo: &NetworkTopology,
    plan: &PathPlan,
    rates: &dyn RateProvider,
) -> Result<PathBandwidth, TopologyError> {
    let mut bw = PathBandwidth::default();
    plan.evaluate(topo, rates, &mut DomainSums::new(topo), &mut bw)
        .map_err(|e| e.into_topology_error(topo))?;
    Ok(bw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::NodeKind;
    use crate::path::find_path;

    /// switch net:  A - sw - B, 100 Mb/s everywhere.
    fn switch_net() -> (NetworkTopology, NodeId, NodeId, NodeId) {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        let sw = t.add_node("sw", NodeKind::Switch).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        let a0 = t.add_interface(a, "eth0", 100_000_000).unwrap();
        let p1 = t.add_interface(sw, "p1", 100_000_000).unwrap();
        let p2 = t.add_interface(sw, "p2", 100_000_000).unwrap();
        let b0 = t.add_interface(b, "eth0", 100_000_000).unwrap();
        t.connect((a, a0), (sw, p1)).unwrap();
        t.connect((sw, p2), (b, b0)).unwrap();
        (t, a, sw, b)
    }

    /// hub net: N1, N2, N3 on a 10 Mb/s hub.
    fn hub_net() -> (NetworkTopology, Vec<NodeId>, NodeId) {
        let mut t = NetworkTopology::new();
        let hub = t.add_node("hub", NodeKind::Hub).unwrap();
        for i in 0..3 {
            t.add_interface(hub, &format!("h{i}"), 10_000_000).unwrap();
        }
        let mut hosts = Vec::new();
        for (i, name) in ["N1", "N2", "N3"].iter().enumerate() {
            let n = t.add_node(name, NodeKind::Host).unwrap();
            let n0 = t.add_interface(n, "eth0", 10_000_000).unwrap();
            t.connect((n, n0), (hub, IfIx(i as u32))).unwrap();
            hosts.push(n);
        }
        (t, hosts, hub)
    }

    #[test]
    fn switch_connection_counts_only_own_traffic() {
        let (t, a, _, b) = switch_net();
        let mut rates = MapRates::new();
        rates.set(
            b,
            IfIx(0),
            IfRates {
                in_bps: 8_000_000,
                out_bps: 0,
            },
        );
        rates.set(a, IfIx(0), IfRates::default());
        let path = find_path(&t, a, b).unwrap();
        let bw = path_bandwidth(&t, &path, &rates).unwrap();
        // Bottleneck is the sw->B connection with 8 Mb/s of traffic.
        assert_eq!(bw.used_bps, 8_000_000);
        assert_eq!(bw.available_bps, 92_000_000);
        // The A-side connection is idle.
        let idle = &bw.connections[0];
        assert_eq!(idle.used_bps, 0);
        assert_eq!(idle.rule, BandwidthRule::PointToPoint);
    }

    #[test]
    fn hub_connection_sums_all_stations() {
        let (t, hosts, _) = hub_net();
        let mut rates = MapRates::new();
        // N2 receives 2 Mb/s, N3 receives 1 Mb/s; N1 idle.
        rates.set(hosts[0], IfIx(0), IfRates::default());
        rates.set(
            hosts[1],
            IfIx(0),
            IfRates {
                in_bps: 2_000_000,
                out_bps: 0,
            },
        );
        rates.set(
            hosts[2],
            IfIx(0),
            IfRates {
                in_bps: 1_000_000,
                out_bps: 0,
            },
        );
        let path = find_path(&t, hosts[0], hosts[1]).unwrap();
        let bw = path_bandwidth(&t, &path, &rates).unwrap();
        // Every hub connection carries the *sum*: 3 Mb/s.
        for c in &bw.connections {
            assert_eq!(c.rule, BandwidthRule::SharedMedium);
            assert_eq!(c.used_bps, 3_000_000);
            assert_eq!(c.available_bps, 7_000_000);
        }
        assert_eq!(bw.available_bps, 7_000_000);
    }

    #[test]
    fn hub_sum_clamped_to_hub_speed() {
        let (t, hosts, _) = hub_net();
        let mut rates = MapRates::new();
        for &h in &hosts {
            rates.set(
                h,
                IfIx(0),
                IfRates {
                    in_bps: 6_000_000,
                    out_bps: 0,
                },
            );
        }
        let path = find_path(&t, hosts[0], hosts[1]).unwrap();
        let bw = path_bandwidth(&t, &path, &rates).unwrap();
        // 18 Mb/s of reported traffic clamps to the 10 Mb/s medium.
        assert_eq!(bw.used_bps, 10_000_000);
        assert_eq!(bw.available_bps, 0);
    }

    #[test]
    fn hub_uplink_to_switch_not_double_counted() {
        // LIRTSS-style: sw -- hub -- N1/N2; traffic L->N1 is observed both
        // on the uplink switch port and at N1. The sum must count it once.
        let mut t = NetworkTopology::new();
        let sw = t.add_node("sw", NodeKind::Switch).unwrap();
        let p1 = t.add_interface(sw, "p1", 100_000_000).unwrap();
        let p8 = t.add_interface(sw, "p8", 10_000_000).unwrap();
        let hub = t.add_node("hub", NodeKind::Hub).unwrap();
        for i in 0..3 {
            t.add_interface(hub, &format!("h{i}"), 10_000_000).unwrap();
        }
        let s1 = t.add_node("S1", NodeKind::Host).unwrap();
        let s10 = t.add_interface(s1, "eth0", 100_000_000).unwrap();
        t.connect((s1, s10), (sw, p1)).unwrap();
        t.connect((sw, p8), (hub, IfIx(0))).unwrap();
        let n1 = t.add_node("N1", NodeKind::Host).unwrap();
        let n10 = t.add_interface(n1, "eth0", 10_000_000).unwrap();
        t.connect((n1, n10), (hub, IfIx(1))).unwrap();
        let n2 = t.add_node("N2", NodeKind::Host).unwrap();
        let n20 = t.add_interface(n2, "eth0", 10_000_000).unwrap();
        t.connect((n2, n20), (hub, IfIx(2))).unwrap();

        let mut rates = MapRates::new();
        // 4 Mb/s flowing somewhere -> N1 via the uplink.
        rates.set(s1, IfIx(0), IfRates::default());
        rates.set(
            sw,
            p8,
            IfRates {
                in_bps: 0,
                out_bps: 4_000_000,
            },
        );
        rates.set(
            n1,
            IfIx(0),
            IfRates {
                in_bps: 4_000_000,
                out_bps: 0,
            },
        );
        rates.set(n2, IfIx(0), IfRates::default());

        let path = find_path(&t, s1, n1).unwrap();
        let bw = path_bandwidth(&t, &path, &rates).unwrap();
        // Hub segment used bandwidth: exactly 4 Mb/s, not 8.
        let hub_conns: Vec<_> = bw
            .connections
            .iter()
            .filter(|c| c.rule == BandwidthRule::SharedMedium)
            .collect();
        assert_eq!(hub_conns.len(), 2); // sw<->hub and hub<->N1
        for c in hub_conns {
            assert_eq!(c.used_bps, 4_000_000, "conn {:?}", c.conn);
        }
    }

    #[test]
    fn hub_station_without_agent_falls_back_to_hub_port() {
        let (t, hosts, hub) = hub_net();
        let mut rates = MapRates::new();
        // N1, N2 have agents; N3 does not, but the hub port h2 is polled.
        rates.set(hosts[0], IfIx(0), IfRates::default());
        rates.set(hosts[1], IfIx(0), IfRates::default());
        rates.set(
            hub,
            IfIx(2),
            IfRates {
                in_bps: 0,
                out_bps: 5_000_000,
            },
        );
        let path = find_path(&t, hosts[0], hosts[1]).unwrap();
        let bw = path_bandwidth(&t, &path, &rates).unwrap();
        // 5 Mb/s leaving hub port h2 equals N3 receiving 5 Mb/s.
        assert_eq!(bw.used_bps, 5_000_000);
    }

    #[test]
    fn missing_rates_error_names_the_interface() {
        let (t, a, _, b) = switch_net();
        let rates = MapRates::new();
        let path = find_path(&t, a, b).unwrap();
        let err = path_bandwidth(&t, &path, &rates).unwrap_err();
        assert!(matches!(err, TopologyError::MissingRate { .. }));
    }

    #[test]
    fn switch_side_polling_substitutes_for_agentless_host() {
        // Paper: "even though there is no SNMP demon on either S4 or S5,
        // the bandwidth between S4 and S5 can still be monitored by polling
        // the interfaces on the switch".
        let (t, a, sw, b) = switch_net();
        let mut rates = MapRates::new();
        rates.set(
            sw,
            IfIx(0),
            IfRates {
                in_bps: 3_000_000,
                out_bps: 0,
            },
        ); // port to A
        rates.set(
            sw,
            IfIx(1),
            IfRates {
                in_bps: 0,
                out_bps: 3_000_000,
            },
        ); // port to B
        let path = find_path(&t, a, b).unwrap();
        let bw = path_bandwidth(&t, &path, &rates).unwrap();
        assert_eq!(bw.used_bps, 3_000_000);
        assert_eq!(bw.available_bps, 97_000_000);
    }

    #[test]
    fn cascaded_hubs_form_one_domain() {
        let mut t = NetworkTopology::new();
        let h1 = t.add_node("h1", NodeKind::Hub).unwrap();
        let h2 = t.add_node("h2", NodeKind::Hub).unwrap();
        for h in [h1, h2] {
            for i in 0..3 {
                t.add_interface(h, &format!("p{i}"), 10_000_000).unwrap();
            }
        }
        t.connect((h1, IfIx(2)), (h2, IfIx(2))).unwrap();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        let a0 = t.add_interface(a, "eth0", 10_000_000).unwrap();
        t.connect((a, a0), (h1, IfIx(0))).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        let b0 = t.add_interface(b, "eth0", 10_000_000).unwrap();
        t.connect((b, b0), (h2, IfIx(0))).unwrap();

        assert!(t.shared_domain_of(h1).is_some());
        assert_eq!(t.shared_domain_of(h1), t.shared_domain_of(h2));

        let mut rates = MapRates::new();
        rates.set(
            a,
            IfIx(0),
            IfRates {
                in_bps: 0,
                out_bps: 2_000_000,
            },
        );
        rates.set(
            b,
            IfIx(0),
            IfRates {
                in_bps: 2_000_000,
                out_bps: 0,
            },
        );
        let path = find_path(&t, a, b).unwrap();
        let bw = path_bandwidth(&t, &path, &rates).unwrap();
        // A->B crosses both hubs; counted at A (tx) and B (rx) = 4 Mb/s,
        // the documented shared-domain over-count for intra-domain traffic.
        assert_eq!(bw.used_bps, 4_000_000);
    }

    #[test]
    fn utilization_fraction() {
        let c = ConnectionBandwidth {
            conn: ConnId(0),
            capacity_bps: 10_000_000,
            used_bps: 2_500_000,
            available_bps: 7_500_000,
            rule: BandwidthRule::PointToPoint,
        };
        assert!((c.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_hop_path_bandwidth() {
        let (t, a, _, _) = switch_net();
        let path = find_path(&t, a, a).unwrap();
        let bw = path_bandwidth(&t, &path, &MapRates::new()).unwrap();
        assert_eq!(bw.available_bps, u64::MAX);
        assert!(bw.connections.is_empty());
    }

    #[test]
    fn mirrored_rates_swap_directions() {
        let r = IfRates {
            in_bps: 1,
            out_bps: 2,
        };
        assert_eq!(
            r.mirrored(),
            IfRates {
                in_bps: 2,
                out_bps: 1
            }
        );
        assert_eq!(r.total_bps(), r.mirrored().total_bps());
    }
}
