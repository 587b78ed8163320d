//! # netqos-topology
//!
//! Network topology model, communication-path traversal, and bandwidth
//! calculation for the netqos monitoring system.
//!
//! This crate implements the LAN model of *Monitoring Network QoS in a
//! Dynamic Real-Time System* (IPPS 2002), Section 3.2–3.3:
//!
//! * A topology is a set of **nodes** (hosts and network devices), each with
//!   one or more **interfaces**, plus a set of **connections**. A connection
//!   joins exactly two `(node, interface)` pairs — the 1-to-1 rule of the
//!   paper's Figure 1.
//! * The **communication path** between two hosts ([`path::find_path`]) is
//!   read off a spanning forest where the LAN is a tree, climbing both
//!   parent chains to where they meet; where it has a loop, the paper's
//!   recursive traversal with infinite-loop detection finds it.
//! * The **available bandwidth** of a path is the minimum of the available
//!   bandwidths of its connections, `A = min(a_1, …, a_n)`, where
//!   `a_i = m_i − u_i` ([`bandwidth`]). Used bandwidth `u_i` is computed
//!   differently for switch-connected interfaces (own traffic only) and for
//!   hub-connected interfaces (sum of all traffic through the hub, clamped
//!   to the hub speed).
//!
//! The crate is deliberately independent of SNMP and of the simulator: rates
//! are supplied through the [`bandwidth::RateProvider`] trait, so the same
//! algorithms run against live SNMP data, simulated counters, or test
//! fixtures.
//!
//! ## Example
//!
//! ```
//! use netqos_topology::{NetworkTopology, NodeKind, bandwidth, path};
//! use netqos_topology::bandwidth::{IfRates, MapRates};
//!
//! let mut topo = NetworkTopology::new();
//! let a = topo.add_node("A", NodeKind::Host).unwrap();
//! let sw = topo.add_node("SW", NodeKind::Switch).unwrap();
//! let b = topo.add_node("B", NodeKind::Host).unwrap();
//! let a0 = topo.add_interface(a, "eth0", 100_000_000).unwrap();
//! let s1 = topo.add_interface(sw, "p1", 100_000_000).unwrap();
//! let s2 = topo.add_interface(sw, "p2", 100_000_000).unwrap();
//! let b0 = topo.add_interface(b, "eth0", 100_000_000).unwrap();
//! topo.connect((a, a0), (sw, s1)).unwrap();
//! topo.connect((sw, s2), (b, b0)).unwrap();
//!
//! let p = path::find_path(&topo, a, b).unwrap();
//! assert_eq!(p.connections.len(), 2);
//!
//! let mut rates = MapRates::default();
//! rates.set(a, a0, IfRates { in_bps: 0, out_bps: 8_000_000 });
//! rates.set(b, b0, IfRates { in_bps: 8_000_000, out_bps: 0 });
//! let bw = bandwidth::path_bandwidth(&topo, &p, &rates).unwrap();
//! assert_eq!(bw.available_bps, 92_000_000);
//! ```

pub mod bandwidth;
pub mod error;
pub mod graph;
pub mod ids;
mod index;
pub mod kind;
pub mod path;
pub mod plan;

pub use bandwidth::{ConnectionBandwidth, IfRates, PathBandwidth, RateProvider};
pub use error::TopologyError;
pub use graph::{Connection, Endpoint, Interface, NetworkTopology, Node};
pub use ids::{ConnId, DomainId, IfIx, NodeId};
pub use index::Station;
pub use kind::NodeKind;
pub use path::{find_path, CommPath};
