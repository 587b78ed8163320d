//! Compiled path plans: the paper's `A = min(m_i − u_i)` with everything
//! that does not change between polls worked out once.
//!
//! Compiling a [`CommPath`] against its topology fixes, per hop, the
//! capacity `m_i`, the accounting rule, and where `u_i` comes from:
//! a preferred/fallback endpoint pair (point-to-point rule) or a
//! shared-medium domain (hub rule). Evaluating a plan then costs one or
//! two rate reads per switch hop; a hub domain's sum `Σ t_j` is computed
//! once per [`DomainSums`] pass however many hops and paths cross it.
//!
//! A plan is only meaningful with the topology it was compiled against,
//! and only until that topology is next mutated.

use crate::bandwidth::{BandwidthRule, ConnectionBandwidth, PathBandwidth, RateProvider};
use crate::error::TopologyError;
use crate::graph::{Endpoint, NetworkTopology};
use crate::ids::{ConnId, DomainId, NodeId};
use crate::path::CommPath;

/// Why a plan could not be evaluated. Small and `Copy` so a monitor that
/// merely skips unready paths never formats a name; convert with
/// [`PlanError::into_topology_error`] to report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Neither this interface nor its fallback has a rate.
    MissingRate(Endpoint),
    /// The connection's capacity is zero.
    ZeroSpeed(ConnId),
}

impl PlanError {
    /// The named error the one-shot bandwidth functions return.
    pub fn into_topology_error(self, topo: &NetworkTopology) -> TopologyError {
        let named = || -> Result<TopologyError, TopologyError> {
            Ok(match self {
                PlanError::MissingRate(ep) => TopologyError::MissingRate {
                    node: topo.node(ep.node)?.name.clone(),
                    ifix: ep.ifix,
                },
                PlanError::ZeroSpeed(conn) => {
                    let a = topo.connection(conn)?.a;
                    TopologyError::ZeroSpeed {
                        node: topo.node(a.node)?.name.clone(),
                        interface: topo.interface(a.node, a.ifix)?.local_name.clone(),
                    }
                }
            })
        };
        named().unwrap_or_else(|lookup_failed| lookup_failed)
    }
}

/// Where a hop's used bandwidth `u_i` is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Usage {
    /// Traffic observed at either end of the cable (mirrored rates have
    /// the same total).
    PointToPoint {
        preferred: Endpoint,
        fallback: Endpoint,
    },
    /// Sum over the stations of a hub domain.
    SharedMedium(DomainId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    conn: ConnId,
    capacity_bps: u64,
    usage: Usage,
}

impl Hop {
    fn compile(topo: &NetworkTopology, conn_id: ConnId) -> Result<Hop, TopologyError> {
        let conn = *topo.connection(conn_id)?;
        let capacity_bps = topo.connection_speed(conn_id)?;
        let domain = topo
            .shared_domain_of(conn.a.node)
            .or_else(|| topo.shared_domain_of(conn.b.node));
        let usage = match domain {
            Some(domain) => Usage::SharedMedium(domain),
            None => {
                // Prefer the non-device end (the host NIC) when both are
                // monitored, matching the paper's presentation; the
                // mirrored values are identical in a loss-free interval.
                let a_is_host = topo.node(conn.a.node)?.kind.is_host();
                let b_is_host = topo.node(conn.b.node)?.kind.is_host();
                let (preferred, fallback) = if a_is_host && !b_is_host {
                    (conn.a, conn.b)
                } else {
                    (conn.b, conn.a)
                };
                Usage::PointToPoint {
                    preferred,
                    fallback,
                }
            }
        };
        Ok(Hop {
            conn: conn_id,
            capacity_bps,
            usage,
        })
    }

    fn evaluate<R: RateProvider + ?Sized>(
        &self,
        topo: &NetworkTopology,
        rates: &R,
        sums: &mut DomainSums,
    ) -> Result<ConnectionBandwidth, PlanError> {
        if self.capacity_bps == 0 {
            return Err(PlanError::ZeroSpeed(self.conn));
        }
        let (used, rule) = match self.usage {
            Usage::PointToPoint {
                preferred,
                fallback,
            } => (
                traffic_at(rates, preferred, fallback).ok_or(PlanError::MissingRate(preferred))?,
                BandwidthRule::PointToPoint,
            ),
            Usage::SharedMedium(domain) => (
                sums.sum(topo, domain, rates)
                    .map_err(PlanError::MissingRate)?,
                BandwidthRule::SharedMedium,
            ),
        };
        let used = used.min(self.capacity_bps); // "u_i cannot exceed the maximum speed"
        Ok(ConnectionBandwidth {
            conn: self.conn,
            capacity_bps: self.capacity_bps,
            used_bps: used,
            available_bps: self.capacity_bps - used,
            rule,
        })
    }
}

/// Total traffic on a cable, read at `preferred` or else at `fallback`.
fn traffic_at<R: RateProvider + ?Sized>(
    rates: &R,
    preferred: Endpoint,
    fallback: Endpoint,
) -> Option<u64> {
    rates
        .rates(preferred.node, preferred.ifix)
        .or_else(|| rates.rates(fallback.node, fallback.ifix))
        .map(|r| r.total_bps())
}

/// Per-pass memo of shared-medium domain sums, so a domain's stations are
/// read once however many hops and paths cross it. Call
/// [`DomainSums::clear`] whenever the rates may have changed.
#[derive(Debug, Clone)]
pub struct DomainSums {
    /// `Err` holds the first station with no rate at either end.
    slots: Vec<Option<Result<u64, Endpoint>>>,
}

impl DomainSums {
    /// An empty memo sized for `topo`'s domains.
    pub fn new(topo: &NetworkTopology) -> Self {
        DomainSums {
            slots: vec![None; topo.shared_domain_count()],
        }
    }

    /// Forgets every sum; the next evaluation reads the stations again.
    pub fn clear(&mut self) {
        self.slots.fill(None);
    }

    /// Used bandwidth of a hub domain: the sum of the traffic of every
    /// attached station (uplinks to selective forwarders and hub-to-hub
    /// cables are not stations), unclamped.
    fn sum<R: RateProvider + ?Sized>(
        &mut self,
        topo: &NetworkTopology,
        domain: DomainId,
        rates: &R,
    ) -> Result<u64, Endpoint> {
        if let Some(Some(known)) = self.slots.get(domain.index()) {
            return *known;
        }
        let sum = topo
            .shared_domain_stations(domain)
            .iter()
            .try_fold(0u64, |acc, s| {
                // Prefer the station's own counters; fall back to the hub port.
                traffic_at(rates, s.station, s.hub_port)
                    .map(|t| acc.saturating_add(t))
                    .ok_or(s.station)
            });
        if let Some(slot) = self.slots.get_mut(domain.index()) {
            *slot = Some(sum);
        }
        sum
    }
}

/// A [`CommPath`] compiled against its topology; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPlan {
    hops: Vec<Hop>,
}

impl PathPlan {
    /// Compiles a path. Fails only if the path names a connection the
    /// topology does not have.
    pub fn compile(topo: &NetworkTopology, path: &CommPath) -> Result<Self, TopologyError> {
        Self::from_connections(topo, &path.connections)
    }

    /// Compiles a bare sequence of connections.
    pub fn from_connections(
        topo: &NetworkTopology,
        connections: &[ConnId],
    ) -> Result<Self, TopologyError> {
        let hops = connections
            .iter()
            .map(|&c| Hop::compile(topo, c))
            .collect::<Result<_, _>>()?;
        Ok(PathPlan { hops })
    }

    /// Every node an evaluation may ask the [`RateProvider`] about: both
    /// ends of a point-to-point hop (the fallback too, so a preferred
    /// agent that never answers is still covered), and every station and
    /// hub port of a shared-medium hop's domain. Hop order; a node may
    /// repeat.
    pub fn reads<'a>(&'a self, topo: &'a NetworkTopology) -> impl Iterator<Item = NodeId> + 'a {
        self.hops.iter().flat_map(move |hop| {
            let (pair, stations) = match hop.usage {
                Usage::PointToPoint {
                    preferred,
                    fallback,
                } => (Some([preferred, fallback]), &[][..]),
                Usage::SharedMedium(domain) => (None, topo.shared_domain_stations(domain)),
            };
            let stations = stations.iter().flat_map(|s| [s.station, s.hub_port]);
            pair.into_iter().flatten().chain(stations).map(|ep| ep.node)
        })
    }

    /// Evaluates the plan into `out` (reusing its `connections` buffer):
    /// `A = min(a_1 … a_n)` with per-connection detail, the first
    /// minimum being the bottleneck. A zero-hop plan yields
    /// `PathBandwidth::default()`. On error `out` holds the hops before the
    /// failing one.
    pub fn evaluate<R: RateProvider + ?Sized>(
        &self,
        topo: &NetworkTopology,
        rates: &R,
        sums: &mut DomainSums,
        out: &mut PathBandwidth,
    ) -> Result<(), PlanError> {
        let mut connections = std::mem::take(&mut out.connections);
        connections.clear();
        *out = PathBandwidth::default();
        let result = self.hops.iter().try_for_each(|hop| {
            let c = hop.evaluate(topo, rates, sums)?;
            if connections.is_empty() || c.available_bps < out.available_bps {
                out.available_bps = c.available_bps;
                out.used_bps = c.used_bps;
                out.bottleneck = c.conn;
            }
            connections.push(c);
            Ok(())
        });
        out.connections = connections;
        result
    }
}
