//! The ingest the slot store replaced, kept as the reference: the monitor
//! kept each node's previous `DeviceSnapshot`, paired each row of a new
//! snapshot with the previous snapshot's row of the same `ifIndex` (the
//! one at the same position when the two agreed, found by search
//! otherwise) and formed every rate over the node's interval. The packet
//! rates it also formed, which nothing read, are left out.
//!
//! It is defined where the slot store is: while an agent keeps each
//! `ifIndex` on one interface and lists only interfaces the topology can
//! place. A renumbered agent is the case it got wrong, and an
//! unplaceable row it refused only once the previous snapshot had it too.

use netqos_monitor::delta;
use netqos_monitor::monitor::IntervalStrategy;
use netqos_monitor::poll::DeviceSnapshot;
use netqos_monitor::MonitorError;
use netqos_topology::bandwidth::IfRates;
use netqos_topology::{IfIx, NetworkTopology, NodeId, TopologyError};

/// The snapshot-pairing ingest.
pub struct SnapshotIngest {
    topology: NetworkTopology,
    strategy: IntervalStrategy,
    /// The last snapshot of each node, indexed by node id.
    previous: Vec<Option<DeviceSnapshot>>,
    /// Indexed by interface slot.
    rates: Vec<Option<IfRates>>,
    pub uptime_resets: u64,
    pub counter_wraps: u64,
}

impl SnapshotIngest {
    pub fn new(topology: NetworkTopology, strategy: IntervalStrategy) -> Self {
        SnapshotIngest {
            strategy,
            previous: vec![None; topology.node_count()],
            rates: vec![None; topology.interface_slot_count()],
            topology,
            uptime_resets: 0,
            counter_wraps: 0,
        }
    }

    /// The rates of an interface, if monitored.
    pub fn if_rates(&self, node: NodeId, ifix: IfIx) -> Option<IfRates> {
        self.rates[self.topology.interface_slot(node, ifix)?]
    }

    /// The spec interface a row reports: by `ifDescr`, else by position.
    fn map_interface(
        &self,
        node: NodeId,
        descr: &str,
        if_index: u32,
    ) -> Result<IfIx, MonitorError> {
        let n = self.topology.node(node)?;
        if let Ok(ifix) = self.topology.interface_by_name(node, descr) {
            return Ok(ifix);
        }
        IfIx::from_if_index(if_index)
            .filter(|ifix| ifix.index() < n.interfaces.len())
            .ok_or_else(|| MonitorError::UnknownInterface {
                node: n.name.clone(),
                descr: descr.to_owned(),
            })
    }

    /// Ingests `snapshot` of `node`: `false` for a baseline, `true` once
    /// rates were formed against the previous snapshot.
    pub fn ingest(
        &mut self,
        node: NodeId,
        snapshot: &DeviceSnapshot,
    ) -> Result<bool, MonitorError> {
        let Some(previous) = self.previous.get(node.index()) else {
            return Err(TopologyError::NoSuchNode(node).into());
        };
        let Some(prev) = previous.clone() else {
            self.previous[node.index()] = Some(snapshot.clone());
            return Ok(false);
        };
        if delta::uptime_reset(prev.uptime_ticks, snapshot.uptime_ticks) {
            self.uptime_resets += 1;
            self.previous[node.index()] = Some(snapshot.clone());
            return Ok(false);
        }
        let interval = match self.strategy {
            IntervalStrategy::SysUpTime => {
                delta::ticks_delta(prev.uptime_ticks, snapshot.uptime_ticks)
            }
            IntervalStrategy::NominalPeriod(ticks) => ticks,
        };
        if interval == 0 {
            self.previous[node.index()] = Some(snapshot.clone());
            return Ok(false);
        }
        for (pos, cur) in snapshot.interfaces.iter().enumerate() {
            let old = match prev.interfaces.get(pos) {
                Some(p) if p.if_index == cur.if_index => p,
                _ => match prev.interfaces.iter().find(|p| p.if_index == cur.if_index) {
                    Some(p) => p,
                    None => continue, // interface appeared between polls
                },
            };
            self.counter_wraps += u64::from(delta::counter_wrapped(old.in_octets, cur.in_octets));
            self.counter_wraps += u64::from(delta::counter_wrapped(old.out_octets, cur.out_octets));
            let ifix = self.map_interface(node, &cur.descr, cur.if_index)?;
            let slot = self.topology.interface_slot(node, ifix).unwrap();
            if delta::wraps_ambiguous(cur.speed_bps, interval) {
                self.rates[slot] = None;
                continue;
            }
            let rate =
                |old, new| delta::rate_bps(delta::counter_delta(old, new), interval).unwrap_or(0);
            self.rates[slot] = Some(IfRates {
                in_bps: rate(old.in_octets, cur.in_octets),
                out_bps: rate(old.out_octets, cur.out_octets),
            });
        }
        self.previous[node.index()] = Some(snapshot.clone());
        Ok(true)
    }
}
