//! The core monitor state machine.
//!
//! [`NetworkMonitor`] owns the specified topology and keeps, per topology
//! interface, the last reading of its counters and the rate formed from
//! its last two by the wrap-safe delta arithmetic of [`crate::delta`]
//! (per node, only the last `sysUpTime`, to tell a reboot). The rate table
//! makes the monitor a [`netqos_topology::bandwidth::RateProvider`], so
//! path bandwidth is one call away.

use crate::delta;
use crate::error::MonitorError;
use crate::poll::DeviceSnapshot;
use netqos_telemetry::{Counter, Tracer};
use netqos_topology::bandwidth::{IfRates, PathBandwidth, RateProvider};
use netqos_topology::path::{self, CommPath};
use netqos_topology::plan::{DomainSums, PathPlan, PlanError};
use netqos_topology::{IfIx, NetworkTopology, NodeId, TopologyError};
use std::borrow::Borrow;

/// How the monitor determines the interval between two polls of a device.
///
/// The paper's §3.1 prescribes `SysUpTime`: "The time interval between two
/// polling processes can be found using the system uptime data" — counter
/// and clock are sampled atomically in one PDU, so agent response delays
/// do not corrupt the rate. `NominalPeriod` is the naive alternative
/// (assume polls land exactly one period apart); the interval-source
/// experiment in EXPERIMENTS.md measures how much accuracy the paper's
/// choice buys under agent jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalStrategy {
    /// Use the delta of the agent's `sysUpTime` (the paper's method).
    SysUpTime,
    /// Assume a fixed poll period, in TimeTicks (hundredths of a second).
    NominalPeriod(u32),
}

/// One poll's reading of one interface: its octet counters and the
/// agent's clock they were read against.
#[derive(Clone, Copy)]
struct Reading {
    uptime_ticks: u32,
    in_octets: u32,
    out_octets: u32,
}

/// What the monitor keeps of one topology interface.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// The interface's reading at the last ingest that placed it.
    last: Option<Reading>,
    /// The rate formed from its last two readings.
    rates: Option<IfRates>,
}

/// The monitor.
pub struct NetworkMonitor {
    topology: NetworkTopology,
    /// The last `sysUpTime` of each node, indexed by [`NodeId`]: one slot
    /// per topology node, so a device's first snapshot allocates nothing.
    uptimes: Vec<Option<u32>>,
    /// Indexed by [`NetworkTopology::interface_slot`].
    slots: Vec<Slot>,
    polls_ingested: u64,
    interval_strategy: IntervalStrategy,
    tracer: Tracer,
    /// Samples discarded because the device rebooted between polls.
    uptime_resets: Counter,
    /// Counter32 rollovers absorbed by the modular delta arithmetic.
    counter_wraps: Counter,
}

impl NetworkMonitor {
    /// Creates a monitor over a specified topology (the paper's
    /// sysUpTime intervals).
    pub fn new(topology: NetworkTopology) -> Self {
        NetworkMonitor {
            slots: vec![Slot::default(); topology.interface_slot_count()],
            uptimes: vec![None; topology.node_count()],
            topology,
            polls_ingested: 0,
            interval_strategy: IntervalStrategy::SysUpTime,
            tracer: Tracer::disabled(),
            uptime_resets: Counter::new(),
            counter_wraps: Counter::new(),
        }
    }

    /// Routes this monitor's spans into `tracer` (a clone; spans land in
    /// the same cycle buffer as the caller's).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Binds the health counters to registry-backed handles (the
    /// standalone defaults keep unit tests registry-free).
    pub fn set_health_counters(&mut self, uptime_resets: Counter, counter_wraps: Counter) {
        self.uptime_resets = uptime_resets;
        self.counter_wraps = counter_wraps;
    }

    /// Snapshots discarded because the device rebooted between polls.
    pub fn uptime_resets(&self) -> u64 {
        self.uptime_resets.get()
    }

    /// Counter32 rollovers absorbed by the modular delta arithmetic.
    pub fn counter_wraps(&self) -> u64 {
        self.counter_wraps.get()
    }

    /// Selects how poll intervals are measured (see [`IntervalStrategy`]).
    pub fn set_interval_strategy(&mut self, strategy: IntervalStrategy) {
        self.interval_strategy = strategy;
    }

    /// The topology under monitoring.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// Number of snapshots ingested so far.
    pub fn polls_ingested(&self) -> u64 {
        self.polls_ingested
    }

    /// Maps a reported interface to the topology interface index: first by
    /// `ifDescr` = spec local name, then positionally by ifIndex.
    fn map_interface(
        &self,
        node: NodeId,
        descr: &str,
        if_index: u32,
    ) -> Result<IfIx, MonitorError> {
        let n = self.topology.node(node)?;
        let positional =
            IfIx::from_if_index(if_index).filter(|ifix| ifix.index() < n.interfaces.len());
        // An agent normally reports the spec's interfaces in the spec's
        // order, so the positional slot usually carries the reported
        // name and no search is needed.
        if let Some(ifix) = positional {
            if n.interfaces[ifix.index()].local_name == descr {
                return Ok(ifix);
            }
        }
        if let Ok(ifix) = self.topology.interface_by_name(node, descr) {
            return Ok(ifix);
        }
        positional.ok_or_else(|| MonitorError::UnknownInterface {
            node: n.name.clone(),
            descr: descr.to_owned(),
        })
    }

    /// Ingests a snapshot of `node`, by value or by reference. Each row
    /// is placed on its topology interface and paired with that
    /// interface's own last reading, if the node's last poll took it. A
    /// node's first snapshot only establishes a baseline (returns
    /// `false`), as does one across a reboot or within the same tick;
    /// later snapshots update the rate table (returns `true`). A node the
    /// topology does not have, or a row it cannot place, is refused, the
    /// first snapshot included.
    ///
    /// A refused row leaves the rows before it ingested and the node's
    /// `sysUpTime` as it was: the next snapshot pairs none of those rows,
    /// whose readings are not from the node's last poll, and every other
    /// interface keeps its reading and rate.
    pub fn ingest(
        &mut self,
        node: NodeId,
        snapshot: impl Borrow<DeviceSnapshot>,
    ) -> Result<bool, MonitorError> {
        let snapshot = snapshot.borrow();
        self.polls_ingested += 1;
        let mut span = self.tracer.span("monitor.delta", "ingest");
        if span.is_recording() {
            if let Ok(n) = self.topology.node(node) {
                span.set_attr("device", n.name.as_str());
            }
            span.set_attr("interfaces", snapshot.interfaces.len());
        }
        let Some(&previous) = self.uptimes.get(node.index()) else {
            return Err(TopologyError::NoSuchNode(node).into());
        };
        let uptime = snapshot.uptime_ticks;
        // The node's last uptime and the interval since it, if a rate can
        // be formed against that poll.
        let pair = match previous {
            None => {
                span.set_attr("baseline", true);
                None
            }
            // Device reboot between polls: the counters restarted from
            // zero, so deltas are garbage and the true elapsed time is
            // unknowable. Re-baseline instead of dividing by a bogus
            // interval.
            Some(old) if delta::uptime_reset(old, uptime) => {
                self.uptime_resets.inc();
                span.set_attr("uptime_reset", true);
                None
            }
            Some(old) => {
                let interval = match self.interval_strategy {
                    IntervalStrategy::SysUpTime => delta::ticks_delta(old, uptime),
                    IntervalStrategy::NominalPeriod(ticks) => ticks,
                };
                // A same-tick re-poll forms no rate.
                (interval != 0).then(|| {
                    span.set_attr("interval_ticks", interval);
                    (old, interval)
                })
            }
        };

        for row in &snapshot.interfaces {
            let ifix = self.map_interface(node, &row.descr, row.if_index)?;
            let slot = self.topology.interface_slot(node, ifix);
            let slot = &mut self.slots[slot.expect("a mapped interface exists in the topology")];
            let reading = Reading {
                uptime_ticks: uptime,
                in_octets: row.in_octets,
                out_octets: row.out_octets,
            };
            let old = slot.last.replace(reading);
            let Some((last_uptime, interval)) = pair else {
                continue;
            };
            // A rate pairs only with a reading of the node's last poll.
            let Some(old) = old.filter(|old| old.uptime_ticks == last_uptime) else {
                continue;
            };
            if delta::counter_wrapped(old.in_octets, reading.in_octets) {
                self.counter_wraps.inc();
            }
            if delta::counter_wrapped(old.out_octets, reading.out_octets) {
                self.counter_wraps.inc();
            }
            // A port fast enough to wrap its counter twice in this
            // interval has no knowable rate: none beats a wrong one.
            slot.rates = (!delta::wraps_ambiguous(row.speed_bps, interval)).then(|| {
                let rate = |old, new| {
                    delta::rate_bps(delta::counter_delta(old, new), interval).unwrap_or(0)
                };
                IfRates {
                    in_bps: rate(old.in_octets, reading.in_octets),
                    out_bps: rate(old.out_octets, reading.out_octets),
                }
            });
        }
        self.uptimes[node.index()] = Some(uptime);
        Ok(pair.is_some())
    }

    /// The rates of an interface, if monitored.
    pub fn if_rates(&self, node: NodeId, ifix: IfIx) -> Option<IfRates> {
        self.slots[self.topology.interface_slot(node, ifix)?].rates
    }

    /// Finds the communication path between two hosts (paper §3.3
    /// traversal).
    pub fn path(&self, from: NodeId, to: NodeId) -> Result<CommPath, MonitorError> {
        let _span = self.tracer.span("topology.path", "traverse");
        Ok(path::find_path(&self.topology, from, to)?)
    }

    /// Computes the bandwidth of the path between two hosts from the
    /// latest rates.
    pub fn path_bandwidth(&self, from: NodeId, to: NodeId) -> Result<PathBandwidth, MonitorError> {
        let p = self.path(from, to)?;
        self.path_bandwidth_of(&p)
    }

    /// Computes the bandwidth of a precomputed path. Callers that
    /// evaluate the same path every poll should compile it once and use
    /// [`NetworkMonitor::evaluate_plan`].
    pub fn path_bandwidth_of(&self, p: &CommPath) -> Result<PathBandwidth, MonitorError> {
        let plan = PathPlan::compile(&self.topology, p)?;
        let mut bw = PathBandwidth::default();
        self.evaluate_plan(&plan, &mut DomainSums::new(&self.topology), &mut bw)
            .map_err(|e| e.into_topology_error(&self.topology))?;
        Ok(bw)
    }

    /// Evaluates a plan compiled against [`NetworkMonitor::topology`]
    /// from the latest rates into `out`, under a `topology.path/bandwidth`
    /// span. `sums` must have been cleared since the last ingest.
    pub fn evaluate_plan(
        &self,
        plan: &PathPlan,
        sums: &mut DomainSums,
        out: &mut PathBandwidth,
    ) -> Result<(), PlanError> {
        let mut span = self.tracer.span("topology.path", "bandwidth");
        plan.evaluate(&self.topology, self, sums, out)?;
        if span.is_recording() {
            span.set_attr("connections", out.connections.len());
            span.set_attr("used_bps", out.used_bps);
            span.set_attr("available_bps", out.available_bps);
        }
        Ok(())
    }
}

impl RateProvider for NetworkMonitor {
    fn rates(&self, node: NodeId, ifix: IfIx) -> Option<IfRates> {
        self.if_rates(node, ifix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::IfSample;
    use netqos_topology::NodeKind;

    fn topo() -> (NetworkTopology, NodeId, NodeId) {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        t.add_interface(a, "eth0", 100_000_000).unwrap();
        t.set_snmp(a, "public").unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        t.add_interface(b, "eth0", 100_000_000).unwrap();
        t.set_snmp(b, "public").unwrap();
        t.connect((a, IfIx(0)), (b, IfIx(0))).unwrap();
        (t, a, b)
    }

    fn snap(uptime: u32, in_oct: u32, out_oct: u32) -> DeviceSnapshot {
        DeviceSnapshot {
            uptime_ticks: uptime,
            interfaces: vec![IfSample {
                if_index: 1,
                descr: "eth0".into(),
                speed_bps: 100_000_000,
                in_octets: in_oct,
                out_octets: out_oct,
                in_ucast_pkts: 0,
                out_nucast_pkts: 0,
            }],
        }
    }

    #[test]
    fn first_poll_is_baseline_only() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        assert!(!m.ingest(a, snap(100, 0, 0)).unwrap());
        assert!(m.if_rates(a, IfIx(0)).is_none());
    }

    #[test]
    fn a_node_the_topology_lacks_is_refused_from_its_first_snapshot() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        for ghost in [NodeId(2), NodeId(u32::MAX)] {
            for uptime in [100, 200] {
                assert_eq!(
                    m.ingest(ghost, snap(uptime, 0, 0)),
                    Err(TopologyError::NoSuchNode(ghost).into())
                );
            }
        }
        assert_eq!(m.uptimes.len(), 2);
        // The nodes it has are not disturbed.
        assert!(!m.ingest(a, snap(100, 0, 0)).unwrap());
        assert!(m.ingest(a, snap(200, 125_000, 0)).unwrap());
    }

    /// A row the topology cannot place fails the ingest and leaves the
    /// rows before it ingested: their readings are not from the node's
    /// last poll, so the next snapshot pairs none of them, and the one
    /// after pairs again.
    #[test]
    fn a_failed_ingest_pairs_nothing_across_it() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        assert!(!m.ingest(a, snap(100, 0, 0)).unwrap());
        let mut s = snap(200, 125_000, 0);
        let mut mystery = s.interfaces[0].clone();
        mystery.if_index = 9;
        mystery.descr = "mystery9".into();
        s.interfaces.push(mystery);
        assert!(matches!(
            m.ingest(a, &s),
            Err(MonitorError::UnknownInterface { .. })
        ));
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 1_000_000);
        // Paired with the reading at 200 the rate would read 4 Mb/s, or
        // 2 Mb/s over the node's 200 ticks since its last poll.
        assert!(m.ingest(a, snap(300, 625_000, 0)).unwrap());
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 1_000_000);
        assert!(m.ingest(a, snap(400, 875_000, 0)).unwrap());
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 2_000_000);
        assert_eq!(m.counter_wraps(), 0);
    }

    /// An agent that renumbers its interfaces between polls still pairs
    /// each interface's counters with its own: rows are placed by
    /// `ifDescr`, not matched by `ifIndex` against the last snapshot.
    /// (Matched by `ifIndex`, `eth0` read 34 320 738 368 b/s, idle `eth1`
    /// 40 Mb/s, and a wrap that never happened was counted.)
    #[test]
    fn a_renumbered_agent_pairs_each_interface_with_its_own_counters() {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Switch).unwrap();
        t.add_interface(a, "eth0", 100_000_000).unwrap();
        t.add_interface(a, "eth1", 100_000_000).unwrap();
        let mut m = NetworkMonitor::new(t);
        let snap = |uptime, rows: [(u32, &str, u32); 2]| DeviceSnapshot {
            uptime_ticks: uptime,
            interfaces: (rows.iter())
                .map(|&(if_index, descr, in_octets)| IfSample {
                    if_index,
                    descr: descr.into(),
                    speed_bps: 100_000_000,
                    in_octets,
                    ..IfSample::default()
                })
                .collect(),
        };
        m.ingest(a, snap(100, [(1, "eth0", 0), (2, "eth1", 5_000_000)]))
            .unwrap();
        assert!(m
            .ingest(a, snap(200, [(1, "eth1", 5_000_000), (2, "eth0", 125_000)]))
            .unwrap());
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 1_000_000);
        assert_eq!(m.if_rates(a, IfIx(1)).unwrap().in_bps, 0);
        assert_eq!(m.counter_wraps(), 0);
    }

    #[test]
    fn second_poll_produces_rates() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.ingest(a, snap(100, 0, 0)).unwrap();
        // +1 s, +125000 octets in = 1 Mb/s.
        assert!(m.ingest(a, snap(200, 125_000, 12_500)).unwrap());
        let r = m.if_rates(a, IfIx(0)).unwrap();
        assert_eq!(r.in_bps, 1_000_000);
        assert_eq!(r.out_bps, 100_000);
    }

    #[test]
    fn counter_wrap_handled() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.ingest(a, snap(0, u32::MAX - 100, 0)).unwrap();
        m.ingest(a, snap(100, 124_899, 0)).unwrap(); // +125000 across wrap
        let r = m.if_rates(a, IfIx(0)).unwrap();
        assert_eq!(r.in_bps, 1_000_000);
    }

    #[test]
    fn uptime_wrap_handled() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.ingest(a, snap(u32::MAX - 49, 0, 0)).unwrap();
        m.ingest(a, snap(50, 125_000, 0)).unwrap(); // 100-tick interval
        let r = m.if_rates(a, IfIx(0)).unwrap();
        assert_eq!(r.in_bps, 1_000_000);
    }

    #[test]
    fn reboot_marks_sample_stale_and_rebaselines() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.ingest(a, snap(500_000, 9_000_000, 0)).unwrap();
        m.ingest(a, snap(500_100, 9_125_000, 0)).unwrap();
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 1_000_000);
        // The device reboots: uptime restarts near zero, counters reset.
        // No rate is formed from the garbage deltas...
        assert!(!m.ingest(a, snap(10, 2_000, 0)).unwrap());
        assert_eq!(m.uptime_resets(), 1);
        // ...and the stale pre-reboot rate is what remains until fresh
        // post-reboot polls re-establish a baseline.
        assert!(m.ingest(a, snap(110, 252_000, 0)).unwrap());
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 2_000_000);
        assert_eq!(m.uptime_resets(), 1);
    }

    #[test]
    fn counter_wraps_are_counted() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.ingest(a, snap(0, u32::MAX - 100, u32::MAX - 50)).unwrap();
        assert_eq!(m.counter_wraps(), 0);
        // Both octet counters roll over in one interval.
        m.ingest(a, snap(100, 124_899, 12_449)).unwrap();
        assert_eq!(m.counter_wraps(), 2);
        let r = m.if_rates(a, IfIx(0)).unwrap();
        assert_eq!(r.in_bps, 1_000_000);
        assert_eq!(r.out_bps, 100_000);
        // A normal interval adds no wraps.
        m.ingest(a, snap(200, 249_899, 24_949)).unwrap();
        assert_eq!(m.counter_wraps(), 2);
    }

    #[test]
    fn a_port_that_may_have_wrapped_twice_has_no_rate() {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Switch).unwrap();
        t.add_interface(a, "eth0", 10_000_000_000).unwrap();
        t.add_interface(a, "eth1", 100_000_000).unwrap();
        let mut m = NetworkMonitor::new(t);
        let snap = |uptime, octets| {
            let iface = |if_index, descr: &str, speed_bps| IfSample {
                if_index,
                descr: descr.into(),
                speed_bps,
                in_octets: octets,
                out_octets: 0,
                in_ucast_pkts: 0,
                out_nucast_pkts: 0,
            };
            DeviceSnapshot {
                uptime_ticks: uptime,
                interfaces: vec![
                    iface(1, "eth0", 10_000_000_000),
                    iface(2, "eth1", 100_000_000),
                ],
            }
        };
        m.ingest(a, snap(0, 0)).unwrap();
        m.ingest(a, snap(100, 125_000)).unwrap();
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 1_000_000);
        // 5 s at 10 Gb/s is 6.25 GB, more than a Counter32 holds: the
        // earlier rate is withdrawn, not replaced by a wrong one. The
        // 100 Mb/s port cannot wrap in 5 s and still gets its rate.
        m.ingest(a, snap(600, 750_000)).unwrap();
        assert_eq!(m.if_rates(a, IfIx(0)), None);
        assert_eq!(m.if_rates(a, IfIx(1)).unwrap().in_bps, 1_000_000);
    }

    #[test]
    fn ingest_emits_spans_when_traced() {
        use netqos_telemetry::Tracer;
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        let tracer = Tracer::new();
        m.set_tracer(tracer.clone());
        tracer.begin_cycle();
        m.ingest(a, snap(0, 0, 0)).unwrap();
        m.ingest(a, snap(100, 125_000, 0)).unwrap();
        let spans = tracer.end_cycle();
        let ingests: Vec<_> = spans.iter().filter(|s| s.name == "ingest").collect();
        assert_eq!(ingests.len(), 2);
        assert!(ingests[1]
            .attrs
            .iter()
            .any(|(k, v)| k == "interval_ticks" && *v == 100u64.into()));
    }

    #[test]
    fn same_tick_repoll_no_rate() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.ingest(a, snap(100, 0, 0)).unwrap();
        assert!(!m.ingest(a, snap(100, 99999, 0)).unwrap());
    }

    #[test]
    fn path_bandwidth_from_ingested_rates() {
        let (t, a, b) = topo();
        let mut m = NetworkMonitor::new(t);
        for (node, io) in [(a, (0, 125_000)), (b, (125_000, 0))] {
            m.ingest(node, snap(0, 0, 0)).unwrap();
            m.ingest(node, snap(100, io.0, io.1)).unwrap();
        }
        let bw = m.path_bandwidth(a, b).unwrap();
        // One-directional flow: endpoint total in+out = 1 Mb/s.
        assert_eq!(bw.used_bps, 1_000_000);
        assert_eq!(bw.available_bps, 99_000_000);
    }

    #[test]
    fn interface_matching_by_descr_overrides_position() {
        // The agent reports interfaces in a different order than the spec.
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        let s = DeviceSnapshot {
            uptime_ticks: 0,
            interfaces: vec![IfSample {
                if_index: 7, // mismatched index, but descr says eth0
                descr: "eth0".into(),
                speed_bps: 100_000_000,
                in_octets: 0,
                out_octets: 0,
                in_ucast_pkts: 0,
                out_nucast_pkts: 0,
            }],
        };
        m.ingest(a, s.clone()).unwrap();
        let mut s2 = s;
        s2.uptime_ticks = 100;
        s2.interfaces[0].in_octets = 125_000;
        m.ingest(a, s2).unwrap();
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 1_000_000);
    }

    #[test]
    fn nominal_period_strategy_ignores_uptime() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.set_interval_strategy(IntervalStrategy::NominalPeriod(100));
        m.ingest(a, snap(0, 0, 0)).unwrap();
        // Agent answered 1.5 s late (uptime says 150 ticks), but the
        // nominal strategy divides by the configured 100 anyway — the
        // rate is overestimated by 50%, which is exactly the failure mode
        // the paper's sysUpTime method avoids.
        m.ingest(a, snap(150, 187_500, 0)).unwrap();
        let r = m.if_rates(a, IfIx(0)).unwrap();
        assert_eq!(r.in_bps, 1_500_000);

        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        m.ingest(a, snap(0, 0, 0)).unwrap();
        m.ingest(a, snap(150, 187_500, 0)).unwrap();
        // SysUpTime strategy recovers the true 1 Mb/s.
        assert_eq!(m.if_rates(a, IfIx(0)).unwrap().in_bps, 1_000_000);
    }

    #[test]
    fn unknown_interface_rejected() {
        let (t, a, _) = topo();
        let mut m = NetworkMonitor::new(t);
        let mk = |uptime| DeviceSnapshot {
            uptime_ticks: uptime,
            interfaces: vec![IfSample {
                if_index: 9,
                descr: "mystery9".into(),
                speed_bps: 1,
                in_octets: 0,
                out_octets: 0,
                in_ucast_pkts: 0,
                out_nucast_pkts: 0,
            }],
        };
        // Every row is placed, the first snapshot's included.
        for uptime in [0, 100] {
            let err = m.ingest(a, mk(uptime)).unwrap_err();
            assert!(matches!(err, MonitorError::UnknownInterface { .. }));
        }
    }
}
