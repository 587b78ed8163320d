//! QoS violation detection — the paper's motivating use case and listed
//! future work ("network QoS violation detection"), implemented here.
//!
//! The resource manager declares `qospath` requirements in the
//! specification file; [`QosMonitor`] evaluates each monitored path
//! against them on every rate update and emits [`QosEvent`]s on state
//! changes (violation entered / cleared), including the diagnosed
//! bottleneck connection so the RM can act.

use crate::error::MonitorError;
use crate::monitor::NetworkMonitor;
use netqos_snmp::message::SnmpMessage;
use netqos_snmp::oid::Oid;
use netqos_snmp::pdu::{generic_trap, TrapPdu, VarBind};
use netqos_snmp::value::SnmpValue;
use netqos_spec::QosPathSpec;
use netqos_topology::bandwidth::{PathBandwidth, RateProvider};
use netqos_topology::plan::{DomainSums, PathPlan};
use netqos_topology::{ConnId, NodeId};
use std::collections::HashMap;

/// Why a path is in violation.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// Available bandwidth fell below `min_available`.
    InsufficientBandwidth {
        /// Measured available bandwidth (bits/s).
        available_bps: u64,
        /// Required minimum (bits/s).
        required_bps: u64,
    },
    /// A connection exceeded `max_utilization`.
    OverUtilized {
        /// Measured utilisation fraction.
        utilization: f64,
        /// Allowed maximum fraction.
        limit: f64,
    },
}

/// A QoS state-change event for the resource manager.
#[derive(Debug, Clone, PartialEq)]
pub enum QosEvent {
    /// The path entered violation.
    Violated {
        /// The qospath name from the specification.
        path_name: String,
        /// What was violated.
        kind: ViolationKind,
        /// The diagnosed bottleneck connection.
        bottleneck: ConnId,
    },
    /// The path recovered.
    Cleared {
        /// The qospath name.
        path_name: String,
    },
}

struct Tracked {
    spec: QosPathSpec,
    plan: PathPlan,
    in_violation: bool,
    /// Latest successful evaluation.
    last: Option<PathBandwidth>,
    /// Whether `last` comes from the most recent pass.
    fresh: bool,
}

/// Evaluates qospath requirements against live monitor state.
pub struct QosMonitor {
    tracked: Vec<Tracked>,
    /// Path name → index into `tracked`.
    by_name: HashMap<String, usize>,
    /// Hub-domain sums of the current pass, shared by all paths.
    sums: DomainSums,
    /// Evaluation target, swapped into a slot on success so that slot's
    /// previous detail buffer is reused by the next path.
    scratch: PathBandwidth,
}

impl QosMonitor {
    /// Builds a QoS monitor from qospath specs, resolving each path in the
    /// topology and compiling its evaluation plan once up front.
    pub fn new(monitor: &NetworkMonitor, specs: &[QosPathSpec]) -> Result<Self, MonitorError> {
        let mut tracked = Vec::with_capacity(specs.len());
        let mut by_name = HashMap::with_capacity(specs.len());
        for spec in specs {
            let path = monitor.path(spec.from, spec.to)?;
            by_name.insert(spec.name.clone(), tracked.len());
            tracked.push(Tracked {
                spec: spec.clone(),
                plan: PathPlan::compile(monitor.topology(), &path)?,
                in_violation: false,
                last: None,
                fresh: false,
            });
        }
        Ok(QosMonitor {
            tracked,
            by_name,
            sums: DomainSums::new(monitor.topology()),
            scratch: PathBandwidth::default(),
        })
    }

    /// Re-evaluates all paths against the monitor's current rates,
    /// emitting events for state changes. Paths whose rates are not yet
    /// complete are skipped. `monitor` must be the one this was built
    /// from.
    pub fn evaluate(&mut self, monitor: &NetworkMonitor) -> Vec<QosEvent> {
        let mut events = Vec::new();
        self.sums.clear();
        for t in &mut self.tracked {
            t.fresh = false;
            if monitor
                .evaluate_plan(&t.plan, &mut self.sums, &mut self.scratch)
                .is_err()
            {
                continue; // not enough data yet
            }
            let last = t.last.get_or_insert_with(PathBandwidth::default);
            std::mem::swap(last, &mut self.scratch);
            let bw = &*last;
            t.fresh = true;

            let mut violation = None;
            if let Some(required) = t.spec.min_available_bps {
                if bw.available_bps < required {
                    violation = Some(ViolationKind::InsufficientBandwidth {
                        available_bps: bw.available_bps,
                        required_bps: required,
                    });
                }
            }
            if violation.is_none() {
                if let Some(limit) = t.spec.max_utilization {
                    if let Some(worst) = bw
                        .connections
                        .iter()
                        .map(|c| c.utilization())
                        .max_by(|a, b| a.total_cmp(b))
                    {
                        if worst > limit {
                            violation = Some(ViolationKind::OverUtilized {
                                utilization: worst,
                                limit,
                            });
                        }
                    }
                }
            }

            match (violation, t.in_violation) {
                (Some(kind), false) => {
                    t.in_violation = true;
                    events.push(QosEvent::Violated {
                        path_name: t.spec.name.clone(),
                        kind,
                        bottleneck: bw.bottleneck,
                    });
                }
                (None, true) => {
                    t.in_violation = false;
                    events.push(QosEvent::Cleared {
                        path_name: t.spec.name.clone(),
                    });
                }
                _ => {}
            }
        }
        events
    }

    /// The used bandwidth of each path of the last [`QosMonitor::evaluate`]
    /// pass, in [`QosMonitor::evaluated`]'s order, by the same plan over
    /// `rates` (`None` where they cannot answer). It reuses the pass's sums
    /// and scratch, so allocates nothing once they have grown. `monitor`
    /// must be the one this was built from.
    pub fn used_over<'a, R: RateProvider + ?Sized>(
        &'a mut self,
        monitor: &'a NetworkMonitor,
        rates: &'a R,
    ) -> impl Iterator<Item = Option<u64>> + 'a {
        self.sums.clear();
        let (sums, scratch) = (&mut self.sums, &mut self.scratch);
        (self.tracked.iter().filter(|t| t.fresh)).map(move |t| {
            let evaluated = t.plan.evaluate(monitor.topology(), rates, sums, scratch);
            evaluated.ok().map(|()| scratch.used_bps)
        })
    }

    /// The nodes whose rates any tracked path's evaluation may read —
    /// the union of the compiled plans' [`PathPlan::reads`], sorted and
    /// deduplicated. `monitor` must be the one this was built from.
    pub fn demand(&self, monitor: &NetworkMonitor) -> Vec<NodeId> {
        let topo = monitor.topology();
        let mut nodes: Vec<NodeId> = self
            .tracked
            .iter()
            .flat_map(|t| t.plan.reads(topo))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Number of tracked paths.
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// True when no path is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// The paths the most recent [`QosMonitor::evaluate`] pass could
    /// evaluate, in specification order, with that pass's results and
    /// whether it left the path in violation.
    pub fn evaluated(&self) -> impl Iterator<Item = (&QosPathSpec, &PathBandwidth, bool)> {
        self.tracked
            .iter()
            .filter(|t| t.fresh)
            .filter_map(|t| Some((&t.spec, t.last.as_ref()?, t.in_violation)))
    }

    /// The most recent bandwidth evaluation of a named path.
    pub fn last_bandwidth(&self, path_name: &str) -> Option<&PathBandwidth> {
        self.tracked[*self.by_name.get(path_name)?].last.as_ref()
    }

    /// Names of paths currently in violation.
    pub fn violated_paths(&self) -> Vec<&str> {
        self.violated().collect()
    }

    /// [`QosMonitor::violated_paths`] without collecting them.
    pub fn violated(&self) -> impl Iterator<Item = &str> {
        (self.tracked.iter())
            .filter(|t| t.in_violation)
            .map(|t| t.spec.name.as_str())
    }
}

/// netqos enterprise OID for traps (under the demo private-enterprise
/// arc used throughout this reproduction).
pub fn netqos_enterprise() -> Oid {
    Oid::from([1, 3, 6, 1, 4, 1, 99999])
}

/// Specific-trap code: a path QoS violation began.
pub const TRAP_QOS_VIOLATED: i32 = 1;
/// Specific-trap code: a path recovered.
pub const TRAP_QOS_CLEARED: i32 = 2;

/// Encodes a [`QosEvent`] as an SNMPv1 enterprise-specific trap message,
/// so the monitor can notify SNMP-speaking management stations (the
/// resource manager, or any off-the-shelf NMS) in-band.
///
/// Variable bindings carry the path name (OCTET STRING under
/// `enterprise.1`) and, for violations, the measured available bandwidth
/// (Gauge32 under `enterprise.2`).
pub fn encode_trap(
    event: &QosEvent,
    community: &str,
    agent_addr: [u8; 4],
    uptime_ticks: u32,
) -> Result<Vec<u8>, MonitorError> {
    let enterprise = netqos_enterprise();
    let (specific, name, extra) = match event {
        QosEvent::Violated {
            path_name, kind, ..
        } => {
            let available = match kind {
                ViolationKind::InsufficientBandwidth { available_bps, .. } => {
                    // Gauge32 saturates; clamp wide rates.
                    (*available_bps).min(u32::MAX as u64) as u32
                }
                ViolationKind::OverUtilized { utilization, .. } => {
                    (utilization * 100.0).round() as u32
                }
            };
            (TRAP_QOS_VIOLATED, path_name, Some(available))
        }
        QosEvent::Cleared { path_name } => (TRAP_QOS_CLEARED, path_name, None),
    };
    let mut bindings = vec![VarBind::new(
        enterprise.extend(&[1, 0]),
        SnmpValue::text(name),
    )];
    if let Some(v) = extra {
        bindings.push(VarBind::new(
            enterprise.extend(&[2, 0]),
            SnmpValue::Gauge32(v),
        ));
    }
    let trap = TrapPdu {
        enterprise,
        agent_addr,
        generic_trap: generic_trap::ENTERPRISE_SPECIFIC,
        specific_trap: specific,
        time_stamp: uptime_ticks,
        bindings,
    };
    SnmpMessage::v1_trap(community, trap)
        .encode()
        .map_err(|e| MonitorError::Snmp(e.to_string()))
}

/// Decodes a trap message back into `(specific_trap, path_name)` — the
/// receiving side of the notification channel.
pub fn decode_trap(bytes: &[u8]) -> Result<(i32, String), MonitorError> {
    let msg = SnmpMessage::decode(bytes).map_err(|e| MonitorError::Snmp(e.to_string()))?;
    match msg.body {
        netqos_snmp::message::MessageBody::Trap(t) => {
            let name = t
                .bindings
                .first()
                .and_then(|vb| vb.value.as_text())
                .unwrap_or("")
                .to_owned();
            Ok((t.specific_trap, name))
        }
        _ => Err(MonitorError::Snmp("not a trap message".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{DeviceSnapshot, IfSample};
    use netqos_topology::{IfIx, NetworkTopology, NodeId, NodeKind};

    fn setup() -> (NetworkMonitor, Vec<QosPathSpec>, NodeId, NodeId) {
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        t.add_interface(a, "eth0", 10_000_000).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        t.add_interface(b, "eth0", 10_000_000).unwrap();
        t.connect((a, IfIx(0)), (b, IfIx(0))).unwrap();
        let m = NetworkMonitor::new(t);
        let specs = vec![QosPathSpec {
            name: "ab".into(),
            from: a,
            to: b,
            min_available_bps: Some(5_000_000),
            max_utilization: Some(0.8),
            application: None,
        }];
        (m, specs, a, b)
    }

    fn feed(m: &mut NetworkMonitor, node: NodeId, uptime: u32, octets: u32) {
        m.ingest(
            node,
            DeviceSnapshot {
                uptime_ticks: uptime,
                interfaces: vec![IfSample {
                    if_index: 1,
                    descr: "eth0".into(),
                    speed_bps: 10_000_000,
                    in_octets: octets,
                    out_octets: 0,
                    in_ucast_pkts: 0,
                    out_nucast_pkts: 0,
                }],
            },
        )
        .unwrap();
    }

    #[test]
    fn no_events_without_rates() {
        let (m, specs, _, _) = setup();
        let mut q = QosMonitor::new(&m, &specs).unwrap();
        assert!(q.evaluate(&m).is_empty());
        assert!(q.violated_paths().is_empty());
    }

    #[test]
    fn violation_and_recovery_cycle() {
        let (mut m, specs, a, b) = setup();
        let mut q = QosMonitor::new(&m, &specs).unwrap();

        // Baseline.
        feed(&mut m, a, 0, 0);
        feed(&mut m, b, 0, 0);
        // 1 s later: 750 KB received = 6 Mb/s -> available 4 Mb/s < 5 Mb/s.
        feed(&mut m, a, 100, 0);
        feed(&mut m, b, 100, 750_000);
        let events = q.evaluate(&m);
        assert_eq!(events.len(), 1);
        match &events[0] {
            QosEvent::Violated {
                path_name, kind, ..
            } => {
                assert_eq!(path_name, "ab");
                assert!(matches!(
                    kind,
                    ViolationKind::InsufficientBandwidth {
                        available_bps: 4_000_000,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(q.violated_paths(), vec!["ab"]);
        // Still violated: no duplicate event.
        assert!(q.evaluate(&m).is_empty());

        // Load stops: next second adds no octets.
        feed(&mut m, a, 200, 0);
        feed(&mut m, b, 200, 750_000);
        let events = q.evaluate(&m);
        assert_eq!(
            events,
            vec![QosEvent::Cleared {
                path_name: "ab".into()
            }]
        );
        assert!(q.violated_paths().is_empty());
    }

    #[test]
    fn utilization_violation() {
        let (mut m, mut specs, a, b) = setup();
        specs[0].min_available_bps = None; // isolate the utilisation check
        let mut q = QosMonitor::new(&m, &specs).unwrap();
        feed(&mut m, a, 0, 0);
        feed(&mut m, b, 0, 0);
        // 9 Mb/s on a 10 Mb/s link = 90% > 80% limit.
        feed(&mut m, a, 100, 0);
        feed(&mut m, b, 100, 1_125_000);
        let events = q.evaluate(&m);
        assert!(matches!(
            &events[0],
            QosEvent::Violated {
                kind: ViolationKind::OverUtilized { .. },
                ..
            }
        ));
    }

    #[test]
    fn trap_round_trip_for_violation_and_clear() {
        let violated = QosEvent::Violated {
            path_name: "s1n1".into(),
            kind: ViolationKind::InsufficientBandwidth {
                available_bps: 123_456,
                required_bps: 800_000,
            },
            bottleneck: netqos_topology::ConnId(2),
        };
        let bytes = encode_trap(&violated, "traps", [10, 0, 0, 1], 5000).unwrap();
        let (specific, name) = decode_trap(&bytes).unwrap();
        assert_eq!(specific, TRAP_QOS_VIOLATED);
        assert_eq!(name, "s1n1");

        let cleared = QosEvent::Cleared {
            path_name: "s1n1".into(),
        };
        let bytes = encode_trap(&cleared, "traps", [10, 0, 0, 1], 6000).unwrap();
        let (specific, name) = decode_trap(&bytes).unwrap();
        assert_eq!(specific, TRAP_QOS_CLEARED);
        assert_eq!(name, "s1n1");
    }

    #[test]
    fn trap_over_real_udp() {
        // Monitor-side trap emission to a listening management station.
        use std::net::UdpSocket;
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        sink.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let event = QosEvent::Violated {
            path_name: "track".into(),
            kind: ViolationKind::OverUtilized {
                utilization: 0.95,
                limit: 0.8,
            },
            bottleneck: netqos_topology::ConnId(0),
        };
        let bytes = encode_trap(&event, "public", [127, 0, 0, 1], 1).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&bytes, sink.local_addr().unwrap()).unwrap();
        let mut buf = [0u8; 1500];
        let (n, _) = sink.recv_from(&mut buf).unwrap();
        let (specific, name) = decode_trap(&buf[..n]).unwrap();
        assert_eq!(specific, TRAP_QOS_VIOLATED);
        assert_eq!(name, "track");
    }

    #[test]
    fn decode_trap_rejects_non_trap() {
        use netqos_snmp::pdu::{Pdu, PduType};
        let msg = SnmpMessage::v1("c", Pdu::request(PduType::GetRequest, 1, &[]));
        let bytes = msg.encode().unwrap();
        assert!(decode_trap(&bytes).is_err());
    }

    #[test]
    fn last_bandwidth_is_recorded() {
        let (mut m, specs, a, b) = setup();
        let mut q = QosMonitor::new(&m, &specs).unwrap();
        feed(&mut m, a, 0, 0);
        feed(&mut m, b, 0, 0);
        feed(&mut m, a, 100, 0);
        feed(&mut m, b, 100, 125_000);
        q.evaluate(&m);
        let bw = q.last_bandwidth("ab").unwrap();
        assert_eq!(bw.used_bps, 1_000_000);
    }
}
