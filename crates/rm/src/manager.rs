//! The resource-manager event loop: violation → diagnosis → advice.

use crate::app::{Allocation, AllocationError};
use netqos_monitor::qos::{QosEvent, ViolationKind};
use netqos_monitor::NetworkMonitor;
use netqos_spec::QosPathSpec;
use netqos_telemetry::Tracer;
use netqos_topology::path;
use netqos_topology::{ConnId, NodeId};
use std::collections::HashMap;

/// A proposed application move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReallocationAdvice {
    /// The qospath whose violation triggered the advice.
    pub path_name: String,
    /// The application to move.
    pub app: String,
    /// Current host.
    pub from: NodeId,
    /// Proposed host.
    pub to: NodeId,
    /// Expected available bandwidth of the new path (bits/s).
    pub expected_available_bps: u64,
}

/// Resource-manager events, in occurrence order.
#[derive(Debug, Clone, PartialEq)]
pub enum RmEvent {
    /// A path QoS violation was detected; carries the diagnosed
    /// bottleneck connection (described by name for operator logs).
    ViolationDetected {
        /// The qospath name.
        path_name: String,
        /// Why.
        kind: ViolationKind,
        /// The diagnosed bottleneck.
        bottleneck: ConnId,
        /// Human-readable bottleneck description.
        bottleneck_desc: String,
    },
    /// A reallocation proposal (requires an app registered on a violated
    /// path endpoint and a strictly better candidate host).
    Advice(ReallocationAdvice),
    /// No better placement exists; the violation stands.
    NoRemedy {
        /// The qospath name.
        path_name: String,
    },
    /// The path recovered.
    Recovered {
        /// The qospath name.
        path_name: String,
    },
}

/// The network-aware slice of the DeSiDeRaTa resource manager. It
/// evaluates nothing itself: the monitoring service's tick does, and the
/// manager reacts to the QoS events that tick returns.
pub struct ResourceManager {
    specs: HashMap<String, QosPathSpec>,
    /// Which application implements the `from` endpoint of each qospath.
    path_apps: HashMap<String, String>,
    allocation: Allocation,
    history: Vec<RmEvent>,
    tracer: Tracer,
}

impl ResourceManager {
    /// Creates a manager over qospath requirements.
    pub fn new(specs: &[QosPathSpec], allocation: Allocation) -> Self {
        ResourceManager {
            specs: specs.iter().map(|s| (s.name.clone(), s.clone())).collect(),
            path_apps: HashMap::new(),
            allocation,
            history: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Routes this manager's causal spans into `tracer` (disabled by
    /// default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Builds a manager straight from a validated specification: the
    /// spec's `application` declarations become the initial allocation,
    /// and every `qospath` with an `application` property is bound to it.
    pub fn from_spec_model(model: &netqos_spec::SpecModel) -> Result<Self, AllocationError> {
        let mut allocation = Allocation::new();
        for app in &model.applications {
            allocation.place(&app.name, app.host, app.movable)?;
        }
        let mut rm = Self::new(&model.qos_paths, allocation);
        for q in &model.qos_paths {
            if let Some(app) = &q.application {
                rm.bind_app(&q.name, app);
            }
        }
        Ok(rm)
    }

    /// Declares that `app` implements the sending endpoint of `path_name`
    /// (so a violation of that path may be remedied by moving `app`).
    pub fn bind_app(&mut self, path_name: &str, app: &str) {
        self.path_apps.insert(path_name.to_owned(), app.to_owned());
    }

    /// The current allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// All events so far.
    pub fn history(&self) -> &[RmEvent] {
        &self.history
    }

    /// Reacts to one monitoring tick: `events` are the QoS events it
    /// returned and `monitor` the state it left, as in
    /// `let ev = svc.tick()?; rm.react(&ev, svc.monitor())`. A violation
    /// is diagnosed into advice or no remedy, a clearance is a recovery;
    /// events of qospaths this manager was not given are passed over.
    ///
    /// The candidate search reads the rates of paths no qospath names.
    /// The service polls a device outside its demand set only once every
    /// `SURVEY_TICKS` ticks, so such a candidate may have no rate yet; it
    /// is skipped, like any candidate whose bandwidth cannot be computed.
    pub fn react(&mut self, events: &[QosEvent], monitor: &NetworkMonitor) -> Vec<RmEvent> {
        let mut span = self.tracer.span("rm.manager", "decision");
        let mut out = Vec::new();
        for event in events {
            match event {
                QosEvent::Violated {
                    path_name,
                    kind,
                    bottleneck,
                } if self.specs.contains_key(path_name) => {
                    out.push(RmEvent::ViolationDetected {
                        path_name: path_name.clone(),
                        kind: kind.clone(),
                        bottleneck: *bottleneck,
                        bottleneck_desc: monitor.topology().describe_connection(*bottleneck),
                    });
                    out.push(match self.diagnose(monitor, path_name, *bottleneck) {
                        Some(advice) => RmEvent::Advice(advice),
                        None => RmEvent::NoRemedy {
                            path_name: path_name.clone(),
                        },
                    });
                }
                QosEvent::Cleared { path_name } if self.specs.contains_key(path_name) => {
                    out.push(RmEvent::Recovered {
                        path_name: path_name.clone(),
                    });
                }
                _ => {}
            }
        }
        self.history.extend(out.iter().cloned());
        span.set_attr("events", out.len());
        out
    }

    /// Proposes the best alternative host for the app bound to a violated
    /// path: among hosts whose path to the fixed peer avoids the
    /// bottleneck connection, pick the one with maximum available
    /// bandwidth; require it to satisfy the requirement if one is set.
    fn diagnose(
        &self,
        monitor: &NetworkMonitor,
        path_name: &str,
        bottleneck: ConnId,
    ) -> Option<ReallocationAdvice> {
        let spec = self.specs.get(path_name)?;
        let app_name = self.path_apps.get(path_name)?;
        let app = self.allocation.get(app_name)?;
        if !app.movable {
            return None;
        }
        // The app sits on one endpoint; the peer is the other.
        let (from, peer) = if app.host == spec.from {
            (spec.from, spec.to)
        } else if app.host == spec.to {
            (spec.to, spec.from)
        } else {
            return None; // stale binding
        };

        let topo = monitor.topology();
        let mut best: Option<(NodeId, u64)> = None;
        for (candidate, node) in topo.nodes() {
            if !node.kind.is_host() || candidate == from || candidate == peer {
                continue;
            }
            let Ok(p) = path::find_path(topo, candidate, peer) else {
                continue;
            };
            if p.connections.contains(&bottleneck) {
                continue; // still crosses the congested segment
            }
            let Ok(bw) = monitor.path_bandwidth_of(&p) else {
                continue;
            };
            if let Some(required) = spec.min_available_bps {
                if bw.available_bps < required {
                    continue;
                }
            }
            if best.map(|(_, b)| bw.available_bps > b).unwrap_or(true) {
                best = Some((candidate, bw.available_bps));
            }
        }
        best.map(|(to, expected)| ReallocationAdvice {
            path_name: path_name.to_owned(),
            app: app_name.clone(),
            from,
            to,
            expected_available_bps: expected,
        })
    }

    /// Applies a previously issued advice to the allocation.
    pub fn apply(&mut self, advice: &ReallocationAdvice) -> Result<(), AllocationError> {
        self.allocation.migrate(&advice.app, advice.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_monitor::poll::{DeviceSnapshot, IfSample};
    use netqos_monitor::QosMonitor;
    use netqos_topology::{IfIx, NetworkTopology, NodeKind};

    /// Two switches joined by a trunk: A on sw1, C and the peer P on
    /// sw2. The path A -> P crosses the trunk, the bottleneck once it is
    /// loaded; a candidate host C reaches P within sw2 and avoids it.
    fn build() -> (NetworkTopology, NodeId, NodeId, NodeId, ConnId) {
        let mut t = NetworkTopology::new();
        let sw1 = t.add_node("sw1", NodeKind::Switch).unwrap();
        let sw2 = t.add_node("sw2", NodeKind::Switch).unwrap();
        for sw in [sw1, sw2] {
            for p in 0..3 {
                t.add_interface(sw, &format!("p{p}"), 100_000_000).unwrap();
            }
        }
        let a = t.add_node("A", NodeKind::Host).unwrap();
        t.add_interface(a, "eth0", 100_000_000).unwrap();
        let c = t.add_node("C", NodeKind::Host).unwrap();
        t.add_interface(c, "eth0", 100_000_000).unwrap();
        let p = t.add_node("P", NodeKind::Host).unwrap();
        t.add_interface(p, "eth0", 100_000_000).unwrap();
        t.connect((a, IfIx(0)), (sw1, IfIx(0))).unwrap();
        let trunk = t.connect((sw1, IfIx(2)), (sw2, IfIx(2))).unwrap();
        t.connect((c, IfIx(0)), (sw2, IfIx(0))).unwrap();
        t.connect((p, IfIx(0)), (sw2, IfIx(1))).unwrap();
        (t, a, c, p, trunk)
    }

    fn feed(m: &mut NetworkMonitor, node: NodeId, descr: &str, uptime: u32, in_octets: u32) {
        m.ingest(
            node,
            DeviceSnapshot {
                uptime_ticks: uptime,
                interfaces: vec![IfSample {
                    if_index: 1,
                    descr: descr.into(),
                    speed_bps: 100_000_000,
                    in_octets,
                    out_octets: 0,
                    in_ucast_pkts: 0,
                    out_nucast_pkts: 0,
                }],
            },
        )
        .unwrap();
    }

    fn feed_switch(m: &mut NetworkMonitor, node: NodeId, uptime: u32, trunk_octets: u32) {
        let mk = |ix: u32, in_oct: u32| IfSample {
            if_index: ix,
            descr: format!("p{}", ix - 1),
            speed_bps: 100_000_000,
            in_octets: in_oct,
            out_octets: 0,
            in_ucast_pkts: 0,
            out_nucast_pkts: 0,
        };
        m.ingest(
            node,
            DeviceSnapshot {
                uptime_ticks: uptime,
                interfaces: vec![mk(1, 0), mk(2, 0), mk(3, trunk_octets)],
            },
        )
        .unwrap();
    }

    #[test]
    fn violation_yields_advice_avoiding_bottleneck() {
        let (t, a, c, p, trunk) = build();
        let sw1 = t.node_by_name("sw1").unwrap();
        let sw2 = t.node_by_name("sw2").unwrap();
        let mut monitor = NetworkMonitor::new(t);
        let specs = vec![QosPathSpec {
            name: "ap".into(),
            from: a,
            to: p,
            min_available_bps: Some(50_000_000),
            max_utilization: None,
            application: None,
        }];
        let mut alloc = Allocation::new();
        alloc.place("tracker", a, true).unwrap();
        let mut qos = QosMonitor::new(&monitor, &specs).unwrap();
        let mut rm = ResourceManager::new(&specs, alloc);
        rm.bind_app("ap", "tracker");

        // Baselines.
        for (n, d) in [(a, "eth0"), (c, "eth0"), (p, "eth0")] {
            feed(&mut monitor, n, d, 0, 0);
        }
        feed_switch(&mut monitor, sw1, 0, 0);
        feed_switch(&mut monitor, sw2, 0, 0);
        // 1 s later: the trunk carries 60 Mb/s of cross traffic.
        for (n, d) in [(a, "eth0"), (c, "eth0"), (p, "eth0")] {
            feed(&mut monitor, n, d, 100, 0);
        }
        feed_switch(&mut monitor, sw1, 100, 7_500_000);
        feed_switch(&mut monitor, sw2, 100, 7_500_000);

        let events = rm.react(&qos.evaluate(&monitor), &monitor);
        assert!(
            matches!(&events[0], RmEvent::ViolationDetected { bottleneck, .. } if *bottleneck == trunk),
            "{events:?}"
        );
        match &events[1] {
            RmEvent::Advice(advice) => {
                assert_eq!(advice.app, "tracker");
                assert_eq!(advice.from, a);
                assert_eq!(advice.to, c, "C avoids the trunk");
                assert!(advice.expected_available_bps >= 50_000_000);
                rm.apply(&advice.clone()).unwrap();
                assert_eq!(rm.allocation().host_of("tracker").unwrap(), c);
            }
            other => panic!("expected advice, got {other:?}"),
        }
    }

    #[test]
    fn from_spec_model_builds_allocation_and_bindings() {
        let src = r#"
            host A { address 10.0.0.1; interface e { speed 10Mbps; } }
            host B { address 10.0.0.2; interface e { speed 10Mbps; } }
            connection A.e <-> B.e;
            application radar on A;
            application logger on B { pinned; }
            qospath ab from A to B { min_available 9Mbps; application radar; }
        "#;
        let model = netqos_spec::parse_and_validate(src).unwrap();
        let mut monitor = NetworkMonitor::new(model.topology.clone());
        let mut qos = QosMonitor::new(&monitor, &model.qos_paths).unwrap();
        let mut rm = ResourceManager::from_spec_model(&model).unwrap();
        assert_eq!(rm.allocation().len(), 2);
        let a = model.topology.node_by_name("A").unwrap();
        assert_eq!(rm.allocation().host_of("radar").unwrap(), a);

        // Drive a violation; the bound app is found automatically (two
        // hosts only, so the verdict is NoRemedy, proving the binding
        // resolved and diagnosis ran).
        feed(&mut monitor, a, "e", 0, 0);
        let b = model.topology.node_by_name("B").unwrap();
        feed(&mut monitor, b, "e", 0, 0);
        feed(&mut monitor, a, "e", 100, 0);
        feed(&mut monitor, b, "e", 100, 500_000); // 4 Mb/s used
        let events = rm.react(&qos.evaluate(&monitor), &monitor);
        assert!(matches!(events[0], RmEvent::ViolationDetected { .. }));
        assert!(matches!(events[1], RmEvent::NoRemedy { .. }));
    }

    #[test]
    fn no_remedy_when_no_candidate_escapes_bottleneck() {
        // Two hosts only: every alternative still crosses the same link.
        let mut t = NetworkTopology::new();
        let a = t.add_node("A", NodeKind::Host).unwrap();
        t.add_interface(a, "eth0", 10_000_000).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        t.add_interface(b, "eth0", 10_000_000).unwrap();
        t.connect((a, IfIx(0)), (b, IfIx(0))).unwrap();
        let mut monitor = NetworkMonitor::new(t);
        let specs = vec![QosPathSpec {
            name: "ab".into(),
            from: a,
            to: b,
            min_available_bps: Some(9_000_000),
            max_utilization: None,
            application: None,
        }];
        let mut alloc = Allocation::new();
        alloc.place("x", a, true).unwrap();
        let mut qos = QosMonitor::new(&monitor, &specs).unwrap();
        let mut rm = ResourceManager::new(&specs, alloc);
        rm.bind_app("ab", "x");

        feed(&mut monitor, a, "eth0", 0, 0);
        feed(&mut monitor, b, "eth0", 0, 0);
        feed(&mut monitor, a, "eth0", 100, 0);
        feed(&mut monitor, b, "eth0", 100, 500_000); // 4 Mb/s used
        let events = rm.react(&qos.evaluate(&monitor), &monitor);
        assert!(matches!(events[0], RmEvent::ViolationDetected { .. }));
        assert!(matches!(events[1], RmEvent::NoRemedy { .. }));
    }

    #[test]
    fn recovery_event_emitted() {
        let (t, a, _c, p, _) = build();
        let sw1 = t.node_by_name("sw1").unwrap();
        let sw2 = t.node_by_name("sw2").unwrap();
        let c = t.node_by_name("C").unwrap();
        let mut monitor = NetworkMonitor::new(t);
        let specs = vec![QosPathSpec {
            name: "ap".into(),
            from: a,
            to: p,
            min_available_bps: Some(50_000_000),
            max_utilization: None,
            application: None,
        }];
        let mut qos = QosMonitor::new(&monitor, &specs).unwrap();
        let mut rm = ResourceManager::new(&specs, Allocation::new());

        for (n, d) in [(a, "eth0"), (c, "eth0"), (p, "eth0")] {
            feed(&mut monitor, n, d, 0, 0);
        }
        feed_switch(&mut monitor, sw1, 0, 0);
        feed_switch(&mut monitor, sw2, 0, 0);
        for (n, d) in [(a, "eth0"), (c, "eth0"), (p, "eth0")] {
            feed(&mut monitor, n, d, 100, 0);
        }
        feed_switch(&mut monitor, sw1, 100, 7_500_000);
        feed_switch(&mut monitor, sw2, 100, 7_500_000);
        let events = rm.react(&qos.evaluate(&monitor), &monitor);
        // No app bound: violation + no remedy.
        assert_eq!(events.len(), 2);

        // Load stops.
        for (n, d) in [(a, "eth0"), (c, "eth0"), (p, "eth0")] {
            feed(&mut monitor, n, d, 200, 0);
        }
        feed_switch(&mut monitor, sw1, 200, 7_500_000);
        feed_switch(&mut monitor, sw2, 200, 7_500_000);
        let events = rm.react(&qos.evaluate(&monitor), &monitor);
        assert_eq!(
            events,
            vec![RmEvent::Recovered {
                path_name: "ap".into()
            }]
        );
        assert_eq!(rm.history().len(), 3);
    }

    #[test]
    fn events_of_paths_it_was_not_given_are_passed_over() {
        let (t, ..) = build();
        let monitor = NetworkMonitor::new(t);
        let mut rm = ResourceManager::new(&[], Allocation::new());
        let cleared = QosEvent::Cleared {
            path_name: "elsewhere".into(),
        };
        assert!(rm.react(&[cleared], &monitor).is_empty());
        assert!(rm.history().is_empty());
    }
}
