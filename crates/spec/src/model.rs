//! Validation and conversion: AST → [`SpecModel`].
//!
//! A [`SpecModel`] is what the rest of the system consumes: a validated
//! [`NetworkTopology`], the per-node IP addresses (needed to build the
//! simulator and to address SNMP agents), and the QoS-path requirements
//! for the resource manager.

use crate::ast::{EndpointRef, SpecFile};
use crate::error::{Span, SpecError};
use netqos_topology::{NetworkTopology, NodeId, TopologyError};
use std::collections::{HashMap, HashSet};

/// A QoS requirement on a host-to-host communication path.
#[derive(Debug, Clone, PartialEq)]
pub struct QosPathSpec {
    /// Path name.
    pub name: String,
    /// Source host node.
    pub from: NodeId,
    /// Destination host node.
    pub to: NodeId,
    /// Minimum acceptable available bandwidth (bits/s).
    pub min_available_bps: Option<u64>,
    /// Maximum acceptable per-connection utilisation fraction.
    pub max_utilization: Option<f64>,
    /// Declared application implementing the movable endpoint.
    pub application: Option<String>,
}

/// A validated real-time application declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Host node it runs on.
    pub host: NodeId,
    /// Whether the RM may relocate it.
    pub movable: bool,
}

/// The validated output of a specification file.
#[derive(Debug, Clone)]
pub struct SpecModel {
    /// The network topology.
    pub topology: NetworkTopology,
    /// Node IP addresses (hosts and managed devices), by node id.
    pub addresses: HashMap<NodeId, String>,
    /// Operating-system annotations, by node id.
    pub os: HashMap<NodeId, String>,
    /// QoS path requirements.
    pub qos_paths: Vec<QosPathSpec>,
    /// Real-time applications and their initial allocation.
    pub applications: Vec<AppSpec>,
}

impl SpecModel {
    /// Node ids of every SNMP-capable node.
    pub fn snmp_nodes(&self) -> Vec<NodeId> {
        self.topology
            .nodes()
            .filter(|(_, n)| n.snmp_capable)
            .map(|(id, _)| id)
            .collect()
    }
}

fn convert_topology_error(e: TopologyError, span: Span) -> SpecError {
    match e {
        TopologyError::DuplicateNodeName(name) => SpecError::DuplicateNode { span, name },
        TopologyError::DuplicateInterfaceName { node, interface } => {
            SpecError::DuplicateInterface {
                span,
                node,
                interface,
            }
        }
        other => SpecError::Topology(other.to_string()),
    }
}

/// Validates an AST and lowers it to a [`SpecModel`].
pub fn validate(file: &SpecFile) -> Result<SpecModel, SpecError> {
    let mut topology = NetworkTopology::new();
    let mut addresses = HashMap::new();
    let mut os = HashMap::new();

    for node in &file.nodes {
        let id = topology
            .add_node(&node.name, node.kind)
            .map_err(|e| convert_topology_error(e, node.span))?;
        if let Some(addr) = &node.address {
            addresses.insert(id, addr.clone());
        }
        if let Some(o) = &node.os {
            os.insert(id, o.clone());
        }
        if let Some(community) = &node.snmp_community {
            topology
                .set_snmp(id, community)
                .map_err(|e| convert_topology_error(e, node.span))?;
        }
        for iface in &node.interfaces {
            let speed =
                iface
                    .speed_bps
                    .or(node.default_speed)
                    .ok_or_else(|| SpecError::MissingSpeed {
                        span: iface.span,
                        node: node.name.clone(),
                        interface: iface.local_name.clone(),
                    })?;
            topology
                .add_interface(id, &iface.local_name, speed)
                .map_err(|e| convert_topology_error(e, iface.span))?;
        }
    }

    let resolve =
        |ep: &EndpointRef, span: Span| -> Result<(NodeId, netqos_topology::IfIx), SpecError> {
            let node = topology
                .node_by_name(&ep.node)
                .map_err(|_| SpecError::UnknownEndpoint {
                    span,
                    endpoint: ep.to_string(),
                })?;
            let ifix = topology
                .interface_by_name(node, &ep.interface)
                .map_err(|_| SpecError::UnknownEndpoint {
                    span,
                    endpoint: ep.to_string(),
                })?;
            Ok((node, ifix))
        };

    // Resolve endpoints first (immutably), then connect.
    let mut resolved = Vec::with_capacity(file.connections.len());
    let mut used: HashSet<(NodeId, netqos_topology::IfIx)> = HashSet::new();
    for conn in &file.connections {
        let a = resolve(&conn.a, conn.span)?;
        let b = resolve(&conn.b, conn.span)?;
        for (ep, parsed) in [(&conn.a, a), (&conn.b, b)] {
            if !used.insert(parsed) {
                return Err(SpecError::InterfaceReused {
                    span: conn.span,
                    endpoint: ep.to_string(),
                });
            }
        }
        resolved.push((a, b, conn.span));
    }
    for (a, b, span) in resolved {
        topology
            .connect(a, b)
            .map_err(|e| convert_topology_error(e, span))?;
    }

    // Applications: unique names on declared hosts.
    let mut applications = Vec::with_capacity(file.applications.len());
    let mut app_names: HashSet<&str> = HashSet::new();
    for a in &file.applications {
        if !app_names.insert(&a.name) {
            return Err(SpecError::DuplicateProperty {
                span: a.span,
                name: format!("application {}", a.name),
            });
        }
        let host = topology
            .node_by_name(&a.host)
            .map_err(|_| SpecError::QosEndpointNotHost {
                span: a.span,
                name: a.host.clone(),
            })?;
        if !topology
            .node(host)
            .map(|n| n.kind.is_host())
            .unwrap_or(false)
        {
            return Err(SpecError::QosEndpointNotHost {
                span: a.span,
                name: a.host.clone(),
            });
        }
        applications.push(AppSpec {
            name: a.name.clone(),
            host,
            movable: !a.pinned,
        });
    }

    let mut qos_paths = Vec::with_capacity(file.qos_paths.len());
    for q in &file.qos_paths {
        let resolve_host = |name: &str| -> Result<NodeId, SpecError> {
            let id = topology
                .node_by_name(name)
                .map_err(|_| SpecError::QosEndpointNotHost {
                    span: q.span,
                    name: name.to_owned(),
                })?;
            if !topology.node(id).map(|n| n.kind.is_host()).unwrap_or(false) {
                return Err(SpecError::QosEndpointNotHost {
                    span: q.span,
                    name: name.to_owned(),
                });
            }
            Ok(id)
        };
        if let Some(app) = &q.application {
            if !applications.iter().any(|a| &a.name == app) {
                return Err(SpecError::UnknownEndpoint {
                    span: q.span,
                    endpoint: format!("application {app}"),
                });
            }
        }
        qos_paths.push(QosPathSpec {
            name: q.name.clone(),
            from: resolve_host(&q.from)?,
            to: resolve_host(&q.to)?,
            min_available_bps: q.min_available_bps,
            max_utilization: q.max_utilization,
            application: q.application.clone(),
        });
    }

    Ok(SpecModel {
        topology,
        addresses,
        os,
        qos_paths,
        applications,
    })
}

/// One-shot: parse source text and validate it.
pub fn parse_and_validate(src: &str) -> Result<SpecModel, SpecError> {
    crate::parser::parse(src).and_then(|ast| validate(&ast))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        host A { address 10.0.0.1; snmp community "pub"; interface eth0 { speed 100Mbps; } }
        device sw switch { speed 100Mbps; interface p1; interface p2; }
        host B { address 10.0.0.2; interface eth0 { speed 10Mbps; } }
        connection A.eth0 <-> sw.p1;
        connection sw.p2 <-> B.eth0;
        qospath ab from A to B { min_available 1Mbps; }
    "#;

    #[test]
    fn validates_good_spec() {
        let m = parse_and_validate(GOOD).unwrap();
        assert_eq!(m.topology.node_count(), 3);
        assert_eq!(m.topology.connection_count(), 2);
        let a = m.topology.node_by_name("A").unwrap();
        assert!(m.topology.node(a).unwrap().snmp_capable);
        assert_eq!(m.addresses[&a], "10.0.0.1");
        assert_eq!(m.qos_paths.len(), 1);
        assert_eq!(m.snmp_nodes(), vec![a]);
    }

    #[test]
    fn default_speed_flows_to_interfaces() {
        let m = parse_and_validate("device sw switch { speed 100Mbps; interface p1; }").unwrap();
        let sw = m.topology.node_by_name("sw").unwrap();
        assert_eq!(
            m.topology.node(sw).unwrap().interfaces[0].speed_bps,
            100_000_000
        );
    }

    #[test]
    fn missing_speed_rejected() {
        let err = parse_and_validate("host A { interface eth0; }").unwrap_err();
        assert!(matches!(err, SpecError::MissingSpeed { .. }));
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let err =
            parse_and_validate("host A { interface e { speed 1Mbps; } } connection A.e <-> B.e;")
                .unwrap_err();
        assert!(matches!(err, SpecError::UnknownEndpoint { .. }));
        let err = parse_and_validate(
            "host A { interface e { speed 1Mbps; } } host B { interface e { speed 1Mbps; } } connection A.e <-> B.zz;",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::UnknownEndpoint { .. }));
    }

    #[test]
    fn interface_reuse_rejected() {
        let err = parse_and_validate(
            r#"
            host A { interface e { speed 1Mbps; } }
            host B { interface e { speed 1Mbps; } }
            host C { interface e { speed 1Mbps; } }
            connection A.e <-> B.e;
            connection A.e <-> C.e;
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::InterfaceReused { .. }));
    }

    #[test]
    fn duplicate_node_rejected_with_span() {
        let err = parse_and_validate("host A { }\nhost A { }").unwrap_err();
        match err {
            SpecError::DuplicateNode { span, name } => {
                assert_eq!(name, "A");
                assert_eq!(span.line, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qos_endpoint_must_be_host() {
        let err =
            parse_and_validate("device sw switch { } qospath q from sw to sw { }").unwrap_err();
        assert!(matches!(err, SpecError::QosEndpointNotHost { .. }));
    }

    #[test]
    fn os_annotation_collected() {
        let m = parse_and_validate("host N1 { os \"Windows NT\"; }").unwrap();
        let n1 = m.topology.node_by_name("N1").unwrap();
        assert_eq!(m.os[&n1], "Windows NT");
    }
}

#[cfg(test)]
mod app_tests {
    use super::*;

    const WITH_APPS: &str = r#"
        host A { address 10.0.0.1; interface e { speed 10Mbps; } }
        host B { address 10.0.0.2; interface e { speed 10Mbps; } }
        connection A.e <-> B.e;
        application radar on A;
        application logger on B { pinned; }
        qospath ab from A to B { min_available 1Mbps; application radar; }
    "#;

    #[test]
    fn applications_validated_and_collected() {
        let m = parse_and_validate(WITH_APPS).unwrap();
        assert_eq!(m.applications.len(), 2);
        let radar = &m.applications[0];
        assert_eq!(radar.name, "radar");
        assert!(radar.movable);
        assert_eq!(radar.host, m.topology.node_by_name("A").unwrap());
        assert!(!m.applications[1].movable);
        assert_eq!(m.qos_paths[0].application.as_deref(), Some("radar"));
    }

    #[test]
    fn duplicate_application_rejected() {
        let err =
            parse_and_validate("host A { } application x on A; application x on A;").unwrap_err();
        assert!(matches!(err, SpecError::DuplicateProperty { .. }));
    }

    #[test]
    fn application_on_non_host_rejected() {
        let err = parse_and_validate("device sw switch { } application x on sw;").unwrap_err();
        assert!(matches!(err, SpecError::QosEndpointNotHost { .. }));
        let err = parse_and_validate("host A { } application x on ghost;").unwrap_err();
        assert!(matches!(err, SpecError::QosEndpointNotHost { .. }));
    }

    #[test]
    fn qospath_referencing_unknown_application_rejected() {
        let err = parse_and_validate(
            "host A { } host B { } qospath p from A to B { application ghost; }",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::UnknownEndpoint { .. }));
    }

    #[test]
    fn application_round_trips_through_writer() {
        let ast = crate::parser::parse(WITH_APPS).unwrap();
        let text = crate::writer::write_spec(&ast);
        let back = crate::parser::parse(&text).unwrap();
        assert_eq!(ast.applications.len(), back.applications.len());
        for (a, b) in ast.applications.iter().zip(&back.applications) {
            assert_eq!((&a.name, &a.host, a.pinned), (&b.name, &b.host, b.pinned));
        }
        assert_eq!(ast.qos_paths[0].application, back.qos_paths[0].application);
    }
}
