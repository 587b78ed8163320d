//! Error types for topology construction and queries.

use crate::ids::{ConnId, IfIx, NodeId};
use std::fmt;

/// Errors produced while building or querying a
/// [`NetworkTopology`](crate::graph::NetworkTopology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node with the same name already exists.
    DuplicateNodeName(String),
    /// An interface with the same local name already exists on the node.
    DuplicateInterfaceName { node: String, interface: String },
    /// The referenced node id is out of range.
    NoSuchNode(NodeId),
    /// The referenced node name does not exist.
    NoSuchNodeName(String),
    /// The referenced connection id is out of range.
    NoSuchConnection(ConnId),
    /// The referenced interface index is out of range for the node.
    NoSuchInterface { node: String, ifix: IfIx },
    /// The referenced interface name does not exist on the node.
    NoSuchInterfaceName { node: String, interface: String },
    /// The interface is already part of another connection; the LAN model
    /// requires connections to be 1-to-1 (paper §3.2).
    InterfaceAlreadyConnected { node: String, interface: String },
    /// Both ends of a connection are the same interface.
    SelfConnection { node: String, interface: String },
    /// No communication path exists between the two nodes.
    NoPath { from: String, to: String },
    /// More than one path exists and the caller required uniqueness.
    AmbiguousPath { from: String, to: String },
    /// A rate was required for an interface but the provider had none.
    MissingRate { node: String, ifix: IfIx },
    /// An interface has a zero speed, so bandwidth math is undefined.
    ZeroSpeed { node: String, interface: String },
    /// Path endpoints must be hosts, not network devices.
    EndpointNotHost(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateNodeName(name) => {
                write!(f, "duplicate node name `{name}`")
            }
            TopologyError::DuplicateInterfaceName { node, interface } => {
                write!(f, "duplicate interface `{interface}` on node `{node}`")
            }
            TopologyError::NoSuchNode(id) => write!(f, "no such node {id}"),
            TopologyError::NoSuchNodeName(name) => write!(f, "no such node `{name}`"),
            TopologyError::NoSuchConnection(id) => write!(f, "no such connection {id}"),
            TopologyError::NoSuchInterface { node, ifix } => {
                write!(f, "node `{node}` has no interface {ifix}")
            }
            TopologyError::NoSuchInterfaceName { node, interface } => {
                write!(f, "node `{node}` has no interface named `{interface}`")
            }
            TopologyError::InterfaceAlreadyConnected { node, interface } => {
                write!(
                    f,
                    "interface `{node}.{interface}` is already connected; connections must be 1-to-1"
                )
            }
            TopologyError::SelfConnection { node, interface } => {
                write!(f, "cannot connect `{node}.{interface}` to itself")
            }
            TopologyError::NoPath { from, to } => {
                write!(f, "no communication path from `{from}` to `{to}`")
            }
            TopologyError::AmbiguousPath { from, to } => {
                write!(f, "multiple communication paths from `{from}` to `{to}`")
            }
            TopologyError::MissingRate { node, ifix } => {
                write!(f, "no traffic rate available for `{node}` {ifix}")
            }
            TopologyError::ZeroSpeed { node, interface } => {
                write!(f, "interface `{node}.{interface}` has zero speed")
            }
            TopologyError::EndpointNotHost(name) => {
                write!(f, "path endpoint `{name}` is not a host")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_names() {
        let e = TopologyError::DuplicateNodeName("L".into());
        assert!(e.to_string().contains("`L`"));
        let e = TopologyError::InterfaceAlreadyConnected {
            node: "sw".into(),
            interface: "p1".into(),
        };
        assert!(e.to_string().contains("sw.p1"));
        assert!(e.to_string().contains("1-to-1"));
    }
}
