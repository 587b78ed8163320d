//! Monitor error type.

use std::fmt;

/// Errors from the monitoring pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorError {
    /// SNMP-level failure talking to an agent.
    Snmp(String),
    /// A response was missing an object the monitor asked for.
    MissingObject(String),
    /// A response object had the wrong type.
    WrongType { oid: String, got: &'static str },
    /// A snapshot references an interface the topology does not know.
    UnknownInterface { node: String, descr: String },
    /// Topology/path failure.
    Topology(String),
    /// Simulator failure while driving the in-sim runtime.
    Sim(String),
    /// The poll timed out (no response within the deadline).
    Timeout { node: String },
    /// The node is not SNMP-capable, so it cannot be polled.
    NotPollable(String),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Snmp(msg) => write!(f, "SNMP failure: {msg}"),
            MonitorError::MissingObject(oid) => write!(f, "response missing object {oid}"),
            MonitorError::WrongType { oid, got } => {
                write!(f, "object {oid} has unexpected type {got}")
            }
            MonitorError::UnknownInterface { node, descr } => {
                write!(f, "agent `{node}` reported unknown interface `{descr}`")
            }
            MonitorError::Topology(msg) => write!(f, "topology failure: {msg}"),
            MonitorError::Sim(msg) => write!(f, "simulator failure: {msg}"),
            MonitorError::Timeout { node } => write!(f, "poll of `{node}` timed out"),
            MonitorError::NotPollable(node) => {
                write!(f, "node `{node}` has no SNMP agent to poll")
            }
        }
    }
}

impl std::error::Error for MonitorError {}

impl MonitorError {
    /// An SNMP failure while talking to the agent of `node`. Silence keeps
    /// its type (a poll round skips a [`MonitorError::Timeout`] and tries
    /// again next round); everything else is [`MonitorError::Snmp`].
    pub fn from_snmp(e: netqos_snmp::SnmpError, node: &str) -> Self {
        match e {
            netqos_snmp::SnmpError::Timeout => MonitorError::Timeout {
                node: node.to_owned(),
            },
            e => MonitorError::Snmp(e.to_string()),
        }
    }
}

impl From<netqos_topology::TopologyError> for MonitorError {
    fn from(e: netqos_topology::TopologyError) -> Self {
        MonitorError::Topology(e.to_string())
    }
}

impl From<netqos_sim::SimError> for MonitorError {
    fn from(e: netqos_sim::SimError) -> Self {
        MonitorError::Sim(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e = MonitorError::from_snmp(netqos_snmp::SnmpError::NotAResponse, "S1");
        assert!(e.to_string().contains("SNMP"));
        let e = MonitorError::from_snmp(netqos_snmp::SnmpError::Timeout, "S1");
        assert_eq!(e, MonitorError::Timeout { node: "S1".into() });
        let e: MonitorError = netqos_topology::TopologyError::NoSuchNodeName("X".into()).into();
        assert!(e.to_string().contains("X"));
    }
}
