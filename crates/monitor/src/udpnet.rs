//! Monitoring real SNMP agents over UDP — the paper's deployment, and its
//! future-work item "distributed network monitoring".
//!
//! [`UdpNetwork`] is the [`Network`] a
//! [`MonitoringService`](crate::service::MonitoringService) runs over when
//! the agents are real: one connected [`UdpTransport`] per agent, lent to
//! the one manager for each conversation with the simulator's timeout and
//! retransmissions, and wall time since construction as its clock.

use crate::error::MonitorError;
use crate::network::{AgentLink, Agents, Conversation, Network};
use crate::network::{POLL_RETRIES, POLL_TIMEOUT, TRAP_PORT};
use crate::telemetry::MonitorTelemetry;
use netqos_sim::packet::SNMP_PORT;
use netqos_sim::time::SimTime;
use netqos_sim::Ipv4Addr;
use netqos_snmp::transport::UdpTransport;
use netqos_spec::SpecModel;
use netqos_topology::NodeId;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// The agents of a specification, polled over real UDP sockets.
pub struct UdpNetwork {
    model: SpecModel,
    agents: Agents,
    /// The socket to each node's agent, indexed by node id; `None` for a
    /// node without one.
    links: Vec<Option<UdpTransport>>,
    /// Where the clock reads zero.
    origin: Instant,
}

impl UdpNetwork {
    /// Polls the agents of `model` at the addresses `addrs` gives them
    /// (see [`UdpNetwork::spec_addresses`]); every node with an agent must
    /// have one. Its polls count into a registry of its own.
    pub fn new(
        model: SpecModel,
        addrs: &HashMap<NodeId, SocketAddr>,
    ) -> Result<Self, MonitorError> {
        let agents = Agents::new(&model, MonitorTelemetry::private());
        let link = |node: NodeId, name: &str| {
            let addr = addrs.get(&node).ok_or_else(|| {
                MonitorError::Topology(format!("the agent of `{name}` has no address"))
            })?;
            let mut link =
                UdpTransport::connect(addr).map_err(|e| MonitorError::from_snmp(e, name))?;
            link.set_timeout(Duration::from_micros(POLL_TIMEOUT.as_micros()));
            link.set_retries(POLL_RETRIES);
            Ok(link)
        };
        let links = (model.topology.nodes())
            .map(|(node, n)| agents.has_agent(node).then(|| link(node, &n.name)))
            .map(Option::transpose)
            .collect::<Result<_, MonitorError>>()?;
        Ok(UdpNetwork {
            model,
            agents,
            links,
            origin: Instant::now(),
        })
    }

    /// The `address` of every node of `model` that declares one, at the
    /// SNMP port.
    pub fn spec_addresses(model: &SpecModel) -> HashMap<NodeId, SocketAddr> {
        let addresses = model.addresses.iter();
        addresses
            .filter_map(|(&node, addr)| {
                Some((node, SocketAddr::new(addr.parse().ok()?, SNMP_PORT)))
            })
            .collect()
    }
}

impl Network for UdpNetwork {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.origin.elapsed().as_micros() as u64)
    }

    /// Sleeps until the clock reads `t`.
    fn advance_to(&mut self, t: SimTime) {
        let due = self.origin + Duration::from_micros(t.as_micros());
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    }

    fn model(&self) -> &SpecModel {
        &self.model
    }

    fn agents(&self) -> &Agents {
        &self.agents
    }

    fn agents_mut(&mut self) -> &mut Agents {
        &mut self.agents
    }

    type Link<'a> = &'a mut UdpTransport;

    fn conversation(
        &mut self,
        node: NodeId,
    ) -> Result<Conversation<'_, &mut UdpTransport>, MonitorError> {
        let link = self.links.get_mut(node.index()).and_then(Option::as_mut);
        self.agents.conversation(&self.model, node, link)
    }

    fn send_trap(&mut self, dst: Ipv4Addr, trap: &[u8]) {
        if let Ok(socket) = UdpSocket::bind("0.0.0.0:0") {
            let dst = std::net::Ipv4Addr::from(dst.octets());
            let _ = socket.send_to(trap, (dst, TRAP_PORT));
        }
    }

    /// Traps name no agent address: the monitor's own is not known.
    fn trap_agent_addr(&self) -> [u8; 4] {
        [0; 4]
    }
}

impl AgentLink for &mut UdpTransport {
    fn take_retransmits(&mut self) -> u64 {
        UdpTransport::take_retransmits(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_addresses_put_each_declared_address_at_the_snmp_port() {
        let model = netqos_spec::parse_and_validate(
            r#"
            host A { address 127.0.0.1; snmp community "public"; interface eth0 { speed 10Mbps; } }
            host B { snmp community "public"; interface eth0 { speed 10Mbps; } }
            connection A.eth0 <-> B.eth0;
            "#,
        )
        .unwrap();
        let a = model.topology.node_by_name("A").unwrap();
        let addrs = UdpNetwork::spec_addresses(&model);
        assert_eq!(addrs.len(), 1);
        assert_eq!(addrs[&a], "127.0.0.1:161".parse().unwrap());
        // B has an agent and no address: the network cannot be built.
        let refused = UdpNetwork::new(model, &addrs).err().unwrap();
        assert_eq!(
            refused,
            MonitorError::Topology("the agent of `B` has no address".into())
        );
    }
}
