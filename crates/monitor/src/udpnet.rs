//! Monitoring real SNMP agents over UDP — the paper's deployment, and its
//! future-work item "distributed network monitoring".
//!
//! [`UdpNetwork`] is the [`Network`] a
//! [`MonitoringService`](crate::service::MonitoringService) runs over when
//! the agents are real: one socket for every agent, the [`Wire`] the
//! round of polls posts each agent's request on and collects the answers
//! from, with the simulator's timeout and retransmissions, and wall time
//! since construction as its clock.

use crate::error::MonitorError;
use crate::network::{Agents, Network, Wire, TRAP_PORT};
use crate::telemetry::MonitorTelemetry;
use netqos_sim::packet::SNMP_PORT;
use netqos_sim::time::SimTime;
use netqos_sim::Ipv4Addr;
use netqos_snmp::SnmpError;
use netqos_spec::SpecModel;
use netqos_topology::NodeId;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// The agents of a specification, polled over real UDP sockets.
pub struct UdpNetwork {
    model: SpecModel,
    agents: Agents,
    /// The manager's one socket, to every agent.
    socket: UdpSocket,
    /// The address of each node's agent, indexed by node id; `None` for a
    /// node without one. IPv4 addresses are IPv6-mapped on an IPv6 socket,
    /// as the socket reports their senders.
    addrs: Vec<Option<SocketAddr>>,
    /// Receive buffer, one maximum-size datagram, reused by every answer.
    buffer: Vec<u8>,
    /// Where the clock reads zero.
    origin: Instant,
}

/// [`UdpNetwork`]'s socket as the [`Wire`] to its agents: each request
/// goes to its agent's address, and every answer comes back into one
/// buffer.
pub struct UdpWire<'a> {
    socket: &'a UdpSocket,
    addrs: &'a [Option<SocketAddr>],
    buffer: &'a mut [u8],
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
        let addr = |node: NodeId, name: &str| {
            let addr = addrs.get(&node).copied();
            addr.ok_or_else(|| {
                MonitorError::Topology(format!("the agent of `{name}` has no address"))
            })
        };
        let mut addrs: Vec<Option<SocketAddr>> = (model.topology.nodes())
            .map(|(node, n)| agents.has_agent(node).then(|| addr(node, &n.name)))
            .map(Option::transpose)
            .collect::<Result<_, MonitorError>>()?;
        // One socket reaches every agent: an IPv6 one (dual-stack) as soon
        // as one agent needs it.
        let v6 = addrs.iter().flatten().any(SocketAddr::is_ipv6);
        if v6 {
            for addr in addrs.iter_mut().flatten() {
                if let SocketAddr::V4(v4) = *addr {
                    *addr = SocketAddr::new(v4.ip().to_ipv6_mapped().into(), v4.port());
                }
            }
        }
        let bind = if v6 { "[::]:0" } else { "0.0.0.0:0" };
        let socket = UdpSocket::bind(bind)
            .map_err(|e| MonitorError::from_snmp(SnmpError::Transport(e.to_string()), bind))?;
        Ok(UdpNetwork {
            model,
            agents,
            socket,
            addrs,
            buffer: vec![0; 65_535],
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

/// Wall time since `origin`.
fn since(origin: Instant) -> SimTime {
    SimTime::from_micros(origin.elapsed().as_micros() as u64)
}

impl Wire for UdpWire<'_> {
    type Addr = SocketAddr;

    fn now(&self) -> SimTime {
        since(self.origin)
    }

    fn address(&self, node: NodeId) -> Option<SocketAddr> {
        self.addrs.get(node.index()).copied().flatten()
    }

    /// A send the socket refuses fails the poll: an SNMP failure.
    fn post(&mut self, to: SocketAddr, request: &[u8]) -> Result<(), MonitorError> {
        match self.socket.send_to(request, to) {
            Ok(_) => Ok(()),
            Err(e) => Err(MonitorError::Snmp(
                SnmpError::Transport(e.to_string()).to_string(),
            )),
        }
    }

    fn collect(
        &mut self,
        deadline: SimTime,
        land: impl FnOnce(SocketAddr, &[u8], SimTime),
    ) -> bool {
        let remaining = deadline.duration_since(self.now());
        let remaining = Duration::from_micros(remaining.as_micros());
        if remaining.is_zero() || self.socket.set_read_timeout(Some(remaining)).is_err() {
            return false;
        }
        match self.socket.recv_from(self.buffer) {
            Ok((n, from)) => {
                let at = self.now();
                land(from, &self.buffer[..n], at);
                true
            }
            Err(_) => false,
        }
    }
}

impl Network for UdpNetwork {
    fn now(&self) -> SimTime {
        since(self.origin)
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

    type Wire<'a> = UdpWire<'a>;

    fn wire(&mut self) -> (UdpWire<'_>, &mut Agents, &SpecModel) {
        let wire = UdpWire {
            socket: &self.socket,
            addrs: &self.addrs,
            buffer: &mut self.buffer,
            origin: self.origin,
        };
        (wire, &mut self.agents, &self.model)
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
