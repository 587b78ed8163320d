//! The seam between the service and what it polls: a [`Network`] keeps a
//! clock, lends the transport to one agent for a [`Conversation`], sends
//! traps and, if it can see its own wires, records the truth the monitor
//! is judged by — [`SimNetwork`](crate::simnet::SimNetwork) through the
//! simulator, [`UdpNetwork`](crate::udpnet::UdpNetwork) to real agents.
//! What is said and counted over that transport — the poll, the audit's
//! two walks, the retransmit/timeout ledger — and the rest of a poll are
//! written once, here, over [`Agents`].

use crate::error::MonitorError;
use crate::monitor::NetworkMonitor;
use crate::poll::{DeviceSnapshot, PollPlan};
use crate::telemetry::MonitorTelemetry;
use netqos_sim::time::{SimDuration, SimTime};
use netqos_sim::Ipv4Addr;
use netqos_snmp::client::{Manager, Session};
use netqos_snmp::mib2::bridge::{self, FdbEntry};
use netqos_snmp::mib2::interfaces::{self as ifc, column};
use netqos_snmp::transport::Transport;
use netqos_snmp::SnmpValue;
use netqos_spec::SpecModel;
use netqos_telemetry::Tracer;
use netqos_topology::bandwidth::RateProvider;
use netqos_topology::NodeId;
use std::collections::HashMap;

/// SNMP trap port.
pub const TRAP_PORT: u16 = 162;

/// How long one poll attempt waits for its answer, on every network.
pub(crate) const POLL_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Retransmissions per poll on timeout (matching the UDP transport's
/// default of 2 retries).
pub(crate) const POLL_RETRIES: u32 = 2;

/// A network's agents and what polling them shares.
pub struct Agents {
    /// The agent of each node, indexed by node id.
    targets: Vec<Option<Target>>,
    /// The nodes with an agent, in node order: the poll order.
    pollable: Vec<NodeId>,
    /// One plan per interface count among the agents, and beside each a
    /// snapshot of its shape that [`Network::poll_nodes`] parses into.
    plans: Vec<(PollPlan, DeviceSnapshot)>,
    /// The one manager behind every poll: one request-id sequence across
    /// all devices. Its polls are counted by `telemetry`, not by itself.
    manager: Manager,
    telemetry: MonitorTelemetry,
    tracer: Tracer,
}

/// How to poll one node's agent.
struct Target {
    community: String,
    /// Index into `Agents::plans`, shared with every other node of the
    /// same interface count.
    plan: usize,
}

impl Agents {
    /// The agents of `model` — every SNMP-capable node but a shared
    /// medium — counting their polls into `telemetry`.
    pub(crate) fn new(model: &SpecModel, telemetry: MonitorTelemetry) -> Self {
        let mut plans = Vec::new();
        let mut plan_of = HashMap::new();
        // `nodes()` yields node ids in order from 0.
        let targets: Vec<Option<Target>> = (model.topology.nodes())
            .map(|(_, node)| {
                let managed = node.snmp_capable && !node.kind.is_shared_medium();
                managed.then(|| {
                    let if_count = node.interfaces.len() as u32;
                    let plan = *plan_of.entry(if_count).or_insert_with(|| {
                        plans.push((PollPlan::new(if_count), DeviceSnapshot::default()));
                        plans.len() - 1
                    });
                    Target {
                        community: node.snmp_community.clone(),
                        plan,
                    }
                })
            })
            .collect();
        let pollable = (model.topology.nodes())
            .map(|(node, _)| node)
            .filter(|node| targets[node.index()].is_some())
            .collect();
        Agents {
            targets,
            pollable,
            plans,
            manager: Manager::default(),
            telemetry,
            tracer: Tracer::disabled(),
        }
    }

    /// All SNMP-pollable nodes, in node order.
    pub(crate) fn pollable(&self) -> &[NodeId] {
        &self.pollable
    }

    /// The poll telemetry (and through it, the registry everything on
    /// this network records into).
    pub(crate) fn telemetry(&self) -> &MonitorTelemetry {
        &self.telemetry
    }

    /// Routes the poll spans, and the manager's, into `tracer`.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.manager.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The agent of `node`, if it has one.
    fn target(&self, node: NodeId) -> Option<&Target> {
        self.targets.get(node.index()).and_then(Option::as_ref)
    }

    /// Whether `node` has an agent.
    pub(crate) fn has_agent(&self, node: NodeId) -> bool {
        self.target(node).is_some()
    }

    /// A conversation with `node`'s agent over `link`, the transport its
    /// network lends (`None` where it has none).
    pub(crate) fn conversation<'a, L>(
        &'a mut self,
        model: &'a SpecModel,
        node: NodeId,
        link: Option<L>,
    ) -> Result<Conversation<'a, L>, MonitorError> {
        let n = model.topology.node(node);
        let target = self.targets.get(node.index()).and_then(Option::as_ref);
        let (Ok(n), Some(link), Some(target)) = (n.as_ref(), link, target) else {
            let name = n.map_or_else(|_| node.to_string(), |n| n.name.clone());
            return Err(MonitorError::NotPollable(name));
        };
        Ok(Conversation {
            link,
            manager: &mut self.manager,
            community: &target.community,
            plan: &self.plans[target.plan].0,
            name: &n.name,
            telemetry: &self.telemetry,
        })
    }

    /// Counts a finished poll: a success, or a failure of a device that
    /// answered (the ledger counts silence).
    fn count(&self, polled: &Result<(), MonitorError>) {
        match polled {
            Ok(()) => self.telemetry.polls.inc(),
            Err(_) if answered(polled) => self.telemetry.poll_failures.inc(),
            Err(_) => {}
        }
    }
}

/// Whether anything came back to a poll: not silence, not a request the
/// network refused to send, not a node without an agent.
fn answered(polled: &Result<(), MonitorError>) -> bool {
    use MonitorError::{NotPollable, Sim, Timeout};
    !matches!(polled, Err(Timeout { .. } | Sim(_) | NotPollable(_)))
}

/// The transport a [`Network`] lends for one conversation with an agent.
pub trait AgentLink: Transport {
    /// Requests sent again after a silent attempt since the last call.
    fn take_retransmits(&mut self) -> u64;

    /// The `result` of a conversation over this link, as the network sees it.
    fn checked<R>(self, result: Result<R, MonitorError>) -> Result<R, MonitorError>
    where
        Self: Sized,
    {
        result
    }
}

/// One conversation with one node's agent ([`Network::conversation`]):
/// the transport its network lends, and what [`Agents`] keeps for it.
pub struct Conversation<'a, L> {
    pub(crate) link: L,
    manager: &'a mut Manager,
    community: &'a str,
    plan: &'a PollPlan,
    name: &'a str,
    telemetry: &'a MonitorTelemetry,
}

impl<L: AgentLink> Conversation<'_, L> {
    /// `talk` to the agent (with its poll plan and name), then the one
    /// ledger: the link's retransmissions are added up, and silence is one
    /// timeout.
    fn talk<R>(
        mut self,
        talk: impl FnOnce(&mut Session<'_>, &PollPlan, &str) -> Result<R, MonitorError>,
    ) -> Result<R, MonitorError> {
        let mut session = self.manager.session(&mut self.link, self.community);
        let talked = talk(&mut session, self.plan, self.name);
        (self.telemetry.poll_retransmits).add(self.link.take_retransmits());
        let talked = self.link.checked(talked);
        if let Err(MonitorError::Timeout { .. }) = talked {
            self.telemetry.poll_timeouts.inc();
        }
        talked
    }
}

/// What the monitoring service runs over.
pub trait Network {
    /// The network's clock: simulated time on the simulator, wall time
    /// since construction over UDP.
    fn now(&self) -> SimTime;

    /// Lets the network run until its clock reads `t`.
    fn advance_to(&mut self, t: SimTime);

    /// The specification the network was built from.
    fn model(&self) -> &SpecModel;

    /// The agents and what their polls share.
    fn agents(&self) -> &Agents;
    fn agents_mut(&mut self) -> &mut Agents;

    /// The transport to one agent, lent for one conversation.
    type Link<'a>: AgentLink
    where
        Self: 'a;

    /// A conversation with the agent of `node`, or
    /// [`MonitorError::NotPollable`]: each network's one duty toward its
    /// agents. What is said over it is the polls and the two reads below.
    fn conversation(
        &mut self,
        node: NodeId,
    ) -> Result<Conversation<'_, Self::Link<'_>>, MonitorError>;

    /// Sends one encoded trap from the monitor host to `dst`'s trap port,
    /// fire-and-forget.
    fn send_trap(&mut self, dst: Ipv4Addr, trap: &[u8]);

    /// The agent address a trap names: the monitor host's, or `0.0.0.0`
    /// when it has none.
    fn trap_agent_addr(&self) -> [u8; 4];

    /// The rates the network itself knows to be true, to judge the
    /// monitor's by: the totals behind the counters of `reads`' interfaces
    /// are recorded at this instant, and each interface answers its rate
    /// over the interval since its last record. The service calls this
    /// once a tick, after the poll, with its demand set. `None` on a
    /// network that cannot see its own wires: every one but the simulator.
    fn truth(&mut self, reads: &[NodeId]) -> Option<&dyn RateProvider> {
        let _ = reads;
        None
    }

    /// Polls one device, advancing the network's clock until its answer
    /// arrives (or the poll times out).
    fn poll_device(&mut self, node: NodeId) -> Result<DeviceSnapshot, MonitorError> {
        let mut snapshot = DeviceSnapshot::default();
        let polled = timed_poll(self, node, &mut snapshot);
        self.agents().count(&polled);
        polled.map(|()| snapshot)
    }

    /// Polls each of `nodes` once, in the order given, feeding the
    /// snapshots into `monitor`. A device that times out is skipped until
    /// the next round; a device whose answer cannot be read or ingested
    /// counts a failed poll, and the round goes on. Only a failure of the
    /// network itself ([`MonitorError::Sim`]) ends the round. Returns the
    /// number of successful polls.
    ///
    /// Each poll parses into its plan's snapshot, which the monitor reads
    /// and the plan keeps for the next device of its shape: once it has
    /// that shape, a poll allocates only the datagrams it carries.
    fn poll_nodes(
        &mut self,
        nodes: &[NodeId],
        monitor: &mut NetworkMonitor,
    ) -> Result<usize, MonitorError> {
        let mut round_span = self.agents().tracer.span("monitor.poll", "round");
        round_span.set_attr("devices", nodes.len());
        let mut ok = 0;
        for &node in nodes {
            // A node with no agent has no conversation, snapshot unused.
            let plan = self.agents().target(node).map(|target| target.plan);
            let mut snapshot = plan.map_or_else(DeviceSnapshot::default, |plan| {
                std::mem::take(&mut self.agents_mut().plans[plan].1)
            });
            let polled = timed_poll(self, node, &mut snapshot)
                .and_then(|()| monitor.ingest(node, &snapshot).map(drop));
            if let Some(plan) = plan {
                self.agents_mut().plans[plan].1 = snapshot;
            }
            self.agents().count(&polled);
            match polled {
                Ok(()) => ok += 1,
                Err(e @ MonitorError::Sim(_)) => return Err(e),
                Err(_) => continue, // retry next round
            }
        }
        round_span.set_attr("ok", ok);
        Ok(ok)
    }

    /// Reads the `ifPhysAddress` column of `node`'s agent with a GetNext
    /// walk: `(ifIndex, MAC)` pairs — the identity evidence the topology
    /// audit matches against switch FDBs.
    fn poll_phys_addresses(&mut self, node: NodeId) -> Result<Vec<(u32, [u8; 6])>, MonitorError> {
        let col = ifc::column_oid(column::IF_PHYS_ADDRESS);
        let walked = (self.conversation(node)?).talk(|session, _, name| {
            session
                .walk(&col)
                .map_err(|e| MonitorError::from_snmp(e, name))
        })?;
        Ok((walked.iter())
            .filter_map(|vb| match (ifc::parse_instance(&vb.oid)?, &vb.value) {
                ((column::IF_PHYS_ADDRESS, if_index), SnmpValue::OctetString(mac)) => {
                    Some((if_index, mac.as_slice().try_into().ok()?))
                }
                _ => None,
            })
            .collect())
    }

    /// Reads the forwarding database of a managed switch: a GetBulk walk
    /// of BRIDGE-MIB `dot1dTpFdbPort`, 16 repetitions a request.
    fn poll_fdb(&mut self, node: NodeId) -> Result<Vec<FdbEntry>, MonitorError> {
        let col = bridge::fdb_entry_base().child(bridge::column::PORT);
        let walked = (self.conversation(node)?).talk(|session, _, name| {
            session
                .bulk_walk(&col, 16)
                .map_err(|e| MonitorError::from_snmp(e, name))
        })?;
        Ok(bridge::entries_from_port_walk(&walked))
    }
}

/// One poll of `node` into `snapshot` under its span and, if it was
/// answered, its RTT recorded.
fn timed_poll<N: Network + ?Sized>(
    net: &mut N,
    node: NodeId,
    snapshot: &mut DeviceSnapshot,
) -> Result<(), MonitorError> {
    let mut poll_span = net.agents().tracer.span("monitor.poll", "device");
    let sent_at = net.now();
    if poll_span.is_recording() {
        if let Ok(n) = net.model().topology.node(node) {
            poll_span.set_attr("device", n.name.as_str());
        }
    }
    let polled = (net.conversation(node))
        .and_then(|c| c.talk(|session, plan, name| plan.poll_into(session, name, snapshot)));
    if !answered(&polled) {
        return polled;
    }
    let rtt_us = net.now().duration_since(sent_at).as_micros();
    net.agents().telemetry.poll_rtt_us.record(rtt_us);
    poll_span.set_attr("rtt_us", rtt_us);
    polled
}
