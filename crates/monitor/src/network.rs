//! The seam between the service and what it polls: a [`Network`] keeps a
//! clock, carries one poll's exchange with one agent, and sends traps —
//! [`SimNetwork`](crate::simnet::SimNetwork) through the simulator,
//! [`UdpNetwork`](crate::udpnet::UdpNetwork) to real agents. The rest of
//! a poll — its span, its RTT against the device's history, the poll
//! counters, and the round that ingests each snapshot by trading it for
//! the device's previous one — is written once, here, over [`Agents`].

use crate::error::MonitorError;
use crate::monitor::NetworkMonitor;
use crate::poll::{DeviceSnapshot, PollPlan};
use crate::telemetry::MonitorTelemetry;
use netqos_sim::time::{SimDuration, SimTime};
use netqos_sim::Ipv4Addr;
use netqos_snmp::client::Manager;
use netqos_spec::SpecModel;
use netqos_telemetry::{QuantileBaseline, Tracer};
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
    /// Per-device poll-RTT baseline (microseconds of the network's
    /// clock), indexed by node id; `None` until its first answered poll.
    rtt_baselines: Vec<Option<QuantileBaseline>>,
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
            rtt_baselines: vec![None; targets.len()],
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

    /// What a poll of `node`'s agent takes beside its transport: the
    /// community, the plan, the manager, and the telemetry the transport
    /// counts into. `None` for a node without an agent.
    pub(crate) fn parts(
        &mut self,
        node: NodeId,
    ) -> Option<(&str, &PollPlan, &mut Manager, &MonitorTelemetry)> {
        let target = self.targets.get(node.index())?.as_ref()?;
        let plan = &self.plans[target.plan].0;
        Some((&target.community, plan, &mut self.manager, &self.telemetry))
    }

    /// Counts a finished poll: a success, or a failure of a device that
    /// answered (its transport counts silence).
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

/// `node` has no agent to poll.
pub(crate) fn not_pollable(model: &SpecModel, node: NodeId) -> MonitorError {
    let name = model.topology.node(node).map(|n| n.name.clone());
    MonitorError::NotPollable(name.unwrap_or_else(|_| node.to_string()))
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

    /// The exchange of one poll of `node`: its plan's Get, decoded into
    /// `snapshot` ([`PollPlan::poll_into`]). Counts only what the
    /// transport counts (timeouts, retransmissions); the polls are
    /// [`Network::poll_device`] and [`Network::poll_nodes`].
    fn get_into(&mut self, node: NodeId, snapshot: &mut DeviceSnapshot)
        -> Result<(), MonitorError>;

    /// Sends one encoded trap from the monitor host to `dst`'s trap port,
    /// fire-and-forget.
    fn send_trap(&mut self, dst: Ipv4Addr, trap: &[u8]);

    /// The agent address a trap names: the monitor host's, or `0.0.0.0`
    /// when it has none.
    fn trap_agent_addr(&self) -> [u8; 4];

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
    /// Each poll parses into its plan's snapshot, and the ingest swaps
    /// that with the device's previous one, which becomes the plan's
    /// snapshot for the next device of its shape: a steady-state poll
    /// allocates only the datagrams it carries.
    fn poll_nodes(
        &mut self,
        nodes: &[NodeId],
        monitor: &mut NetworkMonitor,
    ) -> Result<usize, MonitorError> {
        let mut round_span = self.agents().tracer.span("monitor.poll", "round");
        round_span.set_attr("devices", nodes.len());
        let mut ok = 0;
        for &node in nodes {
            // A node with no agent fails in `get_into`, snapshot unused.
            let plan = self.agents().target(node).map(|target| target.plan);
            let mut snapshot = plan.map_or_else(DeviceSnapshot::default, |plan| {
                std::mem::take(&mut self.agents_mut().plans[plan].1)
            });
            let polled = timed_poll(self, node, &mut snapshot)
                .and_then(|()| monitor.ingest_swap(node, &mut snapshot).map(drop));
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
}

/// One poll of `node` into `snapshot` under its span and, if it was
/// answered, its RTT recorded and ranked against the device's history.
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
    let polled = net.get_into(node, snapshot);
    if !answered(&polled) {
        return polled;
    }
    let rtt_us = net.now().duration_since(sent_at).as_micros();
    let agents = net.agents_mut();
    agents.telemetry.poll_rtt_us.record(rtt_us);
    // Rank this RTT against the device's own history before folding it
    // into the baseline.
    let baseline = agents.rtt_baselines[node.index()].get_or_insert_with(Default::default);
    if poll_span.is_recording() {
        poll_span.set_attr("rtt_us", rtt_us);
        poll_span.set_attr("rtt_rank", baseline.rank(rtt_us));
    }
    baseline.record(rtt_us);
    polled
}
