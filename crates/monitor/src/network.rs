//! The seam between the service and what it polls: a [`Network`] keeps a
//! clock, lends its [`Wire`] to the agents, sends traps and, if it can see
//! its own wires, records the truth the monitor is judged by —
//! [`SimNetwork`](crate::simnet::SimNetwork) through the simulator,
//! [`UdpNetwork`](crate::udpnet::UdpNetwork) to real agents. A wire only
//! posts a request and collects what lands; what is said and counted over
//! it — the round of polls, the audit's two walks, the retransmit/timeout
//! ledger — and the rest of a poll are written once, here, over [`Agents`].

use crate::error::MonitorError;
use crate::monitor::NetworkMonitor;
use crate::poll::{DeviceSnapshot, PollPlan};
use crate::telemetry::MonitorTelemetry;
use netqos_sim::time::{SimDuration, SimTime};
use netqos_sim::Ipv4Addr;
use netqos_snmp::client::{self, Manager, Session};
use netqos_snmp::mib2::bridge::{self, FdbEntry};
use netqos_snmp::mib2::interfaces::{self as ifc, column};
use netqos_snmp::transport::Transport;
use netqos_snmp::{SnmpError, SnmpValue};
use netqos_spec::SpecModel;
use netqos_telemetry::Tracer;
use netqos_topology::bandwidth::RateProvider;
use netqos_topology::NodeId;
use std::collections::HashMap;

/// SNMP trap port.
pub const TRAP_PORT: u16 = 162;

/// How long one poll attempt waits for its answer, on every network.
pub(crate) const POLL_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Retransmissions per request on timeout, on every network: a request
/// is sent at most three times before it counts as one timeout.
pub(crate) const POLL_RETRIES: u32 = 2;

/// Requests a round keeps in flight at once. On `lan-wide`'s 145 polls a
/// tick the round's simulated length falls with the window — 227, 115,
/// 61, 37.6, 28.6, 18.0 and 13.0 ms at 1, 2, 4, 8, 16, 32 and 64 —
/// toward the 10.9 ms of every request at once, where the 10 Mb/s hubs,
/// each carrying its 25 stations' datagrams one at a time, are the floor;
/// its wall-clock tick floor rises with it, ≈ 2 % at 16 and ≈ 7 % at 32
/// over a window of one (DESIGN Appendix N). A full window of the largest
/// answer that fits one datagram (1 472 bytes) is 24 KB: inside a
/// simulated NIC's 200 ms queue (250 KB at 10 Mb/s), and a default 208 KB
/// UDP receive buffer holds 92 such datagrams on Linux loopback before it
/// drops one.
pub const POLL_WINDOW: usize = 16;

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

    /// A conversation with `node`'s agent over `wire`.
    fn conversation<'a, W: Wire>(
        &'a mut self,
        model: &'a SpecModel,
        node: NodeId,
        wire: W,
    ) -> Result<Conversation<'a, W>, MonitorError> {
        let n = model.topology.node(node);
        let target = self.targets.get(node.index()).and_then(Option::as_ref);
        let (Ok(n), Some(to), Some(target)) = (n.as_ref(), wire.address(node), target) else {
            return Err(MonitorError::NotPollable(name_of(model, node)));
        };
        Ok(Conversation {
            link: Link {
                wire,
                to,
                ledger: &self.telemetry,
                refused: None,
            },
            manager: &mut self.manager,
            community: &target.community,
            name: &n.name,
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

/// `node`'s name, or its id where the topology lacks it.
fn name_of(model: &SpecModel, node: NodeId) -> String {
    let n = model.topology.node(node);
    n.map_or_else(|_| node.to_string(), |n| n.name.clone())
}

/// How a network carries requests to its agents and their answers back:
/// a request is posted to an agent's address, and whatever lands for the
/// manager is collected, one datagram at a time. Retransmission,
/// demultiplexing and the ledger are not the wire's business: the round
/// below does them, for polls and walks alike.
pub trait Wire {
    /// Where an agent listens, and where its answers come from.
    type Addr: Copy + PartialEq;

    /// The network's clock.
    fn now(&self) -> SimTime;

    /// How long one attempt waits for its answer.
    fn timeout(&self) -> SimDuration {
        POLL_TIMEOUT
    }

    /// The address of `node`'s agent, if the wire reaches one.
    fn address(&self, node: NodeId) -> Option<Self::Addr>;

    /// Sends `request` to the agent at `to`. An error is the network
    /// refusing to send it: [`MonitorError::Sim`] ends the round.
    fn post(&mut self, to: Self::Addr, request: &[u8]) -> Result<(), MonitorError>;

    /// Waits until the clock reads `deadline` for the next datagram to the
    /// manager, and lends `land` its sender, its payload and the instant it
    /// landed; `false` when none landed in time.
    fn collect(&mut self, deadline: SimTime, land: impl FnOnce(Self::Addr, &[u8], SimTime))
        -> bool;
}

/// How one request of a round ended.
enum Settled<'p> {
    /// Its answer landed, `rtt` after the request was first posted.
    Answered {
        answer: &'p [u8],
        id: i32,
        rtt: SimDuration,
    },
    /// It spent its retransmissions: one timeout.
    Silent,
    /// It was not sent: no agent, no encoding, or the network refused it.
    Refused(MonitorError),
}

/// What a round sends, and what becomes of what comes back.
trait Requests<W: Wire> {
    /// Encodes request `k` — under a fresh id, or under `again` when it is
    /// retransmitted — and posts it on `wire`: where it went, and its id.
    fn post(
        &mut self,
        wire: &mut W,
        k: usize,
        again: Option<i32>,
    ) -> Result<(W::Addr, i32), MonitorError>;

    /// Request `k` settled.
    fn settle(&mut self, k: usize, settled: Settled<'_>);

    /// Where retransmissions and timeouts are counted.
    fn ledger(&self) -> &MonitorTelemetry;
}

/// A request of a round, in flight.
#[derive(Clone, Copy)]
struct InFlight<A> {
    k: usize,
    id: i32,
    to: A,
    first_sent: SimTime,
    deadline: SimTime,
    retransmits: u32,
}

/// Posts request `k` (again, under `again`): in flight, or settled as
/// refused. Only [`MonitorError::Sim`] is an error.
fn post<W: Wire>(
    wire: &mut W,
    requests: &mut impl Requests<W>,
    k: usize,
    again: Option<i32>,
) -> Result<Option<(W::Addr, i32)>, MonitorError> {
    match requests.post(wire, k, again) {
        Ok(sent) => Ok(Some(sent)),
        Err(e @ MonitorError::Sim(_)) => Err(e),
        Err(e) => {
            requests.settle(k, Settled::Refused(e));
            Ok(None)
        }
    }
}

/// The one round: requests `0..count` go out in order, at most
/// [`POLL_WINDOW`] in flight, and each answer is settled where it lands —
/// taken only if it carries a pending request's id *and* comes from that
/// request's agent, so a late duplicate, another agent's answer and
/// anything that is not SNMP fail nothing and reach no decoder. A request
/// unanswered for the wire's timeout is sent again under its id, at most
/// [`POLL_RETRIES`] times, then counted as one timeout. The round ends when
/// every request has settled; only [`MonitorError::Sim`] ends it sooner.
fn round<W: Wire>(
    wire: &mut W,
    count: usize,
    requests: &mut impl Requests<W>,
) -> Result<(), MonitorError> {
    // The requests in flight are `flight[..open]`, in no order, and no
    // deadline among them falls before `due`: a deadline only ever moves
    // later, so the slots are looked over only when `due` passes.
    let mut flight: [Option<InFlight<W::Addr>>; POLL_WINDOW] = [None; POLL_WINDOW];
    let (mut open, mut next) = (0, 0);
    let mut due = SimTime::from_micros(u64::MAX);
    loop {
        while open < POLL_WINDOW && next < count {
            let first_sent = wire.now();
            if let Some((to, id)) = post(wire, requests, next, None)? {
                let deadline = first_sent + wire.timeout();
                flight[open] = Some(InFlight {
                    k: next,
                    id,
                    to,
                    first_sent,
                    deadline,
                    retransmits: 0,
                });
                open += 1;
                due = due.min(deadline);
            }
            next += 1;
        }
        if open == 0 {
            return Ok(());
        }
        let landed = wire.collect(due, |from, answer, at| {
            let Some(id) = client::peek_request_id(answer) else {
                return;
            };
            let mut pending = flight[..open].iter();
            let Some(i) = pending.position(|f| f.is_some_and(|f| f.id == id && f.to == from))
            else {
                return;
            };
            open -= 1;
            flight.swap(i, open);
            if let Some(f) = flight[open].take() {
                let rtt = at.duration_since(f.first_sent);
                requests.settle(f.k, Settled::Answered { answer, id, rtt });
            }
        });
        if landed {
            continue;
        }
        // `due` has passed: send again or give up what is due, and find
        // the next deadline.
        let now = wire.now();
        due = SimTime::from_micros(u64::MAX);
        let mut i = 0;
        while let Some(f) = flight[..open].get(i).copied().flatten() {
            if f.deadline > now {
                due = due.min(f.deadline);
                i += 1;
                continue;
            }
            let again = if f.retransmits < POLL_RETRIES {
                requests.ledger().poll_retransmits.inc();
                post(wire, requests, f.k, Some(f.id))?
            } else {
                requests.ledger().poll_timeouts.inc();
                requests.settle(f.k, Settled::Silent);
                None
            };
            if again.is_some() {
                let deadline = now + wire.timeout();
                flight[i] = Some(InFlight {
                    deadline,
                    retransmits: f.retransmits + 1,
                    ..f
                });
                due = due.min(deadline);
                i += 1;
            } else {
                open -= 1;
                flight.swap(i, open);
                flight[open] = None;
            }
        }
    }
}

/// A round of polls of `nodes`: each device's plan's Get goes out under a
/// fresh id, each answer is read into its plan's snapshot where it lands
/// and handed to `sink`, and each poll is counted and traced.
struct Polls<'a, S> {
    nodes: &'a [NodeId],
    agents: &'a mut Agents,
    model: &'a SpecModel,
    sink: S,
    /// Polls that succeeded.
    ok: usize,
    /// How the last poll to settle ended.
    last: Option<Result<(), MonitorError>>,
}

impl<'a, S> Polls<'a, S>
where
    S: FnMut(NodeId, &DeviceSnapshot) -> Result<(), MonitorError>,
{
    fn new(nodes: &'a [NodeId], agents: &'a mut Agents, model: &'a SpecModel, sink: S) -> Self {
        Polls {
            nodes,
            agents,
            model,
            sink,
            ok: 0,
            last: None,
        }
    }
}

impl<W: Wire, S> Requests<W> for Polls<'_, S>
where
    S: FnMut(NodeId, &DeviceSnapshot) -> Result<(), MonitorError>,
{
    fn post(
        &mut self,
        wire: &mut W,
        k: usize,
        again: Option<i32>,
    ) -> Result<(W::Addr, i32), MonitorError> {
        let node = self.nodes[k];
        let Agents {
            targets,
            plans,
            manager,
            ..
        } = &mut *self.agents;
        let target = targets.get(node.index()).and_then(Option::as_ref);
        let (Some(target), Some(to)) = (target, wire.address(node)) else {
            return Err(MonitorError::NotPollable(name_of(self.model, node)));
        };
        let id = again.unwrap_or_else(|| manager.fresh_id());
        let oids = plans[target.plan].0.oids();
        let request = (manager.encode_get(&target.community, id, oids))
            .map_err(|e| MonitorError::from_snmp(e, &name_of(self.model, node)))?;
        wire.post(to, request)?;
        Ok((to, id))
    }

    fn settle(&mut self, k: usize, settled: Settled<'_>) {
        let node = self.nodes[k];
        let agents = &mut *self.agents;
        let mut span = agents.tracer.span("monitor.poll", "device");
        let n = self.model.topology.node(node);
        if span.is_recording() {
            if let Ok(n) = &n {
                span.set_attr("device", n.name.as_str());
            }
        }
        let name = n.as_ref().map_or("", |n| n.name.as_str());
        let polled = match settled {
            Settled::Answered { answer, id, rtt } => {
                let rtt_us = rtt.as_micros();
                agents.telemetry.poll_rtt_us.record(rtt_us);
                span.set_attr("rtt_us", rtt_us);
                // Only a posted request is answered, and only a device
                // with an agent is posted to.
                let plan = agents.target(node).map_or(0, |t| t.plan);
                let (plan, snapshot) = &mut agents.plans[plan];
                (plan.read_answer(&agents.manager, answer, id, name, snapshot))
                    .and_then(|()| (self.sink)(node, snapshot))
            }
            Settled::Silent => Err(MonitorError::Timeout {
                node: name.to_owned(),
            }),
            Settled::Refused(e) => Err(e),
        };
        agents.count(&polled);
        self.ok += usize::from(polled.is_ok());
        self.last = Some(polled);
    }

    fn ledger(&self) -> &MonitorTelemetry {
        &self.agents.telemetry
    }
}

/// A round of one request its caller encoded: a conversation's exchange.
struct One<'r, A> {
    to: A,
    id: i32,
    request: &'r [u8],
    ledger: &'r MonitorTelemetry,
    answer: Option<Result<Vec<u8>, SnmpError>>,
}

impl<W: Wire> Requests<W> for One<'_, W::Addr> {
    fn post(
        &mut self,
        wire: &mut W,
        _: usize,
        _: Option<i32>,
    ) -> Result<(W::Addr, i32), MonitorError> {
        wire.post(self.to, self.request)?;
        Ok((self.to, self.id))
    }

    fn settle(&mut self, _: usize, settled: Settled<'_>) {
        self.answer = Some(match settled {
            Settled::Answered { answer, .. } => Ok(answer.to_vec()),
            Settled::Silent => Err(SnmpError::Timeout),
            Settled::Refused(e) => Err(SnmpError::Transport(e.to_string())),
        });
    }

    fn ledger(&self) -> &MonitorTelemetry {
        self.ledger
    }
}

/// One agent behind a network's [`Wire`], as a [`Transport`] for a
/// manager: an exchange is a round of one request, with the round's
/// retransmissions, counted in the network's ledger.
pub struct Link<'a, W: Wire> {
    wire: W,
    to: W::Addr,
    ledger: &'a MonitorTelemetry,
    /// Why the network refused to send a request, when that is what
    /// failed an exchange.
    refused: Option<MonitorError>,
}

impl<W: Wire> Transport for Link<'_, W> {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        let id = client::peek_request_id(request)
            .ok_or_else(|| SnmpError::Transport("request carries no request-id".into()))?;
        let mut one = One {
            to: self.to,
            id,
            request,
            ledger: self.ledger,
            answer: None,
        };
        if let Err(e) = round(&mut self.wire, 1, &mut one) {
            let failure = SnmpError::Transport(e.to_string());
            self.refused = Some(e);
            return Err(failure);
        }
        one.answer.unwrap_or(Err(SnmpError::Timeout))
    }
}

/// One conversation with one node's agent ([`Network::conversation`]):
/// the [`Link`] over its network's wire, and what [`Agents`] keeps for it.
pub struct Conversation<'a, W: Wire> {
    link: Link<'a, W>,
    manager: &'a mut Manager,
    community: &'a str,
    name: &'a str,
}

impl<W: Wire> Conversation<'_, W> {
    /// `talk` to the agent (with its name), the wire's refusal to send
    /// outranking what the talk made of it.
    fn talk<R>(
        mut self,
        talk: impl FnOnce(&mut Session<'_>, &str) -> Result<R, MonitorError>,
    ) -> Result<R, MonitorError> {
        let mut session = self.manager.session(&mut self.link, self.community);
        let talked = talk(&mut session, self.name);
        self.link.refused.map_or(talked, Err)
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

    /// The wire to the agents, lent for one round or one conversation.
    type Wire<'a>: Wire
    where
        Self: 'a;

    /// The network's wire, lent with the agents and the model: each
    /// network's one duty toward its agents. What is said over it is the
    /// rounds of polls and the two walks below.
    fn wire(&mut self) -> (Self::Wire<'_>, &mut Agents, &SpecModel);

    /// A conversation with the agent of `node`, or
    /// [`MonitorError::NotPollable`].
    fn conversation(
        &mut self,
        node: NodeId,
    ) -> Result<Conversation<'_, Self::Wire<'_>>, MonitorError> {
        let (wire, agents, model) = self.wire();
        agents.conversation(model, node, wire)
    }

    /// The network's wire to the agent of `node` as a [`Transport`], for a
    /// manager of the caller's own: how tests put each network beside the
    /// loopback. Its exchanges are counted in this network's ledger.
    fn link(&mut self, node: NodeId) -> Result<Link<'_, Self::Wire<'_>>, MonitorError> {
        self.conversation(node).map(|c| c.link)
    }

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

    /// Polls one device — a round of one — advancing the network's clock
    /// until its answer arrives (or the poll times out).
    fn poll_device(&mut self, node: NodeId) -> Result<DeviceSnapshot, MonitorError> {
        let mut owned = None;
        let (mut wire, agents, model) = self.wire();
        let mut polls = Polls::new(std::slice::from_ref(&node), agents, model, |_, snapshot| {
            owned = Some(snapshot.clone());
            Ok(())
        });
        round(&mut wire, 1, &mut polls)?;
        let polled = polls.last.unwrap_or(Ok(()));
        polled.map(|()| owned.unwrap_or_default())
    }

    /// Polls each of `nodes` once in one round, feeding the snapshots into
    /// `monitor`: the requests go out in the order given, up to
    /// [`POLL_WINDOW`] in flight, and each answer is read and ingested as
    /// it lands, so the round lasts about as long as its slowest agent and
    /// not as long as all of them. A device that times out is skipped
    /// until the next round; a device whose answer cannot be read or
    /// ingested counts a failed poll, and the round goes on. Only a
    /// failure of the network itself ([`MonitorError::Sim`]) ends the
    /// round. Returns the number of successful polls.
    ///
    /// Each answer parses into its plan's snapshot, which the monitor reads
    /// and the plan keeps for the next device of its shape: once it has
    /// that shape, a poll allocates only the datagrams its wire carries.
    fn poll_nodes(
        &mut self,
        nodes: &[NodeId],
        monitor: &mut NetworkMonitor,
    ) -> Result<usize, MonitorError> {
        let mut round_span = self.agents().tracer.span("monitor.poll", "round");
        round_span.set_attr("devices", nodes.len());
        let (mut wire, agents, model) = self.wire();
        let mut polls = Polls::new(nodes, agents, model, |node, snapshot| {
            monitor.ingest(node, snapshot).map(drop)
        });
        round(&mut wire, nodes.len(), &mut polls)?;
        round_span.set_attr("ok", polls.ok);
        Ok(polls.ok)
    }

    /// Reads the `ifPhysAddress` column of `node`'s agent with a GetNext
    /// walk: `(ifIndex, MAC)` pairs — the identity evidence the topology
    /// audit matches against switch FDBs.
    fn poll_phys_addresses(&mut self, node: NodeId) -> Result<Vec<(u32, [u8; 6])>, MonitorError> {
        let col = ifc::column_oid(column::IF_PHYS_ADDRESS);
        let walked = (self.conversation(node)?).talk(|session, name| {
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
        let walked = (self.conversation(node)?).talk(|session, name| {
            session
                .bulk_walk(&col, 16)
                .map_err(|e| MonitorError::from_snmp(e, name))
        })?;
        Ok(bridge::entries_from_port_walk(&walked))
    }
}
