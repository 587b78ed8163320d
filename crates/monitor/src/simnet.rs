//! Running the whole monitored system inside the simulator.
//!
//! [`SimNetwork`] lowers a validated [`SpecModel`] into a `netqos-sim`
//! LAN: every host gets DISCARD and ECHO services, every SNMP-capable
//! node gets an in-simulation SNMP agent ([`SimSnmpAgent`]) answering on
//! port 161, and the designated monitor host gets a manager mailbox. The
//! simulated LAN is then one more [`Wire`] ([`SimWire`]) under the round
//! of polls that also runs over UDP, which sends *real encoded SNMP
//! messages through the simulated network* — so, exactly as in the
//! paper's testbed, the monitoring traffic itself consumes bandwidth and
//! contributes to the measurement bias (the paper attributes ~2 % of its
//! error to "traffic caused by SNMP queries and acknowledgements").

use crate::error::MonitorError;
use crate::network::{self, Agents, Link, Network, Wire, TRAP_PORT};
use crate::poll::DeviceSnapshot;
use crate::telemetry::MonitorTelemetry;
use bytes::Bytes;
use netqos_sim::app::{AppCtx, DiscardSink, EchoResponder, Mailbox, UdpApp};
use netqos_sim::builder::LanBuilder;
use netqos_sim::nic::Nic;
use netqos_sim::packet::{DISCARD_PORT, ECHO_PORT, SNMP_PORT};
use netqos_sim::time::{SimDuration, SimTime};
use netqos_sim::traffic::NoiseSource;
use netqos_sim::{DeviceId, Ipv4Addr, Lan, PortIx, UdpDatagram};
use netqos_snmp::agent::{self, SnmpAgent};
use netqos_snmp::mib::{MibView, ScalarMib};
use netqos_snmp::mib2::interfaces::{self as ifc, column};
use netqos_snmp::mib2::{self, SystemInfo};
use netqos_snmp::value::ValueRef;
use netqos_snmp::Oid;
use netqos_spec::SpecModel;
use netqos_topology::bandwidth::{IfRates, RateProvider};
use netqos_topology::{IfIx, NodeId, NodeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::rc::Rc;

/// An SNMP agent living inside the simulation as a UDP app.
///
/// Every request is answered from the device's live NIC counters and
/// `sysUpTime`, exactly like a real agent reading kernel statistics. An
/// optional response-delay distribution models agent scheduling jitter —
/// the cause of the paper's occasional large one-sample errors ("some
/// data bytes are counted in a later SNMP message instead of an earlier
/// one").
pub struct SimSnmpAgent {
    agent: SnmpAgent,
    sysinfo: SystemInfo,
    jitter: Option<(StdRng, SimDuration)>,
    pending: VecDeque<(Ipv4Addr, u16, Bytes)>,
}

/// The MIB of one device at the instant of one request.
///
/// What a poll asks for — `sysUpTime.0` and `ifTable` instances — is read
/// straight off the device's NICs and lent to the agent. Any other name,
/// and every walk, goes to the full map (the `system` group, the
/// interfaces group, and on switches the BRIDGE-MIB forwarding
/// database), which is built from the same readings at most once per
/// request and only when one of those asks for it.
struct LiveMib<'a> {
    sysinfo: &'a SystemInfo,
    ctx: &'a AppCtx<'a>,
    full: OnceCell<ScalarMib>,
}

/// One `ifTable` cell of `nic`, or `None` for a column `ifEntry` lacks.
fn if_cell(nic: &Nic, if_index: u32, col: u32) -> Option<ValueRef<'_>> {
    let c = &nic.counters;
    Some(match col {
        column::IF_INDEX => ValueRef::Integer(i64::from(if_index)),
        column::IF_DESCR => ValueRef::OctetString(nic.descr.as_bytes()),
        column::IF_TYPE => ValueRef::Integer(ifc::IF_TYPE_ETHERNET),
        column::IF_MTU => ValueRef::Integer(1500),
        column::IF_SPEED => ValueRef::Gauge32(nic.speed_bps.min(u64::from(u32::MAX)) as u32),
        column::IF_PHYS_ADDRESS => ValueRef::OctetString(&nic.mac.0),
        column::IF_ADMIN_STATUS | column::IF_OPER_STATUS => ValueRef::Integer(ifc::STATUS_UP),
        column::IF_LAST_CHANGE => ValueRef::TimeTicks(0),
        column::IF_IN_OCTETS => ValueRef::Counter32(c.in_octets.value()),
        column::IF_IN_UCAST_PKTS => ValueRef::Counter32(c.in_ucast_pkts.value()),
        column::IF_IN_NUCAST_PKTS => ValueRef::Counter32(c.in_nucast_pkts.value()),
        column::IF_IN_DISCARDS => ValueRef::Counter32(c.in_discards.value()),
        column::IF_IN_ERRORS => ValueRef::Counter32(c.in_errors.value()),
        column::IF_IN_UNKNOWN_PROTOS => ValueRef::Counter32(0),
        column::IF_OUT_OCTETS => ValueRef::Counter32(c.out_octets.value()),
        column::IF_OUT_UCAST_PKTS => ValueRef::Counter32(c.out_ucast_pkts.value()),
        column::IF_OUT_NUCAST_PKTS => ValueRef::Counter32(c.out_nucast_pkts.value()),
        column::IF_OUT_DISCARDS => ValueRef::Counter32(c.out_discards.value()),
        column::IF_OUT_ERRORS => ValueRef::Counter32(c.out_errors.value()),
        column::IF_OUT_QLEN => ValueRef::Gauge32(0),
        _ => return None,
    })
}

impl LiveMib<'_> {
    fn full(&self) -> &ScalarMib {
        self.full.get_or_init(|| {
            let nics = self.ctx.nics();
            // Switches additionally export their forwarding database
            // (BRIDGE-MIB), feeding the topology-verification extension.
            let fdb: Option<Vec<mib2::bridge::FdbEntry>> = self.ctx.fdb_snapshot().map(|fdb| {
                fdb.into_iter()
                    .map(|(mac, port)| mib2::bridge::FdbEntry {
                        mac: mac.octets(),
                        port,
                    })
                    .collect()
            });
            let system = mib2::system::instances(self.sysinfo, self.ctx.uptime_ticks());
            let interfaces = ifc::instances(nics.len(), |col, row| {
                let if_index = row as u32 + 1;
                let cell = if_cell(&nics[row], if_index, col).expect("ifEntry has every column");
                (if_index, cell.to_value())
            });
            let bridge = fdb
                .iter()
                .flat_map(|fdb| mib2::bridge::instances(nics.len() as u32, fdb));
            let fdb_cells = fdb.as_ref().map_or(0, |fdb| 1 + 3 * fdb.len());
            // The `ifTable` cells go to the MIB's rows, not its vector.
            let mut mib = ScalarMib::with_capacity(7 + 1 + fdb_cells);
            // The three groups in MIB order, each column by column, so
            // nothing is sorted.
            mib.extend(system.into_iter().chain(interfaces).chain(bridge));
            mib
        })
    }
}

impl MibView for LiveMib<'_> {
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>> {
        if let Some((col, if_index)) = ifc::parse_instance(oid) {
            let nic = self.ctx.nics().get((if_index as usize).checked_sub(1)?)?;
            return if_cell(nic, if_index, col);
        }
        match *oid.arcs() {
            // sysUpTime.0
            [1, 3, 6, 1, 2, 1, 1, 3, 0] => Some(ValueRef::TimeTicks(self.ctx.uptime_ticks())),
            _ => self.full().get(oid),
        }
    }

    fn next_after(&self, oid: &Oid) -> Option<(Cow<'_, Oid>, ValueRef<'_>)> {
        self.full().next_after(oid)
    }
}

impl SimSnmpAgent {
    /// Creates an agent with the given community.
    pub fn new(node_name: &str, community: &str) -> Self {
        SimSnmpAgent {
            agent: SnmpAgent::new(community),
            sysinfo: SystemInfo::new(node_name),
            jitter: None,
            pending: VecDeque::new(),
        }
    }

    /// Adds exponential response-delay jitter with the given mean.
    pub fn with_jitter(mut self, seed: u64, mean: SimDuration) -> Self {
        self.jitter = Some((StdRng::seed_from_u64(seed), mean));
        self
    }
}

impl UdpApp for SimSnmpAgent {
    fn on_datagram(&mut self, ctx: &mut AppCtx<'_>, dgram: &UdpDatagram) {
        let mib = LiveMib {
            sysinfo: &self.sysinfo,
            ctx,
            full: OnceCell::new(),
        };
        // Written into the thread's answer buffer, then copied once into
        // the `Bytes` that travels.
        let answered = agent::with_answer_buffer(|answer| {
            self.agent
                .handle_into(&dgram.payload, &mib, answer)
                .then(|| Bytes::copy_from_slice(answer))
        });
        let Some(resp) = answered else {
            return;
        };
        match &mut self.jitter {
            Some((rng, mean)) => {
                let u: f64 = rng.gen_range(1e-6..1.0);
                let d = SimDuration::from_secs_f64((-u.ln()) * mean.as_secs_f64());
                self.pending.push_back((dgram.src_ip, dgram.src_port, resp));
                ctx.schedule(d, 0);
            }
            None => ctx.send_udp(SNMP_PORT, dgram.src_ip, dgram.src_port, resp),
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _token: u64) {
        if let Some((ip, port, bytes)) = self.pending.pop_front() {
            ctx.send_udp(SNMP_PORT, ip, port, bytes);
        }
    }
}

/// Options controlling how the LAN is materialized.
pub struct SimNetworkOptions {
    /// Name of the node the monitoring program runs on (paper: `L`).
    pub monitor_host: String,
    /// Background-noise mean interval per host (None = silent network).
    pub noise_mean: Option<SimDuration>,
    /// Seed for all stochastic elements.
    pub seed: u64,
    /// Mean SNMP agent response jitter (None = immediate responses).
    pub agent_jitter_mean: Option<SimDuration>,
    /// Per-poll response timeout.
    pub poll_timeout: SimDuration,
    /// Registry the poll runtime records its telemetry into (None = a
    /// fresh private registry, keeping tests deterministic).
    pub registry: Option<std::sync::Arc<netqos_telemetry::Registry>>,
}

impl Default for SimNetworkOptions {
    fn default() -> Self {
        SimNetworkOptions {
            monitor_host: "L".to_owned(),
            noise_mean: None,
            seed: 1,
            agent_jitter_mean: None,
            poll_timeout: network::POLL_TIMEOUT,
            registry: None,
        }
    }
}

/// The specified system, materialized in the simulator, with an SNMP poll
/// runtime.
pub struct SimNetwork {
    /// The simulated LAN (public so experiments can install extra apps
    /// via [`SimNetwork::from_model_with`] and read ground truth).
    pub lan: Lan,
    model: SpecModel,
    node_to_dev: HashMap<NodeId, DeviceId>,
    /// The agents, whose manager is behind every poll and walk.
    agents: Agents,
    monitor_dev: DeviceId,
    monitor_node: NodeId,
    inbox: Rc<Inbox>,
    poll_timeout: SimDuration,
    /// The octet totals [`Network::truth`] last recorded.
    truth: TrueRates,
}

/// UDP port the manager mailbox listens on.
pub const MANAGER_PORT: u16 = 16100;

/// The manager's mailbox: each datagram it received, with when.
type Inbox = RefCell<Vec<(SimTime, UdpDatagram)>>;

/// Steps `lan` until a datagram in `inbox` is `wanted`, or until
/// `deadline`, and takes it out: the one wait on the manager's mailbox,
/// for the round (which wants every datagram) and ECHO replies alike.
/// Each datagram is looked at once. Finding one also drops every datagram
/// 10 s old or older (lost probes' echoes), so the mailbox cannot grow
/// without bound across long experiments.
fn await_datagram(
    lan: &mut Lan,
    inbox: &Inbox,
    deadline: SimTime,
    wanted: impl Fn(&UdpDatagram) -> bool,
) -> Option<(SimTime, UdpDatagram)> {
    // Entries before this index have been ruled out; the mailbox only
    // grows while this wait runs.
    let mut examined = 0;
    loop {
        {
            let mut inbox = inbox.borrow_mut();
            while examined < inbox.len() {
                if wanted(&inbox[examined].1) {
                    let found = inbox.remove(examined);
                    let now = lan.now();
                    inbox.retain(|(t, _)| now.duration_since(*t) < SimDuration::from_secs(10));
                    return Some(found);
                }
                examined += 1;
            }
        }
        if lan.now() >= deadline {
            return None;
        }
        lan.step_before(deadline);
    }
}

/// The simulated LAN as the [`Wire`] between the manager's mailbox and
/// the agents: a request is posted from the monitor host to an agent's
/// port 161, and collecting steps simulated time until the next datagram
/// is in the mailbox, lends its payload and drops it.
pub struct SimWire<'a> {
    lan: &'a mut Lan,
    inbox: &'a Inbox,
    manager_dev: DeviceId,
    node_to_dev: &'a HashMap<NodeId, DeviceId>,
    timeout: SimDuration,
}

impl Wire for SimWire<'_> {
    /// An agent's address and port.
    type Addr = (Ipv4Addr, u16);

    fn now(&self) -> SimTime {
        self.lan.now()
    }

    fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// An agent answers at its device's address.
    fn address(&self, node: NodeId) -> Option<(Ipv4Addr, u16)> {
        let dev = *self.node_to_dev.get(&node)?;
        let ip = self.lan.device_ip(dev).ok().flatten()?;
        Some((ip, SNMP_PORT))
    }

    /// Copies the request once, into the `Bytes` that travels.
    fn post(&mut self, (ip, port): (Ipv4Addr, u16), request: &[u8]) -> Result<(), MonitorError> {
        let request = Bytes::copy_from_slice(request);
        (self.lan).post_udp(self.manager_dev, MANAGER_PORT, ip, port, request)?;
        Ok(())
    }

    fn collect(
        &mut self,
        deadline: SimTime,
        land: impl FnOnce((Ipv4Addr, u16), &[u8], SimTime),
    ) -> bool {
        let landed = await_datagram(self.lan, self.inbox, deadline, |_| true);
        let Some((at, datagram)) = landed else {
            return false;
        };
        land((datagram.src_ip, datagram.src_port), &datagram.payload, at);
        true
    }
}

/// The simulated LAN from the monitor host to one agent, as a
/// [`Transport`](netqos_snmp::transport::Transport) ([`SimNetwork::link`]).
pub type SimLink<'a> = Link<'a, SimWire<'a>>;

impl SimNetwork {
    /// Materializes a spec model with default options.
    pub fn from_model(model: SpecModel, options: SimNetworkOptions) -> Result<Self, MonitorError> {
        Self::from_model_with(model, options, |_, _, _| {})
    }

    /// Materializes a spec model, giving the caller a hook to install
    /// extra apps (e.g. load generators) before the LAN is finalized.
    /// The hook receives the builder, the node→device map, and the model.
    pub fn from_model_with<F>(
        model: SpecModel,
        options: SimNetworkOptions,
        extra: F,
    ) -> Result<Self, MonitorError>
    where
        F: FnOnce(&mut LanBuilder, &HashMap<NodeId, DeviceId>, &SpecModel),
    {
        let telemetry =
            (options.registry).map_or_else(MonitorTelemetry::private, MonitorTelemetry::new);
        let agents = Agents::new(&model, telemetry);
        let mut b = LanBuilder::new();
        let mut node_to_dev = HashMap::new();
        let mut auto_ip = 1u8;

        for (node_id, node) in model.topology.nodes() {
            let addr = model.addresses.get(&node_id).cloned().unwrap_or_else(|| {
                let ip = format!("10.250.0.{auto_ip}");
                auto_ip = auto_ip.wrapping_add(1);
                ip
            });
            let dev = match node.kind {
                NodeKind::Host => b.add_host(&node.name, &addr).map_err(MonitorError::from)?,
                NodeKind::Switch | NodeKind::Router => {
                    let mgmt = if node.snmp_capable {
                        Some(addr.as_str())
                    } else {
                        None
                    };
                    b.add_switch(&node.name, mgmt).map_err(MonitorError::from)?
                }
                NodeKind::Hub => {
                    let medium = node
                        .interfaces
                        .iter()
                        .map(|i| i.speed_bps)
                        .min()
                        .unwrap_or(10_000_000);
                    b.add_hub(&node.name, medium).map_err(MonitorError::from)?
                }
            };
            node_to_dev.insert(node_id, dev);
            for iface in &node.interfaces {
                b.add_nic(dev, &iface.local_name, iface.speed_bps)
                    .map_err(MonitorError::from)?;
            }
        }

        for (_, conn) in model.topology.connections() {
            let a = (node_to_dev[&conn.a.node], PortIx(conn.a.ifix.0));
            let bb = (node_to_dev[&conn.b.node], PortIx(conn.b.ifix.0));
            b.connect(a, bb).map_err(MonitorError::from)?;
        }

        // Standard services + agents.
        let mut noise_seed = options.seed;
        for (node_id, node) in model.topology.nodes() {
            let dev = node_to_dev[&node_id];
            if node.kind.is_host() {
                b.install_app(dev, Box::new(DiscardSink::default()), Some(DISCARD_PORT))
                    .map_err(MonitorError::from)?;
                b.install_app(dev, Box::new(EchoResponder), Some(ECHO_PORT))
                    .map_err(MonitorError::from)?;
                if let Some(mean) = options.noise_mean {
                    noise_seed = noise_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    b.install_app(dev, Box::new(NoiseSource::new(noise_seed, mean)), None)
                        .map_err(MonitorError::from)?;
                }
            }
            if agents.has_agent(node_id) {
                let mut agent = SimSnmpAgent::new(&node.name, &node.snmp_community);
                if let Some(mean) = options.agent_jitter_mean {
                    agent = agent.with_jitter(options.seed ^ node_id.0 as u64, mean);
                }
                b.install_app(dev, Box::new(agent), Some(SNMP_PORT))
                    .map_err(MonitorError::from)?;
            }
        }

        // The manager mailbox on the monitor host.
        let monitor_node = model
            .topology
            .node_by_name(&options.monitor_host)
            .map_err(MonitorError::from)?;
        let monitor_dev = node_to_dev[&monitor_node];
        let (mailbox, inbox) = Mailbox::with_handle();
        b.install_app(monitor_dev, Box::new(mailbox), Some(MANAGER_PORT))
            .map_err(MonitorError::from)?;

        extra(&mut b, &node_to_dev, &model);

        Ok(SimNetwork {
            lan: b.build(),
            model,
            node_to_dev,
            agents,
            monitor_dev,
            monitor_node,
            inbox,
            poll_timeout: options.poll_timeout,
            truth: TrueRates::default(),
        })
    }

    /// The poll runtime's telemetry handles (and through them, the
    /// registry everything on this network records into).
    pub fn telemetry(&self) -> &MonitorTelemetry {
        self.agents.telemetry()
    }

    /// The spec model this network was built from.
    pub fn model(&self) -> &SpecModel {
        &self.model
    }

    /// The node the monitor runs on.
    pub fn monitor_node(&self) -> NodeId {
        self.monitor_node
    }

    /// Device id of a topology node.
    pub fn device_of(&self, node: NodeId) -> Option<DeviceId> {
        self.node_to_dev.get(&node).copied()
    }

    /// All SNMP-pollable nodes, in node order.
    pub fn pollable_nodes(&self) -> Vec<NodeId> {
        self.agents.pollable().to_vec()
    }

    /// The simulated network as a
    /// [`Transport`](netqos_snmp::transport::Transport) from the monitor
    /// host to the agent of `node`, for a manager of the caller's own —
    /// how tests put the simulator beside the other transports. Polling
    /// goes through [`SimNetwork::poll_device`].
    pub fn link(&mut self, node: NodeId) -> Result<SimLink<'_>, MonitorError> {
        self.conversation(node)
            .map(|conversation| conversation.link)
    }

    /// Polls one device through the simulated network, advancing simulated
    /// time until its response arrives (or the poll timeout elapses).
    /// [`Network::poll_device`] without the trait in scope: the `qosbench`
    /// `lan-wide` workload polls the simulator through it.
    pub fn poll_device(&mut self, node: NodeId) -> Result<DeviceSnapshot, MonitorError> {
        Network::poll_device(self, node)
    }

    /// Advances simulated time to `t` (background traffic keeps flowing).
    pub fn run_until(&mut self, t: SimTime) {
        self.lan.run_until(t);
    }

    /// Measures the round-trip time from the monitor host to `to`'s ECHO
    /// service with `probes` sequential UDP probes of `payload_len` bytes
    /// (latency future-work extension). Lost probes time out after
    /// `timeout` each.
    pub fn measure_rtt(
        &mut self,
        to: NodeId,
        probes: usize,
        payload_len: usize,
        timeout: SimDuration,
    ) -> Result<crate::latency::LatencyStats, MonitorError> {
        let target_ip: Ipv4Addr = self
            .model
            .addresses
            .get(&to)
            .ok_or_else(|| MonitorError::Topology(format!("{to} has no address")))?
            .parse()
            .map_err(|e: netqos_sim::addr::ParseIpError| MonitorError::Sim(e.to_string()))?;
        let mut rtts = Vec::with_capacity(probes);
        let mut lost = 0usize;
        for k in 0..probes {
            // Tag the probe so echoes match up even with stale traffic.
            let tag = (k as u64).to_be_bytes();
            let mut payload = vec![0u8; payload_len.max(8)];
            payload[..8].copy_from_slice(&tag);
            let sent_at = self.lan.now();
            self.lan.post_udp(
                self.monitor_dev,
                MANAGER_PORT,
                target_ip,
                ECHO_PORT,
                Bytes::from(payload),
            )?;
            let echo = await_datagram(&mut self.lan, &self.inbox, sent_at + timeout, |d| {
                d.src_ip == target_ip && d.payload.starts_with(&tag)
            });
            match echo.map(|(at, _)| at.duration_since(sent_at)) {
                Some(rtt) => {
                    self.telemetry().path_rtt_us.record(rtt.as_micros());
                    rtts.push(rtt);
                }
                None => {
                    self.telemetry().probes_lost.inc();
                    lost += 1;
                }
            }
        }
        crate::latency::LatencyStats::from_samples(&rtts, lost).ok_or_else(|| {
            let name = self.model.topology.node(to).map(|n| n.name.clone());
            MonitorError::Timeout {
                node: name.unwrap_or_default(),
            }
        })
    }
}

impl Network for SimNetwork {
    fn now(&self) -> SimTime {
        self.lan.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        self.lan.run_until(t);
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

    type Wire<'a> = SimWire<'a>;

    fn wire(&mut self) -> (SimWire<'_>, &mut Agents, &SpecModel) {
        let wire = SimWire {
            lan: &mut self.lan,
            inbox: &self.inbox,
            manager_dev: self.monitor_dev,
            node_to_dev: &self.node_to_dev,
            timeout: self.poll_timeout,
        };
        (wire, &mut self.agents, &self.model)
    }

    /// Trap transmission is fire-and-forget UDP from the monitor host.
    fn send_trap(&mut self, dst: Ipv4Addr, trap: &[u8]) {
        let trap = Bytes::copy_from_slice(trap);
        let _ = (self.lan).post_udp(self.monitor_dev, TRAP_PORT, dst, TRAP_PORT, trap);
    }

    fn trap_agent_addr(&self) -> [u8; 4] {
        let addr = self.model.addresses.get(&self.monitor_node);
        let ip = addr.and_then(|a| a.parse::<Ipv4Addr>().ok());
        ip.map_or([0; 4], |ip| ip.octets())
    }

    /// The simulator's own octet counters: the 64-bit totals behind every
    /// interface of each of `reads` that has an agent.
    fn truth(&mut self, reads: &[NodeId]) -> Option<&dyn RateProvider> {
        for &node in reads.iter().filter(|&&node| self.agents.has_agent(node)) {
            let ports = self
                .model
                .topology
                .node(node)
                .map_or(0, |n| n.interfaces.len());
            (self.truth).record(&self.lan, node, self.node_to_dev[&node], ports);
        }
        Some(&self.truth)
    }
}

/// Ground truth for judging the monitor: the rates the simulator's own
/// octet counters give, in the shape the monitor answers in.
///
/// [`TrueRates::record`] reads the 64-bit total behind every interface
/// counter of one node — the totals never wrap — and the
/// [`RateProvider`] answer is the in/out rate over the interval between
/// its last two records. Interfaces never recorded answer `None`, as
/// those of a node without an agent do on the monitor, so a [`PathPlan`]
/// evaluated over this reads the same endpoints it reads over the
/// monitor.
///
/// [`PathPlan`]: netqos_topology::plan::PathPlan
#[derive(Default)]
struct TrueRates {
    /// Per node id, per interface: the reading before the last, and the
    /// last. Empty for a node never recorded.
    nodes: Vec<Vec<[Option<Octets>; 2]>>,
}

/// One interface's octet totals at one instant.
#[derive(Debug, Clone, Copy)]
struct Octets {
    at: SimTime,
    in_octets: u64,
    out_octets: u64,
}

impl TrueRates {
    /// Reads the totals of `node`'s `ports` interfaces, the NICs of `dev`,
    /// at `lan`'s current instant.
    fn record(&mut self, lan: &Lan, node: NodeId, dev: DeviceId, ports: usize) {
        if self.nodes.len() <= node.index() {
            self.nodes.resize_with(node.index() + 1, Vec::new);
        }
        let slots = &mut self.nodes[node.index()];
        slots.resize(ports, [None; 2]);
        for (port, [before, last]) in slots.iter_mut().enumerate() {
            let Ok(c) = lan.nic_counters(dev, PortIx(port as u32)) else {
                continue;
            };
            *before = last.take();
            *last = Some(Octets {
                at: lan.now(),
                in_octets: c.in_octets.total(),
                out_octets: c.out_octets.total(),
            });
        }
    }
}

impl RateProvider for TrueRates {
    fn rates(&self, node: NodeId, ifix: IfIx) -> Option<IfRates> {
        let slots = self.nodes.get(node.index())?;
        let [Some(before), Some(last)] = *slots.get(ifix.0 as usize)? else {
            return None;
        };
        let secs = last.at.duration_since(before.at).as_secs_f64();
        let bps = |octets: u64| (octets as f64 * 8.0 / secs).round() as u64;
        (secs > 0.0).then(|| IfRates {
            in_bps: bps(last.in_octets - before.in_octets),
            out_bps: bps(last.out_octets - before.out_octets),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NetworkMonitor;
    use netqos_snmp::client;
    use netqos_snmp::transport::Transport;
    use netqos_snmp::SnmpError;

    const SMALL: &str = r#"
        host L  { address 10.0.0.1;  snmp community "public"; interface eth0 { speed 100Mbps; } }
        host S1 { address 10.0.0.11; snmp community "public"; interface hme0 { speed 100Mbps; } }
        device sw switch { address 10.0.0.100; snmp community "public"; speed 100Mbps;
                           interface p1; interface p2; }
        connection L.eth0 <-> sw.p1;
        connection S1.hme0 <-> sw.p2;
    "#;

    fn build() -> SimNetwork {
        let model = netqos_spec::parse_and_validate(SMALL).unwrap();
        SimNetwork::from_model(model, SimNetworkOptions::default()).unwrap()
    }

    /// The per-request MIB as the agent built it before it answered from
    /// live state: every object materialised from NIC snapshots.
    fn materialised_mib(sysinfo: &SystemInfo, ctx: &AppCtx<'_>) -> ScalarMib {
        use netqos_snmp::mib2::IfEntry;
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, sysinfo, ctx.uptime_ticks());
        if let Some(fdb) = ctx.fdb_snapshot() {
            let entries: Vec<mib2::bridge::FdbEntry> = fdb
                .into_iter()
                .map(|(mac, port)| mib2::bridge::FdbEntry {
                    mac: mac.octets(),
                    port,
                })
                .collect();
            mib2::bridge::install(&mut mib, ctx.nic_snapshots().len() as u32, &entries);
        }
        let entries: Vec<IfEntry> = ctx
            .nic_snapshots()
            .into_iter()
            .map(|n| {
                let mut e = IfEntry::ethernet(
                    n.if_index,
                    &n.descr,
                    n.speed_bps.min(u32::MAX as u64) as u32,
                    n.mac.octets(),
                );
                e.in_octets = n.counters.in_octets.value();
                e.in_ucast_pkts = n.counters.in_ucast_pkts.value();
                e.in_nucast_pkts = n.counters.in_nucast_pkts.value();
                e.in_discards = n.counters.in_discards.value();
                e.in_errors = n.counters.in_errors.value();
                e.out_octets = n.counters.out_octets.value();
                e.out_ucast_pkts = n.counters.out_ucast_pkts.value();
                e.out_nucast_pkts = n.counters.out_nucast_pkts.value();
                e.out_discards = n.counters.out_discards.value();
                e.out_errors = n.counters.out_errors.value();
                e
            })
            .collect();
        mib2::interfaces::install(&mut mib, &entries);
        mib
    }

    /// What one [`LiveMibProbe`] run compared.
    #[derive(Default)]
    struct Compared {
        device: String,
        instances: usize,
        fdb_instances: usize,
        walk_steps: usize,
    }

    /// Runs inside the simulation, where an [`AppCtx`] exists: on any
    /// datagram, compares the live view of its device with the
    /// materialised MIB.
    struct LiveMibProbe {
        sysinfo: SystemInfo,
        compared: Rc<RefCell<Vec<Compared>>>,
    }

    impl UdpApp for LiveMibProbe {
        fn on_datagram(&mut self, ctx: &mut AppCtx<'_>, _dgram: &UdpDatagram) {
            let expected = materialised_mib(&self.sysinfo, ctx);
            let live = LiveMib {
                sysinfo: &self.sysinfo,
                ctx,
                full: OnceCell::new(),
            };
            let mut compared = Compared {
                device: ctx.device_name().to_owned(),
                ..Compared::default()
            };
            // Every instance, fetched by name: the direct answers (and
            // the full map behind the other names) match.
            let fdb = mib2::bridge::fdb_entry_base();
            for (oid, value) in expected.iter() {
                assert_eq!(live.get(&oid), Some(value.into()), "{oid}");
                compared.instances += 1;
                compared.fdb_instances += usize::from(oid.starts_with(&fdb));
            }
            // Names next to real ones have no direct answer either.
            for missing in [
                ifc::instance_oid(column::IF_IN_OCTETS, 0),
                ifc::instance_oid(column::IF_IN_OCTETS, ctx.nics().len() as u32 + 1),
                ifc::instance_oid(column::IF_OUT_QLEN + 1, 1),
                ifc::instance_oid(0, 1),
                ifc::column_oid(column::IF_IN_OCTETS),
                ifc::instance_oid(column::IF_IN_OCTETS, 1).child(0),
                mib2::system::sys_uptime_instance().child(0),
            ] {
                assert_eq!(expected.get(&missing), None, "{missing}");
                assert_eq!(live.get(&missing), None, "{missing}");
            }
            // A GetNext walk of the whole MIB answers byte for byte alike.
            let mut agents = (SnmpAgent::new("public"), SnmpAgent::new("public"));
            let mut cur = Oid::from([1, 3]);
            loop {
                let req = client::build_get_next("public", 1, std::slice::from_ref(&cur)).unwrap();
                let got = agents.0.handle(&req, &live).unwrap();
                assert_eq!(got, agents.1.handle(&req, &expected).unwrap());
                let resp = client::parse_response(&got).unwrap();
                if !resp.error_status.is_ok() {
                    break;
                }
                cur = resp.bindings[0].oid.clone();
                compared.walk_steps += 1;
            }
            assert_eq!(compared.walk_steps, expected.len());
            self.compared.borrow_mut().push(compared);
        }
    }

    #[test]
    fn live_view_answers_as_the_materialised_mib_on_host_and_switch() {
        const PROBE_PORT: u16 = 9_999;
        let compared: Rc<RefCell<Vec<Compared>>> = Rc::default();
        let model = netqos_spec::parse_and_validate(SMALL).unwrap();
        let install = |b: &mut LanBuilder, devs: &HashMap<NodeId, DeviceId>, m: &SpecModel| {
            for name in ["S1", "sw"] {
                let probe = LiveMibProbe {
                    sysinfo: SystemInfo::new(name),
                    compared: compared.clone(),
                };
                let dev = devs[&m.topology.node_by_name(name).unwrap()];
                b.install_app(dev, Box::new(probe), Some(PROBE_PORT))
                    .unwrap();
            }
        };
        let mut net =
            SimNetwork::from_model_with(model, SimNetworkOptions::default(), install).unwrap();
        // Traffic first: counters move and the switch learns addresses.
        let mut monitor = NetworkMonitor::new(net.model().topology.clone());
        let every = net.pollable_nodes();
        for _ in 0..3 {
            net.poll_nodes(&every, &mut monitor).unwrap();
        }
        for ip in [Ipv4Addr::new(10, 0, 0, 11), Ipv4Addr::new(10, 0, 0, 100)] {
            let ping = Bytes::from_static(b"compare");
            net.lan
                .post_udp(net.monitor_dev, MANAGER_PORT, ip, PROBE_PORT, ping)
                .unwrap();
        }
        let later = net.lan.now() + SimDuration::from_millis(50);
        net.run_until(later);

        let compared = compared.borrow();
        assert_eq!(compared.len(), 2, "both probes ran");
        let of = |device: &str| compared.iter().find(|c| c.device == device).unwrap();
        // Host: 7 system scalars, ifNumber, 21 cells of one interface.
        assert_eq!(of("S1").instances, 7 + 1 + 21);
        assert_eq!(of("S1").fdb_instances, 0);
        // Switch: two interfaces, dot1dBaseNumPorts and the forwarding
        // database.
        assert!(of("sw").fdb_instances >= 3, "switch learned no address");
        assert_eq!(
            of("sw").instances,
            7 + 1 + 2 * 21 + 1 + of("sw").fdb_instances
        );
    }

    #[test]
    fn pollable_nodes_cover_hosts_and_switch() {
        let net = build();
        assert_eq!(net.pollable_nodes().len(), 3);
    }

    #[test]
    fn poll_returns_interface_table() {
        let mut net = build();
        let s1 = net.model().topology.node_by_name("S1").unwrap();
        let snap = net.poll_device(s1).unwrap();
        assert_eq!(snap.interfaces.len(), 1);
        assert_eq!(snap.interfaces[0].descr, "hme0");
        assert_eq!(snap.interfaces[0].speed_bps, 100_000_000);
    }

    #[test]
    fn poll_switch_covers_all_ports() {
        let mut net = build();
        let sw = net.model().topology.node_by_name("sw").unwrap();
        let snap = net.poll_device(sw).unwrap();
        assert_eq!(snap.interfaces.len(), 2);
        assert_eq!(snap.interfaces[0].descr, "p1");
    }

    #[test]
    fn poll_consumes_simulated_time() {
        let mut net = build();
        let s1 = net.model().topology.node_by_name("S1").unwrap();
        let t0 = net.lan.now();
        net.poll_device(s1).unwrap();
        assert!(net.lan.now() > t0, "polling must advance the clock");
    }

    #[test]
    fn snmp_traffic_is_visible_on_counters() {
        // The poll itself loads the network — the paper's ~2% SNMP
        // overhead term.
        let mut net = build();
        let l = net.model().topology.node_by_name("L").unwrap();
        let ldev = net.device_of(l).unwrap();
        let s1 = net.model().topology.node_by_name("S1").unwrap();
        net.poll_device(s1).unwrap();
        let c = net.lan.nic_counters(ldev, PortIx(0)).unwrap();
        assert!(c.out_octets.value() > 0, "request bytes must hit the wire");
        assert!(c.in_octets.value() > 0, "response bytes must come back");
    }

    #[test]
    fn polling_every_device_feeds_monitor() {
        let mut net = build();
        let mut monitor = NetworkMonitor::new(net.model().topology.clone());
        let every = net.pollable_nodes();
        assert_eq!(net.poll_nodes(&every, &mut monitor).unwrap(), 3);
        // Second round 1 s later produces rates.
        let next = net.lan.now() + SimDuration::from_secs(1);
        net.run_until(next);
        assert_eq!(net.poll_nodes(&every, &mut monitor).unwrap(), 3);
        let l = net.model().topology.node_by_name("L").unwrap();
        let s1 = net.model().topology.node_by_name("S1").unwrap();
        let bw = monitor.path_bandwidth(l, s1).unwrap();
        // Only SNMP chatter on the wire: tiny but measured usage.
        assert!(bw.available_bps <= 100_000_000);
        assert!(bw.available_bps > 99_000_000);
    }

    #[test]
    fn agent_jitter_delays_but_still_answers() {
        let model = netqos_spec::parse_and_validate(SMALL).unwrap();
        let options = SimNetworkOptions {
            agent_jitter_mean: Some(SimDuration::from_millis(50)),
            poll_timeout: SimDuration::from_secs(2),
            ..SimNetworkOptions::default()
        };
        let mut net = SimNetwork::from_model(model, options).unwrap();
        let s1 = net.model().topology.node_by_name("S1").unwrap();
        let t0 = net.lan.now();
        net.poll_device(s1).unwrap();
        let elapsed = net.lan.now().duration_since(t0);
        assert!(elapsed >= SimDuration::from_micros(100));
    }

    #[test]
    fn unpollable_node_reports_error() {
        let mut net = build();
        // Build a node id that exists but has no agent: none here, so use
        // an out-of-range id to hit the NotPollable path via lookup.
        let bogus = NodeId(99);
        assert!(net.poll_device(bogus).is_err());
    }

    #[test]
    fn a_request_the_simulator_refuses_is_a_sim_error_and_not_a_failed_poll() {
        let mut net = build();
        let s1 = net.model().topology.node_by_name("S1").unwrap();
        net.poll_device(s1).unwrap();
        net.monitor_dev = DeviceId(99); // no such device: nothing can be posted
        assert!(matches!(net.poll_device(s1), Err(MonitorError::Sim(_))));
        assert!(matches!(
            net.poll_phys_addresses(s1),
            Err(MonitorError::Sim(_))
        ));
        assert!(matches!(net.poll_fdb(s1), Err(MonitorError::Sim(_))));
        let telemetry = net.telemetry();
        assert_eq!(telemetry.polls.get(), 1);
        assert_eq!(telemetry.poll_failures.get(), 0);
        assert_eq!(telemetry.poll_timeouts.get(), 0);
        assert_eq!(telemetry.poll_rtt_us.count(), 1);
        // A caller's own manager over the link sees a transport failure.
        let mut link = net.link(s1).unwrap();
        let request = client::build_get("public", 1, &[]).unwrap();
        assert!(matches!(
            link.exchange(&request),
            Err(SnmpError::Transport(_))
        ));
        // So does one whose request carries no request-id to match.
        assert!(matches!(
            link.exchange(b"not snmp"),
            Err(SnmpError::Transport(_))
        ));
    }

    #[test]
    fn noise_option_generates_background() {
        let model = netqos_spec::parse_and_validate(SMALL).unwrap();
        let options = SimNetworkOptions {
            noise_mean: Some(SimDuration::from_millis(20)),
            ..SimNetworkOptions::default()
        };
        let mut net = SimNetwork::from_model(model, options).unwrap();
        net.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let l = net.model().topology.node_by_name("L").unwrap();
        let ldev = net.device_of(l).unwrap();
        let c = net.lan.nic_counters(ldev, PortIx(0)).unwrap();
        assert!(c.in_nucast_pkts.value() > 0, "no background noise seen");
    }

    /// `spec` with L sending S1 a constant 100 000 B/s in 1 000-byte
    /// datagrams: 100 frames of 1 046 wire bytes a second.
    fn loaded(spec: &str) -> SimNetwork {
        let model = netqos_spec::parse_and_validate(spec).unwrap();
        SimNetwork::from_model_with(model, SimNetworkOptions::default(), |b, devs, m| {
            let l = m.topology.node_by_name("L").unwrap();
            let dst = "10.0.0.11".parse().unwrap();
            let cbr = netqos_sim::traffic::CbrSource::new(dst, DISCARD_PORT, 100_000, 1_000);
            b.install_app(devs[&l], Box::new(cbr), None).unwrap();
        })
        .unwrap()
    }

    const WIRE_BPS: u64 = 100 * 1_046 * 8;

    /// The truth of every agent recorded at `records` instants (ms), each
    /// between two frames.
    fn truth_at<'a>(net: &'a mut SimNetwork, records: &[u64]) -> &'a dyn RateProvider {
        let every: Vec<NodeId> = net.model().topology.nodes().map(|(n, _)| n).collect();
        for &ms in records {
            net.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
            net.truth(&every);
        }
        net.truth(&[]).expect("the simulator knows its counters")
    }

    #[test]
    fn true_rates_read_a_constant_load_at_its_wire_rate() {
        let mut net = loaded(SMALL);
        let topo = &net.model().topology;
        let [l, s1, sw] = ["L", "S1", "sw"].map(|name| topo.node_by_name(name).unwrap());
        let truth = truth_at(&mut net, &[1_005, 2_005]);
        let rates = |node, port| truth.rates(node, IfIx(port)).unwrap();
        assert_eq!(
            rates(l, 0),
            IfRates {
                in_bps: 0,
                out_bps: WIRE_BPS
            }
        );
        assert_eq!(
            rates(s1, 0),
            IfRates {
                in_bps: WIRE_BPS,
                out_bps: 0
            }
        );
        assert_eq!(rates(sw, 1).out_bps, WIRE_BPS);
    }

    #[test]
    fn true_rates_read_across_a_counter32_wrap() {
        let mut plain = loaded(SMALL);
        let unwrapped = truth_at(&mut plain, &[1_005, 2_005]);
        let mut net = loaded(SMALL);
        let s1 = net.model().topology.node_by_name("S1").unwrap();
        let dev = net.device_of(s1).unwrap();
        net.lan
            .preload_octet_counters(dev, PortIx(0), u32::MAX - 999, 0)
            .unwrap();
        let truth = truth_at(&mut net, &[1_005, 2_005]);
        assert_eq!(truth.rates(s1, IfIx(0)), unwrapped.rates(s1, IfIx(0)));
        assert_eq!(truth.rates(s1, IfIx(0)).unwrap().in_bps, WIRE_BPS);
        let c = net.lan.nic_counters(dev, PortIx(0)).unwrap().in_octets;
        assert!(c.total() > u32::MAX as u64, "the counter must have wrapped");
    }

    #[test]
    fn true_rates_answer_nothing_for_a_node_without_an_agent() {
        let agentless = SMALL.replace(
            r#"host S1 { address 10.0.0.11; snmp community "public";"#,
            "host S1 { address 10.0.0.11;",
        );
        let mut net = loaded(&agentless);
        let topo = &net.model().topology;
        let [l, s1] = ["L", "S1"].map(|name| topo.node_by_name(name).unwrap());
        let truth = truth_at(&mut net, &[1_005, 2_005]);
        assert_eq!(truth.rates(s1, IfIx(0)), None);
        assert_eq!(truth.rates(l, IfIx(0)).unwrap().out_bps, WIRE_BPS);
    }

    #[test]
    fn true_rates_answer_nothing_before_two_records() {
        for records in [&[][..], &[1_005]] {
            let mut net = loaded(SMALL);
            let l = net.model().topology.node_by_name("L").unwrap();
            assert_eq!(truth_at(&mut net, records).rates(l, IfIx(0)), None);
        }
    }

    /// Only the nodes asked for are recorded: a node left out of `reads`
    /// answers nothing, the others their rates.
    #[test]
    fn true_rates_record_only_the_nodes_read() {
        let mut net = loaded(SMALL);
        let topo = &net.model().topology;
        let [l, s1] = ["L", "S1"].map(|name| topo.node_by_name(name).unwrap());
        for ms in [1_005, 2_005] {
            net.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
            net.truth(&[s1]);
        }
        let truth = net.truth(&[]).unwrap();
        assert_eq!(truth.rates(l, IfIx(0)), None);
        assert_eq!(truth.rates(s1, IfIx(0)).unwrap().in_bps, WIRE_BPS);
    }
}
