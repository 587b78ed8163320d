//! Running the whole monitored system inside the simulator.
//!
//! [`SimNetwork`] lowers a validated [`SpecModel`] into a `netqos-sim`
//! LAN: every host gets DISCARD and ECHO services, every SNMP-capable
//! node gets an in-simulation SNMP agent ([`SimSnmpAgent`]) answering on
//! port 161, and the designated monitor host gets a manager mailbox. The
//! poll runtime then sends *real encoded SNMP messages through the
//! simulated network* — so, exactly as in the paper's testbed, the
//! monitoring traffic itself consumes bandwidth and contributes to the
//! measurement bias (the paper attributes ~2 % of its error to "traffic
//! caused by SNMP queries and acknowledgements").

use crate::error::MonitorError;
use crate::poll::{self, DeviceSnapshot};
use bytes::Bytes;
use netqos_sim::app::{AppCtx, DiscardSink, EchoResponder, Mailbox, UdpApp};
use netqos_sim::builder::LanBuilder;
use netqos_sim::packet::{DISCARD_PORT, ECHO_PORT, SNMP_PORT};
use netqos_sim::time::{SimDuration, SimTime};
use netqos_sim::traffic::NoiseSource;
use netqos_sim::{DeviceId, Ipv4Addr, Lan, PortIx, UdpDatagram};
use netqos_snmp::agent::SnmpAgent;
use netqos_snmp::client;
use netqos_snmp::mib::ScalarMib;
use netqos_snmp::mib2::{self, IfEntry, SystemInfo};
use netqos_spec::SpecModel;
use netqos_telemetry::{QuantileBaseline, Tracer};
use netqos_topology::{NodeId, NodeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::rc::Rc;

/// An SNMP agent living inside the simulation as a UDP app.
///
/// On each request it builds a fresh MIB view from the device's live NIC
/// counters and `sysUpTime`, exactly like a real agent reading kernel
/// statistics. An optional response-delay distribution models agent
/// scheduling jitter — the cause of the paper's occasional large
/// one-sample errors ("some data bytes are counted in a later SNMP message
/// instead of an earlier one").
pub struct SimSnmpAgent {
    agent: SnmpAgent,
    sysinfo: SystemInfo,
    jitter: Option<(StdRng, SimDuration)>,
    pending: VecDeque<(Ipv4Addr, u16, Bytes)>,
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

    fn build_mib(&self, ctx: &AppCtx<'_>) -> ScalarMib {
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &self.sysinfo, ctx.uptime_ticks());
        // Switches additionally export their forwarding database
        // (BRIDGE-MIB), feeding the topology-verification extension.
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
}

impl UdpApp for SimSnmpAgent {
    fn on_datagram(&mut self, ctx: &mut AppCtx<'_>, dgram: &UdpDatagram) {
        let mib = self.build_mib(ctx);
        if let Some(resp) = self.agent.handle(&dgram.payload, &mib) {
            match &mut self.jitter {
                Some((rng, mean)) => {
                    let u: f64 = rng.gen_range(1e-6..1.0);
                    let d = SimDuration::from_secs_f64((-u.ln()) * mean.as_secs_f64());
                    self.pending
                        .push_back((dgram.src_ip, dgram.src_port, Bytes::from(resp)));
                    ctx.schedule(d, 0);
                }
                None => {
                    ctx.send_udp(SNMP_PORT, dgram.src_ip, dgram.src_port, Bytes::from(resp));
                }
            }
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
            poll_timeout: SimDuration::from_millis(500),
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
    agent_addr: HashMap<NodeId, (Ipv4Addr, String)>,
    /// The keys of `agent_addr` in node order: the poll order.
    pollable: Vec<NodeId>,
    monitor_dev: DeviceId,
    monitor_node: NodeId,
    inbox: Rc<RefCell<Vec<(SimTime, UdpDatagram)>>>,
    next_request_id: i32,
    poll_timeout: SimDuration,
    /// Polls that timed out (for diagnostics).
    pub timeouts: u64,
    telemetry: crate::telemetry::MonitorTelemetry,
    tracer: Tracer,
    /// Per-device poll-RTT baseline (simulated microseconds), so traces
    /// can rank each RTT against the device's recent history.
    rtt_baselines: HashMap<NodeId, QuantileBaseline>,
}

/// UDP port the manager mailbox listens on.
const MANAGER_PORT: u16 = 16100;

/// Retransmissions per poll on timeout (matching the UDP transport's
/// default of 2 retries).
const POLL_RETRIES: u32 = 2;

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
        let mut b = LanBuilder::new();
        let mut node_to_dev = HashMap::new();
        let mut agent_addr = HashMap::new();
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
            if node.snmp_capable && !node.kind.is_shared_medium() {
                agent_addr.insert(
                    node_id,
                    (
                        addr.parse::<Ipv4Addr>()
                            .map_err(|e| MonitorError::Sim(e.to_string()))?,
                        node.snmp_community.clone(),
                    ),
                );
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
            if agent_addr.contains_key(&node_id) {
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

        let telemetry = match options.registry {
            Some(registry) => crate::telemetry::MonitorTelemetry::new(registry),
            None => crate::telemetry::MonitorTelemetry::private(),
        };
        let mut pollable: Vec<NodeId> = agent_addr.keys().copied().collect();
        pollable.sort();
        Ok(SimNetwork {
            lan: b.build(),
            model,
            node_to_dev,
            agent_addr,
            pollable,
            monitor_dev,
            monitor_node,
            inbox,
            next_request_id: 1,
            poll_timeout: options.poll_timeout,
            timeouts: 0,
            telemetry,
            tracer: Tracer::disabled(),
            rtt_baselines: HashMap::new(),
        })
    }

    /// Routes this network's poll-pipeline spans into `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer the poll pipeline records into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The poll-RTT baseline of a device, if it has been polled.
    pub fn rtt_baseline(&self, node: NodeId) -> Option<&QuantileBaseline> {
        self.rtt_baselines.get(&node)
    }

    /// The poll runtime's telemetry handles (and through them, the
    /// registry everything on this network records into).
    pub fn telemetry(&self) -> &crate::telemetry::MonitorTelemetry {
        &self.telemetry
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
        self.pollable.clone()
    }

    /// Polls one device through the simulated network, advancing simulated
    /// time until its response arrives (or the poll timeout elapses).
    pub fn poll_device(&mut self, node: NodeId) -> Result<DeviceSnapshot, MonitorError> {
        let community = self
            .agent_addr
            .get(&node)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| {
                let name = self
                    .model
                    .topology
                    .node(node)
                    .map(|n| n.name.clone())
                    .unwrap_or_else(|_| node.to_string());
                MonitorError::NotPollable(name)
            })?;
        let node_name = self.model.topology.node(node)?.name.clone();
        let mut poll_span = self.tracer.span("monitor.poll", "device");
        poll_span.set_attr("device", node_name.as_str());
        let if_count = self.model.topology.node(node)?.interfaces.len() as u32;
        let oids = poll::poll_oids(if_count);
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1).max(1);
        let req = {
            let mut encode_span = self.tracer.span("snmp.codec", "encode");
            let req = client::build_get(&community, request_id, &oids)
                .map_err(|e| MonitorError::Snmp(e.to_string()))?;
            encode_span.set_attr("bytes", req.len());
            encode_span.set_attr("oids", oids.len());
            req
        };
        let sent_at = self.lan.now();
        let resp = {
            let _exchange_span = self.tracer.span("snmp.client", "exchange");
            self.exchange(node, req, request_id)?
        };
        let rtt_us = self.lan.now().duration_since(sent_at).as_micros();
        self.telemetry.poll_rtt_us.record(rtt_us);
        // Rank this RTT against the device's own history before folding
        // it into the baseline.
        let baseline = self.rtt_baselines.entry(node).or_default();
        if poll_span.is_recording() {
            poll_span.set_attr("rtt_us", rtt_us);
            poll_span.set_attr("rtt_rank", baseline.rank(rtt_us));
        }
        baseline.record(rtt_us);
        // Drop stale datagrams (late duplicates from retransmitted polls)
        // so the inbox cannot grow without bound across long experiments.
        {
            let now = self.lan.now();
            self.inbox
                .borrow_mut()
                .retain(|(t, _)| now.duration_since(*t) < SimDuration::from_secs(10));
        }
        let mut decode_span = self.tracer.span("snmp.codec", "decode");
        let bindings = resp.into_result().map_err(|e| {
            self.telemetry.poll_failures.inc();
            MonitorError::Snmp(e.to_string())
        })?;
        decode_span.set_attr("bindings", bindings.len());
        let snapshot = poll::parse_snapshot(&bindings, if_count);
        drop(decode_span);
        match &snapshot {
            Ok(_) => self.telemetry.polls.inc(),
            Err(_) => self.telemetry.poll_failures.inc(),
        }
        snapshot
    }

    /// Polls every SNMP-capable device once, in node order, feeding the
    /// snapshots into `monitor`. Returns the number of successful polls.
    pub fn poll_round(
        &mut self,
        monitor: &mut crate::monitor::NetworkMonitor,
    ) -> Result<usize, MonitorError> {
        let mut round_span = self.tracer.span("monitor.poll", "round");
        round_span.set_attr("devices", self.pollable.len());
        let mut ok = 0;
        for i in 0..self.pollable.len() {
            let node = self.pollable[i];
            match self.poll_device(node) {
                Ok(snap) => {
                    monitor.ingest(node, snap)?;
                    ok += 1;
                }
                Err(MonitorError::Timeout { .. }) => continue, // retry next round
                Err(e) => return Err(e),
            }
        }
        round_span.set_attr("ok", ok);
        Ok(ok)
    }

    /// Advances simulated time to `t` (background traffic keeps flowing).
    pub fn run_until(&mut self, t: SimTime) {
        self.lan.run_until(t);
    }

    /// One SNMP exchange through the simulated network: sends `request`
    /// to `node`'s agent and waits for the matching response,
    /// retransmitting up to [`POLL_RETRIES`] times on timeout — the same
    /// recovery a real manager performs over lossy UDP.
    fn exchange(
        &mut self,
        node: NodeId,
        request: Vec<u8>,
        request_id: i32,
    ) -> Result<client::Response, MonitorError> {
        let (agent_ip, _) = self.agent_addr.get(&node).cloned().ok_or_else(|| {
            let name = self
                .model
                .topology
                .node(node)
                .map(|n| n.name.clone())
                .unwrap_or_else(|_| node.to_string());
            MonitorError::NotPollable(name)
        })?;
        for attempt in 0..=POLL_RETRIES {
            if attempt > 0 {
                self.telemetry.poll_retransmits.inc();
            }
            self.lan.post_udp(
                self.monitor_dev,
                MANAGER_PORT,
                agent_ip,
                SNMP_PORT,
                Bytes::from(request.clone()),
            )?;
            let deadline = self.lan.now() + self.poll_timeout;
            loop {
                {
                    let mut inbox = self.inbox.borrow_mut();
                    let mut found = None;
                    for (i, (_, dgram)) in inbox.iter().enumerate() {
                        if let Ok(resp) = client::parse_response(&dgram.payload) {
                            if resp.request_id == request_id {
                                found = Some((i, resp));
                                break;
                            }
                        }
                    }
                    if let Some((i, resp)) = found {
                        inbox.remove(i);
                        return Ok(resp);
                    }
                }
                if self.lan.now() >= deadline {
                    break; // this attempt timed out; maybe retransmit
                }
                self.lan.step_before(deadline);
            }
        }
        self.timeouts += 1;
        self.telemetry.poll_timeouts.inc();
        let name = self.model.topology.node(node)?.name.clone();
        Err(MonitorError::Timeout { node: name })
    }

    /// Walks a MIB subtree of `node`'s agent with repeated GetNext
    /// requests through the simulated network.
    pub fn walk_subtree(
        &mut self,
        node: NodeId,
        prefix: &netqos_snmp::Oid,
    ) -> Result<Vec<netqos_snmp::pdu::VarBind>, MonitorError> {
        let community = self
            .agent_addr
            .get(&node)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| {
                MonitorError::NotPollable(
                    self.model
                        .topology
                        .node(node)
                        .map(|n| n.name.clone())
                        .unwrap_or_default(),
                )
            })?;
        let mut out = Vec::new();
        let mut cur = prefix.clone();
        loop {
            let request_id = self.next_request_id;
            self.next_request_id = self.next_request_id.wrapping_add(1).max(1);
            let req = client::build_get_next(&community, request_id, std::slice::from_ref(&cur))
                .map_err(|e| MonitorError::Snmp(e.to_string()))?;
            let resp = self.exchange(node, req, request_id)?;
            if !resp.error_status.is_ok() {
                break; // noSuchName = end of MIB in v1
            }
            let Some(vb) = resp.bindings.into_iter().next() else {
                break;
            };
            if !vb.oid.starts_with(prefix) || vb.oid == cur {
                break;
            }
            cur = vb.oid.clone();
            out.push(vb);
        }
        Ok(out)
    }

    /// Walks a MIB subtree with SNMPv2c GetBulk requests through the
    /// simulated network — far fewer round trips than
    /// [`SimNetwork::walk_subtree`] on large tables.
    pub fn walk_subtree_bulk(
        &mut self,
        node: NodeId,
        prefix: &netqos_snmp::Oid,
        max_repetitions: u32,
    ) -> Result<Vec<netqos_snmp::pdu::VarBind>, MonitorError> {
        let community = self
            .agent_addr
            .get(&node)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| {
                MonitorError::NotPollable(
                    self.model
                        .topology
                        .node(node)
                        .map(|n| n.name.clone())
                        .unwrap_or_default(),
                )
            })?;
        let mut out = Vec::new();
        let mut cur = prefix.clone();
        'outer: loop {
            let request_id = self.next_request_id;
            self.next_request_id = self.next_request_id.wrapping_add(1).max(1);
            let req = client::build_get_bulk(
                &community,
                request_id,
                0,
                max_repetitions.max(1),
                std::slice::from_ref(&cur),
            )
            .map_err(|e| MonitorError::Snmp(e.to_string()))?;
            let resp = self.exchange(node, req, request_id)?;
            if !resp.error_status.is_ok() || resp.bindings.is_empty() {
                break;
            }
            for vb in resp.bindings {
                if vb.value.is_exception() || !vb.oid.starts_with(prefix) || vb.oid == cur {
                    break 'outer;
                }
                cur = vb.oid.clone();
                out.push(vb);
            }
        }
        Ok(out)
    }

    /// Reads the forwarding database of a managed switch (BRIDGE-MIB
    /// `dot1dTpFdbPort` walk, fetched with SNMPv2c GetBulk).
    pub fn poll_fdb(
        &mut self,
        node: NodeId,
    ) -> Result<Vec<netqos_snmp::mib2::bridge::FdbEntry>, MonitorError> {
        let col = netqos_snmp::mib2::bridge::fdb_entry_base()
            .child(netqos_snmp::mib2::bridge::column::PORT);
        let bindings = self.walk_subtree_bulk(node, &col, 16)?;
        Ok(netqos_snmp::mib2::bridge::entries_from_port_walk(&bindings))
    }

    /// Reads the `ifPhysAddress` column of a node's agent: `(ifIndex,
    /// MAC)` pairs — the identity evidence the topology verifier matches
    /// against switch FDBs.
    pub fn poll_phys_addresses(
        &mut self,
        node: NodeId,
    ) -> Result<Vec<(u32, [u8; 6])>, MonitorError> {
        let col = mib2::interfaces::column_oid(mib2::interfaces::column::IF_PHYS_ADDRESS);
        let bindings = self.walk_subtree(node, &col)?;
        Ok(bindings
            .iter()
            .filter_map(|vb| {
                let (c, ifindex) = mib2::interfaces::parse_instance(&vb.oid)?;
                if c != mib2::interfaces::column::IF_PHYS_ADDRESS {
                    return None;
                }
                match &vb.value {
                    netqos_snmp::SnmpValue::OctetString(b) if b.len() == 6 => {
                        let mut mac = [0u8; 6];
                        mac.copy_from_slice(b);
                        Some((ifindex, mac))
                    }
                    _ => None,
                }
            })
            .collect())
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
            let mut payload = vec![0u8; payload_len.max(8)];
            payload[..8].copy_from_slice(&(k as u64).to_be_bytes());
            let tag = payload[..8].to_vec();
            let sent_at = self.lan.now();
            self.lan.post_udp(
                self.monitor_dev,
                MANAGER_PORT,
                target_ip,
                ECHO_PORT,
                Bytes::from(payload),
            )?;
            let deadline = sent_at + timeout;
            let mut got = None;
            loop {
                {
                    let mut inbox = self.inbox.borrow_mut();
                    if let Some(i) = inbox.iter().position(|(_, d)| {
                        d.src_ip == target_ip && d.payload.len() >= 8 && d.payload[..8] == tag[..]
                    }) {
                        let (at, _) = inbox.remove(i);
                        got = Some(at.duration_since(sent_at));
                    }
                }
                if got.is_some() || self.lan.now() >= deadline {
                    break;
                }
                self.lan.step_before(deadline);
            }
            match got {
                Some(rtt) => {
                    self.telemetry.path_rtt_us.record(rtt.as_micros());
                    rtts.push(rtt);
                }
                None => {
                    self.telemetry.probes_lost.inc();
                    lost += 1;
                }
            }
        }
        crate::latency::LatencyStats::from_samples(&rtts, lost).ok_or_else(|| {
            MonitorError::Timeout {
                node: self
                    .model
                    .topology
                    .node(to)
                    .map(|n| n.name.clone())
                    .unwrap_or_default(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NetworkMonitor;

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
    fn poll_round_feeds_monitor() {
        let mut net = build();
        let mut monitor = NetworkMonitor::new(net.model().topology.clone());
        assert_eq!(net.poll_round(&mut monitor).unwrap(), 3);
        // Second round 1 s later produces rates.
        let next = net.lan.now() + SimDuration::from_secs(1);
        net.run_until(next);
        assert_eq!(net.poll_round(&mut monitor).unwrap(), 3);
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
}
