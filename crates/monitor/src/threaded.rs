//! Distributed monitoring over real UDP — the paper's future-work item
//! "distributed network monitoring": the SNMP manager that polls the
//! simulator, here over one UDP transport per agent.
//!
//! One poller thread per agent sends the Table-1 GetRequest every
//! `period`, pushing parsed snapshots into a crossbeam channel; the
//! consumer (usually the RM process) drains the channel into a
//! [`NetworkMonitor`](crate::monitor::NetworkMonitor). Agent failures are reported in-band so the RM can
//! treat an unresponsive host as a failure-detection signal.

use crate::error::MonitorError;
use crate::live::unix_now_ns;
use crate::poll::{poll_once, DeviceSnapshot, PollPlan};
use crossbeam::channel::{unbounded, Receiver, Sender};
use netqos_snmp::client::Manager;
use netqos_snmp::telemetry::ClientTelemetry;
use netqos_snmp::transport::UdpTransport;
use netqos_telemetry::{Counter, CycleTrace, FlightRecorder, Registry, SpanRecord, Tracer};
use netqos_topology::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One agent to poll.
#[derive(Debug, Clone)]
pub struct AgentTarget {
    /// The topology node this agent represents.
    pub node: NodeId,
    /// UDP address of the agent.
    pub addr: SocketAddr,
    /// Community string.
    pub community: String,
    /// Number of interfaces to poll.
    pub if_count: u32,
}

/// A message from a poller thread.
#[derive(Debug)]
pub enum PollMessage {
    /// A successful poll.
    Snapshot {
        /// Which node.
        node: NodeId,
        /// The snapshot.
        snapshot: DeviceSnapshot,
    },
    /// A failed poll (timeout or protocol error).
    Failure {
        /// Which node.
        node: NodeId,
        /// Why.
        error: MonitorError,
    },
}

/// Handle to a running distributed poller.
pub struct DistributedPoller {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    rx: Receiver<PollMessage>,
    stats: Arc<Mutex<PollerStats>>,
    worker_spans: Arc<Mutex<Vec<SpanRecord>>>,
}

/// Upper bound on buffered worker spans awaiting collection; beyond
/// this, the oldest spans are dropped (forensics favours recency).
const WORKER_SPAN_CAP: usize = 4096;

/// Aggregate poller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollerStats {
    /// Successful polls across all agents.
    pub successes: u64,
    /// Failed polls across all agents.
    pub failures: u64,
}

/// Telemetry handles shared by one poller's worker threads.
struct WorkerTelemetry {
    client: ClientTelemetry,
    successes: Counter,
    failures: Counter,
}

impl DistributedPoller {
    /// Spawns one polling thread per target.
    ///
    /// Every metric resolves against `registry` (pass
    /// [`netqos_telemetry::global()`] for the process-wide one): aggregate
    /// success/failure counters and the SNMP client's request counter.
    ///
    /// Each worker records causal spans into a fork of `tracer` (sharing
    /// its enable switch, not its cycle buffer — workers are concurrent,
    /// so each poll becomes its own trace; pass [`Tracer::disabled()`] for
    /// none). Drained spans accumulate up to [`WORKER_SPAN_CAP`]; collect
    /// them with [`DistributedPoller::take_spans`]. With a `flight`
    /// recorder each worker poll is additionally pushed as its own
    /// [`CycleTrace`], so real-UDP polls land in the same forensic ring
    /// (and OTLP/Chrome snapshots) as the simulated pipeline's cycles.
    pub fn spawn(
        targets: Vec<AgentTarget>,
        period: Duration,
        registry: &Registry,
        tracer: &Tracer,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(PollerStats::default()));
        let worker_spans = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx): (Sender<PollMessage>, Receiver<PollMessage>) = unbounded();
        let mut threads = Vec::with_capacity(targets.len());
        // Workers polling devices of the same interface count share a plan.
        let mut plans: HashMap<u32, Arc<PollPlan>> = HashMap::new();
        for target in targets {
            let plan = plans
                .entry(target.if_count)
                .or_insert_with(|| Arc::new(PollPlan::new(target.if_count)))
                .clone();
            let stop = stop.clone();
            let tx = tx.clone();
            let stats = stats.clone();
            let tracer = tracer.fork();
            let spans = worker_spans.clone();
            let flight = flight.clone();
            let telemetry = WorkerTelemetry {
                client: ClientTelemetry::from_registry(registry),
                successes: registry.counter("netqos_threaded_polls_total"),
                failures: registry.counter("netqos_threaded_poll_failures_total"),
            };
            threads.push(std::thread::spawn(move || {
                poll_loop(
                    target, plan, period, stop, tx, stats, telemetry, tracer, spans, flight,
                )
            }));
        }
        DistributedPoller {
            stop,
            threads,
            rx,
            stats,
            worker_spans,
        }
    }

    /// Takes every span the worker threads have recorded since the last
    /// call (empty unless spawned with an enabled tracer).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.worker_spans.lock())
    }

    /// The message channel to drain.
    pub fn messages(&self) -> &Receiver<PollMessage> {
        &self.rx
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> PollerStats {
        *self.stats.lock()
    }

    /// Stops all threads and joins them.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Drains pending messages into a monitor; failures are returned.
    pub fn drain_into(
        &self,
        monitor: &mut crate::monitor::NetworkMonitor,
    ) -> Vec<(NodeId, MonitorError)> {
        let mut failures = Vec::new();
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                PollMessage::Snapshot { node, snapshot } => {
                    if let Err(e) = monitor.ingest(node, snapshot) {
                        failures.push((node, e));
                    }
                }
                PollMessage::Failure { node, error } => failures.push((node, error)),
            }
        }
        failures
    }
}

impl Drop for DistributedPoller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn poll_loop(
    target: AgentTarget,
    plan: Arc<PollPlan>,
    period: Duration,
    stop: Arc<AtomicBool>,
    tx: Sender<PollMessage>,
    stats: Arc<Mutex<PollerStats>>,
    telemetry: WorkerTelemetry,
    tracer: Tracer,
    spans: Arc<Mutex<Vec<SpanRecord>>>,
    flight: Option<Arc<FlightRecorder>>,
) {
    // Each fork has its own monotonic origin; anchor it on the Unix
    // timeline once so this worker's flight cycles export as OTLP with
    // absolute timestamps.
    let epoch_unix_ns = unix_now_ns().saturating_sub(tracer.now_ns());
    let node = target.node.to_string();
    let mut transport = match UdpTransport::connect(target.addr) {
        Ok(mut t) => {
            t.set_timeout(period.min(Duration::from_millis(500)));
            t.set_retries(1);
            t
        }
        Err(e) => {
            let _ = tx.send(PollMessage::Failure {
                node: target.node,
                error: MonitorError::from_snmp(e, &node),
            });
            return;
        }
    };
    let mut manager = Manager::default();
    manager.set_telemetry(telemetry.client);
    manager.set_tracer(tracer.clone());
    while !stop.load(Ordering::Relaxed) {
        // Each poll is its own trace: workers are concurrent, so their
        // spans cannot share the service's per-tick cycle buffer.
        let trace_id = tracer.begin_cycle();
        let cycle_start_ns = tracer.now_ns();
        let mut poll_span = tracer.span("monitor.poll", "device");
        if poll_span.is_recording() {
            poll_span.set_attr("device", node.as_str());
            poll_span.set_attr("addr", target.addr.to_string());
        }
        let mut session = manager.session(&mut transport, &target.community);
        let result = poll_once(&mut session, &node, &plan);
        poll_span.set_attr("ok", result.is_ok());
        drop(poll_span);
        let drained = tracer.end_cycle();
        if !drained.is_empty() {
            if let Some(flight) = &flight {
                flight.push(CycleTrace {
                    seq: 0, // assigned by the recorder
                    trace_id,
                    start_ns: cycle_start_ns,
                    end_ns: tracer.now_ns(),
                    epoch_unix_ns,
                    spans: drained.clone(),
                    samples: Vec::new(),
                    events: Vec::new(),
                });
            }
            let mut buf = spans.lock();
            buf.extend(drained);
            let len = buf.len();
            if len > WORKER_SPAN_CAP {
                buf.drain(..len - WORKER_SPAN_CAP);
            }
        }
        let msg = match result {
            Ok(snapshot) => {
                stats.lock().successes += 1;
                telemetry.successes.inc();
                PollMessage::Snapshot {
                    node: target.node,
                    snapshot,
                }
            }
            Err(error) => {
                stats.lock().failures += 1;
                telemetry.failures.inc();
                PollMessage::Failure {
                    node: target.node,
                    error,
                }
            }
        };
        if tx.send(msg).is_err() {
            return; // consumer gone
        }
        // Sleep in small slices so stop is responsive.
        let mut remaining = period;
        while !stop.load(Ordering::Relaxed) && remaining > Duration::ZERO {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NetworkMonitor;
    use netqos_snmp::mib::ScalarMib;
    use netqos_snmp::mib2::{self, IfEntry, SystemInfo};
    use netqos_snmp::transport::UdpAgentServer;
    use netqos_topology::{IfIx, NetworkTopology, NodeKind};
    use std::sync::atomic::AtomicU32;

    /// An agent whose counters advance by a fixed amount per request —
    /// easy to predict rates from.
    fn spawn_growing_agent(
        octets_per_poll: u32,
        ticks_per_poll: u32,
    ) -> netqos_snmp::transport::UdpAgentHandle {
        let polls = Arc::new(AtomicU32::new(0));
        UdpAgentServer::spawn("127.0.0.1:0", "public", move || {
            let k = polls.fetch_add(1, Ordering::Relaxed) + 1;
            let mut mib = ScalarMib::new();
            mib2::system::install(&mut mib, &SystemInfo::new("T"), k * ticks_per_poll);
            let mut e = IfEntry::ethernet(1, "eth0", 100_000_000, [2, 0, 0, 0, 0, 9]);
            e.in_octets = k.wrapping_mul(octets_per_poll);
            mib2::interfaces::install(&mut mib, &[e]);
            mib
        })
        .expect("spawn agent")
    }

    fn one_node_topology() -> (NetworkTopology, NodeId) {
        let mut t = NetworkTopology::new();
        let a = t.add_node("T", NodeKind::Host).unwrap();
        t.add_interface(a, "eth0", 100_000_000).unwrap();
        t.set_snmp(a, "public").unwrap();
        // A peer so paths exist if needed.
        let b = t.add_node("B", NodeKind::Host).unwrap();
        t.add_interface(b, "eth0", 100_000_000).unwrap();
        t.connect((a, IfIx(0)), (b, IfIx(0))).unwrap();
        (t, a)
    }

    #[test]
    fn distributed_poller_produces_rates() {
        // 125000 octets per poll, 100 ticks (1 s of agent uptime) per
        // poll -> exactly 1 Mb/s regardless of wall-clock pacing.
        let server = spawn_growing_agent(125_000, 100);
        let (topo, node) = one_node_topology();
        // Everything the poller and its SNMP clients count lands in the
        // registry the poller was given.
        let registry = Registry::new();
        let client_requests = || registry.counter("netqos_snmp_client_requests_total").get();
        let poller = DistributedPoller::spawn(
            vec![AgentTarget {
                node,
                addr: server.local_addr(),
                community: "public".into(),
                if_count: 1,
            }],
            Duration::from_millis(50),
            &registry,
            &Tracer::disabled(),
            None,
        );
        let mut monitor = NetworkMonitor::new(topo);
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while monitor.if_rates(node, IfIx(0)).is_none() {
            assert!(std::time::Instant::now() < deadline, "no rates in time");
            poller.drain_into(&mut monitor);
            std::thread::sleep(Duration::from_millis(20));
        }
        let r = monitor.if_rates(node, IfIx(0)).unwrap();
        assert_eq!(r.in_bps, 1_000_000);
        assert!(poller.stats().successes >= 2);
        poller.stop();
        server.stop();
        // One request per poll, whichever way the poll ended.
        assert!(client_requests() >= 2, "{} requests", client_requests());
        assert_eq!(
            client_requests(),
            registry.counter("netqos_threaded_polls_total").get()
                + registry
                    .counter("netqos_threaded_poll_failures_total")
                    .get()
        );
    }

    #[test]
    fn traced_worker_polls_land_in_flight_recorder() {
        let server = spawn_growing_agent(125_000, 100);
        let (topo, node) = one_node_topology();
        let registry = Registry::new();
        let tracer = Tracer::new(); // enabled
        let flight = Arc::new(FlightRecorder::new(16));
        let poller = DistributedPoller::spawn(
            vec![AgentTarget {
                node,
                addr: server.local_addr(),
                community: "public".into(),
                if_count: 1,
            }],
            Duration::from_millis(30),
            &registry,
            &tracer,
            Some(flight.clone()),
        );
        let mut monitor = NetworkMonitor::new(topo);
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while flight.len() < 2 {
            assert!(std::time::Instant::now() < deadline, "no flight cycles");
            poller.drain_into(&mut monitor);
            std::thread::sleep(Duration::from_millis(20));
        }
        poller.stop();
        server.stop();
        let cycles = flight.snapshot();
        assert!(cycles.len() >= 2);
        for c in &cycles {
            assert_ne!(c.trace_id, 0);
            // Worker epochs anchor the cycle on the Unix timeline
            // (clearly after 2020-01-01 in nanoseconds).
            assert!(c.epoch_unix_ns > 1_577_836_800_000_000_000);
            let device = c
                .spans
                .iter()
                .find(|s| s.target == "monitor.poll")
                .expect("poll span in flight cycle");
            assert!(device.attrs.iter().any(|(k, _)| k == "device"));
            // The SNMP client's spans nest under the poll span.
            assert!(
                c.spans.iter().any(|s| s.parent == Some(device.span_id)),
                "expected child spans under the poll span"
            );
        }
        // The worker-span buffer API still works alongside the ring.
        // (Spans were drained into both.)
        let exported = netqos_telemetry::to_otlp(&cycles);
        let stats = netqos_telemetry::validate_otlp(&exported).unwrap();
        assert_eq!(stats.traces, cycles.len());
    }

    #[test]
    fn unreachable_agent_reports_failures() {
        let (topo, node) = one_node_topology();
        let poller = DistributedPoller::spawn(
            vec![AgentTarget {
                node,
                addr: "127.0.0.1:1".parse().unwrap(),
                community: "public".into(),
                if_count: 1,
            }],
            Duration::from_millis(50),
            &Registry::new(),
            &Tracer::disabled(),
            None,
        );
        let mut monitor = NetworkMonitor::new(topo);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut failures = Vec::new();
        while failures.is_empty() {
            assert!(std::time::Instant::now() < deadline, "no failure in time");
            failures = poller.drain_into(&mut monitor);
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(matches!(failures[0].1, MonitorError::Timeout { .. }));
        poller.stop();
    }
}
