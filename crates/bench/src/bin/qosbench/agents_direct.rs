//! `agents-direct`: the poll → parse → ingest → evaluate pipeline over
//! in-process agents, with no simulator anywhere. SNMP codec, agent and
//! delta ingest do all the work.

use crate::driver::{self, ChildCfg, Plan, Workload};
use crate::harness::{self, Mark, Report};
use crate::topo::{self, SynthDevice};
use netqos_monitor::poll::{parse_snapshot, poll_oids};
use netqos_monitor::{NetworkMonitor, QosEvent, QosMonitor};
use netqos_snmp::client::SnmpClient;
use netqos_snmp::mib2::interfaces::{self as ifc, IfEntry};
use netqos_snmp::mib2::system::{self, SystemInfo};
use netqos_snmp::transport::{LoopbackTransport, Transport};
use netqos_snmp::{Oid, ScalarMib, SnmpAgent, SnmpError, SnmpValue};
use std::cell::Cell;
use std::rc::Rc;

pub const NAME: &str = "agents-direct";
const HOSTS: usize = 1_000;
const QOS_PATHS: usize = 8;
/// The hub-attached source of qospath `p3`, driven past 80 % of its
/// 10 Mb/s medium from `OVERDRIVE_TICK` on.
const OVERDRIVEN: &str = "h3-3";
const OVERDRIVEN_PATH: &str = "p3";
/// Tick (0-based, warm-up included) whose poll first sees the overdrive;
/// inside the exact window so the digest covers the violated state.
const OVERDRIVE_TICK: u64 = 8;

const PLAN: Plan = Plan {
    warmup: 5,
    exact: 40,
    traced: 120,
    // Per device: get_many with encode/handle/decode inside, parse,
    // ingest; plus the QoS span.
    spans_per_tick: 6 * (HOSTS + 5) + 1,
};

/// Counts the bytes the monitor puts on and takes off the "wire", and
/// marks where the agent's share of a request begins and ends.
struct CountingTransport {
    inner: LoopbackTransport,
    wire: Rc<WireBytes>,
    agent_span: Option<(Mark, Mark)>,
}

/// Request and response bytes of every agent, summed.
#[derive(Default)]
struct WireBytes {
    tx: Cell<u64>,
    rx: Cell<u64>,
}

impl Transport for CountingTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        self.wire.tx.set(self.wire.tx.get() + request.len() as u64);
        let entered = harness::mark();
        let response = self.inner.exchange(request)?;
        self.agent_span = entered.zip(harness::mark());
        self.wire.rx.set(self.wire.rx.get() + response.len() as u64);
        Ok(response)
    }
}

struct Agent {
    dev: SynthDevice,
    client: SnmpClient<CountingTransport>,
    oids: Vec<Oid>,
    uptime_oid: Oid,
    /// `(ifInOctets, ifOutOctets)` instance per interface.
    counter_oids: Vec<(Oid, Oid)>,
}

impl Agent {
    fn new(dev: SynthDevice, wire: Rc<WireBytes>) -> Self {
        let mut mib = ScalarMib::new();
        system::install(&mut mib, &SystemInfo::new(&dev.name), dev.uptime_ticks);
        let entries: Vec<IfEntry> = dev
            .ifaces
            .iter()
            .enumerate()
            .map(|(ix, i)| {
                let mut e = IfEntry::ethernet(
                    ix as u32 + 1,
                    &i.descr,
                    i.speed_bps.min(u32::MAX as u64) as u32,
                    [2, 0, 0, 0, 0, 0],
                );
                e.in_octets = i.in_octets;
                e.out_octets = i.out_octets;
                e
            })
            .collect();
        ifc::install(&mut mib, &entries);
        let transport = CountingTransport {
            inner: LoopbackTransport::new(SnmpAgent::new("public"), mib),
            wire,
            agent_span: None,
        };
        let if_count = dev.ifaces.len() as u32;
        Agent {
            client: SnmpClient::new(transport, "public"),
            oids: poll_oids(if_count),
            uptime_oid: system::sys_uptime_instance(),
            counter_oids: (1..=if_count)
                .map(|ix| {
                    (
                        ifc::instance_oid(ifc::column::IF_IN_OCTETS, ix),
                        ifc::instance_oid(ifc::column::IF_OUT_OCTETS, ix),
                    )
                })
                .collect(),
            dev,
        }
    }

    /// One second of traffic lands in the agent's MIB.
    fn advance(&mut self) {
        self.dev.advance();
        let mib = self.client.transport_mut().inner.mib_mut();
        mib.insert(
            self.uptime_oid.clone(),
            SnmpValue::TimeTicks(self.dev.uptime_ticks),
        );
        for (i, (oid_in, oid_out)) in self.dev.ifaces.iter().zip(&self.counter_oids) {
            mib.insert(oid_in.clone(), SnmpValue::Counter32(i.in_octets));
            mib.insert(oid_out.clone(), SnmpValue::Counter32(i.out_octets));
        }
    }
}

struct AgentsLoop {
    agents: Vec<Agent>,
    wire: Rc<WireBytes>,
    monitor: NetworkMonitor,
    qos: QosMonitor,
    path_names: Vec<String>,
    overdriven: usize,
    overdrive_rate: u32,
    tick_no: u64,
    polls: u64,
    poll_failures: u64,
    /// `(tick, path)` of every `Violated` event.
    violations: Vec<(u64, String)>,
    other_events: u64,
}

impl AgentsLoop {
    fn build(seed: u64) -> Self {
        let model = topo::model_of(&topo::access_spec(HOSTS, QOS_PATHS));
        let devices = topo::synth_devices(&model, seed);
        let overdriven = devices
            .iter()
            .position(|d| d.name == OVERDRIVEN)
            .expect("overdriven station exists");
        let monitor = NetworkMonitor::new(model.topology.clone());
        let qos = QosMonitor::new(&monitor, &model.qos_paths).expect("qospaths resolve");
        let wire = Rc::new(WireBytes::default());
        AgentsLoop {
            agents: devices
                .into_iter()
                .map(|d| Agent::new(d, wire.clone()))
                .collect(),
            wire,
            monitor,
            qos,
            path_names: model.qos_paths.iter().map(|q| q.name.clone()).collect(),
            overdriven,
            // 1.00–1.05 MB/s out of one station: 8.0–8.4 Mb/s, past
            // 80 % of the hub with the other stations' traffic on top.
            overdrive_rate: harness::Rng::new(seed ^ 0x5eed_0002).range(1_000_000, 1_050_000)
                as u32,
            tick_no: 0,
            polls: 0,
            poll_failures: 0,
            violations: Vec::new(),
            other_events: 0,
        }
    }

    fn wire_bytes(&self) -> (u64, u64) {
        (self.wire.tx.get(), self.wire.rx.get())
    }
}

impl Workload for AgentsLoop {
    fn prepare(&mut self) {
        if self.tick_no == OVERDRIVE_TICK {
            self.agents[self.overdriven].dev.ifaces[0].out_rate = self.overdrive_rate;
        }
        for a in &mut self.agents {
            a.advance();
        }
    }

    fn tick(&mut self) {
        for a in &mut self.agents {
            let polled = {
                let _s = harness::span("snmp.client.get_many");
                let before = harness::mark();
                let polled = a.client.get_many(&a.oids);
                let after = harness::mark();
                // The transport marked where the agent's share began and
                // ended; what precedes it is encode, what follows decode.
                if let (Some(t0), Some((t1, t2)), Some(t3)) =
                    (before, a.client.transport_mut().agent_span.take(), after)
                {
                    harness::record("snmp.client.encode", t0, t1);
                    harness::record("snmp.agent.handle", t1, t2);
                    harness::record("snmp.client.decode", t2, t3);
                }
                polled
            };
            self.polls += 1;
            let bindings = match polled {
                Ok(b) => b,
                Err(_) => {
                    self.poll_failures += 1;
                    continue;
                }
            };
            let snapshot = {
                let _s = harness::span("monitor.poll.parse");
                parse_snapshot(&bindings, a.dev.ifaces.len() as u32)
            };
            match snapshot {
                Ok(snap) => {
                    let _s = harness::span("monitor.monitor.ingest");
                    if self.monitor.ingest(a.dev.node, snap).is_err() {
                        self.poll_failures += 1;
                    }
                }
                Err(_) => self.poll_failures += 1,
            }
        }
        let events = {
            let _s = harness::span("monitor.qos.evaluate");
            self.qos.evaluate(&self.monitor)
        };
        for e in events {
            match e {
                QosEvent::Violated { path_name, .. } => {
                    self.violations.push((self.tick_no, path_name))
                }
                QosEvent::Cleared { .. } => self.other_events += 1,
            }
        }
        self.tick_no += 1;
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let (tx, rx) = self.wire_bytes();
        vec![("snmp.wire_bytes_per_tick", (tx + rx) as f64)]
    }
}

fn check_answers(w: &AgentsLoop, report: &mut Report) {
    report.attempted = w.polls;
    report.failed = w.poll_failures;
    let expected = vec![(OVERDRIVE_TICK, OVERDRIVEN_PATH.to_owned())];
    report.check(w.violations == expected && w.other_events == 0, || {
        format!(
            "expected exactly one Violated event {expected:?}, saw {:?} and {} Cleared",
            w.violations, w.other_events
        )
    });
}

pub fn run(cfg: &ChildCfg) -> Report {
    let mut report = Report::default();
    let plan = PLAN.for_budget(cfg.budget);
    let mut w = driver::build_and_count(&plan, &mut report, || AgentsLoop::build(cfg.seed));
    report.digest = topo::path_digest(&w.qos, &w.path_names);
    if !cfg.traced {
        driver::timed_window(&mut w, cfg.budget, &mut report);
        check_answers(&w, &mut report);
        return report;
    }

    let (tx0, rx0) = w.wire_bytes();
    let polls0 = w.polls;
    let stages = driver::traced_window(&mut w, &plan, cfg, NAME, &mut report);
    check_answers(&w, &mut report);
    let (tx1, rx1) = w.wire_bytes();
    let devices = (w.polls - polls0) as f64;
    for name in [
        "snmp.client.encode",
        "snmp.agent.handle",
        "snmp.client.decode",
        "monitor.poll.parse",
        "monitor.monitor.ingest",
        "monitor.qos.evaluate",
    ] {
        report.layers.insert(
            format!("{name}_floor_ms"),
            driver::stage_floor_ms(&stages, name),
        );
    }
    let l = &mut report.layers;
    l.insert(
        "snmp.client.request_bytes_per_device".into(),
        (tx1 - tx0) as f64 / devices,
    );
    l.insert(
        "snmp.agent.response_bytes_per_device".into(),
        (rx1 - rx0) as f64 / devices,
    );
    l.insert(
        "snmp.client.oids_per_request".into(),
        w.agents.iter().map(|a| a.oids.len()).sum::<usize>() as f64 / w.agents.len() as f64,
    );
    let snmp_allocs: f64 = [
        "snmp.client.encode",
        "snmp.agent.handle",
        "snmp.client.decode",
    ]
    .iter()
    .map(|n| driver::stage_allocs_per(&stages, n, devices))
    .sum();
    l.insert("snmp.allocs_per_device".into(), snmp_allocs);
    l.insert(
        "monitor.poll.allocs_per_device".into(),
        driver::stage_allocs_per(&stages, "monitor.poll.parse", devices),
    );
    l.insert(
        "monitor.monitor.allocs_per_device".into(),
        driver::stage_allocs_per(&stages, "monitor.monitor.ingest", devices),
    );
    report
}
