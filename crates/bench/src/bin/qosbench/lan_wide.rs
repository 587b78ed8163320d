//! `lan-wide`: the monitoring service polling a 1 000-host access
//! network through the discrete-event simulator.
//!
//! The timed tick is `MonitoringService::tick`, which is opaque from
//! outside, so the traced round composes the same pipeline from the
//! public pieces (`SimNetwork`, `NetworkMonitor`, `QosMonitor`,
//! `AlertEngine`) and reports what the service adds on top as
//! `monitor.service.residual_*`.

use crate::driver::{self, ChildCfg, Plan, Workload};
use crate::harness::{self, Report};
use crate::topo;
use netqos_loadgen::{LoadProfile, ProfiledSource};
use netqos_monitor::service::{MonitoringService, ServiceConfig};
use netqos_monitor::simnet::{SimNetwork, SimNetworkOptions};
use netqos_monitor::{MonitorError, NetworkMonitor, QosMonitor};
use netqos_sim::builder::LanBuilder;
use netqos_sim::time::SimDuration;
use netqos_sim::{DeviceId, Ipv4Addr, PortIx};
use netqos_spec::SpecModel;
use netqos_telemetry::{builtin_alert_rules, AlertContext, AlertEngine, AlertScope};
use netqos_topology::path::CommPath;
use netqos_topology::NodeId;
use std::collections::HashMap;

pub const NAME: &str = "lan-wide";
const HOSTS: usize = 1_000;
const QOS_PATHS: usize = 8;
const MONITOR_HOST: &str = "h0-0";
/// The loaded qospath; it does not touch the monitor's access link.
const LOADED_PATH: &str = "p1";
/// Offered payload, bytes per second.
const LOAD_BPS: u64 = 200_000;
/// Payload per datagram (`ProfiledSource` default) and what Ethernet, IP
/// and UDP add to it on the wire.
const CHUNK: f64 = 1_400.0;
const HEADERS: f64 = 42.0;
const PERIOD: SimDuration = SimDuration::from_secs(1);
/// The stages of the staged tick, in order; their floors plus
/// `monitor.service.residual_ms` make the ledger.
pub const STAGES: [&str; 6] = [
    "sim.advance",
    "monitor.simnet.poll",
    "monitor.monitor.ingest",
    "topology.bandwidth.evaluate",
    "monitor.qos.evaluate",
    "telemetry.alerts.evaluate",
];

const PLAN: Plan = Plan {
    warmup: 5,
    exact: 20,
    traced: 100,
    // Poll and ingest per device, one bandwidth span per path, and the
    // advance, QoS and alert spans.
    spans_per_tick: 2 * (HOSTS + 5) + QOS_PATHS + 3,
};

fn net_options(seed: u64) -> SimNetworkOptions {
    SimNetworkOptions {
        monitor_host: MONITOR_HOST.into(),
        noise_mean: None,
        seed,
        agent_jitter_mean: Some(SimDuration::from_millis(1)),
        ..SimNetworkOptions::default()
    }
}

/// Installs the constant load along the loaded qospath.
fn install_load(b: &mut LanBuilder, devs: &HashMap<NodeId, DeviceId>, m: &SpecModel) {
    let q = m
        .qos_paths
        .iter()
        .find(|q| q.name == LOADED_PATH)
        .expect("generated spec declares p1");
    let dst: Ipv4Addr = m.addresses[&q.to].parse().expect("host address parses");
    let src = ProfiledSource::new(dst, LoadProfile::constant(LOAD_BPS));
    b.install_app(devs[&q.from], Box::new(src), None)
        .expect("install load generator");
}

/// Octets through the monitor host's NIC, both directions.
fn monitor_nic_octets(net: &SimNetwork) -> u64 {
    let dev = net
        .device_of(net.monitor_node())
        .expect("monitor host is materialized");
    let c = net
        .lan
        .nic_counters(dev, PortIx(0))
        .expect("monitor host has a NIC");
    c.in_octets.total() + c.out_octets.total()
}

/// The timed loop: the service as a user runs it.
struct ServiceLoop {
    svc: MonitoringService,
    wire_bytes: u64,
    sweep_us: u64,
    events: u64,
}

impl ServiceLoop {
    fn build(seed: u64) -> Self {
        let model = topo::model_of(&topo::access_spec(HOSTS, QOS_PATHS));
        let svc = MonitoringService::from_model_with(
            model,
            net_options(seed),
            ServiceConfig::default(),
            install_load,
        )
        .expect("service builds");
        ServiceLoop {
            svc,
            wire_bytes: 0,
            sweep_us: 0,
            events: 0,
        }
    }
}

impl Workload for ServiceLoop {
    fn tick(&mut self) {
        let scheduled = self.svc.net_mut().lan.now() + PERIOD;
        let events = self.svc.tick().expect("service tick");
        self.events += events.len() as u64;
        let net = self.svc.net_mut();
        self.sweep_us += net.lan.now().duration_since(scheduled).as_micros();
        self.wire_bytes = monitor_nic_octets(net);
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("snmp.wire_bytes_per_tick", self.wire_bytes as f64),
            ("sim.sweep_ms", self.sweep_us as f64 / 1e3),
        ]
    }
}

/// The traced loop: the service's pipeline, stage by stage.
struct StagedLoop {
    net: SimNetwork,
    monitor: NetworkMonitor,
    qos: QosMonitor,
    alerts: AlertEngine,
    paths: Vec<(String, CommPath)>,
    tick_no: u64,
}

impl StagedLoop {
    fn build(seed: u64) -> Self {
        let model = topo::model_of(&topo::access_spec(HOSTS, QOS_PATHS));
        let topology = model.topology.clone();
        let specs = model.qos_paths.clone();
        let net = SimNetwork::from_model_with(model, net_options(seed), install_load)
            .expect("network builds");
        let monitor = NetworkMonitor::new(topology);
        let qos = QosMonitor::new(&monitor, &specs).expect("qospaths resolve");
        let paths = specs
            .iter()
            .map(|q| {
                let p = monitor.path(q.from, q.to).expect("qospath resolves");
                (q.name.clone(), p)
            })
            .collect();
        StagedLoop {
            net,
            monitor,
            qos,
            alerts: AlertEngine::new(builtin_alert_rules()),
            paths,
            tick_no: 0,
        }
    }
}

impl Workload for StagedLoop {
    fn tick(&mut self) {
        self.tick_no += 1;
        {
            let _s = harness::span("sim.advance");
            let next = self.net.lan.now() + PERIOD;
            self.net.run_until(next);
        }
        for node in self.net.pollable_nodes() {
            let polled = {
                let _s = harness::span("monitor.simnet.poll");
                self.net.poll_device(node)
            };
            match polled {
                Ok(snap) => {
                    let _s = harness::span("monitor.monitor.ingest");
                    self.monitor.ingest(node, snap).expect("ingest");
                }
                Err(MonitorError::Timeout { .. }) => {}
                Err(e) => panic!("poll failed: {e}"),
            }
        }
        let mut ctx = AlertContext::new(self.tick_no);
        for (name, path) in &self.paths {
            let bw = {
                let _s = harness::span("topology.bandwidth.evaluate");
                self.monitor.path_bandwidth_of(path)
            };
            if let Ok(bw) = bw {
                let mut scope = AlertScope::labelled("path", name);
                scope.set("path_used_bps", bw.used_bps as f64);
                scope.set("path_available_bps", bw.available_bps as f64);
                ctx.scopes.push(scope);
            }
        }
        {
            let _s = harness::span("monitor.qos.evaluate");
            self.qos.evaluate(&self.monitor);
        }
        {
            let _s = harness::span("telemetry.alerts.evaluate");
            ctx.add_registry(self.net.telemetry().registry());
            self.alerts.evaluate(&ctx);
        }
    }
}

/// The traced window's loop: an untraced service tick, then a staged
/// tick. Both floors then come from the same seconds of the machine, so
/// their difference is the service's bookkeeping and not a change of
/// weather between two windows.
struct Interleaved {
    service: ServiceLoop,
    staged: StagedLoop,
    service_ns: Vec<u64>,
}

impl Workload for Interleaved {
    fn tick(&mut self) {
        let start = std::time::Instant::now();
        self.service.tick();
        self.service_ns.push(start.elapsed().as_nanos() as u64);
        self.staged.tick();
    }
}

/// Answers must not move: the loaded path reads the offered load, the
/// idle ones read SNMP chatter only, and no poll timed out.
fn check_answers(w: &mut ServiceLoop, report: &mut Report) {
    let expected = LOAD_BPS as f64 * 8.0 * (CHUNK + HEADERS) / CHUNK;
    let specs = w.svc.net_mut().model().qos_paths.clone();
    for q in &specs {
        let bw = match w.svc.monitor().path_bandwidth(q.from, q.to) {
            Ok(bw) => bw,
            Err(e) => {
                report.failures.push(format!("{}: {e}", q.name));
                continue;
            }
        };
        if q.name == LOADED_PATH {
            let err = (bw.used_bps as f64 - expected).abs() / expected;
            report.check(err <= 0.05, || {
                format!(
                    "{}: used {} b/s is {:.1} % off the offered {expected:.0} b/s",
                    q.name,
                    bw.used_bps,
                    err * 100.0
                )
            });
        } else {
            let capacity = bw
                .connections
                .iter()
                .find(|c| c.conn == bw.bottleneck)
                .map(|c| c.capacity_bps)
                .unwrap_or(0);
            report.check(bw.used_bps * 10 < capacity, || {
                format!(
                    "{}: idle path reads {} b/s of a {capacity} b/s bottleneck",
                    q.name, bw.used_bps
                )
            });
        }
    }
    let t = w.svc.telemetry();
    let (polls, failures, timeouts) = (t.polls.get(), t.poll_failures.get(), t.poll_timeouts.get());
    report.attempted = polls + failures + timeouts;
    report.failed = failures + timeouts;
    report.check(timeouts == 0, || format!("{timeouts} polls timed out"));
    report.check(w.events == 0, || {
        format!("{} QoS events on a network within its limits", w.events)
    });
}

pub fn run(cfg: &ChildCfg) -> Report {
    let mut report = Report::default();
    let plan = PLAN.for_budget(cfg.budget);
    let mut w = driver::build_and_count(&plan, &mut report, || ServiceLoop::build(cfg.seed));
    if !cfg.traced {
        driver::timed_window(&mut w, cfg.budget, &mut report);
        check_answers(&mut w, &mut report);
        return report;
    }

    let mut staged = StagedLoop::build(cfg.seed);
    for _ in 0..plan.warmup {
        staged.tick();
    }
    let mut both = Interleaved {
        service: w,
        staged,
        service_ns: Vec::with_capacity(plan.traced as usize),
    };
    let frames0 = both.staged.net.lan.stats().frames_delivered;
    let codec = netqos_snmp::telemetry::codec();
    let decodes0 = codec.decodes.get();
    let t = both.staged.net.telemetry().clone();
    let service_polls = both.service.svc.telemetry().polls.clone();
    let (polls0, service_polls0, retx0, timeouts0) = (
        t.polls.get(),
        service_polls.get(),
        t.poll_retransmits.get(),
        t.poll_timeouts.get(),
    );
    let stages = driver::traced_window(&mut both, &plan, cfg, NAME, &mut report);
    check_answers(&mut both.service, &mut report);
    let Interleaved {
        staged,
        mut service_ns,
        ..
    } = both;
    let ticks = plan.traced as f64;
    let polls = (t.polls.get() - polls0) as f64;
    let all_polls = polls + (service_polls.get() - service_polls0) as f64;
    let service_floor = harness::floor_ms(&mut service_ns);

    let mut floor_sum = 0.0;
    let mut alloc_sum = 0.0;
    for name in STAGES {
        let floor = driver::stage_floor_ms(&stages, name);
        floor_sum += floor;
        alloc_sum += driver::stage_allocs_per(&stages, name, ticks);
        report.layers.insert(format!("{name}_floor_ms"), floor);
    }
    let l = &mut report.layers;
    // The traced round's counterpart of the timed tick is the service
    // tick, which here ran with allocation counting on.
    l.insert("harness.traced_tick_floor_ms".into(), service_floor);
    l.insert(
        "monitor.service.residual_ms".into(),
        service_floor - floor_sum,
    );
    l.insert(
        "monitor.service.residual_share".into(),
        (service_floor - floor_sum) / service_floor,
    );
    l.insert(
        "sim.frames_per_tick".into(),
        (staged.net.lan.stats().frames_delivered - frames0) as f64 / ticks,
    );
    l.insert(
        "sim.allocs_per_tick".into(),
        driver::stage_allocs_per(&stages, "sim.advance", ticks),
    );
    l.insert(
        "monitor.simnet.poll_us_per_device".into(),
        driver::stage_floor_ms(&stages, "monitor.simnet.poll") * 1e3 / (polls / ticks),
    );
    l.insert(
        "monitor.simnet.allocs_per_tick".into(),
        driver::stage_allocs_per(&stages, "monitor.simnet.poll", ticks),
    );
    l.insert(
        "snmp.codec.decodes_per_poll".into(),
        (codec.decodes.get() - decodes0) as f64 / all_polls,
    );
    l.insert(
        "monitor.simnet.retransmits_per_tick".into(),
        (t.poll_retransmits.get() - retx0) as f64 / ticks,
    );
    l.insert(
        "monitor.simnet.timeouts_per_tick".into(),
        (t.poll_timeouts.get() - timeouts0) as f64 / ticks,
    );
    l.insert(
        "monitor.monitor.allocs_per_tick".into(),
        driver::stage_allocs_per(&stages, "monitor.monitor.ingest", ticks),
    );
    let service_allocs = report.exact["allocs_per_tick"];
    l.insert(
        "monitor.service.residual_allocs_per_tick".into(),
        service_allocs - alloc_sum,
    );
    report
}
