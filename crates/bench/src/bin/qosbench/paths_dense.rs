//! `paths-dense`: the topology layer used two ways on a 3 000-host
//! network: 512 qospaths evaluated over a frozen rate table, and one
//! path discovery — the resource manager's reallocation search — per
//! tick. Both sit on `NetworkTopology::neighbors` / `connections_of`.

use crate::driver::{self, ChildCfg, Plan, Workload};
use crate::harness::{self, Report, Rng};
use crate::topo;
use netqos_monitor::{NetworkMonitor, QosMonitor};
use netqos_topology::bandwidth::BandwidthRule;
use netqos_topology::path::find_path;
use netqos_topology::NodeId;
use std::hint::black_box;

pub const NAME: &str = "paths-dense";
const HOSTS: usize = 3_000;
const QOS_PATHS: usize = 512;
/// The discovery target: a host in site 7 of 15, on a switch AP, that is
/// no qospath endpoint. The seeded source lies in a later site, so for
/// every seed the depth-first search visits the same number of nodes
/// (sites 0–6 in full, site 7 up to the target) and the tick costs the
/// same; the seed only picks which path is found.
const DISCOVER_TARGET: &str = "h58-12";
const FIRST_SOURCE_AP: u64 = 64;
const LAST_SOURCE_AP: u64 = 119;

const PLAN: Plan = Plan {
    warmup: 3,
    exact: 40,
    traced: 120,
    spans_per_tick: 3,
};

struct PathsLoop {
    monitor: NetworkMonitor,
    qos: QosMonitor,
    path_names: Vec<String>,
    source: NodeId,
    target: NodeId,
    evaluations: u64,
    discoveries: u64,
    failures: u64,
    events: u64,
    hops_found: usize,
}

impl PathsLoop {
    fn build(seed: u64) -> Self {
        let model = topo::model_of(&topo::access_spec(HOSTS, QOS_PATHS));
        let mut monitor = NetworkMonitor::new(model.topology.clone());
        // Two synthetic ingest rounds freeze the rate table: the first is
        // the baseline, the second forms every rate.
        let mut devices = topo::synth_devices(&model, seed);
        for _ in 0..2 {
            for d in &mut devices {
                d.advance();
                monitor.ingest(d.node, d.snapshot()).expect("ingest");
            }
        }
        let qos = QosMonitor::new(&monitor, &model.qos_paths).expect("qospaths resolve");
        let mut rng = Rng::new(seed ^ 0x5eed_0003);
        let source = format!(
            "h{}-{}",
            rng.range(FIRST_SOURCE_AP, LAST_SOURCE_AP),
            rng.range(0, 24)
        );
        let by_name = |name: &str| model.topology.node_by_name(name).expect("host exists");
        PathsLoop {
            source: by_name(&source),
            target: by_name(DISCOVER_TARGET),
            path_names: model.qos_paths.iter().map(|q| q.name.clone()).collect(),
            monitor,
            qos,
            evaluations: 0,
            discoveries: 0,
            failures: 0,
            events: 0,
            hops_found: 0,
        }
    }
}

impl Workload for PathsLoop {
    fn tick(&mut self) {
        {
            let _s = harness::span("monitor.qos.evaluate");
            self.events += self.qos.evaluate(&self.monitor).len() as u64;
        }
        {
            let _s = harness::span("monitor.qos.readback");
            for name in &self.path_names {
                self.evaluations += 1;
                match self.qos.last_bandwidth(name) {
                    Some(bw) => {
                        black_box(bw.available_bps);
                    }
                    None => self.failures += 1,
                }
            }
        }
        {
            let _s = harness::span("topology.path.discover");
            self.discoveries += 1;
            match find_path(self.monitor.topology(), self.source, self.target) {
                Ok(p) => self.hops_found = black_box(p).connections.len(),
                Err(_) => self.failures += 1,
            }
        }
    }
}

fn check_answers(w: &PathsLoop, report: &mut Report) {
    report.attempted = w.evaluations + w.discoveries;
    report.failed = w.failures;
    report.check(w.events == 0, || {
        format!("{} QoS events over rates within every limit", w.events)
    });
    // Host, AP, site, core, site, AP, host.
    report.check(w.hops_found == 6, || {
        format!(
            "cross-site discovery found {} hops, expected 6",
            w.hops_found
        )
    });
}

pub fn run(cfg: &ChildCfg) -> Report {
    let mut report = Report::default();
    let plan = PLAN.for_budget(cfg.budget);
    let mut w = driver::build_and_count(&plan, &mut report, || PathsLoop::build(cfg.seed));
    report.digest = topo::path_digest(&w.qos, &w.path_names);
    if !cfg.traced {
        driver::timed_window(&mut w, cfg.budget, &mut report);
        check_answers(&w, &mut report);
        return report;
    }

    let stages = driver::traced_window(&mut w, &plan, cfg, NAME, &mut report);
    check_answers(&w, &mut report);
    let ticks = plan.traced as f64;
    let paths = QOS_PATHS as f64;
    // From outside, the QoS pass cannot be split from the bandwidth
    // evaluation it is made of (512 `path_bandwidth_of` calls and a
    // threshold compare each), so the one span feeds both names.
    let evaluate = driver::stage_floor_ms(&stages, "monitor.qos.evaluate");
    let mut hub_paths = 0usize;
    let mut hops = 0usize;
    for name in &w.path_names {
        if let Some(bw) = w.qos.last_bandwidth(name) {
            hops += bw.connections.len();
            if bw
                .connections
                .iter()
                .any(|c| c.rule == BandwidthRule::SharedMedium)
            {
                hub_paths += 1;
            }
        }
    }
    let l = &mut report.layers;
    l.insert("monitor.qos.evaluate_floor_ms".into(), evaluate);
    l.insert("topology.bandwidth.evaluate_floor_ms".into(), evaluate);
    l.insert(
        "topology.bandwidth.evaluate_us_per_path".into(),
        evaluate * 1e3 / paths,
    );
    l.insert(
        "topology.bandwidth.allocs_per_path".into(),
        driver::stage_allocs_per(&stages, "monitor.qos.evaluate", ticks * paths),
    );
    l.insert(
        "topology.bandwidth.hub_path_share".into(),
        hub_paths as f64 / paths,
    );
    l.insert(
        "monitor.qos.readback_floor_ms".into(),
        driver::stage_floor_ms(&stages, "monitor.qos.readback"),
    );
    l.insert(
        "topology.path.discover_floor_ms".into(),
        driver::stage_floor_ms(&stages, "topology.path.discover"),
    );
    l.insert(
        "topology.path.discover_allocs".into(),
        driver::stage_allocs_per(&stages, "topology.path.discover", ticks),
    );
    l.insert("topology.path.hops_per_path".into(), hops as f64 / paths);
    report
}
