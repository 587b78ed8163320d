//! The service polls what its answers read: every device whose counters a
//! qospath's evaluation may ask about, every tick, plus a round-robin
//! slice of the rest.
//!
//! - `PathPlan::reads` covers every rate read an evaluation makes, on
//!   the specs in `specs/` and on a generated 1 000-host network, with
//!   rate tables that answer or not at random per endpoint;
//! - where every pollable device is demanded, 40 service ticks answer
//!   exactly as a hand loop of `Network::poll_nodes` over every pollable
//!   device;
//! - on the generated network each tick polls the whole demand set and a
//!   survey slice spread over the access points, and every pollable
//!   device is polled within any `SURVEY_TICKS` consecutive ticks;
//! - an empty demand set and an empty survey both tick.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::service::{MonitoringService, ServiceConfig, SURVEY_TICKS};
use netqos::monitor::simnet::{SimNetwork, SimNetworkOptions};
use netqos::monitor::{Network, NetworkMonitor, QosEvent, QosMonitor};
use netqos::spec::{parse_and_validate, SpecModel};
use netqos::topology::bandwidth::{IfRates, PathBandwidth, RateProvider};
use netqos::topology::path::find_path;
use netqos::topology::plan::{DomainSums, PathPlan};
use netqos::topology::{IfIx, NetworkTopology, NodeId, NodeKind};
use netqos_telemetry::{EventSink, FieldValue, Level};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

mod common;
use common::managed_access_network;

const LIRTSS: &str = include_str!("../specs/lirtss.spec");
const TWO_SWITCH: &str = include_str!("../specs/two-switch.spec");

/// xorshift64*: reproducible variety, not quality.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Answers three endpoints in four, which ones fixed by `seed`, and
/// writes down every question.
struct Recording {
    seed: u64,
    asked: RefCell<Vec<(NodeId, IfIx)>>,
}

impl RateProvider for Recording {
    fn rates(&self, node: NodeId, ifix: IfIx) -> Option<IfRates> {
        self.asked.borrow_mut().push((node, ifix));
        let h = mix(self.seed ^ (u64::from(node.0) << 32 | u64::from(ifix.0)) | 1);
        (!h.is_multiple_of(4)).then_some(IfRates {
            in_bps: h >> 44,
            out_bps: (h >> 24) & 0xfffff,
        })
    }
}

/// Each network with plans for its qospaths and for 32 more host pairs.
fn networks() -> &'static [(NetworkTopology, Vec<PathPlan>)] {
    static NETWORKS: OnceLock<Vec<(NetworkTopology, Vec<PathPlan>)>> = OnceLock::new();
    NETWORKS.get_or_init(|| {
        let models = [
            parse_and_validate(LIRTSS).unwrap(),
            parse_and_validate(TWO_SWITCH).unwrap(),
            managed_access_network(1_000, 16),
        ];
        let mut seed = 0x5eed_0028;
        models
            .into_iter()
            .map(|m| {
                let topo = m.topology;
                let hosts: Vec<NodeId> = topo
                    .nodes()
                    .filter(|(_, n)| n.kind == NodeKind::Host)
                    .map(|(id, _)| id)
                    .collect();
                let mut ends: Vec<(NodeId, NodeId)> =
                    m.qos_paths.iter().map(|q| (q.from, q.to)).collect();
                for _ in 0..32 {
                    seed = mix(seed);
                    let a = hosts[(seed % hosts.len() as u64) as usize];
                    let b = hosts[((seed >> 32) % hosts.len() as u64) as usize];
                    ends.push((a, b));
                }
                let plans = ends
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| PathPlan::compile(&topo, &find_path(&topo, a, b).unwrap()))
                    .collect::<Result<_, _>>()
                    .unwrap();
                (topo, plans)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reads_cover_every_rate_an_evaluation_asks_for(seed in any::<u64>()) {
        for (topo, plans) in networks() {
            let mut out = PathBandwidth::default();
            let mut asked_any = false;
            for plan in plans {
                let reads: BTreeSet<NodeId> = plan.reads(topo).collect();
                let rates = Recording { seed, asked: RefCell::new(Vec::new()) };
                let _ = plan.evaluate(topo, &rates, &mut DomainSums::new(topo), &mut out);
                let asked = rates.asked.into_inner();
                asked_any |= !asked.is_empty();
                for (node, ifix) in asked {
                    prop_assert!(
                        reads.contains(&node),
                        "evaluation read {node}/{ifix:?}, which reads() does not name"
                    );
                }
            }
            prop_assert!(asked_any, "no plan asked for any rate");
        }
    }
}

/// An event-sink writer the test can read back.
#[derive(Clone, Default)]
struct Trail(Arc<Mutex<Vec<u8>>>);

impl Write for Trail {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Trail {
    /// The `polled` field of each tick event `svc` has written since the
    /// last call.
    fn take_polled(&self, svc: &MonitoringService) -> Vec<usize> {
        svc.event_sink().flush();
        let text = String::from_utf8(std::mem::take(&mut *self.0.lock().unwrap())).unwrap();
        text.lines()
            .filter_map(|line| {
                let rest = line.split_once("\"polled\":")?.1;
                let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
                digits.parse().ok()
            })
            .collect()
    }
}

/// A service whose tick events land in the returned trail.
fn traced_service(svc: &mut MonitoringService) -> Trail {
    let trail = Trail::default();
    let sink = EventSink::to_writer(Box::new(trail.clone()));
    sink.set_default_level(Level::Debug);
    svc.set_event_sink(Arc::new(sink));
    trail
}

#[test]
fn with_every_device_demanded_the_service_answers_as_polling_every_device_does() {
    // `display` is the one device the spec's paths do not read; a path to
    // it leaves the survey empty.
    let spec =
        format!("{TWO_SWITCH}\nqospath watch from console to display {{ min_available 1MBps; }}\n");
    let model = parse_and_validate(&spec).unwrap();
    let options = || SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    // 11 MB/s from sensor1 to console between t=10 s and t=20 s takes
    // feed1 into violation and out again.
    let load = |b: &mut netqos_sim::builder::LanBuilder,
                map: &std::collections::HashMap<NodeId, netqos_sim::DeviceId>,
                m: &SpecModel| {
        let from = m.topology.node_by_name("sensor1").unwrap();
        let to = m.topology.node_by_name("console").unwrap();
        let ip = m.addresses[&to].parse().unwrap();
        let src = ProfiledSource::new(ip, LoadProfile::pulse(10, 20, 11_000_000));
        b.install_app(map[&from], Box::new(src), None).unwrap();
    };

    let mut svc = MonitoringService::from_model_with(
        model.clone(),
        options(),
        ServiceConfig::default(),
        load,
    )
    .unwrap();
    let trail = traced_service(&mut svc);

    let topology = model.topology.clone();
    let specs = model.qos_paths.clone();
    let mut net = SimNetwork::from_model_with(model, options(), load).unwrap();
    let mut monitor = NetworkMonitor::new(topology);
    let mut qos = QosMonitor::new(&monitor, &specs).unwrap();
    let every = net.pollable_nodes();
    assert_eq!(qos.demand(&monitor), every);

    let mut violations = 0;
    for tick in 1..=40 {
        let events = svc.tick().unwrap();
        let next = net.lan.now() + ServiceConfig::default().poll_period;
        net.run_until(next);
        let polled = net.poll_nodes(&every, &mut monitor).unwrap();
        let expected_events = qos.evaluate(&monitor);

        assert_eq!(events, expected_events, "tick {tick}");
        assert_eq!(trail.take_polled(&svc), vec![polled], "tick {tick}");
        let rows: Vec<_> = (svc.rows().iter())
            .map(|r| (r.name.clone(), r.used_bps, r.available_bps, r.violated))
            .collect();
        let expected_rows: Vec<_> = qos
            .evaluated()
            .map(|(q, bw, violated)| (q.name.clone(), bw.used_bps, bw.available_bps, violated))
            .collect();
        assert_eq!(rows, expected_rows, "tick {tick}");
        violations += (events.iter())
            .filter(|e| matches!(e, QosEvent::Violated { .. }))
            .count();
    }
    assert!(violations > 0, "the load must take a path into violation");
}

/// The devices the tick just polled, by name, from its traced cycle.
fn polled_devices(svc: &MonitoringService) -> BTreeSet<String> {
    let cycle = svc.flight().snapshot().pop().expect("traced cycle");
    (cycle.spans.iter())
        .filter(|s| s.target == "monitor.poll" && s.name == "device")
        .filter_map(|s| match s.attrs.iter().find(|(k, _)| k == "device")? {
            (_, FieldValue::Str(name)) => Some(name.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn the_demand_set_every_tick_and_every_device_within_the_survey_period() {
    let model = managed_access_network(1_000, 8);
    let names = |nodes: &[NodeId]| -> BTreeSet<String> {
        (nodes.iter())
            .map(|&n| model.topology.node(n).unwrap().name.clone())
            .collect()
    };
    let options = SimNetworkOptions {
        monitor_host: "h0-0".into(),
        ..SimNetworkOptions::default()
    };
    let mut svc =
        MonitoringService::from_model(model.clone(), options, ServiceConfig::default()).unwrap();
    let pollable = names(&svc.net_mut().pollable_nodes());
    // Demand names hub ports and unmanaged switches too; no agent answers
    // for those.
    let monitor = NetworkMonitor::new(model.topology.clone());
    let reads = names(
        &QosMonitor::new(&monitor, &model.qos_paths)
            .unwrap()
            .demand(&monitor),
    );
    let demand: BTreeSet<String> = reads.intersection(&pollable).cloned().collect();
    assert!(demand.len() < reads.len());
    let survey = pollable.len() - demand.len();
    assert_eq!((demand.len(), survey), (115, 890));
    let trail = traced_service(&mut svc);
    svc.set_tracing(true);

    let mut rounds = Vec::new();
    for _ in 0..2 * SURVEY_TICKS {
        svc.tick().unwrap();
        let round = polled_devices(&svc);
        assert!(demand.is_subset(&round));
        assert_eq!(round.len(), demand.len() + survey.div_ceil(SURVEY_TICKS));
        assert_eq!(trail.take_polled(&svc), vec![round.len()]);
        // The slice is spread over the network: hosts `h<ap>-<i>` of one
        // access point share its uplink, and surveying them together
        // would load it with a burst of SNMP.
        let mut per_ap = std::collections::BTreeMap::new();
        for host in round.difference(&demand).filter(|n| n.starts_with('h')) {
            *per_ap.entry(host.split('-').next().unwrap()).or_insert(0) += 1;
        }
        assert!(per_ap.values().all(|&n| n <= 2), "{per_ap:?}");
        rounds.push(round);
    }
    for window in rounds.windows(SURVEY_TICKS) {
        let seen: BTreeSet<&String> = window.iter().flatten().collect();
        assert_eq!(seen.len(), pollable.len());
    }
}

#[test]
fn an_empty_demand_set_and_an_empty_survey_both_tick() {
    let pair = r#"
        host M { address 10.0.0.1; snmp community "public"; interface eth0 { speed 10Mbps; } }
        host W { address 10.0.0.2; snmp community "public"; interface eth0 { speed 10Mbps; } }
        connection M.eth0 <-> W.eth0;
    "#;
    for (spec, polled_per_tick) in [
        // No qospath: two surveyed devices, one a tick.
        (pair.to_owned(), 1),
        // A path that reads both: no survey.
        (
            format!("{pair} qospath mw from M to W {{ min_available 1Mbps; }}"),
            2,
        ),
    ] {
        let model = parse_and_validate(&spec).unwrap();
        let options = SimNetworkOptions {
            monitor_host: "M".into(),
            ..SimNetworkOptions::default()
        };
        let mut svc =
            MonitoringService::from_model(model, options, ServiceConfig::default()).unwrap();
        let trail = traced_service(&mut svc);
        svc.run_ticks(4).unwrap();
        assert_eq!(trail.take_polled(&svc), vec![polled_per_tick; 4], "{spec}");
    }
}
