//! The indexed topology and compiled path plans on generated access
//! networks: answers equal the linear-scan reference oracle at 1 000
//! hosts (mixed hub/switch access points, partial rate tables, the
//! hub-sum clamp, the mirrored-endpoint fallback), and the number of rate
//! reads an evaluation makes does not depend on the size of the network.

#[path = "../crates/topology/tests/oracle/mod.rs"]
mod oracle;

use netqos::monitor::poll::{DeviceSnapshot, IfSample};
use netqos::monitor::{NetworkMonitor, QosMonitor};
use netqos::spec::{generate_spec, parse_and_validate, GenParams, SpecModel};
use netqos::topology::bandwidth::{
    self, BandwidthRule, IfRates, MapRates, PathBandwidth, RateProvider,
};
use netqos::topology::path::{find_path, CommPath};
use netqos::topology::plan::{DomainSums, PathPlan};
use netqos::topology::{IfIx, NetworkTopology, NodeId, NodeKind};
use std::cell::Cell;

fn access_network(hosts: usize, hub_every: usize, qos_paths: usize) -> SpecModel {
    let src = generate_spec(&GenParams {
        hosts,
        hub_every,
        qos_paths,
        ..GenParams::default()
    });
    parse_and_validate(&src).expect("generated spec validates")
}

/// xorshift64*: the tests need reproducible variety, not quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One second of traffic on an interface, as octet counts (so the rate
/// the monitor derives is exactly `8 * octets` bits/s).
#[derive(Clone, Copy)]
struct Traffic {
    in_octets: u32,
    out_octets: u32,
}

/// A partial traffic table: a fifth of the hosts run no agent at all,
/// and one device port in seven is not reported. Hub stations carry up
/// to 1.2 Mb/s each way, so a full 25-station 10 Mb/s hub is pushed past
/// its capacity.
fn partial_traffic(topo: &NetworkTopology, seed: u64) -> Vec<(NodeId, Vec<Option<Traffic>>)> {
    let mut rng = Rng(seed);
    topo.nodes()
        .map(|(id, node)| {
            let agentless = node.kind == NodeKind::Host && rng.below(5) == 0;
            let ifaces = node
                .interfaces
                .iter()
                .map(|_| {
                    let unreported = node.kind != NodeKind::Host && rng.below(7) == 0;
                    let t = Traffic {
                        in_octets: rng.below(150_000) as u32,
                        out_octets: rng.below(150_000) as u32,
                    };
                    (!agentless && !unreported).then_some(t)
                })
                .collect();
            (id, ifaces)
        })
        .collect()
}

fn map_rates(traffic: &[(NodeId, Vec<Option<Traffic>>)]) -> MapRates {
    let mut rates = MapRates::new();
    for (node, ifaces) in traffic {
        for (i, t) in ifaces.iter().enumerate() {
            if let Some(t) = t {
                rates.set(
                    *node,
                    IfIx(i as u32),
                    IfRates {
                        in_bps: 8 * t.in_octets as u64,
                        out_bps: 8 * t.out_octets as u64,
                    },
                );
            }
        }
    }
    rates
}

/// Feeds the same table through `NetworkMonitor::ingest`: a baseline
/// snapshot, then one a second later.
fn monitor_with(
    topo: &NetworkTopology,
    traffic: &[(NodeId, Vec<Option<Traffic>>)],
) -> NetworkMonitor {
    let mut monitor = NetworkMonitor::new(topo.clone());
    for (node, ifaces) in traffic {
        let names = &topo.node(*node).unwrap().interfaces;
        let snapshot = |uptime_ticks: u32, scale: u32| DeviceSnapshot {
            uptime_ticks,
            interfaces: ifaces
                .iter()
                .enumerate()
                .filter_map(|(i, t)| {
                    t.map(|t| IfSample {
                        if_index: i as u32 + 1,
                        descr: names[i].local_name.clone(),
                        speed_bps: names[i].speed_bps,
                        in_octets: 1_000 + scale * t.in_octets,
                        out_octets: 1_000 + scale * t.out_octets,
                        in_ucast_pkts: 0,
                        out_nucast_pkts: 0,
                    })
                })
                .collect(),
        };
        if ifaces.iter().all(Option::is_none) {
            continue;
        }
        monitor.ingest(*node, snapshot(500, 0)).unwrap();
        monitor.ingest(*node, snapshot(600, 1)).unwrap();
    }
    monitor
}

#[test]
fn plans_match_the_reference_oracle_at_1k_hosts() {
    let model = access_network(1_000, 3, 64);
    let topo = &model.topology;
    let traffic = partial_traffic(topo, 0x5eed_0013);
    let rates = map_rates(&traffic);
    let monitor = monitor_with(topo, &traffic);

    let hosts: Vec<NodeId> = topo
        .nodes()
        .filter(|(_, n)| n.kind.is_host())
        .map(|(id, _)| id)
        .collect();
    let mut rng = Rng(0x5eed_0014);
    let mut paths: Vec<CommPath> = model
        .qos_paths
        .iter()
        .map(|q| find_path(topo, q.from, q.to).unwrap())
        .collect();
    for _ in 0..200 {
        let a = hosts[rng.below(hosts.len() as u64) as usize];
        let b = hosts[rng.below(hosts.len() as u64) as usize];
        paths.push(find_path(topo, a, b).unwrap());
    }

    let (mut ok, mut failed, mut clamped, mut fell_back) = (0, 0, 0, 0);
    let mut sums = DomainSums::new(topo);
    let mut out = PathBandwidth::default();
    for p in &paths {
        let expected = oracle::path_bandwidth(topo, p, &rates);
        assert_eq!(bandwidth::path_bandwidth(topo, p, &rates), expected);
        // One memo across all paths, as the QoS monitor uses it.
        let plan = PathPlan::compile(topo, p).unwrap();
        let shared = plan
            .evaluate(topo, &rates, &mut sums, &mut out)
            .map(|()| out.clone())
            .map_err(|e| e.into_topology_error(topo));
        assert_eq!(shared, expected);
        // The monitor's dense rate table answers like the map it was fed.
        assert_eq!(oracle::path_bandwidth(topo, p, &monitor), expected);
        assert_eq!(
            monitor.path_bandwidth_of(p).map_err(|e| e.to_string()),
            expected
                .clone()
                .map_err(|e| netqos::monitor::MonitorError::from(e).to_string())
        );

        match &expected {
            Ok(bw) => {
                ok += 1;
                clamped += bw
                    .connections
                    .iter()
                    .filter(|c| c.rule == BandwidthRule::SharedMedium && c.available_bps == 0)
                    .count();
                let agentless_end = [p.from, p.to]
                    .iter()
                    .any(|&h| rates.rates(h, IfIx(0)).is_none());
                fell_back += usize::from(agentless_end && !p.is_empty());
            }
            Err(_) => failed += 1,
        }
    }
    // The table must exercise what the test claims to cover.
    assert!(ok >= 50, "only {ok} paths evaluated");
    assert!(failed >= 10, "only {failed} paths hit a missing rate");
    assert!(clamped >= 10, "only {clamped} hub hops clamped to capacity");
    assert!(
        fell_back >= 10,
        "only {fell_back} paths used the far-end fallback"
    );

    // The QoS monitor's tracked slots hold the same answers.
    let mut qos = QosMonitor::new(&monitor, &model.qos_paths).unwrap();
    qos.evaluate(&monitor);
    let mut evaluated = 0;
    for (q, p) in model.qos_paths.iter().zip(&paths) {
        let expected = oracle::path_bandwidth(topo, p, &rates).ok();
        assert_eq!(qos.last_bandwidth(&q.name), expected.as_ref(), "{}", q.name);
        evaluated += usize::from(expected.is_some());
    }
    assert_eq!(qos.evaluated().count(), evaluated);
}

/// Answers every interface with the same rate and counts the questions.
struct CountingRates {
    reads: Cell<u64>,
}

impl CountingRates {
    fn new() -> Self {
        CountingRates {
            reads: Cell::new(0),
        }
    }

    fn take(&self) -> u64 {
        self.reads.replace(0)
    }
}

impl RateProvider for CountingRates {
    fn rates(&self, _node: NodeId, _ifix: IfIx) -> Option<IfRates> {
        self.reads.set(self.reads.get() + 1);
        Some(IfRates {
            in_bps: 10_000,
            out_bps: 10_000,
        })
    }
}

/// Hosts of site 0's first access point of `kind`, and of the first such
/// access point outside site 0.
fn near_and_far(topo: &NetworkTopology, kind: NodeKind) -> (Vec<NodeId>, Vec<NodeId>) {
    let ap_hosts = |ap: usize| -> Option<Vec<NodeId>> {
        let id = topo.node_by_name(&format!("ap{ap}")).ok()?;
        (topo.node(id).unwrap().kind == kind).then(|| {
            topo.neighbors(id)
                .iter()
                .map(|&(peer, _)| peer)
                .filter(|&peer| topo.node(peer).unwrap().kind.is_host())
                .collect()
        })
    };
    let aps_per_site = GenParams::default().aps_per_site;
    let near = (0..aps_per_site).find_map(ap_hosts).expect("near AP");
    let far = (aps_per_site..4 * aps_per_site)
        .find_map(ap_hosts)
        .expect("far AP");
    (near, far)
}

#[test]
fn rate_reads_do_not_grow_with_the_network() {
    let counting = CountingRates::new();
    let mut reads_by_size = Vec::new();
    for hosts in [1_000, 10_000] {
        let model = access_network(hosts, 4, 8);
        let topo = &model.topology;
        let mut reads = Vec::new();
        for kind in [NodeKind::Switch, NodeKind::Hub] {
            let (near, far) = near_and_far(topo, kind);
            // Host, AP, site, core, site, AP, host.
            let p = find_path(topo, near[0], far[0]).unwrap();
            assert_eq!(p.len(), 6);
            let bw = bandwidth::path_bandwidth(topo, &p, &counting).unwrap();
            let shared_hops = bw
                .connections
                .iter()
                .filter(|c| c.rule == BandwidthRule::SharedMedium)
                .count();
            assert_eq!(shared_hops, if kind == NodeKind::Hub { 4 } else { 0 });
            reads.push(counting.take());
        }
        reads_by_size.push(reads);
    }
    // A switch hop reads one interface; each of the two hub domains of
    // the hub path is summed once (25 stations), not once per hub hop.
    assert_eq!(reads_by_size[0], [6, 2 + 2 * 25]);
    assert_eq!(reads_by_size[1], reads_by_size[0]);
}

#[test]
fn paths_sharing_a_hub_read_its_stations_once_per_pass() {
    let model = access_network(1_000, 4, 8);
    let topo = &model.topology;
    let (on_hub, _) = near_and_far(topo, NodeKind::Hub);
    let (_, remote) = near_and_far(topo, NodeKind::Switch);
    let plans: Vec<PathPlan> = on_hub
        .iter()
        .zip(&remote)
        .map(|(&from, &to)| PathPlan::compile(topo, &find_path(topo, from, to).unwrap()).unwrap())
        .collect();
    assert_eq!(plans.len(), 25);

    let counting = CountingRates::new();
    let mut sums = DomainSums::new(topo);
    let mut out = PathBandwidth::default();
    for pass in 0..2 {
        sums.clear();
        for plan in &plans {
            plan.evaluate(topo, &counting, &mut sums, &mut out).unwrap();
            assert_eq!(out.connections.len(), 6);
        }
        // Per path: two hub hops (host drop, hub uplink) answered by the
        // one sum, four switch hops of one read each.
        assert_eq!(counting.take(), 25 + 25 * 4, "pass {pass}");
    }
    // Within a pass the sum is not read again.
    plans[0]
        .evaluate(topo, &counting, &mut sums, &mut out)
        .unwrap();
    assert_eq!(counting.take(), 4);
}
