//! Criterion benches for the monitoring pipeline on the full LIRTSS
//! testbed: the pure ingest + path-evaluation cost (the per-period CPU
//! budget of the monitoring host) and one RTT probe through the simulated
//! network. A poll through the simulator is measured by `qosbench`'s
//! `lan-wide` workload (`monitor.simnet.poll_us_per_device`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use netqos_bench::testbed::{build_service, TestbedOptions};
use netqos_monitor::poll::{DeviceSnapshot, IfSample};
use netqos_monitor::{NetworkMonitor, ServiceConfig};
use netqos_sim::time::SimDuration;

fn bench_ingest_and_paths(c: &mut Criterion) {
    let model = netqos_spec::parse_and_validate(netqos_bench::LIRTSS_SPEC).unwrap();
    let topo = model.topology.clone();
    let snmp_nodes = model.snmp_nodes();

    let make_snapshot = |node, k: u32| {
        let n = topo.node(node).unwrap();
        DeviceSnapshot {
            uptime_ticks: k * 100,
            interfaces: n
                .interfaces
                .iter()
                .enumerate()
                .map(|(i, iface)| IfSample {
                    if_index: i as u32 + 1,
                    descr: iface.local_name.clone(),
                    speed_bps: iface.speed_bps,
                    in_octets: k.wrapping_mul(125_000 + i as u32),
                    out_octets: k.wrapping_mul(12_500),
                    in_ucast_pkts: k * 100,
                    out_nucast_pkts: k,
                })
                .collect(),
        }
    };

    c.bench_function("ingest_6_devices_plus_4_paths", |b| {
        b.iter_batched(
            || {
                let mut m = NetworkMonitor::new(topo.clone());
                for &node in &snmp_nodes {
                    m.ingest(node, make_snapshot(node, 1)).unwrap();
                }
                m
            },
            |mut m| {
                for &node in &snmp_nodes {
                    m.ingest(node, make_snapshot(node, 2)).unwrap();
                }
                for q in &model.qos_paths {
                    let _ = m.path_bandwidth(q.from, q.to).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_rtt_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency_probe");
    group.sample_size(10);
    group.bench_function("rtt_s1_from_monitor", |b| {
        b.iter_batched(
            || {
                let options = TestbedOptions {
                    noise_mean: None,
                    ..TestbedOptions::default()
                };
                build_service(&[], &options, ServiceConfig::default()).unwrap()
            },
            |mut svc| {
                let s1 = svc.monitor().topology().node_by_name("S1").unwrap();
                svc.net_mut()
                    .measure_rtt(s1, 4, 64, SimDuration::from_millis(100))
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_ingest_and_paths, bench_rtt_probe);
criterion_main!(benches);
