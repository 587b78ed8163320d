//! Criterion ablations on monitoring cost:
//!
//! * **poll style** — one chunked GetRequest per device (this monitor's
//!   choice) vs. a full GetNext table walk (the generic NMS pattern):
//!   message count and CPU per poll.
//! * **fleet size** — cost of a poll round as the number of monitored
//!   devices grows.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use netqos_monitor::poll;
use netqos_snmp::agent::SnmpAgent;
use netqos_snmp::client;
use netqos_snmp::mib::ScalarMib;
use netqos_snmp::mib2::{self, IfEntry, SystemInfo};
use netqos_snmp::Oid;

fn device_mib(ifs: u32) -> ScalarMib {
    let mut mib = ScalarMib::new();
    mib2::system::install(&mut mib, &SystemInfo::new("dev"), 100);
    let entries: Vec<IfEntry> = (1..=ifs)
        .map(|i| IfEntry::ethernet(i, &format!("p{i}"), 100_000_000, [2, 0, 0, 0, 0, i as u8]))
        .collect();
    mib2::interfaces::install(&mut mib, &entries);
    mib
}

/// The monitor's strategy: a single GetRequest carrying all needed OIDs.
fn poll_chunked(agent: &mut SnmpAgent, mib: &ScalarMib, ifs: u32) -> usize {
    let oids = poll::poll_oids(ifs);
    let req = client::build_get("public", 1, &oids).unwrap();
    let resp = agent.handle(&req, mib).unwrap();
    let parsed = client::parse_response(&resp).unwrap();
    poll::parse_snapshot(&parsed.bindings, ifs).unwrap();
    1 // messages exchanged
}

/// SNMPv2c bulk walk of the interfaces group (max-repetitions = 20).
fn poll_bulk_walk(agent: &mut SnmpAgent, mib: &ScalarMib) -> usize {
    let mut cur: Oid = "1.3.6.1.2.1.2".parse().unwrap();
    let stop: Oid = "1.3.6.1.2.1.3".parse().unwrap();
    let mut messages = 0usize;
    'outer: loop {
        let req = client::build_get_bulk("public", 1, 0, 20, std::slice::from_ref(&cur)).unwrap();
        messages += 1;
        let Some(resp) = agent.handle(&req, mib) else {
            break;
        };
        let parsed = client::parse_response(&resp).unwrap();
        if !parsed.error_status.is_ok() || parsed.bindings.is_empty() {
            break;
        }
        for vb in parsed.bindings {
            if vb.value.is_exception() || vb.oid >= stop {
                break 'outer;
            }
            cur = vb.oid;
        }
    }
    messages
}

/// The generic NMS strategy: walk the whole interfaces group.
fn poll_walk(agent: &mut SnmpAgent, mib: &ScalarMib) -> usize {
    let mut cur: Oid = "1.3.6.1.2.1.2".parse().unwrap();
    let stop: Oid = "1.3.6.1.2.1.3".parse().unwrap();
    let mut messages = 0usize;
    loop {
        let req = client::build_get_next("public", 1, std::slice::from_ref(&cur)).unwrap();
        messages += 1;
        let Some(resp) = agent.handle(&req, mib) else {
            break;
        };
        let parsed = client::parse_response(&resp).unwrap();
        if !parsed.error_status.is_ok() {
            break;
        }
        cur = parsed.bindings[0].oid.clone();
        if cur >= stop {
            break;
        }
    }
    messages
}

fn bench_poll_styles(c: &mut Criterion) {
    let mut group = c.benchmark_group("poll_style");
    for ifs in [1u32, 8, 24] {
        let mib = device_mib(ifs);
        group.bench_with_input(BenchmarkId::new("chunked_get", ifs), &ifs, |b, &ifs| {
            b.iter_batched(
                || SnmpAgent::new("public"),
                |mut agent| poll_chunked(&mut agent, &mib, ifs),
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("getnext_walk", ifs), &ifs, |b, _| {
            b.iter_batched(
                || SnmpAgent::new("public"),
                |mut agent| poll_walk(&mut agent, &mib),
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("v2c_bulk_walk", ifs), &ifs, |b, _| {
            b.iter_batched(
                || SnmpAgent::new("public"),
                |mut agent| poll_bulk_walk(&mut agent, &mib),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_fleet_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_size");
    for devices in [2usize, 6, 18] {
        let mibs: Vec<ScalarMib> = (0..devices).map(|_| device_mib(4)).collect();
        group.bench_with_input(BenchmarkId::new("poll_fleet", devices), &devices, |b, _| {
            b.iter_batched(
                || SnmpAgent::new("public"),
                |mut agent| {
                    for mib in &mibs {
                        poll_chunked(&mut agent, mib, 4);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_poll_styles, bench_fleet_size);
criterion_main!(benches);
