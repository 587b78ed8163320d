//! The monitoring service over real SNMP agents on UDP sockets: the tick
//! that runs over the simulator — poll, rows, alerts, the long-term store,
//! `/snapshot`, traces — through a `UdpNetwork`, and what a real agent can
//! do to it (stay silent, answer short, answer garbage) costs one device's
//! poll and never the tick. The topology audit reads real agents too.

use netqos_monitor::discovery::{self, Verdict};
use netqos_monitor::service::{MonitoringService, ServiceConfig};
use netqos_monitor::udpnet::UdpNetwork;
use netqos_sim::time::SimDuration;
use netqos_snmp::mib::ScalarMib;
use netqos_snmp::mib2::bridge::FdbEntry;
use netqos_snmp::mib2::{self, IfEntry, SystemInfo};
use netqos_snmp::transport::{UdpAgentHandle, UdpAgentServer};
use netqos_snmp::{Pdu, SnmpAgent, SnmpMessage, SnmpValue, VarBind};
use netqos_spec::SpecModel;
use netqos_telemetry::{parse_json, to_otlp, validate_otlp, FieldValue, LtsReader};
use netqos_topology::{IfIx, NodeId};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Host T, polled, and host B, polled when `b_agent`, over one connection,
/// and the qospath between them.
fn model(b_agent: bool, min_available: &str) -> SpecModel {
    let b_snmp = if b_agent {
        r#"snmp community "public";"#
    } else {
        ""
    };
    let spec = format!(
        r#"
        host T {{ snmp community "public"; interface eth0 {{ speed 100Mbps; }} }}
        host B {{ {b_snmp} interface eth0 {{ speed 100Mbps; }} }}
        connection T.eth0 <-> B.eth0;
        qospath tb from T to B {{ min_available {min_available}; }}
        "#
    );
    netqos_spec::parse_and_validate(&spec).unwrap()
}

fn node(model: &SpecModel, name: &str) -> NodeId {
    model.topology.node_by_name(name).unwrap()
}

/// The MIB of a one-interface host after `k` polls.
fn host_mib(k: u32, octets_per_poll: u32, ticks_per_poll: u32) -> ScalarMib {
    let mut mib = ScalarMib::new();
    mib2::system::install(&mut mib, &SystemInfo::new("T"), k * ticks_per_poll);
    let mut e = IfEntry::ethernet(1, "eth0", 100_000_000, [2, 0, 0, 0, 0, 9]);
    e.in_octets = k.wrapping_mul(octets_per_poll);
    mib2::interfaces::install(&mut mib, &[e]);
    mib
}

/// An agent whose counters advance by a fixed amount per request: 125 000
/// octets and 100 ticks (1 s of agent uptime) per poll is exactly 1 Mb/s
/// however the wall clock paces the polls.
fn growing_agent() -> UdpAgentHandle {
    let polls = Arc::new(AtomicU32::new(0));
    UdpAgentServer::spawn("127.0.0.1:0", "public", move || {
        host_mib(polls.fetch_add(1, Ordering::Relaxed) + 1, 125_000, 100)
    })
    .expect("spawn agent")
}

/// A service over `model`'s agents at `addrs`, ticking every 50 ms.
fn service(
    model: SpecModel,
    addrs: &[(&str, SocketAddr)],
    config: ServiceConfig,
) -> MonitoringService<UdpNetwork> {
    let addrs: HashMap<NodeId, SocketAddr> = (addrs.iter())
        .map(|&(name, addr)| (node(&model, name), addr))
        .collect();
    let net = UdpNetwork::new(model, &addrs).unwrap();
    let config = ServiceConfig {
        poll_period: SimDuration::from_millis(50),
        ..config
    };
    MonitoringService::new(net, config).unwrap()
}

fn counter(svc: &MonitoringService<UdpNetwork>, name: &str) -> u64 {
    svc.registry().counter(name).get()
}

#[test]
fn rates_over_real_udp_are_exact() {
    let agent = growing_agent();
    let model = model(false, "1Mbps");
    let t = node(&model, "T");
    let mut svc = service(
        model,
        &[("T", agent.local_addr())],
        ServiceConfig::default(),
    );
    svc.run_ticks(3).unwrap();
    let rates = svc.monitor().if_rates(t, IfIx(0)).unwrap();
    assert_eq!(rates.in_bps, 1_000_000);
    let row = &svc.rows()[0];
    assert_eq!((row.name.as_str(), row.used_bps), ("tb", 1_000_000));
    // Real wires keep no truth the service could read.
    assert_eq!(row.truth_used_bps, None);
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 3);
    agent.stop();
}

#[test]
fn a_traced_tick_holds_each_poll_and_its_snmp_exchange() {
    let agent = growing_agent();
    let mut svc = service(
        model(false, "1Mbps"),
        &[("T", agent.local_addr())],
        ServiceConfig::default(),
    );
    svc.set_tracing(true);
    svc.run_ticks(2).unwrap();
    agent.stop();
    let cycles = svc.flight().snapshot();
    assert_eq!(cycles.len(), 2);
    for c in &cycles {
        assert_ne!(c.trace_id, 0);
        let device = (c.spans.iter())
            .find(|s| s.target == "monitor.poll" && s.name == "device")
            .expect("poll span in the flight cycle");
        assert!(device.attrs.iter().any(|(k, _)| k == "device"));
        // The SNMP client's spans nest under the poll span.
        assert!(
            (c.spans.iter())
                .any(|s| s.parent == Some(device.span_id) && s.target.starts_with("snmp.")),
            "expected SNMP client spans under the poll span"
        );
    }
    let stats = validate_otlp(&to_otlp(&cycles)).unwrap();
    assert_eq!(stats.traces, cycles.len());
}

/// The poll's round-trip time over real UDP: one `netqos_monitor_poll_rtt_us`
/// sample per answered poll and none for a timeout, and on a traced poll
/// span an `rtt_us` and no rank.
#[test]
fn an_answered_poll_records_its_round_trip_once() {
    let agent = growing_agent();
    let mut svc = service(
        model(true, "1Mbps"),
        &[
            ("T", agent.local_addr()),
            ("B", "127.0.0.1:1".parse().unwrap()),
        ],
        ServiceConfig::default(),
    );
    svc.set_tracing(true);
    svc.run_ticks(3).unwrap();
    agent.stop();
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 3);
    assert_eq!(counter(&svc, "netqos_monitor_poll_timeouts_total"), 3);
    let rtt = svc.registry().histogram("netqos_monitor_poll_rtt_us");
    assert_eq!(rtt.count(), 3, "one sample per answered poll of T");
    let polls: Vec<_> = (svc.flight().snapshot().into_iter())
        .flat_map(|c| c.spans)
        .filter(|s| s.target == "monitor.poll" && s.name == "device")
        .collect();
    assert_eq!(polls.len(), 6, "T and B, three ticks");
    for span in &polls {
        let keys: Vec<&str> = span.attrs.iter().map(|(k, _)| k.as_str()).collect();
        let device = (span.attrs.iter()).find(|(k, _)| k == "device");
        match device.map(|(_, v)| v) {
            Some(FieldValue::Str(name)) if name == "T" => assert_eq!(keys, ["device", "rtt_us"]),
            Some(FieldValue::Str(name)) if name == "B" => assert_eq!(keys, ["device"]),
            other => panic!("poll span of {other:?}"),
        }
    }
}

#[test]
fn an_unreachable_agent_is_a_counted_timeout_and_the_tick_goes_on() {
    let mut svc = service(
        model(false, "1Mbps"),
        &[("T", "127.0.0.1:1".parse().unwrap())],
        ServiceConfig::default(),
    );
    svc.run_ticks(2).unwrap();
    assert_eq!(counter(&svc, "netqos_monitor_poll_timeouts_total"), 2);
    // The simulator's ledger: the request and two retransmissions, then
    // one timeout.
    assert_eq!(counter(&svc, "netqos_monitor_poll_retransmits_total"), 4);
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 0);
    assert!(svc.rows().is_empty());
}

#[test]
fn an_agent_short_of_an_interface_fails_its_poll_and_not_the_tick() {
    // B's spec names two interfaces and its agent has one: every poll of
    // B is missing objects.
    let spec = r#"
        host T { snmp community "public"; interface eth0 { speed 100Mbps; } }
        host B { snmp community "public"; interface eth0 { speed 100Mbps; }
                 interface eth1 { speed 100Mbps; } }
        host C { interface eth0 { speed 100Mbps; } }
        connection T.eth0 <-> B.eth0;
        connection B.eth1 <-> C.eth0;
        qospath tb from T to B { min_available 1Mbps; }
    "#;
    let model = netqos_spec::parse_and_validate(spec).unwrap();
    let (healthy, short) = (growing_agent(), growing_agent());
    let addrs = [("T", healthy.local_addr()), ("B", short.local_addr())];
    let mut svc = service(model, &addrs, ServiceConfig::default());
    for _ in 0..5 {
        svc.tick().unwrap();
    }
    let row = &svc.rows()[0];
    assert_eq!((row.name.as_str(), row.used_bps), ("tb", 1_000_000));
    assert_eq!(counter(&svc, "netqos_monitor_poll_failures_total"), 5);
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 5);
}

/// A hostile "agent" on a raw socket: request by request it answers with
/// half of a real answer, random bytes, a real answer under another
/// request-id, and a well-formed answer of 65 507 bytes whose one binding
/// is not what was asked for. None of them is a good answer. Counts the
/// requests it answered; stops when told to.
fn hostile_agent() -> (SocketAddr, Arc<AtomicU32>, Arc<AtomicBool>) {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let addr = socket.local_addr().unwrap();
    let answered = Arc::new(AtomicU32::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (count, stopped) = (answered.clone(), stop.clone());
    std::thread::spawn(move || {
        let mut agent = SnmpAgent::new("public");
        let mut buf = vec![0u8; 65_535];
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        for k in 0.. {
            let (n, from) = loop {
                if stopped.load(Ordering::Relaxed) {
                    return;
                }
                if let Ok(got) = socket.recv_from(&mut buf) {
                    break got;
                }
            };
            let request = &buf[..n];
            let mib = host_mib(k + 1, 1, 1);
            let reply = match k % 4 {
                0 => {
                    let answer = agent.handle(request, &mib).unwrap();
                    answer[..answer.len() / 2].to_vec()
                }
                1 => (0..200)
                    .map(|_| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed as u8
                    })
                    .collect(),
                2 => {
                    let mut other = request_pdu(request);
                    other.request_id = other.request_id.wrapping_add(1000);
                    let other = SnmpMessage::v1("public", other).encode().unwrap();
                    agent.handle(&other, &mib).unwrap()
                }
                _ => huge_answer(request),
            };
            let _ = socket.send_to(&reply, from);
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
    (addr, answered, stop)
}

fn request_pdu(request: &[u8]) -> Pdu {
    SnmpMessage::decode(request).unwrap().pdu().unwrap().clone()
}

/// A GetResponse to `request` of exactly 65 507 bytes, the largest UDP
/// payload over IPv4: one `sysUpTime` binding holding a string.
fn huge_answer(request: &[u8]) -> Vec<u8> {
    let pdu = request_pdu(request);
    let encode = |len: usize| {
        let binding = VarBind::new(
            mib2::system::sys_uptime_instance(),
            SnmpValue::OctetString(vec![b'x'; len]),
        );
        SnmpMessage::v1("public", pdu.response(vec![binding]))
            .encode()
            .unwrap()
    };
    let len = 65_507 - (encode(65_000).len() - 65_000);
    let answer = encode(len);
    assert_eq!(answer.len(), 65_507);
    answer
}

#[test]
fn hostile_datagrams_fail_a_poll_and_never_a_tick() {
    let healthy = growing_agent();
    let (hostile, answered, stop) = hostile_agent();
    let model = model(true, "1Mbps");
    let t = node(&model, "T");
    let addrs = [("T", healthy.local_addr()), ("B", hostile)];
    let mut svc = service(model, &addrs, ServiceConfig::default());
    for _ in 0..4 {
        svc.tick().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    // Every kind of answer was given at least once.
    assert!(answered.load(Ordering::Relaxed) >= 4);
    let timeouts = counter(&svc, "netqos_monitor_poll_timeouts_total");
    let failures = counter(&svc, "netqos_monitor_poll_failures_total");
    assert_eq!(
        timeouts + failures,
        4,
        "{timeouts} timeouts, {failures} failures"
    );
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 4);
    assert_eq!(
        svc.monitor().if_rates(t, IfIx(0)).unwrap().in_bps,
        1_000_000
    );
    let row = &svc.rows()[0];
    assert_eq!((row.name.as_str(), row.used_bps), ("tb", 1_000_000));
}

/// Hosts A, B, C and D, each polled, and two qospaths that read all four
/// every tick.
fn four_hosts() -> SpecModel {
    netqos_spec::parse_and_validate(
        r#"
        host A { snmp community "public"; interface eth0 { speed 100Mbps; } }
        host B { snmp community "public"; interface eth0 { speed 100Mbps; } }
        host C { snmp community "public"; interface eth0 { speed 100Mbps; } }
        host D { snmp community "public"; interface eth0 { speed 100Mbps; } }
        connection A.eth0 <-> B.eth0;
        connection C.eth0 <-> D.eth0;
        qospath ab from A to B { min_available 1Mbps; }
        qospath cd from C to D { min_available 1Mbps; }
        "#,
    )
    .unwrap()
}

/// A socket that takes requests and never answers, for as long as it
/// lives: an agent that is there and silent.
fn silent_agent() -> UdpSocket {
    UdpSocket::bind("127.0.0.1:0").unwrap()
}

#[test]
fn a_round_waits_for_its_silent_agents_once_and_not_in_turn() {
    // Two of four agents are silent: the round waits one timeout budget
    // (3 × 500 ms) for both at once, not one after the other.
    let (a, c) = (growing_agent(), growing_agent());
    let (b, d) = (silent_agent(), silent_agent());
    let addrs = [
        ("A", a.local_addr()),
        ("B", b.local_addr().unwrap()),
        ("C", c.local_addr()),
        ("D", d.local_addr().unwrap()),
    ];
    let mut svc = service(four_hosts(), &addrs, ServiceConfig::default());
    let started = std::time::Instant::now();
    svc.tick().unwrap();
    let lasted = started.elapsed();
    let (period, budget) = (Duration::from_millis(50), Duration::from_millis(1_500));
    assert!(lasted >= budget, "{lasted:?}");
    assert!(
        lasted <= period + budget + Duration::from_millis(500),
        "one tick lasted {lasted:?}"
    );
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 2);
    assert_eq!(counter(&svc, "netqos_monitor_poll_failures_total"), 0);
    assert_eq!(counter(&svc, "netqos_monitor_poll_retransmits_total"), 4);
    assert_eq!(counter(&svc, "netqos_monitor_poll_timeouts_total"), 2);
    a.stop();
    c.stop();
}

/// An agent on a raw socket: each request is answered from `host_mib`,
/// its counters advancing per request as [`growing_agent`]'s do, by the
/// datagrams `answers` makes of it and the answer, each sent after its
/// delay. Stops when told to.
fn scripted_agent(
    mut answers: impl FnMut(&[u8], Vec<u8>) -> Vec<(Duration, Vec<u8>)> + Send + 'static,
) -> (SocketAddr, Arc<AtomicBool>) {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let addr = socket.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = stop.clone();
    std::thread::spawn(move || {
        let mut agent = SnmpAgent::new("public");
        let mut buf = vec![0u8; 65_535];
        for k in 1.. {
            let (n, from) = loop {
                if stopped.load(Ordering::Relaxed) {
                    return;
                }
                if let Ok(got) = socket.recv_from(&mut buf) {
                    break got;
                }
            };
            let answer = agent.handle(&buf[..n], &host_mib(k, 125_000, 100)).unwrap();
            for (delay, datagram) in answers(&buf[..n], answer) {
                std::thread::sleep(delay);
                let _ = socket.send_to(&datagram, from);
            }
        }
    });
    (addr, stop)
}

#[test]
fn an_answer_from_another_agents_address_is_not_taken() {
    // B answers every request it gets with good answers to the requests
    // next to it — one of them A's, which is silent — and never with its
    // own. Taken by request id alone, B's answer would pass for A's.
    let a = silent_agent();
    let (b, stop) = scripted_agent(|request, _| {
        let pdu = request_pdu(request);
        [-1, 1]
            .map(|step| {
                let mut other = pdu.clone();
                other.request_id = other.request_id.wrapping_add(step);
                let other = SnmpMessage::v1("public", other).encode().unwrap();
                let answer = SnmpAgent::new("public").handle(&other, &host_mib(1, 1, 1));
                (Duration::ZERO, answer.unwrap())
            })
            .to_vec()
    });
    let model = model(true, "1Mbps");
    let addrs = [("T", a.local_addr().unwrap()), ("B", b)];
    let mut svc = service(model, &addrs, ServiceConfig::default());
    svc.tick().unwrap();
    stop.store(true, Ordering::Relaxed);
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 0);
    assert_eq!(counter(&svc, "netqos_monitor_poll_failures_total"), 0);
    assert_eq!(counter(&svc, "netqos_monitor_poll_timeouts_total"), 2);
}

#[test]
fn a_late_duplicate_is_dropped_and_fails_no_poll() {
    // T answers every request three times, the copies 20 and 60 ms late;
    // B answers after 50 ms. So the first copy lands while the round still
    // waits for B, and the second after it, while T's next request waits.
    let (t, stop_t) = scripted_agent(|_, answer| {
        vec![
            (Duration::ZERO, answer.clone()),
            (Duration::from_millis(20), answer.clone()),
            (Duration::from_millis(40), answer),
        ]
    });
    let (b, stop_b) = scripted_agent(|_, answer| vec![(Duration::from_millis(50), answer)]);
    let model = model(true, "1Mbps");
    let node_t = node(&model, "T");
    let mut svc = service(model, &[("T", t), ("B", b)], ServiceConfig::default());
    svc.run_ticks(4).unwrap();
    stop_t.store(true, Ordering::Relaxed);
    stop_b.store(true, Ordering::Relaxed);
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 8);
    assert_eq!(counter(&svc, "netqos_monitor_poll_failures_total"), 0);
    assert_eq!(counter(&svc, "netqos_monitor_poll_timeouts_total"), 0);
    assert_eq!(
        svc.monitor().if_rates(node_t, IfIx(0)).unwrap().in_bps,
        1_000_000
    );
}

#[test]
fn the_whole_pipeline_runs_over_real_udp() {
    let dir = std::env::temp_dir().join(format!("netqos-udp-service-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (a, b) = (growing_agent(), growing_agent());
    let config = ServiceConfig {
        lts_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    // 1 Mb/s of use leaves 99 Mb/s: short of what the qospath asks for.
    let model = model(true, "100Mbps");
    let mut svc = service(
        model,
        &[("T", a.local_addr()), ("B", b.local_addr())],
        config,
    );
    svc.run_ticks(3).unwrap();
    assert_eq!(counter(&svc, "netqos_monitor_polls_total"), 6);
    assert_eq!(svc.rows().len(), 1);
    assert_eq!(svc.violated_paths(), ["tb"]);
    assert!(!svc.traps().is_empty(), "the violation sent no trap");
    assert!(
        svc.alerts().transitions_total() >= 1,
        "the alert rules never saw the violation"
    );

    let snapshot = svc.live().snapshot_response();
    let doc = parse_json(&snapshot.body).unwrap();
    assert_eq!(doc.get("ticks").and_then(|v| v.as_u64()), Some(3));
    let paths = doc.get("paths").and_then(|v| v.as_array()).unwrap();
    assert_eq!(paths[0].get("name").and_then(|v| v.as_str()), Some("tb"));

    svc.flush_lts().unwrap();
    let series: Vec<String> = LtsReader::open(&dir)
        .index()
        .into_iter()
        .map(|s| s.name)
        .collect();
    for signal in ["used_bps", "available_bps"] {
        let name = format!("netqos_path_{signal}{{path=\"tb\"}}");
        assert!(series.contains(&name), "{name} not in {series:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_topology_audit_reads_real_agents() {
    // Hosts A, B and C on ports 1–3 of a managed switch. A was learned on
    // its port, B on C's port, and C, silent so far, on none.
    let model = netqos_spec::parse_and_validate(
        r#"
        host A { snmp community "public"; interface eth0 { speed 100Mbps; } }
        host B { snmp community "public"; interface eth0 { speed 100Mbps; } }
        host C { snmp community "public"; interface eth0 { speed 100Mbps; } }
        device sw switch { snmp community "public"; speed 100Mbps;
                           interface p1; interface p2; interface p3; }
        connection A.eth0 <-> sw.p1;
        connection B.eth0 <-> sw.p2;
        connection C.eth0 <-> sw.p3;
        "#,
    )
    .unwrap();
    let mac = |host: u8| [2, 0, 0, 0, 0, host];
    let agent = |name: &'static str, entries: Vec<IfEntry>, fdb: Vec<FdbEntry>| {
        UdpAgentServer::spawn("127.0.0.1:0", "public", move || {
            let mut mib = ScalarMib::new();
            mib2::system::install(&mut mib, &SystemInfo::new(name), 0);
            mib2::interfaces::install(&mut mib, &entries);
            if !fdb.is_empty() {
                mib2::bridge::install(&mut mib, entries.len() as u32, &fdb);
            }
            mib
        })
        .unwrap()
    };
    let host = |name, k| {
        agent(
            name,
            vec![IfEntry::ethernet(1, "eth0", 100_000_000, mac(k))],
            vec![],
        )
    };
    let ports = (1..=3)
        .map(|p| IfEntry::ethernet(p, &format!("p{p}"), 100_000_000, [2, 0, 0, 0, 1, p as u8]))
        .collect();
    let fdb = vec![
        FdbEntry {
            mac: mac(1),
            port: 1,
        },
        FdbEntry {
            mac: mac(2),
            port: 3,
        },
    ];
    let agents = [
        ("A", host("A", 1)),
        ("B", host("B", 2)),
        ("C", host("C", 3)),
        ("sw", agent("sw", ports, fdb.clone())),
    ];
    let addrs: HashMap<NodeId, SocketAddr> = (agents.iter())
        .map(|(name, agent)| (node(&model, name), agent.local_addr()))
        .collect();
    let mut net = UdpNetwork::new(model.clone(), &addrs).unwrap();
    let findings = discovery::audit(&mut net).unwrap();
    for (_, agent) in agents {
        agent.stop();
    }

    let verdicts: Vec<(&str, &Verdict)> = (findings.iter())
        .map(|f| (f.description.as_str(), &f.verdict))
        .collect();
    assert_eq!(
        verdicts,
        [
            ("A.eth0 <-> sw.p1", &Verdict::Confirmed),
            (
                "B.eth0 <-> sw.p2",
                &Verdict::Mismatch {
                    specified_port: 2,
                    learned_port: 3
                }
            ),
            ("C.eth0 <-> sw.p3", &Verdict::Unverified),
        ]
    );
    let macs = HashMap::from([
        ((node(&model, "A"), 1), mac(1)),
        ((node(&model, "B"), 1), mac(2)),
        ((node(&model, "C"), 1), mac(3)),
    ]);
    let sw = node(&model, "sw");
    let expected = discovery::verify_connections(&model.topology, sw, &fdb, &macs).unwrap();
    assert_eq!(findings, expected);
}
