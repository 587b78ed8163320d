//! Monitoring **real SNMP agents over UDP sockets** — no simulator.
//!
//! Spawns two SNMP agents on localhost whose interface counters advance
//! with a real UDP load generator's traffic, then runs the monitoring
//! service over them: the same tick — poll, rows, alerts — that runs over
//! the simulator, here through a [`UdpNetwork`]. Prints each tick's row
//! for the qospath, and the service's poll counters at exit. This is the
//! deployment shape of the paper's future-work item "distributed network
//! monitoring".
//!
//! ```text
//! cargo run --example live_udp_monitor
//! ```

use netqos::loadgen::udp::UdpLoadGenerator;
use netqos::loadgen::LoadProfile;
use netqos::monitor::{MonitoringService, ServiceConfig, UdpNetwork};
use netqos::sim::time::SimDuration;
use netqos::snmp::mib::ScalarMib;
use netqos::snmp::mib2::{self, IfEntry, SystemInfo};
use netqos::snmp::transport::UdpAgentServer;
use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hosts A and B over one 100 Mb/s connection, and the qospath between.
const SPEC: &str = r#"
    host A { snmp community "public"; interface eth0 { speed 100Mbps; } }
    host B { snmp community "public"; interface eth0 { speed 100Mbps; } }
    connection A.eth0 <-> B.eth0;
    qospath ab from A to B { min_available 50Mbps; }
"#;

fn main() {
    // A real UDP sink; every byte it receives is mirrored into the agents'
    // ifInOctets, so the SNMP view tracks genuine socket traffic.
    let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
    sink.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let sink_addr = sink.local_addr().unwrap();
    let received = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let make_mib = {
        let received = received.clone();
        move |name: &'static str| {
            let received = received.clone();
            move || {
                let mut mib = ScalarMib::new();
                let ticks = (start.elapsed().as_millis() / 10) as u32;
                mib2::system::install(&mut mib, &SystemInfo::new(name), ticks);
                let mut e = IfEntry::ethernet(1, "eth0", 100_000_000, [2, 0, 0, 0, 0, 1]);
                e.in_octets = (received.load(Ordering::Relaxed) % (1 << 32)) as u32;
                mib2::interfaces::install(&mut mib, &[e]);
                mib
            }
        }
    };

    let agent_a =
        UdpAgentServer::spawn("127.0.0.1:0", "public", make_mib("host-a")).expect("agent A");
    let agent_b =
        UdpAgentServer::spawn("127.0.0.1:0", "public", make_mib("host-b")).expect("agent B");
    println!(
        "agent A on {}, agent B on {}",
        agent_a.local_addr(),
        agent_b.local_addr()
    );

    let model = netqos::spec::parse_and_validate(SPEC).expect("spec");
    let node = |name| model.topology.node_by_name(name).unwrap();
    let addrs = HashMap::from([
        (node("A"), agent_a.local_addr()),
        (node("B"), agent_b.local_addr()),
    ]);
    let net = UdpNetwork::new(model, &addrs).expect("agents reachable");
    let config = ServiceConfig {
        poll_period: SimDuration::from_millis(500),
        ..ServiceConfig::default()
    };
    let mut svc = MonitoringService::new(net, config).expect("service");

    // Drain the sink into the shared counter on a helper thread.
    let drain = {
        let received = received.clone();
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 65536];
            let until = Instant::now() + Duration::from_secs(5);
            while Instant::now() < until {
                if let Ok(n) = sink.recv(&mut buf) {
                    // Count IP-level bytes like a NIC would (+28 headers).
                    received.fetch_add(n as u64 + 28, Ordering::Relaxed);
                }
            }
        })
    };

    // 500 KB/s of real UDP load for 4 seconds.
    let generator =
        UdpLoadGenerator::new(sink_addr, LoadProfile::pulse(0, 4, 500_000)).expect("generator");
    let load = std::thread::spawn(move || generator.run_blocking(Duration::from_secs(5)));

    // One tick every 500 ms: both agents polled, the path's row printed.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        svc.tick().expect("tick");
        for row in svc.rows() {
            println!(
                "row {} t={:.1}s used_bps={} available_bps={} violated={}",
                row.name,
                t0.elapsed().as_secs_f64(),
                row.used_bps,
                row.available_bps,
                row.violated
            );
        }
    }

    let report = load.join().unwrap().expect("generator finished");
    println!(
        "\ngenerator sent {} KB in {} datagrams; the service's polls:",
        report.bytes_sent / 1000,
        report.datagrams,
    );
    let metrics = svc.registry().render_prometheus();
    for line in metrics.lines() {
        if line.starts_with("netqos_monitor_poll") && !line.contains("_us") {
            println!("{line}");
        }
    }
    drain.join().unwrap();
    agent_a.stop();
    agent_b.stop();
}
