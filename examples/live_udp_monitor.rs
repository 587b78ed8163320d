//! Distributed monitoring over **real UDP sockets** — no simulator.
//!
//! Spawns two SNMP agents on localhost whose interface counters advance
//! with a real UDP load generator's traffic, then runs the distributed
//! poller (one thread per agent) and prints live measured rates. This is
//! the deployment shape of the paper's future-work item "distributed
//! network monitoring".
//!
//! ```text
//! cargo run --example live_udp_monitor
//! ```

use netqos::loadgen::udp::UdpLoadGenerator;
use netqos::loadgen::LoadProfile;
use netqos::monitor::threaded::{AgentTarget, DistributedPoller};
use netqos::monitor::NetworkMonitor;
use netqos::snmp::mib::ScalarMib;
use netqos::snmp::mib2::{self, IfEntry, SystemInfo};
use netqos::snmp::transport::UdpAgentServer;
use netqos::telemetry::Tracer;
use netqos::topology::{IfIx, NetworkTopology, NodeKind};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // A real UDP sink; every byte it receives is mirrored into agent A's
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

    // Topology: A <-> B over one 100 Mb/s connection.
    let mut topo = NetworkTopology::new();
    let a = topo.add_node("A", NodeKind::Host).unwrap();
    topo.add_interface(a, "eth0", 100_000_000).unwrap();
    topo.set_snmp(a, "public").unwrap();
    let b = topo.add_node("B", NodeKind::Host).unwrap();
    topo.add_interface(b, "eth0", 100_000_000).unwrap();
    topo.set_snmp(b, "public").unwrap();
    topo.connect((a, IfIx(0)), (b, IfIx(0))).unwrap();

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

    // Poll both agents every 500 ms and print the measured rate.
    let poller = DistributedPoller::spawn(
        vec![
            AgentTarget {
                node: a,
                addr: agent_a.local_addr(),
                community: "public".into(),
                if_count: 1,
            },
            AgentTarget {
                node: b,
                addr: agent_b.local_addr(),
                community: "public".into(),
                if_count: 1,
            },
        ],
        Duration::from_millis(500),
        netqos::telemetry::global(),
        &Tracer::disabled(),
        None,
    );
    let mut monitor = NetworkMonitor::new(topo);

    println!("\nt(s)   A.eth0 in (KB/s)   path A<->B used (KB/s)");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(500));
        poller.drain_into(&mut monitor);
        let in_kbps = monitor
            .if_rates(a, IfIx(0))
            .map(|r| r.in_bps as f64 / 8000.0)
            .unwrap_or(0.0);
        let path_kbps = monitor
            .path_bandwidth(a, b)
            .map(|bw| bw.used_bps as f64 / 8000.0)
            .unwrap_or(0.0);
        println!(
            "{:>4.1}   {:>16.1}   {:>22.1}",
            t0.elapsed().as_secs_f64(),
            in_kbps,
            path_kbps
        );
    }

    let report = load.join().unwrap().expect("generator finished");
    println!(
        "\ngenerator sent {} KB in {} datagrams; poller: {:?}",
        report.bytes_sent / 1000,
        report.datagrams,
        poller.stats()
    );
    poller.stop();
    drain.join().unwrap();
    agent_a.stop();
    agent_b.stop();
}
