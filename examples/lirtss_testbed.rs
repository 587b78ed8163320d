//! Tour of the paper's LIRTSS testbed (Figure 3): load the checked-in
//! specification, print the topology and the monitored communication
//! paths, run a short monitored load, and measure path latency.
//!
//! ```text
//! cargo run --example lirtss_testbed
//! ```

use netqos::loadgen::LoadProfile;
use netqos::monitor::{NetworkMonitor, ServiceConfig};
use netqos::sim::time::SimDuration;
use netqos_bench::testbed::{build_service, Load, TestbedOptions, LIRTSS_SPEC};

fn main() {
    let model = netqos::spec::parse_and_validate(LIRTSS_SPEC).expect("spec parses");

    println!("== Nodes ==");
    for (_, node) in model.topology.nodes() {
        let agent = if node.snmp_capable { " [SNMP]" } else { "" };
        println!(
            "  {:<8} {:<7} {} interface(s){agent}",
            node.name,
            node.kind.to_string(),
            node.interfaces.len()
        );
    }

    println!("\n== Connections ==");
    for (id, _) in model.topology.connections() {
        println!("  {}", model.topology.describe_connection(id));
    }

    println!("\n== Monitored communication paths (recursive traversal) ==");
    let monitor = NetworkMonitor::new(model.topology.clone());
    for q in &model.qos_paths {
        let p = monitor.path(q.from, q.to).expect("path exists");
        println!("  {:<6} {}", q.name, p.describe(monitor.topology()));
    }

    // A short monitored run: 300 KB/s from L to N1 for 6 seconds.
    println!("\n== 10-second monitored run (300 KB/s L->N1 during t=2..8) ==");
    let loads = vec![Load::new("L", "N1", LoadProfile::pulse(2, 8, 300_000))];
    let options = TestbedOptions::default();
    let mut svc = build_service(&loads, &options, ServiceConfig::default()).expect("testbed");
    println!("  t(s)  S1<->N1 used (KB/s)   available (KB/s)");
    for _ in 0..10 {
        svc.tick().expect("tick");
        let t = svc.net_mut().lan.now().as_secs_f64();
        if let Some(row) = svc.rows().iter().find(|row| row.name == "s1n1") {
            println!(
                "  {t:>4.0}  {:>19.1}  {:>16.1}",
                row.used_bps as f64 / 8000.0,
                row.available_bps as f64 / 8000.0
            );
        }
    }

    // Latency extension: probe RTTs from the monitor host.
    println!("\n== Path RTTs from L (echo probes) ==");
    for name in ["S1", "N1"] {
        let node = svc.monitor().topology().node_by_name(name).unwrap();
        let stats = svc
            .net_mut()
            .measure_rtt(node, 5, 64, SimDuration::from_millis(100))
            .expect("probe succeeds");
        println!(
            "  L -> {:<3} mean {:.3} ms (min {:.3}, max {:.3}, lost {})",
            name,
            stats.mean_ms(),
            stats.min.as_secs_f64() * 1e3,
            stats.max.as_secs_f64() * 1e3,
            stats.lost
        );
    }
}
