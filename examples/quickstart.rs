//! Quickstart: specify a tiny network, run traffic through the simulator,
//! and let the monitoring service poll it over SNMP and report the path
//! bandwidth — the whole pipeline in ~60 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos::monitor::{MonitoringService, ServiceConfig};

fn main() {
    // 1. Describe the system in the DeSiDeRaTa specification language,
    //    with the communication path to watch.
    let spec = r#"
        host alpha { address 10.0.0.1; snmp community "public";
                     interface eth0 { speed 100Mbps; } }
        host beta  { address 10.0.0.2; snmp community "public";
                     interface eth0 { speed 100Mbps; } }
        device sw switch { speed 100Mbps; interface p1; interface p2; }
        connection alpha.eth0 <-> sw.p1;
        connection sw.p2 <-> beta.eth0;
        qospath ab from alpha to beta { min_available 1MBps; }
    "#;
    let model = netqos::spec::parse_and_validate(spec).expect("valid spec");

    // 2. Materialize it in the simulator, with a 2 MB/s load from alpha
    //    to beta's DISCARD port (the paper's load-generator setup).
    let options = SimNetworkOptions {
        monitor_host: "alpha".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig::default();
    let mut svc = MonitoringService::from_model_with(model, options, config, |builder, map, m| {
        let alpha = m.topology.node_by_name("alpha").unwrap();
        let beta = m.topology.node_by_name("beta").unwrap();
        let beta_ip = m.addresses[&beta].parse().unwrap();
        builder
            .install_app(
                map[&alpha],
                Box::new(ProfiledSource::new(
                    beta_ip,
                    LoadProfile::constant(2_000_000),
                )),
                None,
            )
            .unwrap();
    })
    .expect("service builds");

    // 3. Tick once a (simulated) second and print what the monitor sees.
    println!("t(s)  used(KB/s)  available(KB/s)  bottleneck");
    for _ in 0..10 {
        svc.tick().expect("tick");
        let t = svc.net_mut().lan.now().as_secs_f64();
        for row in svc.rows() {
            println!(
                "{t:>4.0}  {:>10.1}  {:>15.1}  {}",
                row.used_bps as f64 / 8000.0,
                row.available_bps as f64 / 8000.0,
                row.bottleneck,
            );
        }
    }
}
