//! Side-by-side demonstration of the paper's two bandwidth-accounting
//! rules. Two independent flows from hosts on a switch run to two sinks
//! that sit behind either a **hub** or a **second switch**:
//!
//! ```text
//!   A ──┐                        ┌── Y   (flow 1: A -> Y, 200 KB/s)
//!        sw1 ══ trunk ══ CORE ───┤
//!   B ──┘    (100 Mb/s)  (10Mb/s)└── Z   (flow 2: B -> Z, 200 KB/s)
//! ```
//!
//! Watching the path **A<->Y**:
//!
//! * when CORE is a **hub**, flow 2 is repeated onto Y's shared segment,
//!   so the hub-sum rule reports *both* flows (~400 KB/s);
//! * when CORE is a **switch**, unicast isolation keeps flow 2 off Y's
//!   connection and the monitor reports only flow 1 (~200 KB/s).
//!
//! ```text
//! cargo run --example hub_vs_switch
//! ```

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos::monitor::{MonitoringService, ServiceConfig};

const RATE: u64 = 200_000; // 200 KB/s per flow

fn spec(core: &str) -> String {
    format!(
        r#"
        host A {{ address 10.0.0.1; snmp community "public"; interface eth0 {{ speed 100Mbps; }} }}
        host B {{ address 10.0.0.2; snmp community "public"; interface eth0 {{ speed 100Mbps; }} }}
        host Y {{ address 10.0.0.3; snmp community "public"; interface eth0 {{ speed 10Mbps; }} }}
        host Z {{ address 10.0.0.4; snmp community "public"; interface eth0 {{ speed 10Mbps; }} }}
        device sw1 switch {{ address 10.0.0.100; snmp community "public"; speed 100Mbps;
                             interface p1; interface p2; interface p3; }}
        device core {core} {{ speed 10Mbps; interface p1 {{ speed 100Mbps; }}
                              interface p2; interface p3; }}
        connection A.eth0 <-> sw1.p1;
        connection B.eth0 <-> sw1.p2;
        connection sw1.p3 <-> core.p1;
        connection Y.eth0 <-> core.p2;
        connection Z.eth0 <-> core.p3;
        qospath ay from A to Y {{ min_available 100KBps; }}
        "#
    )
}

/// Runs A->Y and B->Z for 8 s; returns the measured used bandwidth (KB/s)
/// of the path A<->Y.
fn measure(core: &str) -> f64 {
    let model = netqos::spec::parse_and_validate(&spec(core)).expect("valid spec");
    let options = SimNetworkOptions {
        monitor_host: "A".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig::default();
    let mut svc = MonitoringService::from_model_with(model, options, config, |builder, map, m| {
        for (src, dst) in [("A", "Y"), ("B", "Z")] {
            let s = m.topology.node_by_name(src).unwrap();
            let d = m.topology.node_by_name(dst).unwrap();
            let ip = m.addresses[&d].parse().unwrap();
            builder
                .install_app(
                    map[&s],
                    Box::new(ProfiledSource::new(ip, LoadProfile::constant(RATE))),
                    None,
                )
                .unwrap();
        }
    })
    .expect("service builds");

    let mut last = 0.0;
    for _ in 0..8 {
        svc.tick().expect("tick");
        if let Some(row) = svc.rows().iter().find(|row| row.name == "ay") {
            last = row.used_bps as f64 / 8000.0;
        }
    }
    last
}

fn main() {
    println!("flow 1: A -> Y at 200 KB/s      flow 2: B -> Z at 200 KB/s\n");
    let hub = measure("hub");
    let switch = measure("switch");
    println!("A<->Y used bandwidth, sinks behind a hub:    {hub:>7.1} KB/s  (hub-sum: both flows)");
    println!(
        "A<->Y used bandwidth, sinks behind a switch: {switch:>7.1} KB/s  (isolated: flow 1 only)"
    );
    println!();
    println!(
        "ratio hub/switch = {:.2} — the split the paper's §3.3 algorithms encode",
        hub / switch
    );
}
