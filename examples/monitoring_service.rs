//! The one-struct deployment: [`MonitoringService`] assembles the whole
//! monitoring program — simulated network, SNMP polling, path bandwidth,
//! QoS evaluation and trap emission — from a specification file, and runs
//! it tick by tick.
//!
//! This example drives the two-switch scenario through a trunk-congestion
//! episode and prints the service's view: per-tick QoS events, the traps
//! it would send to a management station, and a CSV line per tick written
//! from its rows, as `netqos monitor` writes its CSV.
//!
//! ```text
//! cargo run --example monitoring_service
//! ```

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::qos::{self, QosEvent};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos::sim::time::SimDuration;

const SPEC: &str = include_str!("../specs/two-switch.spec");

fn main() {
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        noise_mean: Some(SimDuration::from_millis(2000)),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        trap_destination: Some("192.168.10.21".parse().unwrap()), // archive as NMS
        ..ServiceConfig::default()
    };
    let model = netqos::spec::parse_and_validate(SPEC).expect("spec parses");
    let names: Vec<String> = model.qos_paths.iter().map(|q| q.name.clone()).collect();
    let mut csv = String::from("t_s");
    for name in &names {
        csv.push_str(&format!(",{name}_used_kBps"));
    }
    csv.push('\n');
    // Sustained trunk congestion: sensor2 streams 11 MB/s to display
    // during t = 3..8 s, pushing the 100 Mb/s trunk near saturation.
    let mut service =
        MonitoringService::from_model_with(model, options, config, |builder, map, m| {
            let sensor2 = m.topology.node_by_name("sensor2").unwrap();
            let display = m.topology.node_by_name("display").unwrap();
            let ip = m.addresses[&display].parse().unwrap();
            builder
                .install_app(
                    map[&sensor2],
                    Box::new(ProfiledSource::new(
                        ip,
                        LoadProfile::pulse(3, 8, 11_000_000),
                    )),
                    None,
                )
                .unwrap();
        })
        .expect("service builds");

    let start = service.net_mut().lan.now();
    println!("tick  events");
    for tick in 0..10 {
        let events = service.tick().expect("tick");
        let t_s = service
            .net_mut()
            .lan
            .now()
            .duration_since(start)
            .as_secs_f64();
        // One field per qospath, blank where the tick has no row for it.
        csv.push_str(&format!("{t_s:.2}"));
        let mut rows = service.rows().iter().peekable();
        for name in &names {
            match rows.next_if(|row| row.name == *name) {
                Some(row) => csv.push_str(&format!(",{:.3}", row.used_bps as f64 / 8000.0)),
                None => csv.push(','),
            }
        }
        csv.push('\n');
        for e in &events {
            match e {
                QosEvent::Violated { path_name, .. } => {
                    println!("{tick:>4}  VIOLATED  {path_name}")
                }
                QosEvent::Cleared { path_name } => {
                    println!("{tick:>4}  cleared   {path_name}")
                }
            }
        }
        if events.is_empty() {
            println!("{tick:>4}  -");
        }
    }

    println!("\ntraps emitted: {}", service.traps().len());
    for bytes in service.traps() {
        let (specific, name) = qos::decode_trap(bytes).unwrap();
        let kind = if specific == qos::TRAP_QOS_VIOLATED {
            "violated"
        } else {
            "cleared"
        };
        println!("  trap: {name} {kind} ({} bytes on the wire)", bytes.len());
    }

    println!("\nrecorded series (CSV):");
    print!("{csv}");
}
