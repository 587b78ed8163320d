//! The one-struct deployment: [`MonitoringService`] assembles the whole
//! monitoring program — simulated network, SNMP polling, path bandwidth,
//! QoS evaluation, trap emission, and time-series recording — from a
//! specification file, and runs it tick by tick.
//!
//! This example drives the two-switch scenario through a trunk-congestion
//! episode and prints the service's view: per-tick QoS events, the traps
//! it would send to a management station, and the CSV series recorded
//! from each tick's rows.
//!
//! ```text
//! cargo run --example monitoring_service
//! ```

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::qos::{self, QosEvent};
use netqos::monitor::report::SeriesRecorder;
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
    let names: Vec<&str> = model.qos_paths.iter().map(|q| q.name.as_str()).collect();
    let mut recorder = SeriesRecorder::new(&names);
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
        for row in service.rows() {
            recorder.push(&row.name, row.sample(t_s));
        }
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
    print!("{}", recorder.to_csv());
}
