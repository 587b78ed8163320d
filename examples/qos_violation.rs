//! QoS violation detection and reallocation advice: the full RM loop.
//!
//! Overloads the 10 Mb/s hub segment of the LIRTSS testbed. Each tick of
//! the monitoring service feeds its QoS events to the resource manager,
//! which reports the `s1n1` qospath violation, diagnoses the bottleneck
//! connection, and — because every path to N1 crosses the hub — reports
//! that no reallocation can remedy it, until the load ends and the path
//! recovers.
//!
//! ```text
//! cargo run --example qos_violation
//! ```

use netqos::loadgen::LoadProfile;
use netqos::monitor::ServiceConfig;
use netqos::rm::{ResourceManager, RmEvent};
use netqos_bench::testbed::{build_service, Load, TestbedOptions};

fn main() {
    // Saturating load into the hub: ~9.9 Mb/s on a 10 Mb/s medium.
    let loads = vec![Load::new("L", "N1", LoadProfile::pulse(2, 25, 1_200_000))];
    let options = TestbedOptions::default();
    let mut svc = build_service(&loads, &options, ServiceConfig::default()).expect("testbed");

    // The LIRTSS spec declares the applications and binds `tracker` to
    // the s1n1 qospath — the RM assembles itself from the specification.
    let mut rm =
        ResourceManager::from_spec_model(svc.net_mut().model()).expect("spec places each app once");
    assert_eq!(rm.allocation().len(), 3); // tracker, display, archiver

    println!("requirement: path s1n1 (S1 <-> N1) needs 100 KB/s available");
    println!("injected:    1.2 MB/s of L->N1 traffic through the 10 Mb/s hub\n");

    for _ in 0..30 {
        let events = svc.tick().expect("tick");
        let t = svc.net_mut().lan.now().as_secs_f64();
        for event in rm.react(&events, svc.monitor()) {
            match event {
                RmEvent::ViolationDetected {
                    path_name,
                    kind,
                    bottleneck_desc,
                    ..
                } => {
                    println!("[t={t:>4.0}s] VIOLATION on `{path_name}`: {kind:?}");
                    println!("          diagnosed bottleneck: {bottleneck_desc}");
                }
                RmEvent::Advice(a) => {
                    println!(
                        "[t={t:>4.0}s] ADVICE: move `{}` to a host avoiding the bottleneck \
                         (expected {} KB/s available)",
                        a.app,
                        a.expected_available_bps / 8000
                    );
                }
                RmEvent::NoRemedy { path_name } => {
                    println!(
                        "[t={t:>4.0}s] NO REMEDY for `{path_name}`: no candidate host \
                         avoids the congested segment"
                    );
                }
                RmEvent::Recovered { path_name } => {
                    println!("[t={t:>4.0}s] RECOVERED: `{path_name}` is back within its QoS");
                }
            }
        }
    }

    println!("\nRM event history: {} entries", rm.history().len());
}
