//! End-to-end coverage of the second checked-in scenario
//! (`specs/two-switch.spec`): multi-switch paths, trunk bottleneck
//! diagnosis, and spec-driven RM assembly with a movable application.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos::monitor::{MonitoringService, NetworkMonitor, ServiceConfig};
use netqos::rm::{ResourceManager, RmEvent};

const SPEC: &str = include_str!("../specs/two-switch.spec");

fn build(loads: &[(&str, &str, LoadProfile)]) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).expect("two-switch spec is valid");
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let loads: Vec<(String, String, LoadProfile)> = loads
        .iter()
        .map(|(f, t, p)| ((*f).to_string(), (*t).to_string(), p.clone()))
        .collect();
    let config = ServiceConfig::default();
    MonitoringService::from_model_with(model, options, config, move |builder, map, m| {
        for (from, to, profile) in &loads {
            let f = m.topology.node_by_name(from).unwrap();
            let t = m.topology.node_by_name(to).unwrap();
            let ip = m.addresses[&t].parse().unwrap();
            builder
                .install_app(
                    map[&f],
                    Box::new(ProfiledSource::new(ip, profile.clone())),
                    None,
                )
                .unwrap();
        }
    })
    .expect("service builds")
}

#[test]
fn spec_validates_and_paths_cross_the_trunk() {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    assert_eq!(model.topology.node_count(), 7);
    assert_eq!(model.topology.connection_count(), 6);
    assert_eq!(model.applications.len(), 2);
    assert_eq!(model.qos_paths.len(), 3);

    let monitor = NetworkMonitor::new(model.topology.clone());
    let feed1 = &model.qos_paths[0];
    let p = monitor.path(feed1.from, feed1.to).unwrap();
    // sensor1 -> sw-fore -> sw-aft -> console: 3 connections.
    assert_eq!(p.connections.len(), 3);
    let names: Vec<String> = p
        .nodes
        .iter()
        .map(|n| model.topology.node(*n).unwrap().name.clone())
        .collect();
    assert_eq!(names, ["sensor1", "sw-fore", "sw-aft", "console"]);
}

#[test]
fn trunk_congestion_diagnosed_at_the_trunk() {
    // Both sensors stream to the console: the trunk carries the sum and
    // becomes the bottleneck of both feed paths.
    let loads = [
        ("sensor1", "console", LoadProfile::constant(4_000_000)),
        ("sensor2", "console", LoadProfile::constant(4_500_000)),
    ];
    let mut svc = build(&loads);
    svc.run_ticks(4).unwrap();
    let monitor = svc.monitor();
    let topo = monitor.topology();
    let s1 = topo.node_by_name("sensor1").unwrap();
    let console = topo.node_by_name("console").unwrap();
    let bw = monitor.path_bandwidth(s1, console).unwrap();
    let desc = topo.describe_connection(bw.bottleneck);
    assert!(
        desc.contains("trunk") || desc.contains("console"),
        "bottleneck should be the shared segment, got {desc}"
    );
    // Trunk/console-link usage is the sum of both streams (~8.5 MB/s of
    // payload + overheads ≈ 70 Mb/s).
    assert!(
        bw.used_bps > 60_000_000,
        "expected summed streams on the bottleneck, got {} b/s",
        bw.used_bps
    );
}

#[test]
fn rm_moves_fusion_off_the_congested_trunk() {
    // feed1 (sensor1 -> console) requires 2 MB/s available and is bound
    // to the movable `fusion` app. Saturate the trunk with sensor2's
    // stream: the RM should advise moving fusion to a host on the aft
    // switch (console's side), avoiding the trunk.
    // The congesting stream crosses the trunk but terminates at the
    // display host, leaving archive's and console's own links clean.
    let loads = [(
        "sensor2",
        "display",
        LoadProfile::constant(11_000_000), // ~88 Mb/s: trunk nearly full
    )];
    let mut svc = build(&loads);
    let mut rm = ResourceManager::from_spec_model(svc.net_mut().model()).unwrap();

    let mut advice_seen = false;
    for _ in 0..8 {
        let events = svc.tick().unwrap();
        for event in rm.react(&events, svc.monitor()) {
            if let RmEvent::Advice(a) = event {
                assert_eq!(a.app, "fusion");
                let to_name = svc.monitor().topology().node(a.to).unwrap().name.clone();
                assert_eq!(
                    to_name, "archive",
                    "archive is the only aft-side host that dodges the trunk"
                );
                rm.apply(&a).unwrap();
                advice_seen = true;
            }
        }
        if advice_seen {
            break;
        }
    }
    assert!(
        advice_seen,
        "RM never advised a move; history: {:?}",
        rm.history()
    );
    let archive = svc.monitor().topology().node_by_name("archive").unwrap();
    assert_eq!(rm.allocation().host_of("fusion").unwrap(), archive);
}

/// The service judges its own rows: with no agent jitter, under a pulse,
/// a ramp and a staircase from sensor1 to the console, every row from the
/// second tick on carries the simulator's truth, and every sample with at
/// least 1 Mb/s of true traffic is within 1.5 % of it.
///
/// Measured: the worst sample is 1.04 % off under the pulse, 1.10 % under
/// the ramp and 0.91 % under the staircase, and 2, 3 and 0 samples of 60,
/// 90 and 90 exceed 1 %. They fall on the same ticks (17, 19, 32–34)
/// whatever the load, in pairs of opposite sign: bytes counted in one
/// window and not the next, the sampling skew a tick off its grid and an
/// uncoordinated cut leave (ROADMAP 13(b)–(c)).
#[test]
fn rows_carry_their_truth_and_loaded_rows_are_within_1_5_percent_of_it() {
    for profile in [
        LoadProfile::pulse(5, 25, 1_000_000),
        LoadProfile::ramp(5, 35, 200_000, 2_000_000),
        LoadProfile::staircase(4, 250_000, 250_000, 6, 5),
    ] {
        let mut svc = build(&[("sensor1", "console", profile)]);
        let mut loaded = 0;
        for tick in 1..=40 {
            svc.tick().unwrap();
            assert!(tick == 1 || svc.rows().len() == 3, "tick {tick}");
            for row in svc.rows() {
                let truth = (row.truth_used_bps)
                    .unwrap_or_else(|| panic!("tick {tick}: {} has no truth", row.name));
                if truth < 1_000_000 {
                    continue;
                }
                let error = (row.used_bps as f64 - truth as f64).abs() / truth as f64;
                assert!(error <= 0.015, "tick {tick}: {row:?}");
                loaded += 1;
            }
        }
        assert!(loaded >= 60, "{loaded} loaded samples");
    }
}

/// The same judgement with the three loads at once, each on links of its
/// own: a pulse sensor1 → archive, a ramp console → display and a
/// staircase sensor2 → sensor1. A tick's seven devices are read in one
/// round, their requests in flight together, so the hops of a path are
/// read within a few hundred microseconds of one another.
///
/// Measured: the worst loaded sample is 0.024 % off its truth (feed2,
/// tick 23). While a round polled one device at a time it was 0.998 %
/// (feed2, tick 17), the hops of a path read up to a round apart.
#[test]
fn with_three_loads_at_once_loaded_rows_are_within_1_5_percent_of_their_truth() {
    let mut svc = build(&[
        ("sensor1", "archive", LoadProfile::pulse(5, 25, 1_000_000)),
        (
            "console",
            "display",
            LoadProfile::ramp(5, 35, 200_000, 2_000_000),
        ),
        (
            "sensor2",
            "sensor1",
            LoadProfile::staircase(4, 250_000, 250_000, 6, 5),
        ),
    ]);
    let mut loaded = 0;
    for tick in 1..=40 {
        svc.tick().unwrap();
        assert!(tick == 1 || svc.rows().len() == 3, "tick {tick}");
        for row in svc.rows() {
            let truth = (row.truth_used_bps)
                .unwrap_or_else(|| panic!("tick {tick}: {} has no truth", row.name));
            if truth < 1_000_000 {
                continue;
            }
            let error = (row.used_bps as f64 - truth as f64).abs() / truth as f64;
            assert!(error <= 0.015, "tick {tick}: {row:?}");
            loaded += 1;
        }
    }
    assert!(loaded >= 90, "{loaded} loaded samples");
}
