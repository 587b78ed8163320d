//! The tick is the list of its stages, and every consumer reads the row
//! the evaluate stage built: a traced cycle's spans must hang off
//! `monitor.cycle` exactly as `TICK_STAGES` lists them, and
//! `MonitoringService::rows()` must say what a fresh evaluation of the
//! same path says.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::service::{MonitoringService, ServiceConfig, TICK_STAGES};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{parse_record_rules, SpanRecord};

const TWO_SWITCH: &str = include_str!("../specs/two-switch.spec");
const LIRTSS: &str = include_str!("../specs/lirtss.spec");

/// The service `netqos monitor <spec> --load from:to:KBPS` would run,
/// monitored from `station`.
fn loaded_service(
    spec: &str,
    station: &str,
    (from, to, kbps): (&str, &str, u64),
    config: ServiceConfig,
) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(spec).unwrap();
    let options = SimNetworkOptions {
        monitor_host: station.into(),
        ..SimNetworkOptions::default()
    };
    MonitoringService::from_model_with(model, options, config, |builder, map, m| {
        let f = m.topology.node_by_name(from).unwrap();
        let t = m.topology.node_by_name(to).unwrap();
        let ip = m.addresses[&t].parse().unwrap();
        let load = ProfiledSource::new(ip, LoadProfile::constant(kbps * 1000));
        builder.install_app(map[&f], Box::new(load), None).unwrap();
    })
    .unwrap()
}

fn phase(span: &SpanRecord) -> String {
    format!("{}.{}", span.target, span.name)
}

#[test]
fn a_traced_cycle_is_the_stage_list() {
    let dir = std::env::temp_dir().join(format!("netqos-tick-stages-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let rules = include_str!("../specs/record.rules");
    let config = ServiceConfig {
        // Everything a tick can do, so every stage has its work: a
        // violation (traps), the store, and a save tick every other tick
        // (flush + recording rules).
        lts_dir: Some(dir.clone()),
        record_rules: parse_record_rules(rules).unwrap(),
        baseline_save_ticks: 2,
        trap_destination: Some("192.168.10.21".parse().unwrap()),
        ..ServiceConfig::default()
    };
    let load = ("sensor1", "console", 11_000);
    let mut svc = loaded_service(TWO_SWITCH, "console", load, config);
    svc.set_tracing(true);
    svc.run_ticks(6).unwrap();
    assert!(!svc.traps().is_empty(), "the load must violate feed1");

    let cycles = svc.flight().snapshot();
    assert_eq!(cycles.len(), 6);
    let mut seen_rules_pass = false;
    for cycle in &cycles {
        let root = (cycle.spans.iter())
            .find(|s| s.parent.is_none())
            .expect("root span");
        assert_eq!(phase(root), "monitor.cycle");
        let mut stages: Vec<&SpanRecord> = (cycle.spans.iter())
            .filter(|s| s.parent == Some(root.span_id))
            .collect();
        stages.sort_by_key(|s| s.span_id); // ids are handed out in opening order
        let names: Vec<String> = stages.iter().map(|s| phase(s)).collect();
        assert_eq!(names, TICK_STAGES, "direct children of monitor.cycle");
        // Every other span descends from a stage.
        for span in &cycle.spans {
            let mut top = span;
            while let Some(parent) = top.parent.filter(|&p| p != root.span_id) {
                top = (cycle.spans.iter())
                    .find(|s| s.span_id == parent)
                    .expect("parent in the same cycle");
            }
            assert!(
                top.span_id == root.span_id || stages.iter().any(|s| s.span_id == top.span_id),
                "{} hangs off neither the root nor a stage",
                phase(span)
            );
        }
        // The recording-rule pass is part of the record stage.
        if let Some(pass) = (cycle.spans.iter()).find(|s| phase(s) == "record.rules.evaluate") {
            let record = stages.last().unwrap();
            assert_eq!(pass.parent, Some(record.span_id));
            seen_rules_pass = true;
        }
    }
    assert!(seen_rules_pass, "no save tick ran the recording rules");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rows_say_what_a_fresh_evaluation_says() {
    for (spec, station, load) in [
        (TWO_SWITCH, "console", ("sensor1", "console", 9_000)),
        (LIRTSS, "L", ("L", "N1", 300)),
    ] {
        let qos_paths = netqos::spec::parse_and_validate(spec).unwrap().qos_paths;
        let mut svc = loaded_service(spec, station, load, ServiceConfig::default());
        let mut rows_seen = 0;
        for tick in 1..=20 {
            svc.tick().unwrap();
            let topology = svc.monitor().topology();
            let mut rows = svc.rows().iter().peekable();
            for q in &qos_paths {
                let row = rows.next_if(|r| r.name == q.name);
                let Ok(bw) = svc.monitor().path_bandwidth(q.from, q.to) else {
                    assert!(
                        row.is_none(),
                        "tick {tick}: a row for un-evaluable {}",
                        q.name
                    );
                    continue;
                };
                let row = row.unwrap_or_else(|| panic!("tick {tick}: no row for {}", q.name));
                rows_seen += 1;
                assert_eq!(
                    (row.used_bps, row.available_bps),
                    (bw.used_bps, bw.available_bps)
                );
                assert_eq!(row.bottleneck, topology.describe_connection(bw.bottleneck));
                let at_bottleneck = bw.connections.iter().find(|c| c.conn == bw.bottleneck);
                assert_eq!(row.bottleneck_bandwidth.as_ref(), at_bottleneck);
                let worst = (bw.connections.iter())
                    .map(|c| c.utilization())
                    .fold(0.0, f64::max);
                assert_eq!(row.utilization, worst);
                assert_eq!(row.min_available_bps, q.min_available_bps);
                assert_eq!(row.max_utilization, q.max_utilization);
                assert_eq!(
                    row.violated,
                    svc.violated_paths().contains(&q.name.as_str())
                );
                assert_eq!(
                    row.baseline_count,
                    svc.path_baseline(&q.name).unwrap().count()
                );
            }
            assert!(rows.next().is_none(), "tick {tick}: a row for no qospath");
            // No rate exists before the second poll of a device.
            assert!(tick > 1 || svc.rows().is_empty());
        }
        assert_eq!(
            rows_seen,
            19 * qos_paths.len(),
            "every path, every later tick"
        );
    }
}
