//! End-to-end OTLP/JSON export coverage: a forced QoS violation on the
//! two-switch testbed must leave a JSONL snapshot whose OTLP rendering
//! (what `flight dump --otlp` prints) carries well-formed ids, absolute
//! nanosecond timestamps, resolvable parent links, and the flight
//! recorder's attributes — byte for byte the rendering of the live
//! cycles it holds.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::qos::QosEvent;
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{cycles_from_jsonl, parse_json, to_otlp, validate_otlp, JsonValue};
use std::path::PathBuf;

const SPEC: &str = include_str!("../specs/two-switch.spec");

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netqos-otlp-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn violating_service(flight_dir: PathBuf) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).expect("two-switch spec is valid");
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        flight_dir: Some(flight_dir),
        ..ServiceConfig::default()
    };
    let mut svc =
        MonitoringService::from_model_with(model, options, config, move |builder, map, m| {
            let f = m.topology.node_by_name("sensor1").unwrap();
            let t = m.topology.node_by_name("console").unwrap();
            let ip = m.addresses[&t].parse().unwrap();
            // 9 MB/s from t=9 s saturates feed1's 70% utilization limit.
            builder
                .install_app(
                    map[&f],
                    Box::new(ProfiledSource::new(
                        ip,
                        LoadProfile::pulse(9, 60, 9_000_000),
                    )),
                    None,
                )
                .unwrap();
        })
        .expect("service builds");
    svc.set_tracing(true);
    svc
}

#[test]
fn violation_writes_valid_otlp_snapshots() {
    let dir = tmpdir("violation");
    let mut svc = violating_service(dir.clone());
    let mut violated = false;
    for _ in 0..14 {
        for e in svc.tick().expect("tick") {
            violated |= matches!(e, QosEvent::Violated { .. });
        }
    }
    assert!(violated, "the forced load never tripped a QoS violation");
    let path = svc.snapshots().last().expect("snapshot written").clone();
    let parsed = cycles_from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let otlp = to_otlp(&parsed);
    let stats = validate_otlp(&otlp).expect("snapshot OTLP validates");
    assert!(
        stats.traces >= 8,
        "expected >= 8 traces, got {}",
        stats.traces
    );
    assert!(
        stats.child_spans > stats.traces,
        "pipeline spans must nest under each cycle root"
    );

    // Golden structural checks on the first span: the exact field set
    // and encodings the OTLP/JSON mapping requires.
    let doc = parse_json(&otlp).unwrap();
    let spans = doc
        .get("resourceSpans")
        .and_then(JsonValue::as_array)
        .and_then(|rs| rs[0].get("scopeSpans"))
        .and_then(JsonValue::as_array)
        .and_then(|ss| ss[0].get("spans"))
        .and_then(JsonValue::as_array)
        .expect("resourceSpans -> scopeSpans -> spans nesting");
    assert!(!spans.is_empty());
    for sp in spans {
        let trace_id = sp.get("traceId").and_then(JsonValue::as_str).unwrap();
        assert_eq!(trace_id.len(), 32);
        let span_id = sp.get("spanId").and_then(JsonValue::as_str).unwrap();
        assert_eq!(span_id.len(), 16);
        // Timestamps: strings of absolute Unix nanoseconds (the year-2020
        // epoch boundary in ns is 1.577e18).
        let start = sp
            .get("startTimeUnixNano")
            .and_then(JsonValue::as_str)
            .expect("startTimeUnixNano is a string")
            .parse::<u64>()
            .expect("nanosecond count");
        assert!(
            start > 1_577_836_800_000_000_000,
            "timestamp not absolute: {start}"
        );
        assert_eq!(sp.get("kind").and_then(JsonValue::as_u64), Some(1));
    }
    // The service.name resource attribute identifies the exporter.
    assert!(otlp.contains("\"service.name\""));
    assert!(otlp.contains(netqos_telemetry::OTLP_SERVICE));

    // Lossless: the live ring's export of the same cycles is the same
    // document.
    let live: Vec<_> = (svc.flight().snapshot().into_iter())
        .filter(|c| parsed.iter().any(|p| p.seq == c.seq))
        .collect();
    assert_eq!(live.len(), parsed.len());
    assert_eq!(to_otlp(&live), otlp);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_policy_caps_snapshot_files() {
    let dir = tmpdir("retention");
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        flight_dir: Some(dir.clone()),
        retention: netqos_telemetry::RetentionPolicy {
            max_snapshots: 2,
            max_bytes: 0,
        },
        ..ServiceConfig::default()
    };
    // An on/off load that keeps re-tripping the violation, producing a
    // new snapshot on each onset.
    let mut svc =
        MonitoringService::from_model_with(model, options, config, move |builder, map, m| {
            let f = m.topology.node_by_name("sensor1").unwrap();
            let t = m.topology.node_by_name("console").unwrap();
            let ip = m.addresses[&t].parse().unwrap();
            for start in [4u64, 10, 16, 22] {
                builder
                    .install_app(
                        map[&f],
                        Box::new(ProfiledSource::new(
                            ip,
                            LoadProfile::pulse(start, start + 3, 9_000_000),
                        )),
                        None,
                    )
                    .unwrap();
            }
        })
        .unwrap();
    svc.set_tracing(true);
    let mut onsets = 0;
    for _ in 0..30 {
        onsets += svc
            .tick()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, QosEvent::Violated { .. }))
            .count();
    }
    assert!(onsets >= 3, "expected repeated violations, got {onsets}");
    assert!(svc.snapshots().len() >= 3);
    // Retention kept only the 2 newest tagged snapshots on disk.
    let tagged: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("flight-") && n.ends_with(".jsonl"))
        .collect();
    assert_eq!(tagged.len(), 2, "retention left {tagged:?}");
    // Every snapshot but those two counts as deleted.
    let written = svc.snapshots().len() as u64;
    assert_eq!(svc.telemetry().retention_deleted.get(), written - 2);
    // The newest snapshot always survives.
    let newest = svc.snapshots().last().unwrap();
    assert!(newest.exists());
    // `last.*` files are never retention targets.
    assert!(dir.join("last.jsonl").exists());
    std::fs::remove_dir_all(&dir).ok();
}
