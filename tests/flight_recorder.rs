//! End-to-end coverage of the causal tracing + flight recorder pipeline
//! on the two-switch testbed: a forced QoS violation must leave a disk
//! snapshot holding full cycle traces — nested spans from the poll
//! round down through SNMP codec, delta ingestion, path traversal, and
//! the QoS decision — with per-connection quantile annotations, as one
//! JSONL file that renders to valid Chrome `trace_event` JSON; and the
//! live `/profile` at that tick is the file's profile.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::live::{build_router, RouterOptions};
use netqos::monitor::qos::QosEvent;
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{
    cycles_from_jsonl, parse_json, to_chrome_trace, validate_chrome_trace, CycleTrace, EventSink,
    HttpRequest, HttpRoute, DEFAULT_FLIGHT_CAPACITY,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const SPEC: &str = include_str!("../specs/two-switch.spec");

fn traced_service(flight_dir: PathBuf, loads: &[(&str, &str, LoadProfile)]) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).expect("two-switch spec is valid");
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        flight_dir: Some(flight_dir),
        ..ServiceConfig::default()
    };
    let loads: Vec<(String, String, LoadProfile)> = loads
        .iter()
        .map(|(f, t, p)| ((*f).to_string(), (*t).to_string(), p.clone()))
        .collect();
    let mut svc =
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
        .expect("service builds");
    svc.set_tracing(true);
    svc
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netqos-flight-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every stage of the paper's pipeline must appear in the cycle:
/// poll round -> per-device poll -> codec decode -> delta ingest ->
/// path bandwidth -> QoS decision.
fn assert_full_pipeline(cycle: &CycleTrace) {
    for (target, name) in [
        ("monitor", "cycle"),
        ("monitor.poll", "round"),
        ("monitor.poll", "device"),
        ("snmp.codec", "encode"),
        ("snmp.codec", "decode"),
        ("monitor.delta", "ingest"),
        ("topology.path", "bandwidth"),
        ("monitor.qos", "evaluate"),
    ] {
        assert!(
            cycle
                .spans
                .iter()
                .any(|s| s.target == target && s.name == name),
            "cycle {} is missing span {target}/{name}",
            cycle.seq
        );
    }
}

/// Child spans must nest inside their parents, timewise and by id.
fn assert_nesting(cycle: &CycleTrace) {
    let root = cycle
        .spans
        .iter()
        .find(|s| s.name == "cycle")
        .expect("root cycle span");
    assert!(root.parent.is_none());
    for s in &cycle.spans {
        let Some(pid) = s.parent else { continue };
        let parent = cycle
            .spans
            .iter()
            .find(|p| p.span_id == pid)
            .unwrap_or_else(|| panic!("span {} orphaned (parent {pid})", s.span_id));
        assert!(
            s.start_ns >= parent.start_ns
                && s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns,
            "span {}/{} [{}, +{}] escapes parent {}/{} [{}, +{}]",
            s.target,
            s.name,
            s.start_ns,
            s.dur_ns,
            parent.target,
            parent.name,
            parent.start_ns,
            parent.dur_ns
        );
    }
}

#[test]
fn violation_snapshots_full_cycle_traces() {
    let dir = tmpdir("violation");
    // 9 MB/s of payload from sensor1 to console ≈ 72 Mb/s on the wire:
    // over feed1's 70% utilization limit on the 100 Mb/s trunk. The
    // load starts at t=9 s so the ring holds plenty of pre-violation
    // history when the snapshot fires.
    let mut svc = traced_service(
        dir.clone(),
        &[("sensor1", "console", LoadProfile::pulse(9, 60, 9_000_000))],
    );
    let mut violated = false;
    for _ in 0..14 {
        for e in svc.tick().expect("tick") {
            violated |= matches!(e, QosEvent::Violated { .. });
        }
    }
    assert!(violated, "the forced load never tripped a QoS violation");
    assert!(
        svc.telemetry().flight_snapshots.get() >= 1,
        "violation should have snapshotted the flight recorder"
    );
    // Each violation onset left one file, beside the `last.jsonl` alias.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = (svc.snapshots().iter())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .chain(["last.jsonl".to_string()])
        .collect();
    expected.sort();
    assert_eq!(names, expected);
    assert!(names
        .iter()
        .all(|n| n == "last.jsonl" || n.starts_with("flight-") && n.ends_with(".jsonl")));

    // The ring keeps growing after the violation snapshot; `last.*`
    // written on the snapshot trigger is what forensics would read.
    let jsonl = std::fs::read_to_string(dir.join("last.jsonl")).expect("last.jsonl");
    let cycles = cycles_from_jsonl(&jsonl).expect("snapshot parses");
    assert!(
        cycles.len() >= 8,
        "expected >= 8 full cycle traces, got {}",
        cycles.len()
    );
    for cycle in &cycles {
        assert_ne!(cycle.trace_id, 0);
        assert_full_pipeline(cycle);
        assert_nesting(cycle);
    }

    // Per-connection quantile annotations: once baselines exist, every
    // cycle's samples carry a rank and baseline percentiles.
    let annotated: Vec<_> = cycles.iter().flat_map(|c| &c.samples).collect();
    assert!(!annotated.is_empty(), "no bandwidth samples were annotated");
    for s in annotated {
        assert!(!s.path.is_empty() && !s.connection.is_empty());
        assert!((0.0..=1.0).contains(&s.used_rank), "rank {}", s.used_rank);
    }
    // The violating cycle itself is in the record.
    assert!(
        cycles
            .iter()
            .any(|c| c.events.iter().any(|e| e.starts_with("qos_violation"))),
        "no cycle carries the qos_violation event"
    );

    // Its Chrome rendering (what `flight dump` prints) is valid
    // trace_event JSON with intact nesting.
    let stats = validate_chrome_trace(&to_chrome_trace(&cycles)).expect("valid Chrome trace");
    assert!(stats.cycles >= 8 && stats.spans > stats.cycles);

    std::fs::remove_dir_all(&dir).ok();
}

/// `netqos profile` over a snapshot file.
fn cli_profile(file: &Path, format: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_netqos"))
        .args(["profile", "--format", format])
        .arg(file)
        .output()
        .expect("netqos runs");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 profile")
}

/// Three ways into the tick-phase profile give one document: at a
/// violation tick, the live `GET /profile` equals, byte for byte, what
/// `netqos profile` prints for the snapshot that tick wrote — the live
/// plane folds the ring the snapshot freezes, and nothing older.
#[test]
fn live_profile_at_a_violation_is_the_snapshots_profile() {
    let dir = tmpdir("profile");
    // The load starts once the ring has wrapped, so the monitor has
    // traced more cycles than a snapshot holds when the violation fires.
    let mut svc = traced_service(
        dir.clone(),
        &[("sensor1", "console", LoadProfile::pulse(40, 60, 9_000_000))],
    );
    let router = build_router(RouterOptions {
        profile: Some(svc.flight().clone()),
        ..RouterOptions::new(svc.registry().clone(), svc.live().clone())
    });
    let router = &*router;
    let live = |query: &str| {
        let req = HttpRequest {
            method: "GET".into(),
            path: "/profile".into(),
            query: query.into(),
            accept: String::new(),
        };
        match router(&req) {
            Some(HttpRoute::Response(resp)) if resp.status == 200 => resp.body,
            _ => panic!("no 200 answer to /profile?{query}"),
        }
    };
    let mut compared = 0;
    for tick in 1..=56 {
        let written = svc.snapshots().len();
        svc.tick().expect("tick");
        if svc.snapshots().len() == written {
            continue;
        }
        assert!(tick > DEFAULT_FLIGHT_CAPACITY, "violation at tick {tick}");
        let file = svc.snapshots().last().unwrap().clone();
        let json = live("");
        let header = format!("{{\"window_cycles\":{DEFAULT_FLIGHT_CAPACITY},");
        assert!(json.starts_with(&header), "{json}");
        assert_eq!(json, cli_profile(&file, "json"), "{}", file.display());
        assert_eq!(live("format=folded"), cli_profile(&file, "folded"));
        compared += 1;
    }
    assert!(compared >= 1, "the load never tripped a QoS violation");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn anomaly_warnings_fire_before_violation_threshold() {
    let dir = tmpdir("anomaly");
    // Steady light load long enough to mature the baseline, then a step
    // to a heavier (but sub-violation) load: the step is anomalous vs.
    // the connection's own history even though no QoS rule trips.
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        flight_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let mut svc =
        MonitoringService::from_model_with(model, options, config, move |builder, map, m| {
            let f = m.topology.node_by_name("sensor1").unwrap();
            let t = m.topology.node_by_name("console").unwrap();
            let ip = m.addresses[&t].parse().unwrap();
            // 200 KB/s for 25 s, then 4 MB/s (~32 Mb/s, under the 70%
            // utilization and 2 MB/s min_available limits).
            builder
                .install_app(
                    map[&f],
                    Box::new(ProfiledSource::new(ip, LoadProfile::pulse(0, 25, 200_000))),
                    None,
                )
                .unwrap();
            builder
                .install_app(
                    map[&f],
                    Box::new(ProfiledSource::new(
                        ip,
                        LoadProfile::pulse(25, 40, 4_000_000),
                    )),
                    None,
                )
                .unwrap();
        })
        .unwrap();
    svc.set_tracing(true);
    std::fs::create_dir_all(&dir).unwrap();
    let trail = dir.join("events.jsonl");
    svc.set_event_sink(Arc::new(EventSink::to_file(&trail).unwrap()));
    let mut violations = 0;
    for _ in 0..32 {
        violations += svc
            .tick()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, QosEvent::Violated { .. }))
            .count();
    }
    assert_eq!(violations, 0, "the step load must stay under QoS limits");
    let warnings = svc.telemetry().anomaly_warnings.get();
    assert!(
        warnings > 0,
        "the load step should rank above p99 of the quiet baseline"
    );
    // Each warning is one `anomalous` event naming the path and a rank
    // past the anomaly threshold.
    svc.event_sink().flush();
    let events = std::fs::read_to_string(&trail).unwrap();
    let anomalous: Vec<_> = events
        .lines()
        .filter(|l| l.contains("\"target\":\"monitor.baseline\",\"kind\":\"anomalous\""))
        .map(|l| parse_json(l).unwrap())
        .collect();
    assert_eq!(anomalous.len() as u64, warnings, "{events}");
    for event in &anomalous {
        let fields = event.get("fields").unwrap();
        assert!(fields.get("path").and_then(|p| p.as_str()).is_some());
        let rank = fields.get("rank").and_then(|r| r.as_f64()).unwrap();
        assert!(rank > 0.99, "{event:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
