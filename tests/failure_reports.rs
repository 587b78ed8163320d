//! A side task of the tick that fails — a flight snapshot, its retention
//! pass, a baseline save, a long-term store flush or compaction, a
//! recording rule — is reported on the event trail as a warning, and the
//! tick carries on. A store that had to recover at open says so too.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{EventSink, RecordRule};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One 10 Mb/s link whose qospath wants 9 Mb/s free.
const SPEC: &str = r#"
    host M { address 10.0.0.1; snmp community "public"; interface eth0 { speed 10Mbps; } }
    host W { address 10.0.0.2; snmp community "public"; interface eth0 { speed 10Mbps; } }
    connection M.eth0 <-> W.eth0;
    qospath mw from M to W { min_available 9Mbps; }
"#;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netqos-failures-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A service over [`SPEC`] that saves and flushes every tick, with its
/// event trail in `dir/events.jsonl`; `load_bps` of UDP from M to W
/// (bytes per second) when non-zero.
fn service(dir: &Path, config: ServiceConfig, load_bps: u64) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "M".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        baseline_save_ticks: 1,
        ..config
    };
    let mut svc = MonitoringService::from_model_with(model, options, config, |b, map, m| {
        if load_bps > 0 {
            let from = map[&m.topology.node_by_name("M").unwrap()];
            let to = "10.0.0.2".parse().unwrap();
            let profile = LoadProfile::constant(load_bps);
            b.install_app(from, Box::new(ProfiledSource::new(to, profile)), None)
                .unwrap();
        }
    })
    .unwrap();
    let sink = EventSink::to_file(dir.join("events.jsonl")).unwrap();
    svc.set_event_sink(Arc::new(sink));
    svc
}

/// Ticks `n` times (each must succeed) and returns the event trail.
fn run(svc: &mut MonitoringService, dir: &Path, n: usize) -> String {
    svc.run_ticks(n)
        .expect("a failed side task never fails the tick");
    svc.event_sink().flush();
    std::fs::read_to_string(dir.join("events.jsonl")).unwrap()
}

/// Whether `events` holds a `level` event `kind` from `target`.
fn reported(events: &str, level: &str, target: &str, kind: &str) -> bool {
    let head = format!("\"level\":\"{level}\",\"target\":\"{target}\",\"kind\":\"{kind}\"");
    events.lines().any(|l| l.contains(&head))
}

#[test]
fn unwritable_flight_dir_and_baseline_file_are_reported() {
    let dir = tmpdir("flight");
    let file = dir.join("a-file");
    std::fs::write(&file, "not a directory").unwrap();
    let config = ServiceConfig {
        flight_dir: Some(file.join("flight")),
        baseline_state: Some(file.join("baselines.json")),
        ..ServiceConfig::default()
    };
    // 1 MB/s leaves 2 Mb/s of the 9 the qospath wants: a violation.
    let mut svc = service(&dir, config, 1_000_000);
    svc.set_tracing(true);
    let events = run(&mut svc, &dir, 4);
    assert!(!svc.violated_paths().is_empty(), "{events}");
    assert!(svc.snapshots().is_empty());
    assert!(
        reported(&events, "warn", "monitor.flight", "snapshot_failed"),
        "{events}"
    );
    assert!(
        reported(&events, "warn", "monitor.flight", "retention_failed"),
        "{events}"
    );
    assert!(
        reported(&events, "warn", "monitor.baseline", "persist_failed"),
        "{events}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_that_cannot_flush_or_compact_is_reported() {
    let dir = tmpdir("lts");
    let store = dir.join("store");
    let config = ServiceConfig {
        lts_dir: Some(store.clone()),
        ..ServiceConfig::default()
    };
    let mut svc = service(&dir, config.clone(), 0);
    assert!(svc.lts_enabled());
    // The store's directory turns into a file under the writer.
    std::fs::remove_dir_all(&store).unwrap();
    std::fs::write(&store, "not a directory").unwrap();
    let events = run(&mut svc, &dir, 2);
    assert!(
        reported(&events, "warn", "monitor.lts", "flush_failed"),
        "{events}"
    );
    drop(svc);

    // Compaction rewrites the index through `series.idx.tmp`; a directory
    // in its place fails the compaction, not the flush before it.
    std::fs::remove_file(&store).unwrap();
    std::fs::create_dir_all(store.join("series.idx.tmp")).unwrap();
    let config = ServiceConfig {
        lts_compact: true,
        ..config
    };
    let mut svc = service(&dir, config, 0);
    let events = run(&mut svc, &dir, 2);
    assert!(
        !reported(&events, "warn", "monitor.lts", "flush_failed"),
        "{events}"
    );
    assert!(
        reported(&events, "warn", "monitor.lts", "compact_failed"),
        "{events}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_recovery_and_a_broken_recording_rule_are_reported() {
    let dir = tmpdir("record");
    let store = dir.join("store");
    std::fs::create_dir_all(&store).unwrap();
    std::fs::write(store.join("series.idx"), "a torn index line\n").unwrap();
    let config = ServiceConfig {
        lts_dir: Some(store),
        record_rules: vec![RecordRule {
            name: "broken".into(),
            expr: "sum(".into(),
        }],
        ..ServiceConfig::default()
    };
    let mut svc = service(&dir, config, 0);
    assert_eq!(svc.lts_open_warning(), None, "recovery is not a failure");
    let events = run(&mut svc, &dir, 2);
    assert!(reported(&events, "warn", "lts", "recovered"), "{events}");
    assert!(
        reported(&events, "warn", "monitor.record", "record_rule_failed"),
        "{events}"
    );
    assert!(events.contains("\"rule\":\"broken\""), "{events}");
    std::fs::remove_dir_all(&dir).ok();
}
