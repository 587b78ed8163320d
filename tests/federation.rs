//! Integration coverage for the federated export plane: N monitoring
//! shards behind one merged `/metrics`, `/healthz`, `/snapshot`,
//! `/alerts` and `/profile` — first in-process (a federation of one
//! against its shard's own router, then two concurrently ticking
//! services behind one `ShardRegistry`), then through the `netqos
//! federate` CLI.

use netqos::monitor::live::{build_router, shard_for, RouterOptions};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{
    parse_json, HttpRequest, HttpRoute, HttpServer, JsonValue, Router, ShardRegistry,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const TWO_SWITCH: &str = include_str!("../specs/two-switch.spec");
const LIRTSS: &str = include_str!("../specs/lirtss.spec");

fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn service_from(spec: &str, monitor_host: &str) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(spec).unwrap();
    let options = SimNetworkOptions {
        monitor_host: monitor_host.into(),
        ..SimNetworkOptions::default()
    };
    MonitoringService::from_model(model, options, ServiceConfig::default()).unwrap()
}

/// `router`'s buffered answer to `GET target`, its body's trailing
/// newline trimmed.
fn answer(router: &Router, target: &str) -> (u16, String) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let req = HttpRequest {
        method: "GET".into(),
        path: path.into(),
        query: query.into(),
        accept: String::new(),
    };
    match router(&req) {
        Some(HttpRoute::Response(resp)) => (resp.status, resp.body.trim_end().to_string()),
        _ => panic!("no buffered answer to {target}"),
    }
}

/// A `/healthz` body without its `"last_tick_age_ms":N,` field, which
/// reads the clock.
fn without_tick_age(body: &str) -> String {
    let (head, tail) = body.split_once("\"last_tick_age_ms\":").unwrap();
    format!("{head}{}", &tail[tail.find(',').unwrap() + 1..])
}

#[test]
fn a_federation_of_one_embeds_its_shard_routers_own_bodies() {
    let mut svc = service_from(TWO_SWITCH, "console");
    svc.set_tracing(true);
    let (registry, live, ring) = (
        svc.registry().clone(),
        svc.live().clone(),
        svc.flight().clone(),
    );
    live.set_stale_after_ns(0);
    let options = || RouterOptions {
        profile: Some(ring.clone()),
        ..RouterOptions::new(registry.clone(), live.clone())
    };
    let own = &*build_router(options());
    let fed = ShardRegistry::new();
    fed.register(shard_for("two-switch", options())).unwrap();
    let federated = &*fed.router();
    svc.run_ticks(12).unwrap();

    let (_, snapshot) = answer(own, "/snapshot");
    assert_eq!(
        answer(federated, "/snapshot"),
        (
            200,
            format!("{{\"shards\":[{{\"shard\":\"two-switch\",\"snapshot\":{snapshot}}}]}}")
        )
    );
    let (_, alerts) = answer(own, "/alerts");
    let doc = parse_json(&alerts).unwrap();
    let count = |key| doc.get(key).and_then(JsonValue::as_u64).unwrap();
    assert_eq!(
        answer(federated, "/alerts"),
        (
            200,
            format!(
                "{{\"pending\":{},\"firing\":{},\"shards\":[{{\"shard\":\"two-switch\",\
                 \"alerts\":{alerts}}}]}}",
                count("pending"),
                count("firing")
            )
        )
    );
    let (status, health) = answer(own, "/healthz");
    assert_eq!(status, 200);
    let (status, fed_health) = answer(federated, "/healthz");
    assert_eq!(
        (status, without_tick_age(&fed_health)),
        (
            200,
            format!(
                "{{\"status\":\"ok\",\"shards\":[{{\"shard\":\"two-switch\",\
                 \"healthy\":true,\"detail\":{}}}]}}",
                without_tick_age(&health)
            )
        )
    );
    let (status, folded) = answer(own, "/profile?format=folded");
    assert_eq!(status, 200);
    assert!(folded.contains("monitor.cycle"), "{folded}");
    assert_eq!(
        answer(federated, "/profile?shard=two-switch&format=folded"),
        (200, folded)
    );
    // The one answer that changed with the shard's router: without
    // `shard=`, the 400 lists every shard, not only those with a
    // profiler.
    assert_eq!(
        answer(federated, "/profile"),
        (
            400,
            "{\"error\":\"missing shard= parameter\",\"shards\":[\"two-switch\"]}".into()
        )
    );
}

#[test]
fn two_shards_merge_behind_one_export_plane() {
    // Two independent services from two different spec files, each
    // built and ticking on its own thread (MonitoringService itself is
    // not Send) while the federation scrapes their shared handles — the
    // exact shape `netqos federate` runs in production.
    let (tx, rx) = std::sync::mpsc::channel();
    let spawn_shard = |name: &'static str, spec: &'static str, host: &'static str, ticks: u64| {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut svc = service_from(spec, host);
            svc.set_tracing(true);
            tx.send((name, svc.registry().clone(), svc.live().clone()))
                .unwrap();
            drop(tx);
            for _ in 0..ticks {
                svc.tick().unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
            // The wall-clock histogram totals, to check merge fidelity.
            (
                svc.telemetry().tick_ns.count(),
                svc.telemetry().tick_ns.sum(),
            )
        })
    };
    let a = spawn_shard("two-switch", TWO_SWITCH, "console", 6);
    let b = spawn_shard("lirtss", LIRTSS, "L", 4);
    drop(tx);

    let fed = ShardRegistry::new();
    let mut lives = std::collections::HashMap::new();
    for (name, registry, live) in rx.iter().take(2) {
        lives.insert(name, live.clone());
        fed.register(shard_for(name, RouterOptions::new(registry, live)))
            .unwrap();
    }
    let server = HttpServer::serve("127.0.0.1:0", fed.router()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    std::thread::sleep(Duration::from_millis(60));
    let (status, mid_scrape) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        mid_scrape.contains("shard=\"two-switch\"") && mid_scrape.contains("shard=\"lirtss\""),
        "mid-run scrape must already carry both shards"
    );
    let (a_count, a_sum) = a.join().unwrap();
    let (b_count, b_sum) = b.join().unwrap();

    // Merged /metrics: shard-labelled series plus unlabelled aggregate.
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("netqos_federation_shards 2"), "{body}");
    assert!(body.contains("netqos_monitor_ticks_total{shard=\"two-switch\"} 6"));
    assert!(body.contains("netqos_monitor_ticks_total{shard=\"lirtss\"} 4"));
    assert!(
        body.contains("\nnetqos_monitor_ticks_total 10\n"),
        "aggregate is the sum across shards"
    );
    // Histogram exposition with per-shard and merged buckets.
    assert!(body.contains("netqos_monitor_tick_duration_ns_bucket{shard=\"two-switch\",le="));
    assert!(body.contains("netqos_monitor_tick_duration_ns_bucket{le=\"+Inf\"} 10"));
    assert_eq!(
        body.matches("# TYPE netqos_monitor_ticks_total counter")
            .count(),
        1,
        "one TYPE header per family"
    );

    // The merged histogram preserves per-shard totals exactly.
    for line in [
        format!(
            "netqos_monitor_tick_duration_ns_count {}",
            a_count + b_count
        ),
        format!("netqos_monitor_tick_duration_ns_sum {}", a_sum + b_sum),
    ] {
        assert!(body.contains(&format!("\n{line}\n")), "{line} in {body}");
    }

    // /healthz: both loops ticked moments ago.
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    let doc = parse_json(&health).unwrap();
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(
        doc.get("shards")
            .and_then(JsonValue::as_array)
            .map(|s| s.len()),
        Some(2)
    );

    // /snapshot: per-shard digest array with live tick counts.
    let (status, snap) = http_get(&addr, "/snapshot");
    assert_eq!(status, 200);
    let doc = parse_json(&snap).unwrap();
    let shards = doc.get("shards").and_then(JsonValue::as_array).unwrap();
    assert_eq!(shards.len(), 2);
    for shard in shards {
        let name = shard.get("shard").and_then(JsonValue::as_str).unwrap();
        let ticks = shard
            .get("snapshot")
            .and_then(|s| s.get("ticks"))
            .and_then(JsonValue::as_u64)
            .unwrap();
        match name {
            "two-switch" => assert_eq!(ticks, 6),
            "lirtss" => assert_eq!(ticks, 4),
            other => panic!("unexpected shard {other}"),
        }
    }

    // A stalled shard degrades the whole federation to 503, with the
    // healthy shard still reported healthy in the detail.
    lives["two-switch"].set_stale_after_ns(1);
    lives["lirtss"].mark_finished();
    std::thread::sleep(Duration::from_millis(5));
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 503, "{health}");
    let doc = parse_json(&health).unwrap();
    assert_eq!(
        doc.get("status").and_then(JsonValue::as_str),
        Some("degraded")
    );
    let shards = doc.get("shards").and_then(JsonValue::as_array).unwrap();
    let healthy_flags: Vec<(String, bool)> = shards
        .iter()
        .map(|s| {
            (
                s.get("shard")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                s.get("healthy").and_then(JsonValue::as_bool).unwrap(),
            )
        })
        .collect();
    assert!(healthy_flags.contains(&("two-switch".into(), false)));
    assert!(healthy_flags.contains(&("lirtss".into(), true)));

    server.stop();
}

#[test]
fn cli_federate_serves_merged_metrics_from_two_spec_files() {
    let bin = {
        let mut path = std::env::current_exe().expect("test exe path");
        path.pop(); // deps/
        path.pop(); // debug/
        path.push("netqos");
        path
    };
    let mut child = std::process::Command::new(&bin)
        .args([
            "federate",
            "specs/two-switch.spec",
            "specs/lirtss.spec",
            "--duration",
            "120",
            "--pace-ms",
            "100",
            "--serve",
            "127.0.0.1:0",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn netqos federate");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read serve line");
    let addr = line
        .trim()
        .strip_prefix("federation serving http://")
        .and_then(|r| r.split('/').next())
        .unwrap_or_else(|| panic!("unexpected serve line {line:?}"))
        .to_string();
    assert!(line.contains("(2 shards"), "{line}");

    // Scrape while both paced shards are still polling.
    std::thread::sleep(Duration::from_millis(400));
    let (status, metrics) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    for needle in [
        "netqos_federation_shards 2",
        "netqos_monitor_ticks_total{shard=\"two-switch\"}",
        "netqos_monitor_ticks_total{shard=\"lirtss\"}",
        "_bucket{shard=\"two-switch\",le=",
        "_bucket{le=\"+Inf\"}",
        "# TYPE netqos_monitor_tick_duration_ns histogram",
    ] {
        assert!(metrics.contains(needle), "missing {needle:?} in {metrics}");
    }
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    let doc = parse_json(&health).unwrap();
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    let (status, snap) = http_get(&addr, "/snapshot");
    assert_eq!(status, 200);
    let doc = parse_json(&snap).unwrap();
    assert_eq!(
        doc.get("shards")
            .and_then(JsonValue::as_array)
            .map(|s| s.len()),
        Some(2)
    );
    // Every shard traces, so each has a phase profile.
    let (status, profile) = http_get(&addr, "/profile?shard=lirtss");
    assert_eq!(status, 200, "{profile}");

    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn cli_federate_rejects_a_single_spec() {
    let bin = {
        let mut path = std::env::current_exe().expect("test exe path");
        path.pop();
        path.pop();
        path.push("netqos");
        path
    };
    let out = std::process::Command::new(&bin)
        .args(["federate", "specs/two-switch.spec"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run netqos federate");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at least two"), "{stderr}");
}
