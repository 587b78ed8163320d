//! Integration coverage for the live export plane: a running monitor
//! must answer `GET /metrics`, `/healthz`, and `/snapshot` over real
//! TCP — first in-process (service + router + HttpServer), then through
//! the `netqos monitor --serve` CLI, scraping while the loop is alive.

use netqos::monitor::live::{build_router, unix_now_ns, RouterOptions};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{parse_json, HttpServer, JsonValue};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SPEC: &str = include_str!("../specs/two-switch.spec");

/// Minimal HTTP/1.1 GET: returns (status, body).
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

#[test]
fn in_process_router_serves_all_endpoints() {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let mut svc = MonitoringService::from_model(model, options, ServiceConfig::default()).unwrap();
    svc.run_ticks(4).unwrap();

    let router = build_router(RouterOptions::new(
        svc.registry().clone(),
        svc.live().clone(),
    ));
    let server = HttpServer::serve("127.0.0.1:0", router).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    // /metrics: Prometheus text with the pipeline's counters.
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE netqos_monitor_ticks_total counter"));
    assert!(body.contains("netqos_monitor_ticks_total 4"), "{body}");

    // /healthz: the loop ticked milliseconds ago, so it is healthy.
    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // /snapshot: JSON digest listing the spec's qospaths and baselines.
    let (status, body) = http_get(&addr, "/snapshot");
    assert_eq!(status, 200);
    let doc = parse_json(&body).expect("snapshot is JSON");
    assert_eq!(doc.get("ticks").and_then(JsonValue::as_u64), Some(4));
    let paths = doc
        .get("paths")
        .and_then(JsonValue::as_array)
        .expect("paths array");
    let names: Vec<&str> = paths
        .iter()
        .filter_map(|p| p.get("name").and_then(JsonValue::as_str))
        .collect();
    assert!(names.contains(&"feed1"), "{names:?}");
    for p in paths {
        assert!(p.get("used_bps").is_some());
        assert!(p.get("baseline").is_some());
    }
    assert!(doc.get("flight").is_some());
    assert!(doc.get("sampler").is_none(), "{body}");
    assert!(doc.get("alerts").is_some());

    // /alerts: the alerting plane's state — quiet run, nothing firing,
    // but the engine's builtin rules are loaded and evaluating.
    let (status, body) = http_get(&addr, "/alerts");
    assert_eq!(status, 200);
    let doc = parse_json(&body).expect("alerts body is JSON");
    assert_eq!(doc.get("firing").and_then(JsonValue::as_u64), Some(0));
    assert!(doc.get("rules").and_then(JsonValue::as_u64).unwrap_or(0) >= 3);
    assert!(doc.get("alerts").and_then(JsonValue::as_array).is_some());

    // /healthz carries the alert summary.
    let (_, health) = http_get(&addr, "/healthz");
    assert!(health.contains("\"alerts\""), "{health}");

    // Unknown path: 404. Wrong method: 405.
    let (status, _) = http_get(&addr, "/nope");
    assert_eq!(status, 404);
    let mut stream = TcpStream::connect(&addr).unwrap();
    write!(
        stream,
        "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");

    // Staleness: with no further ticks and a tiny budget, /healthz flips
    // to 503 (the liveness signal, not just reachability).
    svc.live().set_stale_after_ns(1);
    std::thread::sleep(Duration::from_millis(5));
    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"status\":\"stale\""), "{body}");
    // A clean finish restores 200.
    svc.live().mark_finished();
    let (status, _) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);

    assert!(server.requests_served() >= 6);
    server.stop();
    // After stop, the port no longer accepts.
    assert!(
        TcpStream::connect(&addr).is_err() || {
            // Accept may race on some platforms; a connected socket must at
            // least see EOF instead of a response.
            let mut s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).map(|n| n == 0).unwrap_or(true)
        }
    );
    let _ = unix_now_ns(); // keep the helper import exercised
}

#[test]
fn snapshot_sse_streams_one_event_per_tick() {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let mut svc = MonitoringService::from_model(model, options, ServiceConfig::default()).unwrap();
    let router = build_router(RouterOptions::new(
        svc.registry().clone(),
        svc.live().clone(),
    ));
    let server = HttpServer::serve("127.0.0.1:0", router).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    // Follow the stream on a client thread while the loop ticks.
    let stream_addr = addr.clone();
    let reader = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&stream_addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "GET /snapshot?follow=1 HTTP/1.1\r\nHost: x\r\n\
             Accept: text/event-stream\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        // The server closes the stream once the run finishes, so
        // read_to_string terminates.
        stream.read_to_string(&mut response).unwrap();
        response
    });

    for _ in 0..3 {
        svc.tick().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    svc.live().mark_finished();
    let response = reader.join().unwrap();

    assert!(
        response.contains("Content-Type: text/event-stream"),
        "{response}"
    );
    // Events carry the tick number as the SSE id and the snapshot JSON
    // as data; a 60ms pause per tick gives the 20ms poller time to
    // deliver each one individually.
    let ids: Vec<&str> = response
        .lines()
        .filter_map(|l| l.strip_prefix("id: "))
        .collect();
    assert!(ids.len() >= 2, "wanted >=2 SSE events, got {response:?}");
    assert_eq!(*ids.last().unwrap(), "3", "last event is the last tick");
    let datas: Vec<&str> = response
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .collect();
    assert_eq!(ids.len(), datas.len());
    for data in &datas {
        let doc = parse_json(data).expect("SSE data is the snapshot JSON");
        assert!(doc.get("paths").is_some());
    }
    // Ids are strictly increasing: no tick delivered twice.
    let nums: Vec<u64> = ids.iter().map(|s| s.parse().unwrap()).collect();
    assert!(nums.windows(2).all(|w| w[0] < w[1]), "{nums:?}");

    server.stop();
}

#[test]
fn cli_monitor_serve_scrapes_while_running() {
    let bin = {
        let mut path = std::env::current_exe().expect("test exe path");
        path.pop(); // deps/
        path.pop(); // debug/
        path.push("netqos");
        path
    };
    let mut child = std::process::Command::new(&bin)
        .args([
            "monitor",
            "specs/two-switch.spec",
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
        .expect("spawn netqos monitor --serve");
    // The bound address is announced on stderr before the loop starts.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read serve line");
    let addr = line
        .trim()
        .strip_prefix("serving http://")
        .and_then(|r| r.split('/').next())
        .unwrap_or_else(|| panic!("unexpected serve line {line:?}"))
        .to_string();

    // Scrape all three endpoints while the paced loop is still running.
    let (status, metrics) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("netqos_monitor_ticks_total"), "{metrics}");
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    // Give the loop time to tick a few times, then check the snapshot
    // reflects live progress: serving turned tracing on, so every tick
    // landed in the flight ring.
    std::thread::sleep(Duration::from_millis(600));
    let (status, snap) = http_get(&addr, "/snapshot");
    assert_eq!(status, 200);
    let doc = parse_json(&snap).expect("snapshot JSON");
    let ticks = doc.get("ticks").and_then(JsonValue::as_u64).unwrap_or(0);
    assert!(ticks >= 2, "{snap}");
    let cycles = (doc.get("flight").and_then(|f| f.get("cycles")))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let capacity = (doc.get("flight").and_then(|f| f.get("capacity")))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    assert_eq!(cycles, ticks.min(capacity), "{snap}");
    assert!(doc.get("sampler").is_none(), "{snap}");
    // And /profile answers without any tracing option, folding the
    // cycles the flight ring holds.
    let (status, profile) = http_get(&addr, "/profile");
    assert_eq!(status, 200, "{profile}");
    let doc = parse_json(&profile).expect("profile JSON");
    let folded = doc.get("window_cycles").and_then(JsonValue::as_u64);
    assert!((2..=capacity).contains(&folded.unwrap_or(0)), "{profile}");

    let _ = child.kill();
    let _ = child.wait();
}
