//! End-to-end coverage of the alerting plane on the two-switch
//! scenario: a sustained trunk overload must raise the builtin
//! `path_qos_violation` alert through its pending → firing hysteresis,
//! diagnose the trunk as the bottleneck, publish the alert over
//! `GET /alerts`, summarize it in `/healthz`, record the transition in
//! the flight ring and the event trail, deliver transition batches to a
//! webhook sink, and resolve once the load stops.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::live::{build_router, RouterOptions};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{
    parse_json, parse_webhook_url, EventSink, HttpServer, JsonValue, PushConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

const SPEC: &str = include_str!("../specs/two-switch.spec");

/// A one-thread HTTP sink: answers every POST with 200 and forwards
/// each body on a channel until the listener is dropped.
fn spawn_sink(listener: TcpListener, bodies: mpsc::Sender<String>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut content_len = 0usize;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                if line.trim().is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_len = v.trim().parse().unwrap_or(0);
                }
            }
            let mut body = vec![0u8; content_len];
            if reader.read_exact(&mut body).is_ok() {
                let _ = bodies.send(String::from_utf8_lossy(&body).into_owned());
            }
            let _ = stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
            // The channel hanging up means the test is done.
            if bodies.send(String::new()).is_err() {
                break;
            }
        }
    })
}

/// Wakes the sink's accept loop after the receiver is dropped so its
/// thread notices the hang-up and exits.
fn stop_sink(port: u16) {
    let _ = TcpStream::connect(("127.0.0.1", port));
}

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

/// A traced two-switch service where both sensors pulse 5 MB/s from
/// t=2 s to t=8 s. Each access link carries one 40 Mb/s stream but the
/// inter-switch trunk carries their 80 Mb/s sum — the unique bottleneck
/// of `feed1` (sensor2's stream terminates at `display`, keeping the
/// console link at 40 Mb/s) and over feed1's 70% utilization limit.
fn trunk_overload_service() -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let mut svc = MonitoringService::from_model_with(
        model,
        options,
        ServiceConfig::default(),
        |builder, map, m| {
            for (from, to) in [("sensor1", "console"), ("sensor2", "display")] {
                let f = m.topology.node_by_name(from).unwrap();
                let t = m.topology.node_by_name(to).unwrap();
                let ip = m.addresses[&t].parse().unwrap();
                builder
                    .install_app(
                        map[&f],
                        Box::new(ProfiledSource::new(ip, LoadProfile::pulse(2, 8, 5_000_000))),
                        None,
                    )
                    .unwrap();
            }
        },
    )
    .unwrap();
    svc.set_tracing(true);
    svc
}

#[test]
fn trunk_overload_fires_diagnosed_alert_end_to_end() {
    // Webhook sink first, so the notifier has somewhere to deliver.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let (tx, rx) = mpsc::channel();
    let sink = spawn_sink(listener, tx);

    let mut svc = trunk_overload_service();
    let target = parse_webhook_url(&format!("http://127.0.0.1:{port}/alerts")).unwrap();
    let hook = svc.enable_alert_webhook(PushConfig::new(target));
    let trail =
        std::env::temp_dir().join(format!("netqos-alert-trail-{}.jsonl", std::process::id()));
    svc.set_event_sink(Arc::new(EventSink::to_file(&trail).unwrap()));

    // Tick until the builtin rule crosses its `for 2` hysteresis.
    let mut fired_at = None;
    for tick in 1..=10u64 {
        svc.tick().unwrap();
        if svc.alerts().firing_count() > 0 {
            fired_at = Some(tick);
            break;
        }
    }
    let fired_at = fired_at.expect("trunk overload never fired an alert");
    assert!(fired_at >= 2, "hysteresis cannot fire on the first tick");

    // GET /alerts names the rule, the path, and the true bottleneck.
    let router = build_router(RouterOptions::new(
        svc.registry().clone(),
        svc.live().clone(),
    ));
    let server = HttpServer::serve("127.0.0.1:0", router).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let (status, body) = http_get(&addr, "/alerts");
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body).expect("alerts body is JSON");
    assert!(doc.get("firing").and_then(JsonValue::as_u64).unwrap_or(0) >= 1);
    let alerts = doc.get("alerts").and_then(JsonValue::as_array).unwrap();
    let firing = alerts
        .iter()
        .find(|a| a.get("state").and_then(JsonValue::as_str) == Some("firing"))
        .expect("firing alert listed");
    assert_eq!(
        firing.get("rule").and_then(JsonValue::as_str),
        Some("path_qos_violation")
    );
    assert_eq!(
        firing
            .get("labels")
            .and_then(|l| l.get("path"))
            .and_then(JsonValue::as_str),
        Some("feed1"),
        "{body}"
    );
    let bottleneck = firing
        .get("annotations")
        .and_then(|a| a.get("bottleneck"))
        .and_then(JsonValue::as_str)
        .expect("bottleneck annotation");
    assert!(
        bottleneck.contains("trunk"),
        "diagnosis must name the trunk, got {bottleneck}"
    );
    assert_eq!(
        firing
            .get("annotations")
            .and_then(|a| a.get("bottleneck_kind"))
            .and_then(JsonValue::as_str),
        Some("point_to_point")
    );

    // /healthz carries the summary; /metrics the transition counters.
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    let h = parse_json(&health).unwrap();
    assert!(
        h.get("alerts")
            .and_then(|a| a.get("firing"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1,
        "{health}"
    );
    let (_, metrics) = http_get(&addr, "/metrics");
    assert!(
        metrics.contains("netqos_alerts_firing_total 1"),
        "{metrics}"
    );
    server.stop();

    // The transition is part of the forensic record.
    assert!(
        svc.flight()
            .snapshot()
            .iter()
            .any(|c| c.events.iter().any(|e| e.starts_with("alert_firing"))),
        "alert_firing missing from the flight ring"
    );

    // Load stops at t=8 s: the violation clears and the alert resolves.
    let mut resolved_at = None;
    for tick in fired_at + 1..=fired_at + 14 {
        svc.tick().unwrap();
        if svc.alerts().firing_count() == 0 {
            resolved_at = Some(tick);
            break;
        }
    }
    assert!(resolved_at.is_some(), "alert never resolved after the load");
    assert!(svc.telemetry().alerts_resolved_total.get() >= 1);

    // The event trail tells the same story: feed1's QoS rule tripped and
    // cleared, and its alert went pending, firing, resolved.
    svc.event_sink().flush();
    let events = std::fs::read_to_string(&trail).unwrap();
    std::fs::remove_file(&trail).ok();
    for (target, kind, subject) in [
        ("monitor.qos", "violation", "\"path\":\"feed1\""),
        ("monitor.qos", "cleared", "\"path\":\"feed1\""),
        (
            "monitor.alerts",
            "pending",
            "\"rule\":\"path_qos_violation\"",
        ),
        (
            "monitor.alerts",
            "firing",
            "\"rule\":\"path_qos_violation\"",
        ),
        (
            "monitor.alerts",
            "resolved",
            "\"rule\":\"path_qos_violation\"",
        ),
    ] {
        let head = format!("\"target\":\"{target}\",\"kind\":\"{kind}\"");
        assert!(
            events
                .lines()
                .any(|l| l.contains(&head) && l.contains(subject)),
            "no {kind} event for {subject}:\n{events}"
        );
    }

    // The webhook sink saw the firing batch and the resolved batch:
    // shutdown drains the queue synchronously, so every delivered body
    // is already on the channel.
    hook.shutdown();
    drop(svc);
    let batches: Vec<String> = rx.try_iter().filter(|b| !b.is_empty()).collect();
    drop(rx);
    stop_sink(port);
    sink.join().unwrap();
    assert!(!batches.is_empty(), "no webhook batches delivered");
    let mut saw = std::collections::BTreeSet::new();
    for batch in &batches {
        let doc = parse_json(batch).expect("webhook batch is JSON");
        assert_eq!(
            doc.get("source").and_then(JsonValue::as_str),
            Some("netqos")
        );
        for tr in doc
            .get("transitions")
            .and_then(JsonValue::as_array)
            .expect("transitions array")
        {
            if tr.get("rule").and_then(JsonValue::as_str) == Some("path_qos_violation") {
                if let Some(to) = tr.get("to").and_then(JsonValue::as_str) {
                    saw.insert(to.to_string());
                }
            }
        }
    }
    for state in ["pending", "firing", "resolved"] {
        assert!(saw.contains(state), "missing {state} transition: {saw:?}");
    }
}
