//! Integration coverage for push-based OTLP delivery: a monitoring
//! service wired with `enable_otlp_push` must deliver valid OTLP/JSON
//! flight snapshots to a collector over real TCP when violations fire,
//! retry with backoff against a flapping collector, count drops when
//! the collector stays down, and do all of the above from the `netqos
//! monitor --otlp-push` CLI.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{cycles_from_jsonl, parse_push_url, to_otlp, validate_otlp, PushConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
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

/// A traced service with a 9 MB/s sensor1→console pulse from t=2 s —
/// ~72 Mb/s on the wire, over `feed1`'s 70% utilization limit on the
/// 100 Mb/s trunk, so a violation fires within a few ticks.
fn violating_service(config: ServiceConfig) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let mut svc = MonitoringService::from_model_with(model, options, config, |builder, map, m| {
        let from = m.topology.node_by_name("sensor1").unwrap();
        let to = m.topology.node_by_name("console").unwrap();
        let ip = m.addresses[&to].parse().unwrap();
        builder
            .install_app(
                map[&from],
                Box::new(ProfiledSource::new(
                    ip,
                    LoadProfile::pulse(2, 60, 9_000_000),
                )),
                None,
            )
            .unwrap();
    })
    .unwrap();
    svc.set_tracing(true);
    svc
}

#[test]
fn violation_pushes_valid_otlp_snapshot_to_sink() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let (tx, rx) = mpsc::channel();
    let sink = spawn_sink(listener, tx);

    let dir = std::env::temp_dir().join(format!("netqos-push-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut svc = violating_service(ServiceConfig {
        flight_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let target = parse_push_url(&format!("http://127.0.0.1:{port}/v1/traces")).unwrap();
    let pusher = svc.enable_otlp_push(PushConfig::new(target));
    let events = svc.run_ticks(8).unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, netqos::monitor::qos::QosEvent::Violated { .. })),
        "no violation fired: {events:?}"
    );
    pusher.shutdown();

    // The sink received at least one snapshot and it is valid OTLP with
    // the whole flight ring in it.
    let body = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("sink received nothing");
    assert!(!body.is_empty());
    let stats = validate_otlp(&body).expect("pushed body is valid OTLP/JSON");
    assert!(stats.spans > 0);
    assert!(stats.traces >= 1);
    // It is what `flight dump --otlp` prints for that onset's snapshot.
    let first = std::fs::read_to_string(&svc.snapshots()[0]).unwrap();
    assert_eq!(body, to_otlp(&cycles_from_jsonl(&first).unwrap()));
    std::fs::remove_dir_all(&dir).ok();
    // Several paths can trip across ticks, each onset pushing once.
    let pushed = svc.telemetry().otlp_push.pushed.get();
    assert!(pushed >= 1);
    assert_eq!(svc.telemetry().otlp_push.dropped.get(), 0);
    // Delivery counters surface on /metrics.
    let text = svc.registry().render_prometheus();
    assert!(
        text.contains(&format!("netqos_monitor_otlp_pushed_total {pushed}")),
        "{text}"
    );
    drop(rx);
    stop_sink(port);
    sink.join().unwrap();
}

#[test]
fn dead_collector_counts_drops_not_hangs() {
    // Bind then drop: the port refuses connections for the whole test.
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().port()
    };
    let mut svc = violating_service(ServiceConfig::default());
    let target = parse_push_url(&format!("http://127.0.0.1:{port}/v1/traces")).unwrap();
    let mut config = PushConfig::new(target);
    config.max_attempts = 2;
    config.backoff_ms = 5;
    config.backoff_cap_ms = 10;
    let pusher = svc.enable_otlp_push(config);
    let start = std::time::Instant::now();
    svc.run_ticks(8).unwrap();
    // The tick loop never blocks on the dead collector: the worker
    // retries in the background while ticks continue.
    assert!(start.elapsed() < Duration::from_secs(5));
    pusher.shutdown();
    assert_eq!(svc.telemetry().otlp_push.pushed.get(), 0);
    assert!(
        svc.telemetry().otlp_push.retries.get() >= 1,
        "refused connection must be retried"
    );
    assert!(
        svc.telemetry().otlp_push.dropped.get() >= 1,
        "exhausted retries must count a drop"
    );
}

#[test]
fn cli_otlp_push_delivers_final_snapshot() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let (tx, rx) = mpsc::channel();
    let sink = spawn_sink(listener, tx);

    let bin = {
        let mut path = std::env::current_exe().expect("test exe path");
        path.pop();
        path.pop();
        path.push("netqos");
        path
    };
    let out = std::process::Command::new(&bin)
        .args([
            "monitor",
            "specs/two-switch.spec",
            "--duration",
            "5",
            "--otlp-push",
            &format!("http://127.0.0.1:{port}/v1/traces"),
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run netqos monitor --otlp-push");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pushing OTLP to"), "{stderr}");
    assert!(stderr.contains("delivered"), "{stderr}");

    // --otlp-push implies tracing, and the run's final snapshot is
    // pushed even without violations.
    let body = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("sink received nothing");
    let stats = validate_otlp(&body).expect("CLI pushed valid OTLP/JSON");
    assert!(stats.spans > 0);
    drop(rx);
    stop_sink(port);
    sink.join().unwrap();
}
