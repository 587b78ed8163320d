//! The golden transcript of the staged tick: 40 ticks of
//! `specs/two-switch.spec` under a step load that takes `feed1` and
//! `feed2` below `min_available` and lets them clear again, with
//! `specs/alerts.rules` loaded, traps sent to a station and tracing on.
//! Everything a tick publishes that does not depend on the wall clock is
//! written down — per tick the per-path row, the `/snapshot` digest, the
//! flight cycle's events and annotated samples, the event trail and the
//! trap bytes; at the end `/alerts` and every registry counter and gauge
//! — and held byte for byte to `tests/golden/tick_transcript.txt`, which
//! was recorded from the 476-line `tick()` this test outlived.
//!
//! To re-record after a deliberate change of answers, copy the
//! `tick_transcript.actual.txt` the failure message names over the
//! golden file. It was last re-recorded when the service began polling
//! the demand set first: `display`, the one device no qospath reads,
//! moved to the survey and is now polled last in each round (a survey of
//! one is still polled every tick, so `polled` stays 7). The later poll
//! instants move every path's rate window, which moved rows and the
//! timing of `path_hot` alerts.

use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos::spec::QosPathSpec;
use netqos_telemetry::{EventSink, Level};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};

const SPEC: &str = include_str!("../specs/two-switch.spec");
const RULES: &str = include_str!("../specs/alerts.rules");
const GOLDEN: &str = "tests/golden/tick_transcript.txt";
const TICKS: usize = 40;

/// An event-sink writer the test can read back.
#[derive(Clone, Default)]
struct Trail(Arc<Mutex<Vec<u8>>>);

impl Write for Trail {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Trail {
    fn take(&self) -> String {
        String::from_utf8(std::mem::take(&mut *self.0.lock().unwrap())).unwrap()
    }
}

/// One event line without its wall-clock parts: the sink's own leading
/// `t_s` stamp, and the `t`, `wall_us` and `*_ns` members of `fields`.
fn scrub(line: &str) -> String {
    let rest = line.strip_prefix("{\"t_s\":").expect("event line");
    let rest = &rest[rest.find(',').expect("stamp") + 1..];
    let (head, fields) = rest.split_once("\"fields\":{").expect("fields");
    let body = fields.strip_suffix("}}").expect("closed fields");
    let mut kept = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // A member runs to the next comma outside a string.
        let (start, mut in_string) = (i, false);
        while i < bytes.len() && (in_string || bytes[i] != b',') {
            match bytes[i] {
                b'\\' if in_string => i += 1,
                b'"' => in_string = !in_string,
                _ => {}
            }
            i += 1;
        }
        let member = &body[start..i];
        let key = member[1..].split('"').next().unwrap();
        if !(key == "t" || key == "wall_us" || key.ends_with("_ns")) {
            kept.push(member);
        }
        i += 1;
    }
    format!("{{{head}\"fields\":{{{}}}}}", kept.join(","))
}

/// The per-path row of this tick, as `netqos monitor`'s CSV would need
/// it: `name,used_bps,available_bps`, or `name,,` for a path the tick
/// could not evaluate.
fn row_line(svc: &MonitoringService, qos_paths: &[QosPathSpec]) -> String {
    let mut out = String::new();
    for q in qos_paths {
        match svc.rows().iter().find(|r| r.name == q.name) {
            Some(r) => write!(out, " {},{},{}", q.name, r.used_bps, r.available_bps).unwrap(),
            None => write!(out, " {},,", q.name).unwrap(),
        }
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn transcript() -> String {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let qos_paths = model.qos_paths.clone();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let mut config = ServiceConfig {
        trap_destination: Some("192.168.10.21".parse().unwrap()),
        ..ServiceConfig::default()
    };
    config
        .alert_rules
        .extend(netqos_telemetry::parse_alert_rules(RULES).unwrap());
    // 11 MB/s onto the 100 Mb/s sensor1 → console route from t=22 s to
    // t=32 s: by then every baseline is mature, so the step is anomalous
    // first, a QoS violation next, and resolves before the run ends.
    let mut svc = MonitoringService::from_model_with(model, options, config, |builder, map, m| {
        let from = m.topology.node_by_name("sensor1").unwrap();
        let to = m.topology.node_by_name("console").unwrap();
        let ip = m.addresses[&to].parse().unwrap();
        let load = ProfiledSource::new(ip, LoadProfile::pulse(22, 32, 11_000_000));
        builder
            .install_app(map[&from], Box::new(load), None)
            .unwrap();
    })
    .unwrap();
    let trail = Trail::default();
    let sink = EventSink::to_writer(Box::new(trail.clone()));
    sink.set_default_level(Level::Debug);
    svc.set_event_sink(Arc::new(sink));
    svc.set_tracing(true);

    let mut out = String::new();
    let mut traps_seen = 0;
    for tick in 1..=TICKS {
        let events = svc.tick().unwrap();
        writeln!(out, "== tick {tick}").unwrap();
        writeln!(out, "rows{}", row_line(&svc, &qos_paths)).unwrap();
        writeln!(out, "qos {events:?}").unwrap();
        writeln!(out, "snapshot {}", svc.live().snapshot_json()).unwrap();
        let cycle = svc.flight().snapshot().pop().expect("traced cycle");
        writeln!(out, "cycle.events {:?}", cycle.events).unwrap();
        for s in &cycle.samples {
            writeln!(out, "cycle.sample {s:?}").unwrap();
        }
        svc.event_sink().flush();
        for line in trail.take().lines() {
            writeln!(out, "event {}", scrub(line)).unwrap();
        }
        for trap in &svc.traps()[traps_seen..] {
            writeln!(out, "trap {}", hex(trap)).unwrap();
        }
        traps_seen = svc.traps().len();
    }
    writeln!(out, "== end").unwrap();
    writeln!(out, "alerts {}", svc.live().alerts_json()).unwrap();
    svc.registry().visit_counters(|name, counter| {
        writeln!(out, "counter {name} {}", counter.get()).unwrap();
    });
    svc.registry().visit_gauges(|name, gauge| {
        // The build's own labels are not the tick's.
        if !name.starts_with("netqos_build_info") {
            writeln!(out, "gauge {name} {}", gauge.get()).unwrap();
        }
    });
    out
}

#[test]
fn the_staged_tick_publishes_what_the_monolith_did() {
    let actual = transcript();
    assert!(
        actual.contains("qos_violation") && actual.contains("qos_cleared"),
        "the load must cross min_available and clear again"
    );
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let dump =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tick_transcript.actual.txt");
        std::fs::write(&dump, &actual).unwrap();
        let line = (actual.lines().zip(golden.lines()))
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "transcript differs from {GOLDEN} at line {}:\n  now:    {}\n  golden: {}\nfull transcript: {}",
            line + 1,
            actual.lines().nth(line).unwrap_or("<end>"),
            golden.lines().nth(line).unwrap_or("<end>"),
            dump.display()
        );
    }
}
