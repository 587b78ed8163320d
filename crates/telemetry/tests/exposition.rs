//! The Prometheus text exposition, byte for byte: a monitor's `/metrics`
//! rendered from a fixed registry and compared with a golden file.
//!
//! The registry covers every rule of the format: counters, gauges (one
//! negative), histograms with samples across the exact and the
//! log-bucketed ranges, keys with embedded labels, and a name that needs
//! sanitizing. On a deliberate change of format, copy the file a failure
//! names over the golden.

use netqos_telemetry::Registry;
use std::path::Path;
use std::sync::Arc;

const GOLDEN: &str = "tests/golden/exposition.prom";

fn registry() -> Arc<Registry> {
    let r = Registry::new();
    r.counter("netqos_monitor_polls_total").add(12);
    r.counter("netqos_monitor_ticks_total").add(3);
    r.counter("netqos.poll-errors/total").add(2);
    r.gauge("netqos_monitor_trap_outbox_depth").set(4);
    r.gauge("netqos_temp_offset").set(-7);
    r.gauge("netqos_build_info{version=\"0.1.0\",profile=\"release\"}")
        .set(1);
    let rtt = r.histogram("netqos_monitor_poll_rtt_us");
    for v in [1, 3, 7, 8, 9, 250, 1_000, 123_456] {
        rtt.record(v);
    }
    let phase = r.histogram("netqos_tick_phase_ns{phase=\"monitor.cycle\"}");
    for v in [500, 1_500, 90_000] {
        phase.record(v);
    }
    r.histogram("netqos_east_only_ns").record(42);
    r
}

/// Fails unless `actual` is the golden file at `path`, leaving `actual`
/// beside the test binary for a deliberate re-recording.
fn assert_golden(path: &str, actual: &str) {
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if actual != golden {
        let name = Path::new(path).file_name().unwrap();
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&dump, actual).unwrap();
        panic!("differs from {path}; now: {}", dump.display());
    }
}

#[test]
fn a_monitors_exposition_is_the_golden() {
    assert_golden(GOLDEN, &registry().render_prometheus());
}
