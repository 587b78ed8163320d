//! The Prometheus text exposition, byte for byte: a monitor's `/metrics`
//! and a two-shard federation's `/metrics`, each rendered from fixed
//! registries and compared with a golden file.
//!
//! The registries cover every rule of the format: counters, gauges
//! (one negative), histograms with samples across the exact and the
//! log-bucketed ranges, a key with embedded labels, a name that needs
//! sanitizing, a family only one shard has, and a shard name that needs
//! escaping. On a deliberate change of format, copy the file a failure
//! names over the golden.

use netqos_telemetry::{Registry, Shard, ShardRegistry};
use std::path::Path;
use std::sync::Arc;

const GOLDEN: &str = "tests/golden/exposition.prom";
const GOLDEN_FEDERATED: &str = "tests/golden/exposition.federated.prom";

/// The name of the second shard: a quote, a backslash and a newline.
const WEST: &str = "west \"lab\"\\b\nc";

fn east() -> Arc<Registry> {
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

fn west() -> Arc<Registry> {
    let r = Registry::new();
    r.counter("netqos_monitor_polls_total").add(30);
    r.counter("netqos_monitor_ticks_total").add(5);
    r.counter("netqos_west_only_total").inc();
    r.gauge("netqos_monitor_trap_outbox_depth").set(2);
    r.gauge("netqos_temp_offset").set(3);
    let rtt = r.histogram("netqos_monitor_poll_rtt_us");
    for v in [2, 40, 40, 5_000] {
        rtt.record(v);
    }
    r.histogram("netqos_tick_phase_ns{phase=\"monitor.cycle\"}")
        .record(700);
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
    assert_golden(GOLDEN, &east().render_prometheus());
}

/// The federation's first scrape, so `netqos_federation_scrapes_total 1`.
#[test]
fn a_federations_first_exposition_is_the_golden() {
    let fed = ShardRegistry::new();
    fed.register(Shard::metrics_only("east", east())).unwrap();
    fed.register(Shard::metrics_only(WEST, west())).unwrap();
    assert_golden(GOLDEN_FEDERATED, &fed.render_merged_prometheus());
}
