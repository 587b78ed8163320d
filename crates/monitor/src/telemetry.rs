//! Metric handles for the monitoring pipeline — the monitor's own health,
//! as distinct from the network QoS it measures.
//!
//! One [`MonitorTelemetry`] bundle is resolved per service (each
//! [`MonitoringService`](crate::service::MonitoringService) defaults to a
//! private registry so tests stay deterministic); the CLI passes a shared
//! registry so the SNMP client, poll runtime, and tick loop all land in
//! one Prometheus snapshot.
//!
//! Time units: histograms named `*_us` hold **simulated** microseconds
//! (what the monitor observes on the virtual wire); histograms named
//! `*_ns` hold **wall-clock** nanoseconds (what the monitor itself costs).

use netqos_telemetry::{Counter, Gauge, Histogram, PushCounters, Registry};
use std::sync::Arc;

/// Handles for every stage of the monitoring pipeline.
#[derive(Clone)]
pub struct MonitorTelemetry {
    registry: Arc<Registry>,
    /// Successful device polls.
    pub polls: Counter,
    /// Device polls that failed for a non-timeout reason.
    pub poll_failures: Counter,
    /// Device polls that exhausted all retransmissions.
    pub poll_timeouts: Counter,
    /// Poll retransmissions after a per-attempt timeout.
    pub poll_retransmits: Counter,
    /// Per-device poll round-trip time, simulated microseconds.
    pub poll_rtt_us: Histogram,
    /// Service ticks executed.
    pub ticks: Counter,
    /// Wall-clock cost of one service tick, nanoseconds.
    pub tick_ns: Histogram,
    /// Current trap outbox length.
    pub trap_outbox_depth: Gauge,
    /// Echo-probe path round-trip time, simulated microseconds.
    pub path_rtt_us: Histogram,
    /// Echo probes lost (no reply before timeout).
    pub probes_lost: Counter,
    /// Samples discarded because a device rebooted between polls.
    pub uptime_resets: Counter,
    /// Counter32 rollovers absorbed by the modular delta arithmetic.
    pub counter_wraps: Counter,
    /// "Anomalous vs. baseline" pre-violation warnings emitted.
    pub anomaly_warnings: Counter,
    /// Flight-recorder snapshots written to disk.
    pub flight_snapshots: Counter,
    /// Files deleted by any retention policy (flight snapshots and
    /// long-term-store segments alike).
    pub retention_deleted: Counter,
    /// Flight snapshots pushed to the OTLP collector
    /// (`netqos_monitor_otlp_{pushed,push_retries,push_dropped}_total`).
    pub otlp_push: PushCounters,
    /// Alert transitions into pending.
    pub alerts_pending_total: Counter,
    /// Alert transitions into firing.
    pub alerts_firing_total: Counter,
    /// Alert transitions into resolved.
    pub alerts_resolved_total: Counter,
    /// Alerts currently firing.
    pub alerts_firing: Gauge,
    /// Alert transition batches posted to the webhook
    /// (`netqos_alert_webhook_{delivered,retries,dropped}_total`).
    pub alert_webhook: PushCounters,
    /// Constant-1 gauge carrying build provenance in its labels.
    pub build_info: Gauge,
}

impl MonitorTelemetry {
    /// Resolves all handles against `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        MonitorTelemetry {
            polls: r.counter("netqos_monitor_polls_total"),
            poll_failures: r.counter("netqos_monitor_poll_failures_total"),
            poll_timeouts: r.counter("netqos_monitor_poll_timeouts_total"),
            poll_retransmits: r.counter("netqos_monitor_poll_retransmits_total"),
            poll_rtt_us: r.histogram("netqos_monitor_poll_rtt_us"),
            ticks: r.counter("netqos_monitor_ticks_total"),
            tick_ns: r.histogram("netqos_monitor_tick_duration_ns"),
            trap_outbox_depth: r.gauge("netqos_monitor_trap_outbox_depth"),
            path_rtt_us: r.histogram("netqos_monitor_path_rtt_us"),
            probes_lost: r.counter("netqos_monitor_probes_lost_total"),
            uptime_resets: r.counter("netqos_monitor_uptime_resets_total"),
            counter_wraps: r.counter("netqos_monitor_counter_wraps_total"),
            anomaly_warnings: r.counter("netqos_monitor_anomaly_warnings_total"),
            flight_snapshots: r.counter("netqos_monitor_flight_snapshots_total"),
            retention_deleted: r.counter("netqos_retention_deleted_total"),
            otlp_push: PushCounters {
                pushed: r.counter("netqos_monitor_otlp_pushed_total"),
                retries: r.counter("netqos_monitor_otlp_push_retries_total"),
                dropped: r.counter("netqos_monitor_otlp_push_dropped_total"),
            },
            alerts_pending_total: r.counter("netqos_alerts_pending_total"),
            alerts_firing_total: r.counter("netqos_alerts_firing_total"),
            alerts_resolved_total: r.counter("netqos_alerts_resolved_total"),
            alerts_firing: r.gauge("netqos_alerts_firing"),
            alert_webhook: PushCounters {
                pushed: r.counter("netqos_alert_webhook_delivered_total"),
                retries: r.counter("netqos_alert_webhook_retries_total"),
                dropped: r.counter("netqos_alert_webhook_dropped_total"),
            },
            build_info: {
                // Build provenance rides in an embedded label set: the
                // registry key itself is the full series, rendered as
                // `netqos_build_info{...} 1` by the exposition layer.
                let g = r.gauge(&format!(
                    "netqos_build_info{{version=\"{}\",git=\"{}\",profile=\"{}\"}}",
                    env!("CARGO_PKG_VERSION"),
                    option_env!("NETQOS_GIT_SHA").unwrap_or("unknown"),
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                ));
                g.set(1);
                g
            },
            registry,
        }
    }

    /// A bundle over a fresh private registry.
    pub fn private() -> Self {
        Self::new(Registry::new())
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_against_registry() {
        let t = MonitorTelemetry::private();
        t.polls.inc();
        t.poll_rtt_us.record(1_500);
        let r = t.registry();
        assert_eq!(r.counter("netqos_monitor_polls_total").get(), 1);
        assert_eq!(r.histogram("netqos_monitor_poll_rtt_us").count(), 1);
    }

    #[test]
    fn build_info_renders_with_labels() {
        let t = MonitorTelemetry::private();
        let text = t.registry().render_prometheus();
        assert!(text.contains("# TYPE netqos_build_info gauge"), "{text}");
        assert!(
            text.contains(&format!(
                "netqos_build_info{{version=\"{}\",",
                env!("CARGO_PKG_VERSION")
            )),
            "{text}"
        );
        assert_eq!(t.build_info.get(), 1);
    }

    #[test]
    fn clones_share_cells() {
        let t = MonitorTelemetry::private();
        let u = t.clone();
        t.ticks.inc();
        u.ticks.inc();
        assert_eq!(t.ticks.get(), 2);
    }
}
