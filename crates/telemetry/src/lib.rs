//! Self-telemetry for the netqos monitor — the monitor that monitors the
//! monitor.
//!
//! A [`Registry`] holds named [`Counter`]s, [`Gauge`]s, and streaming
//! [`Histogram`]s. Handles are `Arc`-backed and cheap to clone, so hot
//! paths fetch their handle once and record lock-free afterwards.
//! [`Registry::render_prometheus`] is the read path: text exposition for
//! `/metrics`, `netqos stats` and `--telemetry` files; the alert engine,
//! the long-term store's sampler and federation read the registry's
//! sorted name/handle entries.
//!
//! Structured events ride alongside metrics through [`EventSink`]
//! (JSONL, one minimum level).
//!
//! Causal observability builds on the same crate: [`Tracer`] records a
//! span tree per poll cycle, [`FlightRecorder`] rings the last N cycles
//! for violation forensics (JSONL + Chrome `trace_event` export), and
//! [`QuantileBaseline`] ages streaming quantiles so samples can be
//! ranked against recent history.

mod alerts;
mod baseline;
mod events;
mod federation;
mod flight;
mod http;
mod json;
mod lts;
mod metrics;
mod otlp;
mod profile;
mod promql;
mod push;
mod record;
mod trace;

pub use alerts::{
    builtin_alert_rules, fingerprint, parse_alert_rules, transitions_to_json, ActiveAlert,
    AlertContext, AlertEngine, AlertRule, AlertScope, AlertSeverity, AlertState, AlertTransition,
    CmpOp, ResolvedAlert,
};
pub use baseline::{
    baselines_from_json, baselines_to_json, load_baselines, save_baselines, BaselineState,
    QuantileBaseline, DEFAULT_WINDOW,
};
pub use events::{push_json_str, Event, EventSink, FieldValue, Level};
pub use federation::{Shard, ShardRegistry};
pub use flight::{
    cycles_from_jsonl, enforce_retention, to_chrome_trace, to_jsonl, validate_chrome_trace,
    write_snapshot, ChromeTraceStats, CycleTrace, FlightRecorder, RetentionPolicy,
    SampleAnnotation, DEFAULT_FLIGHT_CAPACITY,
};
pub use http::{http_get, EventSource, HttpRequest, HttpResponse, HttpRoute, HttpServer, Router};
pub use json::{parse_json, JsonError, JsonValue, MAX_JSON_DEPTH};
pub use lts::{
    compact_store, decode_segment_v2, decode_segment_v2_header, downsample, encode_segment_v2,
    fold_series_range, hist_delta, json_escape, parse_range, report_flush, selector_matches,
    store_stats, verify_store, CompactReport, FlushReport, LtsConfig, LtsCounters, LtsReader,
    LtsRetention, LtsStore, Point, PointValue, RangeFold, RegistrySampler, Resolution,
    ResolutionStat, RetentionDeletion, SegmentCodec, SegmentHeader, SegmentStat, SegmentStats,
    SeriesInfo, SeriesKind, StoreStats, VerifyReport,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramState, HistogramTimer, BUCKETS};
pub use otlp::{to_otlp, validate_otlp, OtlpStats, OTLP_SCOPE, OTLP_SERVICE};
pub use profile::{profile_response, ProfileHub, DEFAULT_PROFILE_WINDOW};
pub use promql::{
    api_query_outcome, api_query_response, check_query, fmt_value, parse_duration,
    parse_series_name, query_error_json, resolution_for_step, wants_stats, LtsSource, MatrixSeries,
    PromSeries, QueryEngine, QueryOutcome, QueryResult, QueryStats, RegistrySource, Sample,
    SeriesFilter, SeriesSource, LOOKBACK_FLOOR_SECS, MAX_RANGE_STEPS,
};
pub use push::{
    parse_push_url, parse_webhook_url, OtlpPusher, PushConfig, PushCounters, PushTarget,
};
pub use record::{
    evaluate_record_rules, parse_record_rules, RecordReport, RecordRule, RecordingCounters,
};
pub use trace::{SpanGuard, SpanId, SpanRecord, TraceId, Tracer};

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// A named collection of metrics. Lookup takes a lock; recording through
/// a returned handle does not.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Registry::default())
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, creating it on first use.
    /// Convention: time histograms are nanoseconds and named `*_ns`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Calls `f` with the name and handle of every counter, in name
    /// order, under the registry's read lock. Nothing is copied, so a
    /// caller refreshing its own state from the registry allocates only
    /// for names it has not seen. `f` must not register a metric: that
    /// takes the write lock.
    pub fn visit_counters(&self, mut f: impl FnMut(&str, &Counter)) {
        for (name, c) in self.counters.read().iter() {
            f(name, c);
        }
    }

    /// [`Registry::visit_counters`] for gauges.
    pub fn visit_gauges(&self, mut f: impl FnMut(&str, &Gauge)) {
        for (name, g) in self.gauges.read().iter() {
            f(name, g);
        }
    }

    /// [`Registry::visit_counters`] for histograms.
    pub fn visit_histograms(&self, mut f: impl FnMut(&str, &Histogram)) {
        for (name, h) in self.histograms.read().iter() {
            f(name, h);
        }
    }

    /// Name/handle pairs of every counter, sorted by name. Handles are
    /// cheap clones sharing the live cells.
    pub fn counter_entries(&self) -> Vec<(String, Counter)> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Name/handle pairs of every gauge, sorted by name.
    pub fn gauge_entries(&self) -> Vec<(String, Gauge)> {
        self.gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Name/handle pairs of every histogram, sorted by name.
    pub fn histogram_entries(&self) -> Vec<(String, Histogram)> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Folds another registry's metrics into this one by name: counter
    /// and gauge values are added, histogram buckets merged. The basis
    /// of shard federation — merging K shard registries preserves
    /// counter sums and histogram totals exactly.
    pub fn merge_from(&self, other: &Registry) {
        for (name, c) in other.counter_entries() {
            self.counter(&name).add(c.get());
        }
        for (name, g) in other.gauge_entries() {
            self.gauge(&name).add(g.get());
        }
        for (name, h) in other.histogram_entries() {
            self.histogram(&name).merge_from(&h);
        }
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Histograms are exposed as native Prometheus histograms —
    /// cumulative `*_bucket{le="..."}` series over the log-bucketed
    /// boundaries plus `*_sum` and `*_count` — so Prometheus computes
    /// quantiles server-side; `*_min`/`*_max` ride along as untyped
    /// convenience series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counter_entries() {
            let (base, series) = split_labeled_name(&name);
            let _ = writeln!(out, "# TYPE {base} counter");
            let _ = writeln!(out, "{series} {}", c.get());
        }
        for (name, g) in self.gauge_entries() {
            let (base, series) = split_labeled_name(&name);
            let _ = writeln!(out, "# TYPE {base} gauge");
            let _ = writeln!(out, "{series} {}", g.get());
        }
        for (name, h) in self.histogram_entries() {
            let (base, series) = split_labeled_name(&name);
            let _ = writeln!(out, "# TYPE {base} histogram");
            render_histogram_into(&mut out, &base, None, embedded_labels(&base, &series), &h);
        }
        out
    }
}

/// Writes one histogram's Prometheus exposition lines (`_bucket`,
/// `_sum`, `_count`, `_min`, `_max`), optionally stamped with a
/// `shard="..."` label and/or the label body embedded in the registry
/// key (e.g. `phase="monitor.cycle"`). The `# TYPE` header is the
/// caller's, so federated output can group several label sets under
/// one family.
pub(crate) fn render_histogram_into(
    out: &mut String,
    name: &str,
    shard: Option<&str>,
    labels: &str,
    h: &Histogram,
) {
    let label = |extra: &str| -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(s) = shard {
            parts.push(format!("shard=\"{}\"", escape_label_value(s)));
        }
        if !labels.is_empty() {
            parts.push(labels.to_string());
        }
        if !extra.is_empty() {
            parts.push(extra.to_string());
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    };
    let buckets = h.cumulative_buckets();
    let count = h.count();
    for &(le, cum) in &buckets {
        let _ = writeln!(out, "{name}_bucket{} {cum}", label(&format!("le=\"{le}\"")));
    }
    // `+Inf` must equal `_count`; concurrent recording can leave the
    // bucket walk a sample behind, so take the larger of the two.
    let total = count.max(buckets.last().map(|&(_, c)| c).unwrap_or(0));
    let _ = writeln!(out, "{name}_bucket{} {total}", label("le=\"+Inf\""));
    let _ = writeln!(out, "{name}_sum{} {}", label(""), h.sum());
    let _ = writeln!(out, "{name}_count{} {total}", label(""));
    let _ = writeln!(out, "{name}_min{} {}", label(""), h.min());
    let _ = writeln!(out, "{name}_max{} {}", label(""), h.max());
}

/// Escapes a Prometheus label value (backslash, quote, newline).
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    push_label_value(&mut out, v);
    out
}

/// Appends `v` to `out` escaped as [`escape_label_value`] does, growing
/// `out` and allocating nothing else.
pub(crate) fn push_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Splits a registry key that embeds a label set — e.g.
/// `netqos_build_info{version="0.1.0"}` — into `(base, series)`:
/// the sanitized base name for `# TYPE` headers and the full series
/// string for sample lines. Keys without a well-formed `{...}` suffix
/// are sanitized whole (both halves equal).
pub(crate) fn split_labeled_name(name: &str) -> (String, String) {
    if let (Some(open), true) = (name.find('{'), name.ends_with('}')) {
        let base = &name[..open];
        let labels = &name[open..];
        if !base.is_empty() && labels.len() > 2 {
            let base = sanitize_metric_name(base);
            return (base.clone(), format!("{base}{labels}"));
        }
    }
    let sanitized = sanitize_metric_name(name);
    (sanitized.clone(), sanitized)
}

/// The label body embedded in a `split_labeled_name` result —
/// `phase="monitor.cycle"` from `base{phase="monitor.cycle"}` — or `""`
/// for plain names.
pub(crate) fn embedded_labels<'a>(base: &str, series: &'a str) -> &'a str {
    if series.len() > base.len() {
        &series[base.len() + 1..series.len() - 1]
    } else {
        ""
    }
}

/// Replaces characters Prometheus forbids in metric names.
fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The process-wide registry. Library crates that have no natural place
/// to thread a registry through (light counters in sim/spec/topology)
/// record here; services with deterministic tests carry their own
/// `Arc<Registry>` instead.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("requests_total").get(), 3);

        let g = reg.gauge("depth");
        g.set(5);
        g.dec();
        assert_eq!(reg.gauge("depth").get(), 4);

        let h = reg.histogram("rtt_ns");
        h.record(100);
        assert_eq!(reg.histogram("rtt_ns").count(), 1);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter("netqos_polls_total").add(7);
        reg.gauge("netqos_queue_depth").set(3);
        let h = reg.histogram("netqos_tick_ns");
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE netqos_polls_total counter"));
        assert!(text.contains("netqos_polls_total 7"));
        assert!(text.contains("# TYPE netqos_queue_depth gauge"));
        assert!(text.contains("netqos_queue_depth 3"));
        assert!(text.contains("# TYPE netqos_tick_ns histogram"));
        assert!(text.contains("netqos_tick_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("netqos_tick_ns_count 5"));
        assert!(text.contains("netqos_tick_ns_sum 1100"));
    }

    #[test]
    fn histogram_exposition_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ns");
        for v in [1u64, 1, 2, 500] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        // Exact sub-linear boundaries, cumulative counts, +Inf == count.
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"2\"} 3"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_ns_sum 504"), "{text}");
        // Bucket `le` boundaries ascend down the rendering.
        let les: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix("lat_ns_bucket{le=\""))
            .filter_map(|l| l.split('"').next())
            .filter_map(|v| v.parse().ok())
            .collect();
        assert!(les.windows(2).all(|w| w[0] < w[1]), "{les:?}");
    }

    #[test]
    fn merge_from_adds_and_folds() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("polls").add(3);
        b.counter("polls").add(4);
        b.counter("only_b").inc();
        a.gauge("depth").set(2);
        b.gauge("depth").set(5);
        a.histogram("lat").record(10);
        b.histogram("lat").record(30);
        a.merge_from(&b);
        assert_eq!(a.counter("polls").get(), 7);
        assert_eq!(a.counter("only_b").get(), 1);
        assert_eq!(a.gauge("depth").get(), 7);
        assert_eq!(a.histogram("lat").count(), 2);
        assert_eq!(a.histogram("lat").sum(), 40);
    }

    #[test]
    fn sanitizes_bad_metric_names() {
        let reg = Registry::new();
        reg.counter("poll.rtt-total").inc();
        assert!(reg.render_prometheus().contains("poll_rtt_total 1"));
    }

    #[test]
    fn labeled_names_render_as_series_with_base_type() {
        let reg = Registry::new();
        reg.gauge("netqos_build_info{version=\"0.1.0\",profile=\"release\"}")
            .set(1);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE netqos_build_info gauge"), "{text}");
        assert!(
            text.contains("netqos_build_info{version=\"0.1.0\",profile=\"release\"} 1"),
            "{text}"
        );
        // A stray brace without the closing form is sanitized away.
        let (base, series) = split_labeled_name("weird{name");
        assert_eq!(base, "weird_name");
        assert_eq!(series, "weird_name");
    }

    #[test]
    fn entries_are_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("zzz").inc();
        reg.counter("aaa").inc();
        let names: Vec<_> = reg.counter_entries().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aaa".to_string(), "zzz".to_string()]);
    }
}
