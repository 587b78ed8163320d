//! Self-telemetry for the netqos monitor — the monitor that monitors the
//! monitor.
//!
//! A [`Registry`] holds named [`Counter`]s, [`Gauge`]s, and streaming
//! [`Histogram`]s. Handles are `Arc`-backed and cheap to clone, so hot
//! paths fetch their handle once and record lock-free afterwards.
//! A registry is read only by walking it ([`Registry::visit_counters`] and
//! its kin), in name order: the alert engine, the long-term store's
//! sampler, the live query source and the one text exposition writer do.
//! That writer, [`Registry::render_prometheus`], renders `/metrics`,
//! `netqos stats` and the `--telemetry` files.
//!
//! Structured events ride alongside metrics through [`EventSink`]
//! (JSONL, one minimum level).
//!
//! Causal observability builds on the same crate: [`Tracer`] records a
//! span tree per poll cycle, [`FlightRecorder`] rings the last N cycles
//! for violation forensics (JSONL + Chrome `trace_event` export) and for
//! [`PhaseProfile`], which folds them into `/profile`'s phase tree, and
//! [`QuantileBaseline`] ages streaming quantiles so samples can be
//! ranked against recent history.

mod alerts;
mod baseline;
mod events;
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
    store_stats, verify_store, CompactReport, FlushError, FlushReport, LtsConfig, LtsCounters,
    LtsReader, LtsRetention, LtsStore, Point, PointValue, RangeFold, RegistrySampler, Resolution,
    ResolutionStat, RetentionDeletion, SegmentCodec, SegmentHeader, SegmentStat, SegmentStats,
    SeriesInfo, SeriesKind, StoreStats, VerifyReport,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramState, HistogramTimer, BUCKETS};
pub use otlp::{to_otlp, validate_otlp, OtlpStats, OTLP_SCOPE, OTLP_SERVICE};
pub use profile::{profile_response, PhaseProfile, MAX_PHASE_DEPTH};
pub use promql::{
    api_query_outcome, api_query_response, check_query, fmt_value, parse_duration,
    parse_series_name, query_error_json, resolution_for_step, wants_stats, LtsSource, MatrixSeries,
    PromSeries, QueryEngine, QueryError, QueryOutcome, QueryResult, QueryStats, RegistrySource,
    Sample, SeriesFilter, SeriesSource, LOOKBACK_FLOOR_SECS, MAX_RANGE_STEPS,
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
use std::fmt::{Display, Write as _};
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

    /// Renders every metric in the Prometheus text exposition format:
    /// the one writer behind `/metrics`, `netqos stats` and the
    /// `--telemetry` files. Counters, then gauges, then histograms, each
    /// in name order; a family's `# TYPE` line comes once, before its
    /// first key. Histograms are exposed as native Prometheus histograms —
    /// cumulative `*_bucket{le="..."}` series over the log-bucketed
    /// boundaries plus `*_sum` and `*_count` — so Prometheus computes
    /// quantiles server-side; `*_min`/`*_max` ride along as untyped
    /// convenience series.
    ///
    /// A read lock is held only while names and values (a histogram's
    /// handle) are copied. The tick thread registers metrics lazily, so
    /// formatting under the lock would stall it.
    pub fn render_prometheus(&self) -> String {
        let (mut counters, mut gauges, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
        self.visit_counters(|name, c| counters.push((name.to_string(), c.get())));
        self.visit_gauges(|name, g| gauges.push((name.to_string(), g.get())));
        self.visit_histograms(|name, h| histograms.push((name.to_string(), h.clone())));
        let mut out = String::new();
        write_kind(&mut out, "counter", &counters, write_scalar);
        write_kind(&mut out, "gauge", &gauges, write_scalar);
        write_kind(&mut out, "histogram", &histograms, render_histogram_into);
        out
    }
}

/// One kind's families for [`Registry::render_prometheus`]: `sample`
/// writes a key's value (name, embedded labels).
fn write_kind<V>(
    out: &mut String,
    kind: &str,
    readings: &[(String, V)],
    sample: impl Fn(&mut String, &str, &str, &V),
) {
    let mut family: Option<String> = None;
    for (key, v) in readings {
        let (base, labels) = split_labeled_name(key);
        if family.as_deref() != Some(&base) {
            let _ = writeln!(out, "# TYPE {base} {kind}");
        }
        sample(out, &base, labels, v);
        family = Some(base);
    }
}

/// A counter's or gauge's sample line.
fn write_scalar(out: &mut String, name: &str, labels: &str, v: &impl Display) {
    out.push_str(name);
    push_labels(out, labels, "");
    let _ = writeln!(out, " {v}");
}

/// Writes one histogram's Prometheus exposition lines (`_bucket`,
/// `_sum`, `_count`, `_min`, `_max`), stamped with the label body
/// embedded in the registry key (e.g. `phase="monitor.cycle"`), if any.
/// The `# TYPE` header is the caller's.
fn render_histogram_into(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let mut line = |suffix: &str, le: &str, v: u64| {
        let _ = write!(out, "{name}{suffix}");
        push_labels(out, labels, le);
        let _ = writeln!(out, " {v}");
    };
    let buckets = h.cumulative_buckets();
    for &(le, cum) in &buckets {
        line("_bucket", &format!("le=\"{le}\""), cum);
    }
    // `+Inf` must equal `_count`; concurrent recording can leave the
    // bucket walk a sample behind, so take the larger of the two.
    let total = h.count().max(buckets.last().map(|&(_, c)| c).unwrap_or(0));
    line("_bucket", "le=\"+Inf\"", total);
    line("_sum", "", h.sum());
    line("_count", "", total);
    line("_min", "", h.min());
    line("_max", "", h.max());
}

/// Appends a sample's label set: the key's embedded `labels`, then `le`,
/// comma-joined in braces, or nothing when both are absent.
fn push_labels(out: &mut String, labels: &str, le: &str) {
    let mut sep = '{';
    for part in [labels, le] {
        if !part.is_empty() {
            out.push(sep);
            out.push_str(part);
            sep = ',';
        }
    }
    if sep == ',' {
        out.push('}');
    }
}

/// Escapes a Prometheus label value (backslash, quote, newline).
pub fn escape_label_value(v: &str) -> String {
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
/// `netqos_build_info{version="0.1.0"}` — into the sanitized base name
/// for `# TYPE` headers and sample names, and the label body
/// (`version="0.1.0"`). Keys without a well-formed `{...}` suffix are
/// sanitized whole, with no labels.
fn split_labeled_name(name: &str) -> (String, &str) {
    if let (Some(open), true) = (name.find('{'), name.ends_with('}')) {
        let (base, labels) = (&name[..open], &name[open + 1..name.len() - 1]);
        if !base.is_empty() && !labels.is_empty() {
            return (sanitize_metric_name(base), labels);
        }
    }
    (sanitize_metric_name(name), "")
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
    fn a_family_of_several_label_sets_has_one_type_line() {
        let reg = Registry::new();
        reg.histogram("netqos_tick_phase_ns{phase=\"a\"}").record(1);
        reg.histogram("netqos_tick_phase_ns{phase=\"b\"}").record(2);
        reg.gauge("netqos_build_info{version=\"1\"}").set(1);
        reg.gauge("netqos_build_info{version=\"2\"}").set(1);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE netqos_tick_phase_ns ").count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE netqos_build_info ").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("netqos_tick_phase_ns_count{phase=\"b\"} 1"),
            "{text}"
        );
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
        assert_eq!(split_labeled_name("weird{name"), ("weird_name".into(), ""));
    }

    #[test]
    fn walks_are_in_name_order() {
        let reg = Registry::new();
        reg.counter("zzz").inc();
        reg.counter("aaa").inc();
        let mut names = Vec::new();
        reg.visit_counters(|name, _| names.push(name.to_string()));
        assert_eq!(names, ["aaa", "zzz"]);
    }
}
