//! Live export plane: the status shared between the tick loop and the
//! HTTP endpoints.
//!
//! [`LiveStatus`] is the bridge between the single-threaded
//! [`MonitoringService`](crate::service::MonitoringService) and the
//! telemetry crate's [`HttpServer`](netqos_telemetry::HttpServer), whose
//! handlers run on connection threads: every tick publishes its outcome
//! (wall-clock instant, a pre-rendered JSON digest of path bandwidths
//! and baselines) into atomics and a mutex-guarded string, and the
//! router built by [`build_router`] reads them without ever touching the
//! service. Three endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition of the shared registry;
//! * `GET /healthz` — tick-loop liveness: age of the last tick against a
//!   staleness budget (`503` when stale, `200` otherwise);
//! * `GET /snapshot` — the latest tick digest (paths, baselines, flight
//!   recorder state) as JSON; with `Accept:
//!   text/event-stream` (or `?follow=1`) it upgrades to a server-sent
//!   event stream delivering one event per tick, `id:` = tick number;
//! * `GET /alerts` — the alert engine's document (active alerts with
//!   bottleneck diagnoses, resolved history); SSE follow mode streams a
//!   fresh document whenever a transition lands, `id:` = transition
//!   epoch.
//!
//! [`shard_for`] makes one such plane a federation
//! [`Shard`](netqos_telemetry::Shard) answered by its own router, so N of
//! these planes can sit behind one merged export surface (`netqos
//! federate`).

use netqos_telemetry::{
    api_query_outcome, profile_response, wants_stats, EventSource, FlightRecorder, HttpRequest,
    HttpResponse, HttpRoute, LtsReader, LtsSource, QueryEngine, Registry, RegistrySource, Router,
    SeriesSource, Shard,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Nanoseconds since the Unix epoch, saturating (never panics even on a
/// pre-1970 clock).
pub fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Default staleness budget for `/healthz`: a tick loop quiet for longer
/// than this is reported unhealthy (unless it finished cleanly).
pub const DEFAULT_STALE_AFTER_NS: u64 = 2_000_000_000;

/// Tick-loop status shared with HTTP handler threads.
pub struct LiveStatus {
    started_unix_ns: u64,
    stale_after_ns: AtomicU64,
    last_tick_unix_ns: AtomicU64,
    ticks: AtomicU64,
    finished: AtomicBool,
    snapshot_json: Mutex<String>,
    alerts_json: Mutex<String>,
    alerts_pending: AtomicU64,
    alerts_firing: AtomicU64,
    // Bumps only when a tick produced at least one alert transition, so
    // SSE followers of /alerts wake on lifecycle edges, not every tick.
    alerts_epoch: AtomicU64,
}

impl LiveStatus {
    /// A fresh status anchored at the current wall clock.
    pub fn new() -> Arc<Self> {
        Arc::new(LiveStatus {
            started_unix_ns: unix_now_ns(),
            stale_after_ns: AtomicU64::new(DEFAULT_STALE_AFTER_NS),
            last_tick_unix_ns: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            snapshot_json: Mutex::new(String::from("{\"ticks\":0,\"paths\":[]}")),
            alerts_json: Mutex::new(String::from(
                "{\"tick\":0,\"pending\":0,\"firing\":0,\"alerts\":[],\"resolved\":[]}",
            )),
            alerts_pending: AtomicU64::new(0),
            alerts_firing: AtomicU64::new(0),
            alerts_epoch: AtomicU64::new(0),
        })
    }

    /// Adjusts the `/healthz` staleness budget (e.g. to a multiple of
    /// the loop's wall-clock pacing). Zero means "never stale".
    pub fn set_stale_after_ns(&self, ns: u64) {
        self.stale_after_ns.store(ns, Ordering::Relaxed);
    }

    /// Publishes one tick's outcome and hands back the document it
    /// replaces, for the caller to render the next one into.
    pub fn record_tick(&self, unix_ns: u64, snapshot_json: String) -> String {
        self.last_tick_unix_ns.store(unix_ns, Ordering::Relaxed);
        // Snapshot first, tick count second: an SSE poller that sees
        // tick N is guaranteed the snapshot is at least as new as N.
        let retired = std::mem::replace(&mut *self.snapshot_json.lock(), snapshot_json);
        self.ticks.fetch_add(1, Ordering::Relaxed);
        retired
    }

    /// Publishes the alert engine's state after one evaluation. The
    /// epoch (the `/alerts` SSE cursor) advances only when `transitions`
    /// is non-zero, so followers see exactly the lifecycle edges. Hands
    /// back the document it replaces, as [`LiveStatus::record_tick`] does.
    pub fn record_alerts(
        &self,
        alerts_json: String,
        pending: u64,
        firing: u64,
        transitions: u64,
    ) -> String {
        let retired = std::mem::replace(&mut *self.alerts_json.lock(), alerts_json);
        self.alerts_pending.store(pending, Ordering::Relaxed);
        self.alerts_firing.store(firing, Ordering::Relaxed);
        if transitions > 0 {
            self.alerts_epoch.fetch_add(1, Ordering::Relaxed);
        }
        retired
    }

    /// Currently `(pending, firing)` alert counts.
    pub fn alert_counts(&self) -> (u64, u64) {
        (
            self.alerts_pending.load(Ordering::Relaxed),
            self.alerts_firing.load(Ordering::Relaxed),
        )
    }

    /// The latest alert document without response framing.
    pub fn alerts_json(&self) -> String {
        self.alerts_json.lock().clone()
    }

    /// The `/alerts` response: the latest published alert document.
    pub fn alerts_response(&self) -> HttpResponse {
        let mut body = self.alerts_json.lock().clone();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        HttpResponse::json(200, body)
    }

    /// Marks the run as cleanly finished: `/healthz` stays `200` even
    /// though no further ticks will arrive, and SSE followers are
    /// released.
    pub fn mark_finished(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }

    /// Whether the run finished cleanly.
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// Ticks published so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// The `/healthz` response as of `now_unix_ns`.
    pub fn healthz(&self, now_unix_ns: u64) -> HttpResponse {
        let ticks = self.ticks();
        let last = self.last_tick_unix_ns.load(Ordering::Relaxed);
        let reference = if ticks == 0 {
            self.started_unix_ns
        } else {
            last
        };
        let age_ns = now_unix_ns.saturating_sub(reference);
        let budget = self.stale_after_ns.load(Ordering::Relaxed);
        let finished = self.finished.load(Ordering::Relaxed);
        let status = if finished {
            "finished"
        } else if budget > 0 && age_ns > budget {
            "stale"
        } else if ticks == 0 {
            "starting"
        } else {
            "ok"
        };
        let code = if status == "stale" { 503 } else { 200 };
        let (pending, firing) = self.alert_counts();
        let body = format!(
            "{{\"status\":\"{status}\",\"ticks\":{ticks},\
             \"last_tick_age_ms\":{},\"stale_after_ms\":{},\
             \"alerts\":{{\"pending\":{pending},\"firing\":{firing}}}}}\n",
            age_ns / 1_000_000,
            budget / 1_000_000,
        );
        HttpResponse::json(code, body)
    }

    /// The `/snapshot` response: the latest published tick digest.
    pub fn snapshot_response(&self) -> HttpResponse {
        let mut body = self.snapshot_json.lock().clone();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        HttpResponse::json(200, body)
    }

    /// The latest snapshot document without response framing (what an
    /// SSE event or a federation digest carries).
    pub fn snapshot_json(&self) -> String {
        self.snapshot_json.lock().clone()
    }
}

/// `/snapshot?follow=1` streams ticks: the cursor is the tick count, so
/// a follower never sees the same tick twice and picks up exactly where
/// its last event left off.
impl EventSource for LiveStatus {
    fn next_after(&self, cursor: u64) -> Option<(u64, String)> {
        let ticks = self.ticks();
        if ticks <= cursor {
            return None;
        }
        Some((ticks, self.snapshot_json()))
    }

    fn finished(&self) -> bool {
        self.is_finished()
    }
}

/// `/alerts?follow=1` streams alert documents: the cursor is the
/// transition epoch, so followers wake exactly when an alert changes
/// state and a slow follower skips straight to the current document.
pub struct AlertsFollow(pub Arc<LiveStatus>);

impl EventSource for AlertsFollow {
    fn next_after(&self, cursor: u64) -> Option<(u64, String)> {
        let epoch = self.0.alerts_epoch.load(Ordering::Relaxed);
        if epoch <= cursor {
            return None;
        }
        Some((epoch, self.0.alerts_json()))
    }

    fn finished(&self) -> bool {
        self.0.is_finished()
    }
}

/// Default slow-query threshold: a `/api/v1/query` evaluation slower
/// than this is worth a response warning. 50 ms is two orders of
/// magnitude above a typical store scan; override it with
/// `--slow-query-ms`.
pub const SLOW_QUERY_NS: u64 = 50_000_000;

/// Serves one `/api/v1/query[_range]` request and instruments it:
/// `netqos_query_requests_total{endpoint,status}` counts outcomes, the
/// `netqos_query_eval_ns` histogram tracks wall-clock evaluation time,
/// and evaluations past `slow_query_ns` (default [`SLOW_QUERY_NS`]) carry
/// a `warnings` entry in the response body. A zero threshold flags every
/// evaluation.
pub fn instrumented_query_response(
    engine: &QueryEngine,
    registry: &Registry,
    req: &HttpRequest,
    range: bool,
    slow_query_ns: u64,
) -> HttpResponse {
    let endpoint = if range { "query_range" } else { "query" };
    let started = Instant::now();
    let outcome = api_query_outcome(engine, req, range, unix_now_ns() / 1_000_000_000);
    let elapsed_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let status = if outcome.is_ok() { "ok" } else { "bad_request" };
    registry
        .counter(&format!(
            "netqos_query_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}}"
        ))
        .inc();
    registry
        .histogram("netqos_query_eval_ns")
        .record(elapsed_ns);
    let slow = elapsed_ns >= slow_query_ns;
    match outcome {
        Ok(mut o) => {
            if slow {
                o.warnings.push(format!(
                    "slow query: `{}` took {} ms (threshold {} ms); {} series, {} points scanned, {} pushdown evals",
                    req.query_param("query").unwrap_or_default(),
                    elapsed_ns / 1_000_000,
                    slow_query_ns / 1_000_000,
                    o.stats.series,
                    o.stats.points_scanned,
                    o.stats.pushdown_evals,
                ));
            }
            HttpResponse::json(200, format!("{}\n", o.to_api_json_with(wants_stats(req))))
        }
        Err(resp) => resp,
    }
}

/// Everything [`build_router`] can wire into the export plane.
/// `registry` and `live` are mandatory; the rest default off.
pub struct RouterOptions {
    /// The registry behind `/metrics` and registry-backed queries.
    pub registry: Arc<Registry>,
    /// The tick-loop status behind `/healthz` and `/snapshot`.
    pub live: Arc<LiveStatus>,
    /// Long-term store the `/api/v1` queries read.
    pub lts: Option<LtsReader>,
    /// The flight ring `/profile` folds, a copy per request.
    pub profile: Option<Arc<FlightRecorder>>,
    /// Slow-query threshold for the `/api/v1` plane, nanoseconds.
    pub slow_query_ns: u64,
}

impl RouterOptions {
    /// The minimal plane: metrics, health, snapshot, alerts, and
    /// registry-backed `/api/v1` queries at the default slow-query
    /// threshold.
    pub fn new(registry: Arc<Registry>, live: Arc<LiveStatus>) -> RouterOptions {
        RouterOptions {
            registry,
            live,
            lts: None,
            profile: None,
            slow_query_ns: SLOW_QUERY_NS,
        }
    }
}

/// Builds the endpoint router for [`HttpServer::serve`]
/// (`netqos_telemetry::HttpServer`): `/metrics`, `/healthz`,
/// `/snapshot` and `/alerts` (buffered or SSE), `/profile` (when a flight
/// ring is attached: the tick-phase tree of the cycles it holds as JSON,
/// or folded stacks with `?format=folded`), `/api/v1/query` and
/// `/api/v1/query_range` (PromQL-subset evaluation over the store when
/// attached, else over the live registry), and `/` (a tiny index).
/// Unknown paths return `None` (404).
pub fn build_router(opts: RouterOptions) -> Arc<Router> {
    let source = query_source(&opts);
    router_over(opts, source)
}

/// The one source `/api/v1` reads, never both: with a store attached its
/// history is the query surface (the live registry feeds it anyway);
/// without one the registry's current values answer instant queries.
fn query_source(opts: &RouterOptions) -> Arc<dyn SeriesSource> {
    match &opts.lts {
        Some(reader) => Arc::new(LtsSource::new(reader.clone())),
        None => Arc::new(RegistrySource::new(opts.registry.clone())),
    }
}

/// [`build_router`] with its query source already derived.
fn router_over(opts: RouterOptions, source: Arc<dyn SeriesSource>) -> Arc<Router> {
    let RouterOptions {
        registry,
        live,
        profile,
        slow_query_ns,
        ..
    } = opts;
    let index = {
        let mut endpoints = vec!["/metrics", "/healthz", "/snapshot", "/alerts"];
        if profile.is_some() {
            endpoints.push("/profile");
        }
        endpoints.push("/api/v1/query");
        endpoints.push("/api/v1/query_range");
        let quoted: Vec<String> = endpoints.iter().map(|e| format!("\"{e}\"")).collect();
        format!("{{\"endpoints\":[{}]}}\n", quoted.join(","))
    };
    let engine = Arc::new(QueryEngine::new().with_source(None, source));
    Arc::new(move |req: &HttpRequest| match req.path.as_str() {
        "/metrics" => Some(HttpResponse::prometheus(registry.render_prometheus()).into()),
        "/healthz" => Some(live.healthz(unix_now_ns()).into()),
        "/snapshot" if req.wants_event_stream() => {
            Some(HttpRoute::EventStream(live.clone() as Arc<dyn EventSource>))
        }
        "/snapshot" => Some(live.snapshot_response().into()),
        "/alerts" if req.wants_event_stream() => Some(HttpRoute::EventStream(
            Arc::new(AlertsFollow(live.clone())) as Arc<dyn EventSource>,
        )),
        "/alerts" => Some(live.alerts_response().into()),
        "/profile" => Some(match &profile {
            Some(ring) => profile_response(&ring.snapshot(), req).into(),
            None => HttpResponse::json(
                404,
                "{\"error\":\"no profiler attached (run with --serve)\"}\n".into(),
            )
            .into(),
        }),
        "/api/v1/query" => {
            Some(instrumented_query_response(&engine, &registry, req, false, slow_query_ns).into())
        }
        "/api/v1/query_range" => {
            Some(instrumented_query_response(&engine, &registry, req, true, slow_query_ns).into())
        }
        "/" => Some(HttpResponse::json(200, index.clone()).into()),
        _ => None,
    })
}

/// Makes one export plane a federation member: the federation reads the
/// plane's own router, and its `/api/v1` engine reads the same source the
/// plane's queries do.
pub fn shard_for(name: impl Into<String>, opts: RouterOptions) -> Shard {
    let source = query_source(&opts);
    let registry = opts.registry.clone();
    Shard::new(name, registry, router_over(opts, source.clone())).with_promql(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_telemetry::parse_json;

    fn get(path: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            accept: String::new(),
        }
    }

    #[test]
    fn healthz_lifecycle() {
        let live = LiveStatus::new();
        let t0 = live.started_unix_ns;
        // Before any tick, within budget: starting.
        let r = live.healthz(t0 + 1_000_000);
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"status\":\"starting\""));
        // A tick arrives: ok.
        live.record_tick(t0 + 5_000_000, "{\"ticks\":1}".into());
        let r = live.healthz(t0 + 6_000_000);
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"status\":\"ok\""));
        // Budget exceeded: stale, 503.
        let r = live.healthz(t0 + 5_000_000 + DEFAULT_STALE_AFTER_NS + 1);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("\"status\":\"stale\""));
        // A clean finish overrides staleness.
        live.mark_finished();
        let r = live.healthz(t0 + 60 * DEFAULT_STALE_AFTER_NS);
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"status\":\"finished\""));
    }

    #[test]
    fn router_serves_all_endpoints() {
        let registry = Registry::new();
        registry.counter("netqos_monitor_ticks_total").add(3);
        let live = LiveStatus::new();
        live.record_tick(unix_now_ns(), "{\"ticks\":1,\"paths\":[]}".into());
        let router = build_router(RouterOptions::new(registry, live));
        let Some(HttpRoute::Response(metrics)) = router(&get("/metrics")) else {
            panic!("no /metrics route");
        };
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("netqos_monitor_ticks_total 3"));
        let Some(HttpRoute::Response(health)) = router(&get("/healthz")) else {
            panic!("no /healthz route");
        };
        assert_eq!(health.status, 200);
        let Some(HttpRoute::Response(snap)) = router(&get("/snapshot")) else {
            panic!("no /snapshot route");
        };
        assert!(parse_json(&snap.body).is_ok(), "snapshot must be JSON");
        assert!(router(&get("/nope")).is_none());
    }

    #[test]
    fn snapshot_follow_upgrades_to_event_stream() {
        let live = LiveStatus::new();
        let router = build_router(RouterOptions::new(Registry::new(), live.clone()));
        let mut req = get("/snapshot");
        req.query = "follow=1".into();
        assert!(matches!(router(&req), Some(HttpRoute::EventStream(_))));
        // Plain GET still buffers.
        assert!(matches!(
            router(&get("/snapshot")),
            Some(HttpRoute::Response(_))
        ));
    }

    #[test]
    fn event_source_cursor_tracks_ticks() {
        let live = LiveStatus::new();
        assert!(live.next_after(0).is_none(), "no tick yet");
        live.record_tick(unix_now_ns(), "{\"ticks\":1}".into());
        let (cursor, payload) = live.next_after(0).unwrap();
        assert_eq!(cursor, 1);
        assert_eq!(payload, "{\"ticks\":1}");
        assert!(live.next_after(cursor).is_none(), "tick 1 already seen");
        live.record_tick(unix_now_ns(), "{\"ticks\":2}".into());
        live.record_tick(unix_now_ns(), "{\"ticks\":3}".into());
        // A slow follower skips to the freshest tick rather than
        // replaying history.
        let (cursor, payload) = live.next_after(cursor).unwrap();
        assert_eq!(cursor, 3);
        assert_eq!(payload, "{\"ticks\":3}");
        assert!(!EventSource::finished(&*live));
        live.mark_finished();
        assert!(EventSource::finished(&*live));
    }

    #[test]
    fn alerts_endpoint_and_healthz_summary() {
        let live = LiveStatus::new();
        let router = build_router(RouterOptions::new(Registry::new(), live.clone()));
        // Empty engine state before the first evaluation.
        let Some(HttpRoute::Response(resp)) = router(&get("/alerts")) else {
            panic!("no /alerts route");
        };
        let doc = parse_json(&resp.body).unwrap();
        assert_eq!(doc.get("firing").and_then(|v| v.as_u64()), Some(0));
        // Publish an evaluation: /alerts and the /healthz summary update.
        live.record_alerts(
            "{\"tick\":3,\"pending\":1,\"firing\":2,\"alerts\":[],\"resolved\":[]}".into(),
            1,
            2,
            1,
        );
        let Some(HttpRoute::Response(resp)) = router(&get("/alerts")) else {
            panic!("no /alerts route");
        };
        assert!(resp.body.contains("\"firing\":2"), "{}", resp.body);
        let Some(HttpRoute::Response(health)) = router(&get("/healthz")) else {
            panic!("no /healthz route");
        };
        let doc = parse_json(&health.body).unwrap();
        let alerts = doc.get("alerts").unwrap();
        assert_eq!(alerts.get("pending").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(alerts.get("firing").and_then(|v| v.as_u64()), Some(2));
        // The index advertises /alerts; follow mode upgrades to SSE.
        let Some(HttpRoute::Response(index)) = router(&get("/")) else {
            panic!("no / route");
        };
        assert!(index.body.contains("/alerts"));
        let mut req = get("/alerts");
        req.query = "follow=1".into();
        assert!(matches!(router(&req), Some(HttpRoute::EventStream(_))));
    }

    #[test]
    fn alerts_follow_wakes_only_on_transitions() {
        let live = LiveStatus::new();
        let follow = AlertsFollow(live.clone());
        assert!(follow.next_after(0).is_none(), "no transition yet");
        // A transition-free evaluation refreshes the doc but not the epoch.
        live.record_alerts("{\"pending\":0,\"firing\":0}".into(), 0, 0, 0);
        assert!(follow.next_after(0).is_none());
        // A transition bumps the epoch and delivers the fresh document.
        live.record_alerts("{\"pending\":1,\"firing\":0}".into(), 1, 0, 1);
        let (cursor, payload) = follow.next_after(0).unwrap();
        assert_eq!(cursor, 1);
        assert!(payload.contains("\"pending\":1"));
        assert!(follow.next_after(cursor).is_none(), "epoch already seen");
        // Two more transition ticks: a slow follower skips to freshest.
        live.record_alerts("{\"pending\":0,\"firing\":1}".into(), 0, 1, 2);
        live.record_alerts("{\"pending\":0,\"firing\":0}".into(), 0, 0, 1);
        let (cursor, payload) = follow.next_after(cursor).unwrap();
        assert_eq!(cursor, 3);
        assert!(payload.contains("\"firing\":0"));
    }

    #[test]
    fn shard_for_reflects_live_state() {
        let registry = Registry::new();
        registry.counter("netqos_monitor_ticks_total").inc();
        let live = LiveStatus::new();
        live.record_tick(unix_now_ns(), "{\"ticks\":1,\"paths\":[]}".into());
        live.record_alerts(
            "{\"tick\":1,\"pending\":0,\"firing\":1,\"alerts\":[],\"resolved\":[]}".into(),
            0,
            1,
            1,
        );
        let shard = shard_for("subnet-a", RouterOptions::new(registry, live.clone()));
        assert_eq!(shard.name(), "subnet-a");
        let fed = netqos_telemetry::ShardRegistry::new();
        fed.register(shard).unwrap();
        let text = fed.render_merged_prometheus();
        assert!(
            text.contains("netqos_monitor_ticks_total{shard=\"subnet-a\"} 1"),
            "{text}"
        );
        let health = fed.healthz_response();
        assert_eq!(health.status, 200, "{}", health.body);
        let snap = fed.snapshot_response();
        let doc = parse_json(&snap.body).unwrap();
        let shards = doc.get("shards").and_then(|v| v.as_array()).unwrap();
        assert_eq!(
            shards[0]
                .get("snapshot")
                .and_then(|s| s.get("ticks"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        // The shard's own /alerts feeds the merged federation view.
        let alerts = fed.alerts_response();
        let doc = parse_json(&alerts.body).unwrap();
        assert_eq!(doc.get("firing").and_then(|v| v.as_u64()), Some(1));
    }
}
