//! Shard federation: one export plane over N monitoring shards.
//!
//! A production deployment runs one `MonitoringService` per subnet (one
//! spec file each); centralized observability should receive *mergeable
//! summaries* from them, not raw streams. Each shard hands the
//! [`ShardRegistry`] its metrics [`Registry`] and its monitor's own
//! endpoint [`Router`], and optionally the [`SeriesSource`] its queries
//! read. The federation answers from those at scrape time:
//!
//! * `/metrics` — every shard's series labelled `shard="..."`, plus an
//!   unlabelled aggregate per family (counters and gauges summed,
//!   log-bucketed histograms merged bucket-by-bucket, rendered with
//!   full `_bucket{le="..."}` exposition);
//! * `/healthz` — `503` unless every shard's own `/healthz` answers
//!   `200`, with each shard's body as its detail;
//! * `/snapshot` and `/alerts` — every shard's own body in one array,
//!   `/alerts` with the pending/firing counts summed;
//! * `/profile?shard=NAME` — the request, unchanged, to that shard;
//! * `/api/v1/query[_range]` — one query engine over every shard's
//!   source.
//!
//! Merging happens at scrape time from live handles — no copies are
//! kept between scrapes, and a scrape never blocks a shard's hot path
//! (reads are the same relaxed atomic loads the shard itself uses).

use crate::http::{HttpRequest, HttpResponse, HttpRoute, Router};
use crate::lts::json_escape;
use crate::promql::{api_query_response, QueryEngine, SeriesSource};
use crate::{write_exposition, Registry};
use parking_lot::RwLock;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A member of the federation: a name, its metrics registry, its
/// monitor's own endpoint router, and the series source the federated
/// `/api/v1` engine reads for it, if any.
pub struct Shard {
    name: String,
    registry: Arc<Registry>,
    router: Arc<Router>,
    promql: Option<Arc<dyn SeriesSource>>,
}

impl Shard {
    /// A shard answered by `router`: the federation embeds its
    /// `/healthz`, `/snapshot` and `/alerts` bodies and forwards
    /// `/profile?shard=` requests to it.
    pub fn new(name: impl Into<String>, registry: Arc<Registry>, router: Arc<Router>) -> Self {
        Shard {
            name: name.into(),
            registry,
            router,
            promql: None,
        }
    }

    /// Attaches the shard's query-engine series source (usually an
    /// `LtsSource` over its long-term store). Shards with a source are
    /// fanned out to by the federated `/api/v1/query` engine; shards
    /// without one are reported in the response `warnings`.
    pub fn with_promql(mut self, source: Arc<dyn SeriesSource>) -> Self {
        self.promql = Some(source);
        self
    }

    /// A shard that is always healthy and has empty snapshot and alert
    /// documents — for registries without a live tick loop behind them
    /// (tests, batch jobs).
    pub fn metrics_only(name: impl Into<String>, registry: Arc<Registry>) -> Self {
        let router: Arc<Router> = Arc::new(|req: &HttpRequest| {
            let body = match req.path.as_str() {
                "/healthz" => "{\"status\":\"ok\"}",
                "/snapshot" | "/alerts" => "{}",
                _ => return None,
            };
            Some(HttpResponse::json(200, body.into()).into())
        });
        Shard::new(name, registry, router)
    }

    /// The shard's name (the `shard` label value).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shard's own buffered answer to `GET path`; a path it does not
    /// answer, or streams, reads as a 404.
    fn get(&self, path: &str) -> HttpResponse {
        let req = HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            accept: String::new(),
        };
        match (self.router)(&req) {
            Some(HttpRoute::Response(resp)) => resp,
            _ => HttpResponse::json(404, "{}".into()),
        }
    }
}

/// The federation: a set of registered shards and the merged read
/// plane over them.
#[derive(Default)]
pub struct ShardRegistry {
    shards: RwLock<Vec<Shard>>,
    scrapes: AtomicU64,
}

impl ShardRegistry {
    /// An empty federation.
    pub fn new() -> Arc<Self> {
        Arc::new(ShardRegistry::default())
    }

    /// Adds a shard. Duplicate names are rejected — the `shard` label
    /// must identify exactly one member.
    pub fn register(&self, shard: Shard) -> Result<(), String> {
        let mut shards = self.shards.write();
        if shards.iter().any(|s| s.name == shard.name) {
            return Err(format!("duplicate shard name {:?}", shard.name));
        }
        shards.push(shard);
        Ok(())
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.shards.read().len()
    }

    /// Whether no shards are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Combined `/metrics` scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Renders the combined Prometheus exposition: the federation's own
    /// `netqos_federation_*` meta-series, then `write_exposition`
    /// over every shard with the total — per-shard series labelled
    /// `shard="..."`, each followed by its unlabelled aggregate.
    pub fn render_merged_prometheus(&self) -> String {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        let shards = self.shards.read();
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE netqos_federation_shards gauge");
        let _ = writeln!(out, "netqos_federation_shards {}", shards.len());
        let _ = writeln!(out, "# TYPE netqos_federation_scrapes_total counter");
        let _ = writeln!(
            out,
            "netqos_federation_scrapes_total {}",
            self.scrapes.load(Ordering::Relaxed)
        );
        let members: Vec<_> = (shards.iter())
            .map(|s| (Some(s.name.as_str()), &*s.registry))
            .collect();
        write_exposition(&mut out, &members, true);
        out
    }

    /// One `{"shard":NAME,…}` entry per shard, comma-joined, from each
    /// shard's own answer to `GET path` (one call per shard); `fields`
    /// writes the rest of the entry.
    fn entries(&self, path: &str, mut fields: impl FnMut(&mut String, &HttpResponse)) -> String {
        let mut out = String::new();
        for (i, shard) in self.shards.read().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"shard\":{},", json_escape(&shard.name));
            fields(&mut out, &shard.get(path));
            out.push('}');
        }
        out
    }

    /// The federated `/alerts`: summed pending/firing counts over every
    /// shard's alert engine, with the per-shard documents embedded.
    pub fn alerts_response(&self) -> HttpResponse {
        let (mut pending, mut firing) = (0u64, 0u64);
        let entries = self.entries("/alerts", |out, resp| {
            if let Ok(doc) = crate::parse_json(&resp.body) {
                pending += doc.get("pending").and_then(|v| v.as_u64()).unwrap_or(0);
                firing += doc.get("firing").and_then(|v| v.as_u64()).unwrap_or(0);
            }
            let _ = write!(out, "\"alerts\":{}", embed_json(&resp.body));
        });
        HttpResponse::json(
            200,
            format!("{{\"pending\":{pending},\"firing\":{firing},\"shards\":[{entries}]}}\n"),
        )
    }

    /// The federated `/profile`: tick-phase profiles are per-shard, so
    /// the request must pick one with `shard=<name>` and goes to that
    /// shard's router unchanged (`format=json|folded` included). Without
    /// `shard=`, a 400 lists every shard.
    pub fn profile_dispatch(&self, req: &HttpRequest) -> Option<HttpRoute> {
        let shards = self.shards.read();
        let Some(name) = req.query_param("shard") else {
            let names: Vec<String> = shards.iter().map(|s| json_escape(&s.name)).collect();
            let body = format!(
                "{{\"error\":\"missing shard= parameter\",\"shards\":[{}]}}\n",
                names.join(",")
            );
            return Some(HttpResponse::json(400, body).into());
        };
        match shards.iter().find(|s| s.name == name) {
            Some(shard) => (shard.router)(req),
            None => {
                let body = format!(
                    "{{\"error\":\"unknown shard\",\"shard\":{}}}\n",
                    json_escape(&name)
                );
                Some(HttpResponse::json(404, body).into())
            }
        }
    }

    /// The true cross-shard query engine behind `/api/v1/query` and
    /// `/api/v1/query_range`: one [`QueryEngine`] fanning out to every
    /// shard that attached a series source, each shard's series tagged
    /// `shard="..."`. One evaluation therefore *is* the merge — plain
    /// selectors keep per-shard series apart, aggregations (`sum by
    /// (path)`) fold across shards. Shards without a source, and
    /// shards whose store fails to enumerate, degrade to response
    /// warnings instead of failing the query.
    pub fn promql_engine(&self) -> QueryEngine {
        let shards = self.shards.read();
        let mut engine = QueryEngine::new();
        for shard in shards.iter() {
            match &shard.promql {
                Some(src) => engine.push_source(Some(&shard.name), src.clone()),
                None => engine
                    .push_warning(format!("shard {}: no long-term store attached", shard.name)),
            }
        }
        engine
    }

    /// Serves the federated `/api/v1/query` (`range = false`) or
    /// `/api/v1/query_range` (`range = true`).
    pub fn promql_response(&self, req: &HttpRequest, range: bool) -> HttpResponse {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        api_query_response(&self.promql_engine(), req, range, now)
    }

    /// The federated `/healthz`: 200 only when every shard's own
    /// `/healthz` answers 200, 503 otherwise, always with each shard's
    /// body as its detail. Each shard is asked once, so its verdict and
    /// its detail cannot disagree.
    pub fn healthz_response(&self) -> HttpResponse {
        let (mut shards, mut healthy) = (0, true);
        let entries = self.entries("/healthz", |out, resp| {
            shards += 1;
            healthy &= resp.status == 200;
            let _ = write!(
                out,
                "\"healthy\":{},\"detail\":{}",
                resp.status == 200,
                embed_json(&resp.body)
            );
        });
        let status = match (shards, healthy) {
            (0, _) => "empty",
            (_, true) => "ok",
            _ => "degraded",
        };
        HttpResponse::json(
            if status == "ok" { 200 } else { 503 },
            format!("{{\"status\":\"{status}\",\"shards\":[{entries}]}}\n"),
        )
    }

    /// The federated `/snapshot`: every shard's tick digest in one
    /// array, newest state at scrape time.
    pub fn snapshot_response(&self) -> HttpResponse {
        let entries = self.entries("/snapshot", |out, resp| {
            let _ = write!(out, "\"snapshot\":{}", embed_json(&resp.body));
        });
        HttpResponse::json(200, format!("{{\"shards\":[{entries}]}}\n"))
    }

    /// The endpoint router for
    /// [`HttpServer::serve`](crate::HttpServer::serve): combined
    /// `/metrics`, `/healthz`, `/alerts` and `/snapshot`,
    /// `/profile?shard=NAME`, `/api/v1/query[_range]`, and the `/` index.
    pub fn router(self: &Arc<Self>) -> Arc<Router> {
        let fed = self.clone();
        Arc::new(move |req: &HttpRequest| match req.path.as_str() {
            "/metrics" => Some(HttpResponse::prometheus(fed.render_merged_prometheus()).into()),
            "/healthz" => Some(fed.healthz_response().into()),
            "/alerts" => Some(fed.alerts_response().into()),
            "/snapshot" => Some(fed.snapshot_response().into()),
            "/profile" => fed.profile_dispatch(req),
            "/api/v1/query" => Some(fed.promql_response(req, false).into()),
            "/api/v1/query_range" => Some(fed.promql_response(req, true).into()),
            "/" => Some(
                HttpResponse::json(
                    200,
                    format!(
                        "{{\"federation\":{{\"shards\":{}}},\
                         \"endpoints\":[\"/metrics\",\"/healthz\",\"/alerts\",\"/snapshot\",\
                         \"/profile\",\"/api/v1/query\",\"/api/v1/query_range\"]}}\n",
                        fed.len()
                    ),
                )
                .into(),
            ),
            _ => None,
        })
    }
}

/// Embeds a shard-supplied JSON document in a larger document: trimmed
/// verbatim when it looks like JSON, re-quoted as a string otherwise so
/// a misbehaving shard cannot corrupt the federated body.
fn embed_json(doc: &str) -> String {
    let trimmed = doc.trim();
    if trimmed.starts_with('{') || trimmed.starts_with('[') {
        trimmed.to_string()
    } else {
        let mut quoted = String::from("\"");
        crate::events::escape_json_into(&mut quoted, trimmed);
        quoted.push('"');
        quoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    /// A shard whose router answers each listed path with its status and
    /// body.
    fn fixed_shard(name: &str, answers: &'static [(&str, u16, &str)]) -> Shard {
        let router: Arc<Router> = Arc::new(|req: &HttpRequest| {
            (answers.iter().find(|(path, ..)| *path == req.path))
                .map(|&(_, status, body)| HttpResponse::json(status, body.into()).into())
        });
        Shard::new(name, Registry::new(), router)
    }

    fn two_shard_registry() -> Arc<ShardRegistry> {
        let fed = ShardRegistry::new();
        let a = Registry::new();
        a.counter("netqos_monitor_ticks_total").add(3);
        a.gauge("netqos_monitor_trap_outbox_depth").set(1);
        a.histogram("netqos_monitor_tick_duration_ns").record(100);
        let b = Registry::new();
        b.counter("netqos_monitor_ticks_total").add(4);
        b.counter("only_in_b_total").inc();
        b.histogram("netqos_monitor_tick_duration_ns").record(300);
        fed.register(Shard::metrics_only("subnet-a", a)).unwrap();
        fed.register(Shard::metrics_only("subnet-b", b)).unwrap();
        fed
    }

    #[test]
    fn merged_metrics_carry_shard_labels_and_aggregates() {
        let fed = two_shard_registry();
        let text = fed.render_merged_prometheus();
        assert!(text.contains("netqos_federation_shards 2"), "{text}");
        // Per-shard labelled series plus the unlabelled sum.
        assert!(
            text.contains("netqos_monitor_ticks_total{shard=\"subnet-a\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("netqos_monitor_ticks_total{shard=\"subnet-b\"} 4"),
            "{text}"
        );
        assert!(text.contains("\nnetqos_monitor_ticks_total 7\n"), "{text}");
        // A family present in only one shard still aggregates.
        assert!(text.contains("only_in_b_total{shard=\"subnet-b\"} 1"));
        assert!(text.contains("\nonly_in_b_total 1\n"));
        // Histograms: per-shard and merged bucket exposition.
        assert!(
            text.contains("netqos_monitor_tick_duration_ns_bucket{shard=\"subnet-a\",le="),
            "{text}"
        );
        assert!(
            text.contains("netqos_monitor_tick_duration_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("netqos_monitor_tick_duration_ns_sum 400"),
            "{text}"
        );
        // One TYPE header per family, shared by all label sets.
        assert_eq!(
            text.matches("# TYPE netqos_monitor_ticks_total counter")
                .count(),
            1
        );
        assert_eq!(fed.scrapes(), 1);
    }

    #[test]
    fn merged_aggregate_preserves_totals() {
        let text = two_shard_registry().render_merged_prometheus();
        for line in [
            "netqos_monitor_ticks_total 7",
            "netqos_monitor_tick_duration_ns_bucket{le=\"+Inf\"} 2",
            "netqos_monitor_tick_duration_ns_sum 400",
            "netqos_monitor_tick_duration_ns_count 2",
        ] {
            assert!(text.contains(&format!("\n{line}\n")), "{line} in {text}");
        }
    }

    #[test]
    fn healthz_is_503_when_any_shard_stalls() {
        let fed = ShardRegistry::new();
        fed.register(Shard::metrics_only("ok-shard", Registry::new()))
            .unwrap();
        fed.register(fixed_shard(
            "stalled-shard",
            &[("/healthz", 503, "{\"status\":\"stale\",\"ticks\":9}\n")],
        ))
        .unwrap();
        let resp = fed.healthz_response();
        assert_eq!(resp.status, 503);
        let doc = parse_json(&resp.body).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("degraded"));
        let shards = doc.get("shards").and_then(|v| v.as_array()).unwrap();
        assert_eq!(shards.len(), 2);
        let stalled = shards
            .iter()
            .find(|s| s.get("shard").and_then(|v| v.as_str()) == Some("stalled-shard"))
            .unwrap();
        assert_eq!(
            stalled
                .get("detail")
                .and_then(|d| d.get("status"))
                .and_then(|v| v.as_str()),
            Some("stale")
        );
    }

    #[test]
    fn healthz_asks_each_shard_once_per_scrape() {
        // A shard whose own /healthz flips between 200 and 503 on every
        // call: the verdict and the shard's entry come from one answer.
        let calls = AtomicU64::new(0);
        let router: Arc<Router> = Arc::new(move |req: &HttpRequest| {
            (req.path == "/healthz").then(|| {
                let status = [200, 503][(calls.fetch_add(1, Ordering::Relaxed) % 2) as usize];
                HttpResponse::json(status, "{}\n".into()).into()
            })
        });
        let fed = ShardRegistry::new();
        fed.register(Shard::new("flapping", Registry::new(), router))
            .unwrap();
        for _ in 0..4 {
            let resp = fed.healthz_response();
            let doc = parse_json(&resp.body).unwrap();
            let shards = doc.get("shards").and_then(|v| v.as_array()).unwrap();
            let healthy = shards[0].get("healthy").and_then(|v| v.as_bool());
            assert_eq!(Some(resp.status == 200), healthy, "{}", resp.body);
            let status = doc.get("status").and_then(|v| v.as_str());
            assert_eq!(status == Some("ok"), resp.status == 200, "{}", resp.body);
        }
    }

    #[test]
    fn snapshot_lists_every_shard_digest() {
        let fed = ShardRegistry::new();
        fed.register(fixed_shard(
            "a",
            &[("/snapshot", 200, "{\"ticks\":5,\"paths\":[]}\n")],
        ))
        .unwrap();
        let resp = fed.snapshot_response();
        assert_eq!(resp.status, 200);
        let doc = parse_json(&resp.body).unwrap();
        let shards = doc.get("shards").and_then(|v| v.as_array()).unwrap();
        assert_eq!(
            shards[0]
                .get("snapshot")
                .and_then(|s| s.get("ticks"))
                .and_then(|v| v.as_u64()),
            Some(5)
        );
    }

    #[test]
    fn alerts_response_sums_shard_counts() {
        let fed = ShardRegistry::new();
        fed.register(fixed_shard(
            "a",
            &[(
                "/alerts",
                200,
                "{\"pending\":1,\"firing\":2,\"alerts\":[]}\n",
            )],
        ))
        .unwrap();
        fed.register(Shard::metrics_only("b", Registry::new()))
            .unwrap();
        let resp = fed.alerts_response();
        assert_eq!(resp.status, 200);
        let doc = parse_json(&resp.body).unwrap();
        assert_eq!(doc.get("pending").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("firing").and_then(|v| v.as_u64()), Some(2));
        let shards = doc.get("shards").and_then(|v| v.as_array()).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards[0]
                .get("alerts")
                .and_then(|a| a.get("firing"))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn shard_names_are_written_as_json_strings() {
        // A spec-file stem may hold any character; Rust's `{:?}` writes
        // this one as `"a\u{1}b\"c"`, which is not JSON.
        let name = "a\u{1}b\"c";
        let fed = ShardRegistry::new();
        fed.register(Shard::metrics_only(name, Registry::new()))
            .unwrap();
        for (what, body) in [
            ("healthz", fed.healthz_response().body),
            ("snapshot", fed.snapshot_response().body),
            ("alerts", fed.alerts_response().body),
        ] {
            let doc = parse_json(&body).unwrap_or_else(|e| panic!("{what}: {e:?} in {body}"));
            let shards = doc.get("shards").and_then(|v| v.as_array()).unwrap();
            assert_eq!(
                shards[0].get("shard").and_then(|v| v.as_str()),
                Some(name),
                "{what}"
            );
        }
    }

    #[test]
    fn embedded_label_names_get_shard_label_spliced_in() {
        let fed = ShardRegistry::new();
        let a = Registry::new();
        a.gauge("netqos_build_info{version=\"0.1.0\"}").set(1);
        fed.register(Shard::metrics_only("subnet-a", a)).unwrap();
        let text = fed.render_merged_prometheus();
        assert!(text.contains("# TYPE netqos_build_info gauge"), "{text}");
        assert!(
            text.contains("netqos_build_info{shard=\"subnet-a\",version=\"0.1.0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("\nnetqos_build_info{version=\"0.1.0\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn duplicate_shard_names_are_rejected() {
        let fed = ShardRegistry::new();
        fed.register(Shard::metrics_only("x", Registry::new()))
            .unwrap();
        assert!(fed
            .register(Shard::metrics_only("x", Registry::new()))
            .is_err());
    }

    #[test]
    fn router_serves_combined_endpoints() {
        let fed = two_shard_registry();
        let router = fed.router();
        let req = |path: &str| HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            accept: String::new(),
        };
        let Some(HttpRoute::Response(metrics)) = router(&req("/metrics")) else {
            panic!("no /metrics route");
        };
        assert!(metrics.body.contains("shard=\"subnet-a\""));
        let Some(HttpRoute::Response(health)) = router(&req("/healthz")) else {
            panic!("no /healthz route");
        };
        assert_eq!(health.status, 200);
        let Some(HttpRoute::Response(snap)) = router(&req("/snapshot")) else {
            panic!("no /snapshot route");
        };
        assert!(parse_json(&snap.body).is_ok());
        let Some(HttpRoute::Response(alerts)) = router(&req("/alerts")) else {
            panic!("no /alerts route");
        };
        assert!(parse_json(&alerts.body).is_ok());
        let Some(HttpRoute::Response(index)) = router(&req("/")) else {
            panic!("no / route");
        };
        assert!(index.body.contains("/alerts"), "{}", index.body);
        assert!(!index.body.contains("\"/query\""), "{}", index.body);
        assert!(router(&req("/nope")).is_none());
        assert!(
            router(&req("/query")).is_none(),
            "/api/v1 is the one query surface"
        );
    }

    #[test]
    fn profile_dispatches_to_the_named_shard() {
        use crate::profile::profile_response;
        let cycles = [crate::CycleTrace {
            spans: vec![crate::SpanRecord {
                trace_id: 1,
                span_id: 1,
                parent: None,
                target: "monitor".into(),
                name: "cycle".into(),
                start_ns: 0,
                dur_ns: 500,
                attrs: Vec::new(),
            }],
            ..crate::CycleTrace::default()
        }];
        let router: Arc<Router> = Arc::new(move |req: &HttpRequest| {
            (req.path == "/profile").then(|| profile_response(&cycles, req).into())
        });
        let fed = ShardRegistry::new();
        fed.register(Shard::new("a", Registry::new(), router))
            .unwrap();
        fed.register(Shard::metrics_only("b", Registry::new()))
            .unwrap();
        let req = |query: &str| HttpRequest {
            method: "GET".into(),
            path: "/profile".into(),
            query: query.into(),
            accept: String::new(),
        };
        let answer = |query: &str| match fed.profile_dispatch(&req(query)) {
            Some(HttpRoute::Response(resp)) => Some((resp.status, resp.body)),
            Some(HttpRoute::EventStream(_)) => panic!("{query}: a stream"),
            None => None,
        };
        // Dispatch reaches the named shard's router, format passthrough.
        let folded = answer("shard=a&format=folded");
        assert_eq!(folded, Some((200, "monitor.cycle 500\n".into())));
        // Missing shard param: 400 listing every shard.
        let (status, body) = answer("format=json").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("\"shards\":[\"a\",\"b\"]"), "{body}");
        // Unknown shard: 404; a shard without /profile: no route (404).
        assert_eq!(answer("shard=zz").map(|(status, _)| status), Some(404));
        assert_eq!(answer("shard=b"), None);
        // The route is wired into the router.
        let router = fed.router();
        assert!(router(&req("shard=a")).is_some());
    }

    #[test]
    fn promql_engine_merges_shards_and_warns_on_missing_stores() {
        use crate::promql::RegistrySource;
        let fed = ShardRegistry::new();
        let a = Registry::new();
        a.gauge("netqos_path_used_bps{path=\"mw\"}").set(100);
        let b = Registry::new();
        b.gauge("netqos_path_used_bps{path=\"mw\"}").set(250);
        fed.register(
            Shard::metrics_only("east", a.clone()).with_promql(Arc::new(RegistrySource::new(a))),
        )
        .unwrap();
        fed.register(
            Shard::metrics_only("west", b.clone()).with_promql(Arc::new(RegistrySource::new(b))),
        )
        .unwrap();
        fed.register(Shard::metrics_only("storeless", Registry::new()))
            .unwrap();

        let req = |query: &str| HttpRequest {
            method: "GET".into(),
            path: "/api/v1/query".into(),
            query: query.into(),
            accept: String::new(),
        };
        // Plain selector: one series per shard, shard-labelled.
        let resp = fed.promql_response(&req("query=netqos_path_used_bps&time=100"), false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"shard\":\"east\""), "{}", resp.body);
        assert!(resp.body.contains("\"shard\":\"west\""), "{}", resp.body);
        assert!(
            resp.body
                .contains("shard storeless: no long-term store attached"),
            "{}",
            resp.body
        );
        // Cross-shard aggregate: one folded sample.
        let resp = fed.promql_response(
            &req("query=sum%20by%20(path)%20(netqos_path_used_bps)&time=100"),
            false,
        );
        assert!(
            resp.body
                .contains("{\"metric\":{\"path\":\"mw\"},\"value\":[100,\"350\"]}"),
            "{}",
            resp.body
        );
        // The routes are wired.
        let router = fed.router();
        let mut r = req("query=1&time=5");
        assert!(router(&r).is_some());
        r.path = "/api/v1/query_range".into();
        r.query = "query=1&start=0&end=2&step=1".into();
        assert!(router(&r).is_some());
        // Malformed parameters answer 400 with an error body.
        let resp = fed.promql_response(&req("query=rate(x)&time=5"), false);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"status\":\"error\""), "{}", resp.body);
    }

    #[test]
    fn empty_federation_reports_empty_not_ok() {
        let fed = ShardRegistry::new();
        assert!(fed.is_empty());
        let resp = fed.healthz_response();
        assert_eq!(resp.status, 503, "an empty federation is not healthy");
        assert!(resp.body.contains("\"empty\""));
    }
}
