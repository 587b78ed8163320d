//! Integration coverage for the PromQL-subset query plane: golden
//! `/api/v1/query[_range]` response shapes through the live router, and
//! the byte-identity of range answers across in-monitor background
//! compaction.

use netqos::monitor::live::{build_router, RouterOptions};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{parse_json, HttpRequest, HttpRoute, JsonValue, LtsReader};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SPEC: &str = include_str!("../specs/two-switch.spec");

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netqos-query-it-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn service_with_lts(dir: &std::path::Path, compact: bool) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        lts_dir: Some(dir.to_path_buf()),
        baseline_save_ticks: 5,
        lts_compact: compact,
        ..ServiceConfig::default()
    };
    MonitoringService::from_model(model, options, config).unwrap()
}

fn get(router: &netqos_telemetry::Router, path: &str, query: &str) -> (u16, String) {
    let req = HttpRequest {
        method: "GET".into(),
        path: path.into(),
        query: query.into(),
        accept: String::new(),
    };
    match router(&req) {
        Some(HttpRoute::Response(r)) => (r.status, r.body),
        _ => panic!("expected buffered response for {path}?{query}"),
    }
}

#[test]
fn api_v1_golden_shapes_through_live_router() {
    let dir = tmpdir("golden");
    let mut svc = service_with_lts(&dir, false);
    svc.run_ticks(7).unwrap();
    svc.flush_lts().expect("final flush");

    let router = build_router(RouterOptions {
        lts: Some(LtsReader::open(&dir)),
        ..RouterOptions::new(svc.registry().clone(), svc.live().clone())
    });
    let t = LtsReader::open(&dir).newest_t().expect("store has points");

    // Golden instant vector: after 7 ticks the self-tick counter's
    // running total is exactly 7, and the response shape is pinned down
    // to the byte (quoted values, metric-first key order, newline).
    let (status, body) = get(
        &*router,
        "/api/v1/query",
        &format!("query=netqos_monitor_ticks_total&time={t}"),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        format!(
            "{{\"status\":\"success\",\"data\":{{\"resultType\":\"vector\",\"result\":\
             [{{\"metric\":{{\"__name__\":\"netqos_monitor_ticks_total\"}},\
             \"value\":[{t},\"7\"]}}]}}}}\n"
        )
    );

    // Golden range matrix: a steady 1-tick/s counter rates to exactly 1
    // at every step; rate() drops __name__.
    let (status, body) = get(
        &*router,
        "/api/v1/query_range",
        &format!(
            "query=rate(netqos_monitor_ticks_total[3])&start={}&end={t}&step=1",
            t - 2
        ),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        format!(
            "{{\"status\":\"success\",\"data\":{{\"resultType\":\"matrix\",\"result\":\
             [{{\"metric\":{{}},\"values\":[[{},\"1\"],[{},\"1\"],[{t},\"1\"]]}}]}}}}\n",
            t - 2,
            t - 1
        )
    );

    // Golden error shape: malformed expressions are 400s with the
    // Prometheus error envelope, not panics.
    let (status, body) = get(&*router, "/api/v1/query", "query=rate(x");
    assert_eq!(status, 400, "{body}");
    let doc = parse_json(&body).unwrap();
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("error"));
    assert_eq!(
        doc.get("errorType").and_then(JsonValue::as_str),
        Some("bad_data")
    );
    let (status, _) = get(&*router, "/api/v1/query", "");
    assert_eq!(status, 400, "missing query= must be a bad request");

    // The query path instruments itself: per-endpoint/status counters
    // and the evaluation-time histogram land in the scraped registry.
    let prom = svc.registry().render_prometheus();
    assert!(
        prom.contains("netqos_query_requests_total{endpoint=\"query\",status=\"ok\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("netqos_query_requests_total{endpoint=\"query\",status=\"bad_request\"} 2"),
        "{prom}"
    );
    assert!(
        prom.contains("netqos_query_requests_total{endpoint=\"query_range\",status=\"ok\"} 1"),
        "{prom}"
    );
    assert!(prom.contains("netqos_query_eval_ns_count 4"), "{prom}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rate_range_is_byte_identical_across_inmonitor_compaction() {
    let dir = tmpdir("compact");
    let mut svc = service_with_lts(&dir, true);
    svc.run_ticks(7).unwrap();
    svc.flush_lts().expect("flush");

    let router = build_router(RouterOptions {
        lts: Some(LtsReader::open(&dir)),
        ..RouterOptions::new(svc.registry().clone(), svc.live().clone())
    });
    let t = LtsReader::open(&dir).newest_t().unwrap();
    let range_query = format!(
        "query=rate(netqos_path_used_bps[5])&start={}&end={t}&step=1",
        t - 4
    );
    let (status, before) = get(&*router, "/api/v1/query_range", &range_query);
    assert_eq!(status, 200, "{before}");
    assert!(before.contains("\"resultType\":\"matrix\""), "{before}");

    // Keep ticking: save ticks now compact in the background (the
    // store's own counter proves at least one ran), while the original
    // range query must not change by a single byte.
    let compactions_before = svc.registry().counter("netqos_lts_compactions_total").get();
    svc.run_ticks(10).unwrap();
    assert!(
        svc.registry().counter("netqos_lts_compactions_total").get() > compactions_before,
        "background compaction should have run on a save tick"
    );
    let (status, after) = get(&*router, "/api/v1/query_range", &range_query);
    assert_eq!(status, 200);
    assert_eq!(before, after, "range answer diverged across compaction");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_param_exposes_pushdown_through_router() {
    let dir = tmpdir("stats");
    let mut svc = service_with_lts(&dir, false);
    svc.run_ticks(12).unwrap();
    svc.flush_lts().expect("final flush");

    let router = build_router(RouterOptions {
        lts: Some(LtsReader::open(&dir)),
        ..RouterOptions::new(svc.registry().clone(), svc.live().clone())
    });
    let t = LtsReader::open(&dir).newest_t().expect("store has points");
    let expr = format!("query=increase(netqos_monitor_ticks_total[10])&time={t}");

    // Without stats= the body is exactly the pinned Prometheus shape.
    let (status, plain) = get(&*router, "/api/v1/query", &expr);
    assert_eq!(status, 200, "{plain}");
    assert!(!plain.contains("\"stats\""), "{plain}");

    // With stats=1 the data object grows a stats member; the result is
    // otherwise identical, and the full-window counter evaluation took
    // the segment-fold fast path.
    let (status, with) = get(&*router, "/api/v1/query", &format!("{expr}&stats=1"));
    assert_eq!(status, 200, "{with}");
    let doc = parse_json(&with).unwrap();
    let stats = doc
        .get("data")
        .and_then(|d| d.get("stats"))
        .expect("stats object present");
    let num = |k: &str| -> u64 {
        stats
            .get(k)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{k} missing: {with}")) as u64
    };
    assert!(num("series") >= 1, "{with}");
    assert!(
        num("pushdownEvals") >= 1,
        "full-window increase must fold, not materialize: {with}"
    );
    // Stripping the stats member restores the plain body byte-for-byte.
    let result_part = with.split(",\"stats\":").next().unwrap();
    assert!(
        plain.starts_with(result_part),
        "result payload diverged:\n{plain}\n{with}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A `=~` pattern of many stars is answered at once, match or not: the
/// matcher backtracks only to its latest `*`. Trying every split at
/// every star took 45 s in a release build for the query that fails
/// here, and held a handler thread all that time.
#[test]
fn a_many_star_pattern_is_answered_at_once() {
    let registry = netqos_telemetry::Registry::new();
    for i in 0..4 {
        // Label values of 41 bytes, none with a `z`.
        let path = format!("/{i}/{}", "a".repeat(37));
        registry
            .counter(&format!("qb_total{{path=\"{path}\"}}"))
            .inc();
    }
    let router = build_router(RouterOptions::new(
        registry,
        netqos::monitor::live::LiveStatus::new(),
    ));
    let stars = "*a".repeat(10);
    for (tail, found) in [("*z", 0), ("", 4)] {
        let start = std::time::Instant::now();
        let (status, body) = get(
            &*router,
            "/api/v1/query",
            &format!("query=qb_total%7Bpath%3D~%22{stars}{tail}%22%7D"),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.matches("\"metric\"").count(), found, "{body}");
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "{took:?}");
    }
}
