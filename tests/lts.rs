//! Integration coverage for the long-term stats plane: a monitor run
//! with `lts_dir` set leaves a store behind whose `LtsReader::query`
//! answers (what `netqos lts query` prints) are byte-identical across a
//! process restart and across `netqos lts compact`, which seals the open
//! tails — the durability contract the whole subsystem hangs on.

use netqos::monitor::live::{build_router, RouterOptions};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{
    compact_store, parse_json, parse_range, store_stats, verify_store, HttpRequest, HttpRoute,
    JsonValue, LtsReader, Resolution,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SPEC: &str = include_str!("../specs/two-switch.spec");

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netqos-lts-it-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn service_with_lts(dir: &std::path::Path) -> MonitoringService {
    let model = netqos::spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let config = ServiceConfig {
        lts_dir: Some(dir.to_path_buf()),
        // Flush every 5 ticks so the run exercises the cadence path, not
        // just the final explicit flush.
        baseline_save_ticks: 5,
        ..ServiceConfig::default()
    };
    MonitoringService::from_model(model, options, config).unwrap()
}

/// What `netqos lts query` prints for `series=SEL&range=A:B&step=S`:
/// the store's points, the document these tests hold byte-identical.
fn get_query(reader: &LtsReader, query: &str) -> (u16, String) {
    let param = |key: &str| {
        let pair = query.split('&').find_map(|kv| kv.strip_prefix(key));
        pair.and_then(|v| v.strip_prefix('=')).unwrap()
    };
    let (start, end) = parse_range(param("range")).unwrap();
    let res = Resolution::parse(param("step")).unwrap();
    (200, reader.query(param("series"), start, end, res).unwrap())
}

#[test]
fn query_is_identical_across_restart_and_compact() {
    let dir = tmpdir("restart");

    // First run: 17 ticks (three cadence flushes plus a tail) and an
    // explicit final flush, like the CLI at exit.
    let mut svc = service_with_lts(&dir);
    assert!(svc.lts_enabled(), "store must open");
    svc.run_ticks(17).unwrap();
    svc.flush_lts().expect("final flush");

    let reader = LtsReader::open(&dir);
    let queries = [
        "series=*&range=:&step=1s",
        "series=netqos_monitor_ticks_total&range=:&step=1s",
        "series=netqos_path_*&range=:&step=1s",
        "series=*&range=:&step=1m",
        "series=*&range=:&step=1h",
    ];
    let before: Vec<String> = queries
        .iter()
        .map(|q| {
            let (status, body) = get_query(&reader, q);
            assert_eq!(status, 200, "{q}: {body}");
            body
        })
        .collect();

    // The run actually recorded something: the self-instrumented tick
    // counter series has one delta point per tick.
    let doc = parse_json(&before[1]).unwrap();
    let series = doc.get("series").and_then(JsonValue::as_array).unwrap();
    assert_eq!(series.len(), 1, "{}", before[1]);
    let points = series[0]
        .get("points")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(points.len(), 17, "one delta point per tick");
    // And the per-path QoS signals were sampled too.
    assert!(
        before[2].contains("netqos_path_used_bps{path="),
        "{}",
        before[2]
    );

    // Restart: a fresh process opening the same store (recovery path
    // included) must answer every query byte-for-byte identically.
    drop(svc);
    let svc2 = service_with_lts(&dir);
    assert!(svc2.lts_enabled());
    assert_eq!(svc2.lts_open_warning(), None, "clean store, no recovery");
    drop(svc2);
    let reader2 = LtsReader::open(&dir);
    for (q, b) in queries.iter().zip(&before) {
        let (status, body) = get_query(&reader2, q);
        assert_eq!(status, 200);
        assert_eq!(&body, b, "{q} diverged across restart");
    }

    // Compact: rewriting every series into one canonical segment per
    // resolution must not change a single response byte either.
    let report = compact_store(&dir).unwrap();
    assert!(report.segments_after <= report.segments_before);
    for (q, b) in queries.iter().zip(&before) {
        let (status, body) = get_query(&reader2, q);
        assert_eq!(status, 200);
        assert_eq!(&body, b, "{q} diverged across compact");
    }
    let verify = verify_store(&dir).unwrap();
    assert!(verify.issues.is_empty(), "{:?}", verify.issues);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_serves_query_and_rejects_bad_params() {
    let dir = tmpdir("router");
    let mut svc = service_with_lts(&dir);
    svc.run_ticks(3).unwrap();
    svc.flush_lts().unwrap();

    let router = build_router(RouterOptions {
        lts: Some(LtsReader::open(&dir)),
        ..RouterOptions::new(svc.registry().clone(), svc.live().clone())
    });
    let get = |router: &netqos_telemetry::Router, path: &str, query: &str| {
        let req = HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            accept: String::new(),
        };
        router(&req).map(|route| match route {
            HttpRoute::Response(r) => (r.status, r.body),
            HttpRoute::EventStream(_) => panic!("expected buffered response"),
        })
    };

    // The store answers through /api/v1, the one query surface: its
    // self-instrumented metrics are there.
    let (status, body) = get(&*router, "/api/v1/query", "query=netqos_lts_appends_total").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body).unwrap();
    let result = (doc.get("data").and_then(|d| d.get("result")))
        .and_then(JsonValue::as_array)
        .unwrap();
    assert!(!result.is_empty(), "{body}");

    // Malformed parameters are 400s with JSON bodies, not panics.
    let (status, body) = get(&*router, "/api/v1/query", "query=rate(x").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(parse_json(&body).is_ok());
    let (status, body) = get(&*router, "/api/v1/query", "query=x&step=5m").unwrap();
    assert_eq!(status, 400, "{body}");

    // The raw /query route is gone from the monitor's plane, and its
    // index does not list it.
    let plane = &*router;
    assert_eq!(get(plane, "/query", ""), None);
    let (_, index) = get(plane, "/", "").unwrap();
    assert!(!index.contains("\"/query\""), "{index}");
    assert!(index.contains("\"/api/v1/query\""), "{index}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A short run lives in its open tails; compaction seals them into
/// binary segments. Every store query and every `/api/v1` answer must
/// read the same from both, and the sealed store must be the smaller.
#[test]
fn query_is_identical_from_open_tails_and_compacted_segments() {
    let dir = tmpdir("seal");
    let mut svc = service_with_lts(&dir);
    svc.run_ticks(17).unwrap();
    svc.flush_lts().expect("final flush");
    let tails = store_stats(&dir).unwrap();
    assert_eq!(tails.resolutions[0].sealed, 0, "{tails:?}");
    assert!(tails.resolutions[0].open_tails > 0, "{tails:?}");

    let router = build_router(RouterOptions {
        lts: Some(LtsReader::open(&dir)),
        ..RouterOptions::new(svc.registry().clone(), svc.live().clone())
    });
    let end = LtsReader::open(&dir).newest_t().unwrap();
    let api = |query: &str| {
        let req = HttpRequest {
            method: "GET".into(),
            path: "/api/v1/query_range".into(),
            query: format!("query={query}&start={}&end={end}&step=2", end - 16),
            accept: String::new(),
        };
        match router(&req) {
            Some(HttpRoute::Response(r)) => {
                assert_eq!(r.status, 200, "{query}: {}", r.body);
                r.body
            }
            _ => panic!("{query}: no buffered response"),
        }
    };
    let queries = [
        "series=*&range=:&step=1s",
        "series=netqos_monitor_ticks_total&range=:&step=1s",
        "series=*&range=:&step=1m",
    ];
    let exprs = [
        "rate(netqos_monitor_ticks_total%5B5s%5D)",
        "sum(netqos_path_used_bps)",
        "increase(netqos_lts_appends_total%5B10s%5D)",
    ];
    let answers = || -> Vec<String> {
        let reader = LtsReader::open(&dir);
        let stored = queries.iter().map(|q| {
            let (status, body) = get_query(&reader, q);
            assert_eq!(status, 200, "{q}: {body}");
            body
        });
        stored.chain(exprs.iter().map(|e| api(e))).collect()
    };
    let before = answers();
    for body in &before[queries.len()..] {
        assert!(
            body.contains("\"values\":[["),
            "an answer with samples: {body}"
        );
    }

    let report = compact_store(&dir).unwrap();
    assert!(
        report.bytes_after < report.bytes_before,
        "sealing must shrink the tails: {report:?}"
    );
    for ((q, b), a) in queries.iter().chain(&exprs).zip(&before).zip(answers()) {
        assert_eq!(&a, b, "{q} diverged from the tails to the sealed segments");
    }
    assert!(verify_store(&dir).unwrap().issues.is_empty());
    let sealed = store_stats(&dir).unwrap();
    assert!(sealed.resolutions[0].sealed > 0, "{sealed:?}");
    assert_eq!(sealed.resolutions[0].open_tails, 0, "{sealed:?}");

    std::fs::remove_dir_all(&dir).ok();
}
