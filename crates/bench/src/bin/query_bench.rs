//! Measures the PromQL-subset query plane with plain wall-clock timing
//! and writes the results as `BENCH_query.json` (repo root when run from
//! there, else the current directory) in the unified `netqos-bench/v1`
//! schema. Two workloads: `rate()` instant evaluations over an hour of
//! 1s counter points (reported as evals/s), and cross-shard
//! `query_range` requests through the federation engine (reported as
//! latency percentiles, fan-out and JSON rendering included). Regenerate with
//! `cargo run --release -p netqos-bench --bin query_bench`.

use netqos_bench::{time_iters, BenchReport, BenchRow};
use netqos_telemetry::{
    compact_store, HttpRequest, LtsConfig, LtsCounters, LtsReader, LtsSource, LtsStore, PointValue,
    QueryEngine, Resolution, SeriesSource, Shard, ShardRegistry,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const SERIES: usize = 16;
const STORE_TICKS: u64 = 3_600;
const RATE_ITERS: u32 = 400;
const RANGE_ITERS: u32 = 200;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netqos-query-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A store holding an hour of 1s counter points per series, flushed so
/// every point is on disk at all resolutions.
fn loaded_store(tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    let mut store = LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
    for t in 0..STORE_TICKS {
        for i in 0..SERIES {
            store.append(
                &format!("bench_series_{i}_total"),
                t,
                PointValue::Counter(t % 17),
            );
        }
        if t % 500 == 499 {
            store.flush().unwrap();
        }
    }
    store.flush().unwrap();
    dir
}

fn main() {
    // rate() over an hour of 1s points against a single store.
    let dir = loaded_store("rate");
    let engine = QueryEngine::new().with_source(
        None,
        Arc::new(LtsSource::new(LtsReader::open(&dir))) as Arc<dyn SeriesSource>,
    );
    let start = Instant::now();
    for _ in 0..RATE_ITERS {
        engine
            .instant(
                "rate(bench_series_0_total[3600])",
                STORE_TICKS,
                Resolution::Raw1s,
            )
            .expect("rate eval");
    }
    let rate_elapsed = start.elapsed();
    let rate_evals_per_sec = RATE_ITERS as f64 / rate_elapsed.as_secs_f64();
    let (rate_p50, rate_p99, rate_max, _) = time_iters(RATE_ITERS, || {
        engine
            .instant(
                "rate(bench_series_0_total[3600])",
                STORE_TICKS,
                Resolution::Raw1s,
            )
            .expect("rate eval")
            .to_api_json()
            .len()
    });
    std::fs::remove_dir_all(&dir).ok();

    // Pushdown: the same full-window rate over a compacted binary store,
    // where every sealed segment folds from its header stats instead of
    // materializing 3600 points per eval. Evaluated at the newest stored
    // instant so the window covers the sealed segment entirely (a window
    // edge inside a segment falls back to decoding it). The range path
    // on the same store is the materializing baseline.
    let dir = loaded_store("pushdown");
    compact_store(&dir).expect("seal binary");
    let engine = QueryEngine::new().with_source(
        None,
        Arc::new(LtsSource::new(LtsReader::open(&dir))) as Arc<dyn SeriesSource>,
    );
    let probe = engine
        .instant(
            "rate(bench_series_0_total[3600])",
            STORE_TICKS - 1,
            Resolution::Raw1s,
        )
        .expect("pushdown eval");
    assert!(
        probe.stats.pushdown_evals > 0 && probe.stats.segments_folded > 0,
        "full-window rate over sealed binary segments must fold: {:?}",
        probe.stats
    );
    let start = Instant::now();
    for _ in 0..RATE_ITERS {
        engine
            .instant(
                "rate(bench_series_0_total[3600])",
                STORE_TICKS - 1,
                Resolution::Raw1s,
            )
            .expect("pushdown eval");
    }
    let pushdown_evals_per_sec = RATE_ITERS as f64 / start.elapsed().as_secs_f64();
    let (push_p50, push_p99, push_max, _) = time_iters(RATE_ITERS, || {
        engine
            .instant(
                "rate(bench_series_0_total[3600])",
                STORE_TICKS - 1,
                Resolution::Raw1s,
            )
            .expect("pushdown eval")
            .to_api_json()
            .len()
    });
    // Materializing baseline on the identical store: a one-step range
    // evaluation fetches and scans the full point vector.
    let start = Instant::now();
    for _ in 0..RATE_ITERS {
        engine
            .range(
                "rate(bench_series_0_total[3600])",
                STORE_TICKS - 1,
                STORE_TICKS - 1,
                1,
            )
            .expect("scan eval");
    }
    let scan_evals_per_sec = RATE_ITERS as f64 / start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();

    // Cross-shard query_range through the federation engine: two shards,
    // each backed by its own store, rate() at step 60 over the hour.
    let dirs = [loaded_store("shard-a"), loaded_store("shard-b")];
    let fed = ShardRegistry::new();
    for (name, dir) in ["north", "south"].iter().zip(&dirs) {
        let shard = Shard::metrics_only(*name, netqos_telemetry::Registry::new())
            .with_promql(Arc::new(LtsSource::new(LtsReader::open(dir))));
        fed.register(shard).unwrap();
    }
    let req = HttpRequest {
        method: "GET".into(),
        path: "/api/v1/query_range".into(),
        query: format!("query=rate(bench_series_0_total[60])&start=60&end={STORE_TICKS}&step=60"),
        accept: String::new(),
    };
    let (range_p50, range_p99, range_max, range_bytes) = time_iters(RANGE_ITERS, || {
        let resp = fed.promql_response(&req, true);
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.body.len()
    });
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }

    let mut report = BenchReport::new("query");
    report.push(
        BenchRow::new("rate-instant-1h-raw1s")
            .param("store_ticks", STORE_TICKS)
            .param("series", SERIES)
            .param("iters", RATE_ITERS)
            .metric("evals_per_sec", rate_evals_per_sec)
            .metric("p50_ns", rate_p50)
            .metric("p99_ns", rate_p99)
            .metric("max_ns", rate_max),
    );
    report.push(
        BenchRow::new("rate-instant-pushdown-sealed-1h")
            .param("store_ticks", STORE_TICKS)
            .param("series", SERIES)
            .param("iters", RATE_ITERS)
            .param("points_scanned", probe.stats.points_scanned)
            .param("segments_folded", probe.stats.segments_folded)
            .param("scan_baseline_evals_per_sec", scan_evals_per_sec)
            .metric("evals_per_sec", pushdown_evals_per_sec)
            .metric("p50_ns", push_p50)
            .metric("p99_ns", push_p99)
            .metric("max_ns", push_max),
    );
    report.push(
        BenchRow::new("cross-shard-query-range-step60")
            .param("shards", 2u64)
            .param("store_ticks", STORE_TICKS)
            .param("iters", RANGE_ITERS)
            .metric("p50_ns", range_p50)
            .metric("p99_ns", range_p99)
            .metric("max_ns", range_max)
            .metric("body_bytes", range_bytes as u64),
    );
    report
        .write("BENCH_query.json")
        .expect("write BENCH_query.json");
}
