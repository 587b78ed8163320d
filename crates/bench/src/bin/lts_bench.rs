//! Measures the long-term stats store's append throughput, range-query
//! latency and resident bytes per unsealed point (a live-bytes count in
//! the allocator) with plain wall-clock timing and writes the results as
//! `BENCH_lts.json` (repo root when run from there, else the current
//! directory) in the unified `netqos-bench/v1` schema, so a canonical
//! result document can be checked in. Regenerate it with
//! `cargo run --release -p netqos-bench --bin lts_bench`.

use netqos_bench::{time_iters, BenchReport, BenchRow};
use netqos_telemetry::{
    compact_store, LtsConfig, LtsCounters, LtsReader, LtsStore, PointValue, Resolution,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

/// Bytes allocated and not freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct CountingLive;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count is a relaxed atomic that
// publishes nothing.
unsafe impl GlobalAlloc for CountingLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingLive = CountingLive;

const SERIES: usize = 16;
const APPEND_TICKS: u64 = 20_000;
const QUERY_TICKS: u64 = 3_600;
const QUERY_ITERS: u32 = 200;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netqos-lts-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn series_names() -> Vec<String> {
    (0..SERIES)
        .map(|i| format!("bench_series_{i}_total"))
        .collect()
}

fn main() {
    let names = series_names();

    // Append throughput: one "tick" is SERIES appends; flush every 60 ticks
    // like the monitor's default cadence, plus a final flush.
    let dir = fresh_dir("append");
    let mut store = LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached())
        .expect("open append store");
    let start = Instant::now();
    for t in 0..APPEND_TICKS {
        for name in &names {
            store.append(name, t, PointValue::Counter(t % 17));
        }
        if t % 60 == 59 {
            store.flush().expect("cadence flush");
        }
    }
    store.flush().expect("final flush");
    let append_elapsed = start.elapsed();
    let total_points = APPEND_TICKS * SERIES as u64;
    let points_per_sec = total_points as f64 / append_elapsed.as_secs_f64();
    let append_ns_per_point = append_elapsed.as_nanos() as f64 / total_points as f64;
    std::fs::remove_dir_all(&dir).ok();

    // Open-tail memory: what the writer holds resident for tails one
    // flush short of sealing at the default `seal_points`, everything it
    // keeps per series included, over the points in those tails.
    let dir = fresh_dir("tail-memory");
    let config = LtsConfig::default();
    let tail_ticks = (config.seal_points as u64 - 1) / 60 * 60;
    let before = LIVE.load(Ordering::Relaxed);
    let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).expect("open tail store");
    let mut unsealed_points = 0;
    for t in 0..tail_ticks {
        for name in &names {
            store.append(name, t, PointValue::Counter(t % 17));
        }
        if t % 60 == 59 {
            let report = store.flush().expect("cadence flush");
            assert_eq!(report.segments_sealed, 0, "tails stay open");
            unsealed_points += report.points_written + report.downsampled;
        }
    }
    let retained = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let retained_per_point = retained / unsealed_points as f64;
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // Query latency over a store holding an hour of 1s points per series.
    let dir = fresh_dir("query");
    let mut store = LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached())
        .expect("open query store");
    for t in 0..QUERY_TICKS {
        for name in &names {
            store.append(name, t, PointValue::Counter(t % 17));
        }
        if t % 500 == 499 {
            store.flush().expect("load flush");
        }
    }
    store.flush().expect("load flush");
    let reader = LtsReader::open(&dir);
    let (one_p50, one_p99, one_max, one_points) = time_iters(QUERY_ITERS, || {
        reader
            .query("bench_series_0_total", 0, QUERY_TICKS, Resolution::Raw1s)
            .expect("store reads")
            .len()
    });
    let (all_p50, all_p99, all_max, all_points) = time_iters(QUERY_ITERS, || {
        (reader.query("*", 0, u64::MAX, Resolution::Min1))
            .expect("store reads")
            .len()
    });
    std::fs::remove_dir_all(&dir).ok();

    // Segment-codec footprint: one corpus left in open tails (the
    // records a seal replaces), then sealed whole by compaction, so the
    // comparison measures the codec against the tail.
    fn dir_bytes(d: &std::path::Path) -> u64 {
        let mut total = 0;
        if let Ok(entries) = std::fs::read_dir(d) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    total += dir_bytes(&p);
                } else {
                    total += e.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        total
    }
    let dir = fresh_dir("codec");
    let config = LtsConfig {
        seal_points: usize::MAX,
        ..LtsConfig::default()
    };
    let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).expect("open");
    for t in 0..QUERY_TICKS {
        for name in &names {
            store.append(name, t, PointValue::Counter(t % 17));
        }
    }
    store.flush().expect("flush");
    drop(store);
    let tail_bytes = dir_bytes(&dir);
    compact_store(&dir).expect("seal");
    let binary_bytes = dir_bytes(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let shrink = tail_bytes as f64 / binary_bytes.max(1) as f64;
    let sealed_per_point = binary_bytes as f64 / (QUERY_TICKS * SERIES as u64) as f64;
    assert!(
        sealed_per_point <= 2.5,
        "sealed segments must take <= 2.5 bytes a point (got {sealed_per_point:.2}: {binary_bytes} B)"
    );

    let mut report = BenchReport::new("lts");
    report.push(
        BenchRow::new("append")
            .param("series", SERIES)
            .param("ticks", APPEND_TICKS)
            .param("flush_every_ticks", 60u64)
            .param("points", total_points)
            .metric("points_per_sec", points_per_sec)
            .metric("ns_per_point", append_ns_per_point),
    );
    report.push(
        BenchRow::new("open-tail-memory")
            .param("series", SERIES)
            .param("seal_points", LtsConfig::default().seal_points)
            .param("flush_every_ticks", 60u64)
            .param("unsealed_points", unsealed_points)
            .metric("retained_per_point_bytes", retained_per_point),
    );
    report.push(
        BenchRow::new("query-one-series-1h-raw1s")
            .param("store_ticks", QUERY_TICKS)
            .param("iters", QUERY_ITERS)
            .param("points", one_points)
            .metric("p50_ns", one_p50)
            .metric("p99_ns", one_p99)
            .metric("max_ns", one_max),
    );
    report.push(
        BenchRow::new("query-all-series-1m")
            .param("store_ticks", QUERY_TICKS)
            .param("iters", QUERY_ITERS)
            .param("points", all_points)
            .metric("p50_ns", all_p50)
            .metric("p99_ns", all_p99)
            .metric("max_ns", all_max),
    );
    report.push(
        BenchRow::new("codec-binary-sealed")
            .param("series", SERIES)
            .param("ticks", QUERY_TICKS)
            .param("points", QUERY_TICKS * SERIES as u64)
            .param("shrink_x_vs_tail", shrink)
            .metric("bytes_on_disk_bytes", binary_bytes),
    );
    report
        .write("BENCH_lts.json")
        .expect("write BENCH_lts.json");
}
