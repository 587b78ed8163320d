//! Criterion benches for the long-term stats store's two hot paths:
//! appending one tick's worth of samples (the per-tick cost the monitor
//! pays) and answering an `LtsReader::query` range read (the cost a
//! dashboard pays). `cargo run --release -p netqos-bench --bin lts_bench` produces
//! the checked-in `BENCH_lts.json` from the same workloads.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use netqos_telemetry::{LtsConfig, LtsCounters, LtsReader, LtsStore, PointValue, Resolution};
use std::path::PathBuf;

const SERIES: usize = 16;

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

/// A store pre-loaded with `ticks` seconds of counter points per series,
/// flushed so every point is on disk and downsampled.
fn loaded_store(tag: &str, ticks: u64) -> PathBuf {
    let dir = fresh_dir(tag);
    let mut store = LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
    let names = series_names();
    for t in 0..ticks {
        for name in &names {
            store.append(name, t, PointValue::Counter(t % 17));
        }
        if t % 500 == 499 {
            store.flush().unwrap();
        }
    }
    store.flush().unwrap();
    dir
}

fn bench_append(c: &mut Criterion) {
    let dir = fresh_dir("append");
    let mut store = LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
    let names = series_names();
    let mut t = 0u64;
    let mut group = c.benchmark_group("lts");
    // One iteration = one monitor tick: SERIES appends, plus the
    // amortized share of a flush every 60 ticks (the default cadence).
    group.throughput(Throughput::Elements(SERIES as u64));
    group.bench_function("append_tick_16_series", |b| {
        b.iter(|| {
            t += 1;
            for name in &names {
                store.append(black_box(name), t, PointValue::Counter(t));
            }
            if t.is_multiple_of(60) {
                store.flush().unwrap();
            }
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_query(c: &mut Criterion) {
    let dir = loaded_store("query", 3_600);
    let reader = LtsReader::open(&dir);
    let mut group = c.benchmark_group("lts_query");
    group.bench_function("range_1h_of_1s_one_series", |b| {
        b.iter(|| {
            black_box(
                reader
                    .query("bench_series_0_total", 0, 3_600, Resolution::Raw1s)
                    .len(),
            )
        })
    });
    group.bench_function("range_all_1m_all_series", |b| {
        b.iter(|| black_box(reader.query("*", 0, u64::MAX, Resolution::Min1).len()))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_append, bench_query);
criterion_main!(benches);
