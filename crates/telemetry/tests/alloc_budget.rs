//! Allocation budgets of the stats plane's steady state: an append to a
//! known series, a flush that seals nothing, an instant query that
//! selects one series out of many, and a range query over tails far
//! longer than its window. The counts are exact; the budgets leave room
//! for amortised buffer growth and the allocations the public result
//! types force, and none for work per point, per line or per unselected
//! series, nor for the history behind a query's window. What the writer
//! keeps resident for its open tails is held to bytes per unsealed
//! point, and to no growth with the tails' length, by the same
//! allocator's count of live bytes. A quantile
//! baseline is held to the buckets it has seen, and to no allocation once
//! its windows are sized. An alert evaluation over a context refreshed in
//! place allocates nothing on a tick in which no alert changes state.

use netqos_telemetry::{
    builtin_alert_rules, parse_alert_rules, AlertContext, AlertEngine, AlertScope, LtsConfig,
    LtsCounters, LtsReader, LtsRetention, LtsSource, LtsStore, PointValue, QuantileBaseline,
    QueryEngine, QueryResult, Registry, Resolution, SegmentCodec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread while `Some`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` of a `Copy` type, so touching it neither allocates
// nor runs a destructor; the same holds for the live-byte count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
        LIVE.with(|l| l.set(l.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
        LIVE.with(|l| l.set(l.get() + new_size as isize - layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (
        COUNT.with(|c| c.replace(None)).expect("counting was on"),
        out,
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netqos-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> LtsStore {
    open_with(dir, 1 << 20)
}

fn open_with(dir: &PathBuf, seal_points: usize) -> LtsStore {
    let config = LtsConfig {
        seal_points,
        retention: LtsRetention::default(),
        codec: SegmentCodec::Binary,
    };
    LtsStore::open(dir, config, LtsCounters::detached()).unwrap()
}

/// Bytes this thread holds allocated.
fn live_bytes() -> isize {
    LIVE.with(|l| l.get())
}

fn series_name(i: usize) -> String {
    format!("qb_octets_total{{dev=\"d{i:03}\",grp=\"g{}\"}}", i % 8)
}

const T0: u64 = 1_700_000_000;

#[test]
fn appends_and_a_sealless_flush_allocate_per_series_not_per_point() {
    const SERIES: usize = 64;
    const PERIOD: u64 = 60;
    let dir = tmpdir("write");
    let mut store = open(&dir);
    let names: Vec<String> = (0..SERIES).map(series_name).collect();
    let mut now = T0;
    let mut period = |store: &mut LtsStore| {
        let (appending, ()) = allocations_in(|| {
            for t in now..now + PERIOD {
                for name in &names {
                    store.append(name, t, PointValue::Counter(t % 7));
                }
            }
        });
        now += PERIOD;
        let (flushing, report) = allocations_in(|| store.flush().unwrap());
        assert_eq!(report.points_written, SERIES as u64 * PERIOD);
        assert_eq!(report.segments_sealed, 0);
        (appending, flushing)
    };
    // Buffers reach their working size over the first periods.
    for _ in 0..4 {
        period(&mut store);
    }
    for _ in 0..3 {
        let (appending, flushing) = period(&mut store);
        assert_eq!(appending, 0, "appends to known series");
        assert!(
            flushing <= 12 * SERIES as u64,
            "{flushing} allocations in a flush of {SERIES} series"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_instant_query_allocates_for_the_series_it_selects() {
    const SERIES: usize = 256;
    const PICKED: usize = 137;
    let dir = tmpdir("read");
    let mut store = open(&dir);
    for i in 0..SERIES {
        store.append(&series_name(i), T0, PointValue::Counter(1));
    }
    for t in T0 + 1..T0 + 2_000 {
        store.append(&series_name(PICKED), t, PointValue::Counter(3));
    }
    store.flush().unwrap();
    let engine =
        QueryEngine::new().with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
    let query = format!("rate(qb_octets_total{{dev=\"d{PICKED:03}\"}}[300])");
    let run = || {
        let out = engine
            .instant(&query, T0 + 1_999, Resolution::Raw1s)
            .unwrap();
        assert_eq!(out.stats.series, 1);
        // The window's 300 points and at most the line that ends the
        // walk, of the tail's 2 000.
        assert!(
            out.stats.points_scanned <= 301,
            "{} points scanned",
            out.stats.points_scanned
        );
        match out.result {
            QueryResult::Vector(v) => assert_eq!((v.len(), v[0].v), (1, 3.0)),
            other => panic!("{other:?}"),
        }
    };
    run();
    let (allocations, ()) = allocations_in(run);
    assert!(
        allocations <= 100,
        "{allocations} allocations to read one series of {SERIES}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_range_query_costs_its_window_not_the_tails_behind_it() {
    const SERIES: usize = 8;
    let dir = tmpdir("range");
    let mut store = open(&dir);
    let engine =
        QueryEngine::new().with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
    // One point a minute, so every `1m` window holds one and the `1m`
    // tails grow a line a minute.
    let mut minutes = 0;
    let mut grow_to = |store: &mut LtsStore, lines: u64| {
        for minute in minutes..=lines {
            for i in 0..SERIES {
                let name = format!("qb_octets_total{{dev=\"d{i}\",grp=\"g{}\"}}", i % 2);
                store.append(&name, T0 + minute * 60, PointValue::Counter(600));
            }
        }
        minutes = lines + 1;
        store.flush().unwrap();
        // The newest closed minute.
        T0 + (lines - 1) * 60
    };
    let hour = |end: u64| {
        let out = engine
            .range(
                "sum by (grp) (rate(qb_octets_total[300]))",
                end - 3_600,
                end,
                60,
            )
            .unwrap();
        assert_eq!(out.stats.series, SERIES as u64);
        assert!(
            out.stats.points_scanned <= SERIES as u64 * 70,
            "{} points scanned",
            out.stats.points_scanned
        );
        match out.result {
            QueryResult::Matrix(rows) => {
                assert_eq!(rows.len(), 2);
                for row in rows {
                    assert_eq!(row.values.len(), 61);
                    assert!(row.values.iter().all(|(_, v)| *v == 40.0), "{row:?}");
                }
            }
            other => panic!("{other:?}"),
        }
    };
    let end = grow_to(&mut store, 2_000);
    hour(end);
    let (short_tails, ()) = allocations_in(|| hour(end));
    let end = grow_to(&mut store, 4_000);
    hour(end);
    let (long_tails, ()) = allocations_in(|| hour(end));
    assert_eq!(
        short_tails, long_tails,
        "allocations over 2 000-line and 4 000-line tails"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const TAIL_SERIES: usize = 16;

/// One flush period of a 16-series store that began on the hour: 60
/// counter points a series, then the flush. Returns what the flush
/// allocated, how many segments it sealed and the bytes live after it.
fn tail_period(store: &mut LtsStore, names: &[String], period: u64) -> (u64, u64, isize) {
    let start = T0 / 3_600 * 3_600 + period * 60;
    for t in start..start + 60 {
        for name in names {
            store.append(name, t, PointValue::Counter(t % 7));
        }
    }
    let (allocations, report) = allocations_in(|| store.flush().unwrap());
    assert_eq!(report.points_written, TAIL_SERIES as u64 * 60);
    (allocations, report.segments_sealed, live_bytes())
}

/// An open tail is held as its fold and the records of one period: a
/// flush that writes 60 points a series and closes a `1m` window for
/// each allocates nothing once the buffers have their size, and what the
/// writer keeps per point of its tails is next to nothing.
#[test]
fn an_open_tail_is_held_as_its_fold() {
    let names: Vec<String> = (0..TAIL_SERIES).map(series_name).collect();
    let dir = tmpdir("tail");
    let mut store = open_with(&dir, 4_096);
    // After flush `k`, at index `k - 1`.
    let mut live = Vec::with_capacity(64);
    for period in 0..64 {
        let (allocations, sealed, now) = tail_period(&mut store, &names, period);
        assert_eq!(sealed, 0);
        live.push(now);
        // Every buffer is at its working size by the 40th flush and the
        // hour closes in the 61st: in between, a flush that writes 60
        // points a series and closes a `1m` window for each allocates
        // nothing.
        if (40..60).contains(&period) {
            assert_eq!(allocations, 0, "flush {}", period + 1);
        }
    }
    // Since the second flush, when the write buffers had their size: the
    // hour's first record and its buffer, and nothing a point. The points
    // themselves are 64 bytes each.
    let per_point = (live[63] - live[1]) as f64 / (62 * 60 * TAIL_SERIES) as f64;
    assert!(per_point <= 8.0, "{per_point:.2} bytes a point retained");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the writer holds does not grow with its tails: 16 series at the
/// default `seal_points`, begun a minute before the hour so that every
/// resolution has written by the third flush, hold as many bytes after
/// flush 3 as after flush 63, when each `1s` tail is 3 780 points long.
#[test]
fn the_writer_holds_as_many_bytes_after_flush_63_as_after_flush_3() {
    let names: Vec<String> = (0..TAIL_SERIES).map(series_name).collect();
    let dir = tmpdir("steady");
    let mut store = open_with(&dir, LtsConfig::default().seal_points);
    let mut live = Vec::with_capacity(63);
    for period in 59..59 + 63 {
        let (_, sealed, now) = tail_period(&mut store, &names, period);
        assert_eq!(sealed, 0);
        live.push(now);
    }
    assert_eq!(live[2], live[62], "bytes held after flush 3 and flush 63");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tail_that_has_sealed_once_does_not_grow_its_buffers_again() {
    let names: Vec<String> = (0..TAIL_SERIES).map(series_name).collect();
    let dir = tmpdir("reseal");
    // Ten flushes a seal.
    let mut store = open_with(&dir, 600);
    for period in 0..60 {
        let (allocations, sealed, _) = tail_period(&mut store, &names, period);
        let sealing = period % 10 == 9;
        assert_eq!(sealed, if sealing { TAIL_SERIES as u64 } else { 0 });
        if period >= 40 && !sealing {
            assert_eq!(
                allocations,
                0,
                "flush {} of a tail's cycle",
                period % 10 + 1
            );
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything the writer keeps, per point in its unsealed tails, in the
/// setup of `BENCH_lts.json`'s `open-tail-memory` row: 16 series at the
/// default `seal_points`, a flush every 60 points, tails one flush short
/// of sealing. Each open `1m` and `1h` window is one running point, so
/// the encoders' bytes are nearly all of it (≈ 3.6 bytes a point; 6.3
/// while each window kept the points it was waiting to fold).
#[test]
fn the_writer_retains_under_4_5_bytes_an_unsealed_point() {
    let names: Vec<String> = (0..TAIL_SERIES)
        .map(|i| format!("bench_series_{i}_total"))
        .collect();
    let dir = tmpdir("retained");
    let config = LtsConfig::default();
    let tail_ticks = (config.seal_points as u64 - 1) / 60 * 60;
    let before = live_bytes();
    let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
    let mut unsealed = 0;
    for t in 0..tail_ticks {
        for name in &names {
            store.append(name, t, PointValue::Counter(t % 17));
        }
        if t % 60 == 59 {
            let report = store.flush().unwrap();
            assert_eq!(report.segments_sealed, 0, "tails stay open");
            unsealed += report.points_written + report.downsampled;
        }
    }
    let per_point = (live_bytes() - before) as f64 / unsealed as f64;
    assert!(
        per_point <= 4.5,
        "{per_point:.2} bytes retained a point over {unsealed} points"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A histogram series flushed every second: from a minute's second
/// flush to its last, the open `1m` window folds 58 more 32-bucket
/// states into the one it holds, and the store holds not a byte more.
#[test]
fn an_open_window_holds_one_histogram_however_many_points_it_folds() {
    let dir = tmpdir("window");
    // A raw seal a minute, so the seal's buffers have their size.
    let mut store = open_with(&dir, 60);
    let h = netqos_telemetry::Histogram::new();
    (0..32).for_each(|i| h.record(sample_over_32_buckets(i)));
    let state = h.to_state();
    assert_eq!(state.buckets.len(), 32);
    let hour = T0 / 3_600 * 3_600;
    let mut at_second = Vec::with_capacity(60);
    // Two hours to bring every buffer to its size, then one minute.
    for t in hour..hour + 7_260 {
        store.append("lat_ns", t, PointValue::Histogram(state.clone()));
        store.flush().unwrap();
        if t >= hour + 7_200 {
            at_second.push(live_bytes());
        }
    }
    assert_eq!(
        at_second[1], at_second[59],
        "bytes held after second 1 and 59"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One sample from each of the histogram layout's first 32 buckets, in
/// turn: exact below 16, then two and four values a bucket.
fn sample_over_32_buckets(i: usize) -> u64 {
    match i % 32 {
        b @ 0..=15 => b as u64,
        b @ 16..=23 => 16 + 2 * (b as u64 - 16),
        b => 32 + 4 * (b as u64 - 24),
    }
}

/// A baseline whose two 300-sample windows are full: 600 samples over
/// 32 buckets. Returns it with the bytes it holds.
fn full_baseline() -> (QuantileBaseline, isize) {
    let before = live_bytes();
    let b = QuantileBaseline::new(300);
    (0..600).for_each(|i| b.record(sample_over_32_buckets(i)));
    let state = b.to_state();
    assert_eq!((state.active.count, state.previous.count), (300, 300));
    assert_eq!(state.active.buckets.len(), 32);
    assert_eq!(state.previous.buckets.len(), 32);
    drop(state);
    let held = live_bytes() - before;
    (b, held)
}

#[test]
fn a_baseline_holds_the_buckets_it_has_seen() {
    let (b, held) = full_baseline();
    // Two lists of 32 16-byte buckets and the shared, locked header; the
    // dense baseline held two 496-bucket atomic histograms (≈ 8 KiB).
    assert!(held <= 1_280, "{held} bytes held by a full baseline");
    drop(b);
}

#[test]
fn a_warm_baseline_records_without_allocating() {
    let (b, _) = full_baseline();
    // Four more windows: every rotation reuses the list it displaces.
    let (allocations, ()) =
        allocations_in(|| (0..1_200).for_each(|i| b.record(sample_over_32_buckets(i * 7))));
    assert_eq!(allocations, 0, "records into a warm baseline");
}

#[test]
fn rank_and_quantile_over_two_full_windows_allocate_nothing() {
    let (b, _) = full_baseline();
    let (allocations, answers) = allocations_in(|| {
        let ranks: f64 = (0..64).map(|v| b.rank(v)).sum();
        let quantiles: u64 = [0.0, 0.5, 0.99, 1.0].map(|q| b.quantile(q)).iter().sum();
        (ranks, quantiles)
    });
    // The dense baseline allocated a 4 KiB histogram per `quantile`.
    assert_eq!(allocations, 0, "rank/quantile of a rotated baseline");
    assert!(answers.0 > 0.0 && answers.1 > 0);
}

const PATHS: [&str; 3] = ["feed1", "feed2", "archiving"];

/// Refreshes `ctx` in place the way the monitoring service does: the
/// registry's scope, then one scope per path carrying its used bandwidth
/// and a bottleneck diagnosis.
fn refresh(ctx: &mut AlertContext, registry: &Registry, tick: u64, used: [u64; 3]) {
    ctx.tick = tick;
    ctx.scopes.resize_with(1 + PATHS.len(), AlertScope::default);
    ctx.scopes[0].set_from_registry(registry);
    for (i, scope) in ctx.scopes[1..].iter_mut().enumerate() {
        match scope.labels.get_mut("path") {
            Some(path) => path.replace_range(.., PATHS[i]),
            None => {
                scope.labels.insert("path".into(), PATHS[i].into());
            }
        }
        scope.set("path_used_bps", used[i] as f64);
        scope.set("path_available_bps", (100_000 - used[i]) as f64);
        scope.annotate("bottleneck", format_args!("sw.p{i} <-> h{i}.eth0"));
        scope.annotate("bottleneck_available_bps", 100_000 - used[i]);
    }
}

#[test]
fn a_steady_alert_evaluation_allocates_nothing() {
    let registry = Registry::new();
    let polls = registry.counter("netqos_monitor_polls_total");
    registry.counter("netqos_monitor_counter_wraps_total");
    registry.gauge("netqos_monitor_trap_outbox_depth");
    // The built-in delta rules read two registry counters; `path_hot`
    // fires on feed2, which stays hot through the counted ticks.
    let mut rules = builtin_alert_rules();
    rules.extend(parse_alert_rules("alert path_hot if path_used_bps > 50000 for 2").unwrap());
    let mut engine = AlertEngine::new(rules);
    let mut ctx = AlertContext::default();
    let mut doc = String::new();
    let mut tick = 0;
    let mut step = |ctx: &mut AlertContext, engine: &mut AlertEngine, doc: &mut String| {
        tick += 1;
        polls.add(3);
        let used = [10_000 + tick, 60_000 + tick, 20_000 + tick];
        refresh(ctx, &registry, tick, used);
        let transitions = engine.evaluate(ctx);
        doc.clear();
        engine.render_json_into(doc);
        transitions
    };
    for _ in 0..4 {
        step(&mut ctx, &mut engine, &mut doc);
    }
    assert_eq!((engine.pending_count(), engine.firing_count()), (0, 1));
    for _ in 0..16 {
        let (allocated, transitions) = allocations_in(|| step(&mut ctx, &mut engine, &mut doc));
        assert!(transitions.is_empty());
        assert_eq!(allocated, 0, "tick {}", ctx.tick);
    }
    assert!(
        doc.contains("\"fingerprint\":\"path_hot{path=\\\"feed2\\\"}\""),
        "{doc}"
    );
}
