//! Property tests for the streaming histogram (quantile accuracy
//! against an exact sorted reference, merge associativity, concurrent
//! recording) and baseline persistence (JSON round trips preserve
//! quantiles).

use netqos_telemetry::{
    baselines_from_json, baselines_to_json, downsample, AlertContext, AlertEngine, AlertRule,
    AlertScope, AlertSeverity, CmpOp, Histogram, Point, PointValue, PromSeries, QuantileBaseline,
    QueryEngine, QueryResult, Registry, Resolution, SeriesKind, SeriesSource, Shard, ShardRegistry,
};
use proptest::prelude::*;

/// Exact quantile of a sorted sample set using the same nearest-rank
/// definition the histogram implements: value at rank ceil(q * n).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// The histogram guarantees ≤ 1/16 relative error (bucket midpoint of
/// 1/8-wide log buckets), with exact results below 8.
fn assert_close(got: u64, exact: u64, q: f64) {
    if exact < 8 {
        assert_eq!(got, exact, "q={q}: sub-linear values must be exact");
        return;
    }
    let err = (got as f64 - exact as f64).abs() / exact as f64;
    assert!(
        err <= 0.0625 + 1e-9,
        "q={q}: histogram said {got}, exact {exact}, rel err {err:.4}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_track_exact_reference(
        samples in prop::collection::vec(0u64..2_000_000_000, 1..4000),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        for q in [0.5, 0.9, 0.99] {
            assert_close(h.quantile(q), exact_quantile(&sorted, q), q);
        }
    }

    #[test]
    fn merge_is_associative_and_commutative(
        xs in prop::collection::vec(0u64..1_000_000, 0..300),
        ys in prop::collection::vec(0u64..1_000_000, 0..300),
        zs in prop::collection::vec(0u64..1_000_000, 0..300),
    ) {
        let fill = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };

        // (x ⊕ y) ⊕ z
        let left = fill(&xs);
        left.merge_from(&fill(&ys));
        left.merge_from(&fill(&zs));

        // x ⊕ (z ⊕ y) — different association AND order.
        let right_inner = fill(&zs);
        right_inner.merge_from(&fill(&ys));
        let right = fill(&xs);
        right.merge_from(&right_inner);

        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.sum(), right.sum());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(left.quantile(q), right.quantile(q), "q={}", q);
        }

        // And both match recording everything into one histogram.
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        all.extend_from_slice(&zs);
        let whole = fill(&all);
        prop_assert_eq!(left.count(), whole.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(left.quantile(q), whole.quantile(q), "q={}", q);
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing(
        per_thread in prop::collection::vec(0u64..100_000_000, 50..200),
        threads in 4usize..8,
    ) {
        let shared = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let h = shared.clone();
                let vals = per_thread.clone();
                scope.spawn(move || {
                    for v in vals {
                        h.record(v);
                    }
                });
            }
        });

        // Every thread recorded the same multiset, so the totals are
        // exact multiples and the quantiles match a single-threaded fill.
        let n = per_thread.len() as u64;
        prop_assert_eq!(shared.count(), n * threads as u64);
        prop_assert_eq!(shared.sum(), per_thread.iter().sum::<u64>() * threads as u64);

        let reference = Histogram::new();
        for &v in &per_thread {
            reference.record(v);
        }
        prop_assert_eq!(shared.min(), reference.min());
        prop_assert_eq!(shared.max(), reference.max());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(shared.quantile(q), reference.quantile(q), "q={}", q);
        }
    }

    /// Federating K shard registries preserves counter sums and
    /// histogram totals exactly: each family's unlabelled aggregate
    /// line carries the per-shard sum, and each histogram's aggregate
    /// carries the union of all samples, closing its bucket series at
    /// `le="+Inf"` == count.
    #[test]
    fn federation_merge_preserves_sums_and_totals(
        shards in prop::collection::vec(
            (
                prop::collection::vec((0usize..4, 0u64..1_000_000), 0..8),
                prop::collection::vec((0usize..3, 0u64..100_000_000), 0..50),
            ),
            1..6,
        ),
    ) {
        const COUNTERS: [&str; 4] = ["ticks_total", "polls_total", "errors_total", "drops_total"];
        const HISTOGRAMS: [&str; 3] = ["tick_ns", "poll_ns", "parse_ns"];

        let fed = ShardRegistry::new();
        let mut counter_sums = std::collections::BTreeMap::new();
        let mut histo_totals = std::collections::BTreeMap::new();
        for (i, (counters, samples)) in shards.iter().enumerate() {
            let registry = Registry::new();
            for &(which, v) in counters {
                registry.counter(COUNTERS[which]).add(v);
                *counter_sums.entry(COUNTERS[which]).or_insert(0u64) += v;
            }
            for &(which, v) in samples {
                registry.histogram(HISTOGRAMS[which]).record(v);
                let (count, sum) = histo_totals.entry(HISTOGRAMS[which]).or_insert((0u64, 0u64));
                *count += 1;
                *sum += v;
            }
            fed.register(Shard::metrics_only(format!("shard-{i}"), registry)).unwrap();
        }

        let text = fed.render_merged_prometheus();
        for (name, want) in &counter_sums {
            prop_assert!(
                text.contains(&format!("\n{name} {want}\n")),
                "missing aggregate `{} {}` in rendering", name, want
            );
        }
        for (name, (count, sum)) in &histo_totals {
            prop_assert!(
                text.contains(&format!("\n{name}_bucket{{le=\"+Inf\"}} {count}\n")),
                "missing +Inf bucket for {}", name
            );
            prop_assert!(text.contains(&format!("\n{name}_sum {sum}\n")), "{} sum", name);
            prop_assert!(text.contains(&format!("\n{name}_count {count}\n")), "{} count", name);
        }
    }

    /// Alert evaluation is deterministic under rule-order shuffling:
    /// feeding the same signal script to an engine built from any
    /// permutation of the same (unique-name) rules produces the exact
    /// same transition sequence and the same rendered state.
    // Thresholds and signal values are integer thousandths scaled to
    // f64 (the vendored proptest has no f64 range strategy); the
    // "shuffle" is rotate-by-k plus optional reverse, which together
    // reach enough distinct orders to catch order-dependent evaluation.
    #[test]
    fn alert_evaluation_ignores_rule_order(
        rules in prop::collection::vec(
            (0usize..3, any::<bool>(), 0usize..4, 0u64..2000, 1u64..4, 0usize..3),
            1..6,
        ),
        rotate in 0usize..6,
        reverse in any::<bool>(),
        script in prop::collection::vec(
            prop::collection::vec(0u64..2000, 3), 1..20,
        ),
    ) {
        const SIGNALS: [&str; 3] = ["s0", "s1", "s2"];
        const OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        const SEVS: [AlertSeverity; 3] =
            [AlertSeverity::Info, AlertSeverity::Warning, AlertSeverity::Critical];
        let rules: Vec<AlertRule> = rules
            .iter()
            .enumerate()
            .map(|(i, &(sig, delta, op, thresh_milli, for_ticks, sev))| AlertRule {
                name: format!("r{i}"),
                signal: SIGNALS[sig].to_string(),
                delta,
                op: OPS[op],
                threshold: thresh_milli as f64 / 1000.0,
                for_ticks,
                severity: SEVS[sev],
            })
            .collect();
        let mut shuffled = rules.clone();
        let k = rotate % shuffled.len();
        shuffled.rotate_left(k);
        if reverse {
            shuffled.reverse();
        }

        let mut a = AlertEngine::new(rules);
        let mut b = AlertEngine::new(shuffled);
        for (tick, values) in script.iter().enumerate() {
            let mut ctx = AlertContext::new(tick as u64 + 1);
            let mut scope = AlertScope::global();
            for (name, &v) in SIGNALS.iter().zip(values) {
                scope.set(name, v as f64 / 1000.0);
            }
            ctx.scopes.push(scope);
            let ta = a.evaluate(&ctx);
            let tb = b.evaluate(&ctx);
            prop_assert_eq!(&ta, &tb, "tick {} transitions diverge", tick);
        }
        prop_assert_eq!(a.render_json(), b.render_json());
    }

    /// Baseline persistence: a JSON save/load round trip reproduces the
    /// histogram exactly — same count, same quantiles, same ranks.
    #[test]
    fn baseline_json_round_trip_is_lossless(
        samples in prop::collection::vec(0u64..2_000_000_000, 1..500),
        window in 100u64..10_000,
    ) {
        let b = QuantileBaseline::new(window);
        for &s in &samples {
            b.record(s);
        }
        let json = baselines_to_json([("path", &b)]);
        let restored = baselines_from_json(&json).unwrap();
        prop_assert_eq!(restored.len(), 1);
        let (name, r) = &restored[0];
        prop_assert_eq!(name.as_str(), "path");
        prop_assert_eq!(r.count(), b.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(r.quantile(q), b.quantile(q), "q={}", q);
        }
        for &probe in &[samples[0], samples[samples.len() / 2], 0, u64::MAX / 2] {
            prop_assert!((r.rank(probe) - b.rank(probe)).abs() < 1e-12);
        }
    }

    /// Long-term store downsampling: folding raw 1s histogram points
    /// into 1m windows and those into 1h windows preserves the total
    /// sample count exactly, and the coarse series' p50/p99 bracket the
    /// raw series' quantiles within the histogram's bucket error — no
    /// information about the distribution is lost beyond bucketing.
    #[test]
    fn lts_downsampling_preserves_count_and_quantiles(
        per_second in prop::collection::vec(
            prop::collection::vec(1u64..50_000_000, 0..6),
            61..200,
        ),
    ) {
        // One histogram delta state per second (the shape the registry
        // sampler appends at 1s resolution).
        let mut raw = Vec::new();
        let mut all_samples: Vec<u64> = Vec::new();
        for (t, batch) in per_second.iter().enumerate() {
            let h = Histogram::new();
            for &v in batch {
                h.record(v);
            }
            all_samples.extend_from_slice(batch);
            raw.push(Point { t: t as u64, value: PointValue::Histogram(h.to_state()) });
        }

        // Fold a fine series into `window`-second buckets the way the
        // store does: group by window start, merge with `downsample`.
        let fold = |points: &[Point], window: u64| -> Vec<Point> {
            let mut grouped: std::collections::BTreeMap<u64, Vec<Point>> = Default::default();
            for p in points {
                grouped.entry(p.t / window * window).or_default().push(p.clone());
            }
            grouped
                .into_iter()
                .filter_map(|(t, w)| {
                    downsample(SeriesKind::Histogram, &w).map(|value| Point { t, value })
                })
                .collect()
        };
        let minutes = fold(&raw, 60);
        let hours = fold(&minutes, 3600);

        let total = |points: &[Point]| -> u64 {
            points
                .iter()
                .map(|p| match &p.value {
                    PointValue::Histogram(h) => h.count,
                    _ => 0,
                })
                .sum()
        };
        prop_assert_eq!(total(&minutes), all_samples.len() as u64);
        prop_assert_eq!(total(&hours), all_samples.len() as u64);

        // Quantiles of the fully-merged coarse series bracket the raw
        // distribution's: bucket-wise merging is lossless, so the only
        // error is the histogram's own bucketing.
        if !all_samples.is_empty() {
            let merged = Histogram::new();
            for p in &hours {
                if let PointValue::Histogram(h) = &p.value {
                    merged.merge_from(&Histogram::from_state(h));
                }
            }
            let mut sorted = all_samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.99] {
                assert_close(merged.quantile(q), exact_quantile(&sorted, q), q);
            }
            prop_assert_eq!(merged.min(), sorted[0]);
            prop_assert_eq!(merged.max(), *sorted.last().unwrap());
        }
    }
}

/// Folds raw 1s points into `window`-aligned coarse buckets stamped at
/// the bucket start — the same shape the store's flush produces.
fn bucket_points(kind: SeriesKind, raw: &[Point], window: u64) -> Vec<Point> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let w = (raw[i].t / window) * window;
        let j = raw[i..]
            .iter()
            .position(|p| p.t >= w + window)
            .map(|k| i + k)
            .unwrap_or(raw.len());
        if let Some(v) = downsample(kind, &raw[i..j]) {
            out.push(Point { t: w, value: v });
        }
        i = j;
    }
    out
}

/// One synthetic series served at all three store resolutions, so the
/// same engine can be asked the same question at different steps.
struct MultiResSource {
    name: String,
    kind: SeriesKind,
    raw: std::sync::Arc<Vec<Point>>,
    min: std::sync::Arc<Vec<Point>>,
    hour: std::sync::Arc<Vec<Point>>,
}

impl MultiResSource {
    fn new(name: &str, kind: SeriesKind, raw: Vec<Point>) -> MultiResSource {
        let min = bucket_points(kind, &raw, 60);
        let hour = bucket_points(kind, &raw, 3600);
        MultiResSource {
            name: name.to_string(),
            kind,
            raw: std::sync::Arc::new(raw),
            min: std::sync::Arc::new(min),
            hour: std::sync::Arc::new(hour),
        }
    }

    fn engine(self) -> QueryEngine {
        QueryEngine::new().with_source(None, std::sync::Arc::new(self))
    }
}

impl SeriesSource for MultiResSource {
    fn series(&self) -> Result<Vec<PromSeries>, String> {
        let (raw, min, hour) = (self.raw.clone(), self.min.clone(), self.hour.clone());
        Ok(vec![PromSeries {
            key: self.name.clone(),
            base: self.name.clone(),
            labels: Vec::new(),
            kind: self.kind,
            fetch: std::sync::Arc::new(move |res, start, end| {
                let pts = match res {
                    Resolution::Raw1s => &raw,
                    Resolution::Min1 => &min,
                    Resolution::Hour1 => &hour,
                };
                Ok(pts
                    .iter()
                    .filter(|p| p.t >= start && p.t <= end)
                    .cloned()
                    .collect())
            }),
        }])
    }
}

/// The single vector sample's value, with "no sample" folding to zero
/// (an `increase` over a window holding no deltas).
fn sample_value(engine: &QueryEngine, expr: &str, t: u64, res: Resolution) -> f64 {
    match engine.instant(expr, t, res).unwrap().result {
        QueryResult::Vector(samples) => samples.first().map(|s| s.v).unwrap_or(0.0),
        other => panic!("{expr}: expected a vector, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over a window covering the whole series, every resolution sees
    /// the same totals: `increase`/`rate` answers (and their rendered
    /// JSON) are byte-identical at 1s, 1m, and 1h, because counter
    /// downsampling preserves delta sums exactly.
    #[test]
    fn counter_queries_identical_across_resolutions_full_span(
        deltas in prop::collection::vec(0u64..1_000, 1..500),
    ) {
        let t0 = 3_600_000u64;
        let raw: Vec<Point> = deltas
            .iter()
            .enumerate()
            .map(|(i, &d)| Point { t: t0 + i as u64, value: PointValue::Counter(d) })
            .collect();
        let engine = MultiResSource::new("c_total", SeriesKind::Counter, raw).engine();
        let t = t0 + deltas.len() as u64 + 7_200;
        for expr in ["increase(c_total[10000000])", "rate(c_total[10000000])"] {
            let raw_json = engine.instant(expr, t, Resolution::Raw1s).unwrap().to_api_json();
            let min_json = engine.instant(expr, t, Resolution::Min1).unwrap().to_api_json();
            let hour_json = engine.instant(expr, t, Resolution::Hour1).unwrap().to_api_json();
            prop_assert_eq!(&raw_json, &min_json, "{} diverged at 1m", expr);
            prop_assert_eq!(&raw_json, &hour_json, "{} diverged at 1h", expr);
        }
    }

    /// On partial windows the coarse answer is bracketed by fine
    /// answers over a slightly narrower and slightly wider window: a
    /// coarse bucket stamped `w` holds the seconds `[w, w+R)`, so a
    /// coarse `increase(c[W])` at aligned `T` covers `[T-W+R, T+R)` —
    /// inside raw coverage `[T-W-R+1, T+R]` and containing
    /// `[T-W+R+1, T]`.
    #[test]
    fn coarse_increase_bracketed_by_fine_windows(
        deltas in prop::collection::vec(0u64..1_000, 60..3000),
        k in 2u64..5,
        m in 1u64..4,
    ) {
        let t0 = 3_600_000u64;
        let raw: Vec<Point> = deltas
            .iter()
            .enumerate()
            .map(|(i, &d)| Point { t: t0 + i as u64, value: PointValue::Counter(d) })
            .collect();
        let engine = MultiResSource::new("c_total", SeriesKind::Counter, raw).engine();
        let w = k * 3600;
        let t = t0 + m * 3600;
        for (res, r) in [(Resolution::Min1, 60u64), (Resolution::Hour1, 3600u64)] {
            let coarse = sample_value(&engine, &format!("increase(c_total[{w}])"), t, res);
            let lower = sample_value(
                &engine,
                &format!("increase(c_total[{}])", w - r),
                t,
                Resolution::Raw1s,
            );
            let upper = sample_value(
                &engine,
                &format!("increase(c_total[{}])", w + r),
                t + r,
                Resolution::Raw1s,
            );
            prop_assert!(
                lower <= coarse && coarse <= upper,
                "step {r}: raw[{}]@{t} = {lower} !<= coarse[{w}]@{t} = {coarse} !<= raw[{}]@{} = {upper}",
                w - r, w + r, t + r
            );
        }
    }

    /// `histogram_quantile` over the whole series is byte-identical
    /// across resolutions: bucket-wise merging is associative, so the
    /// merged state (and its quantile) does not depend on how the
    /// per-second states were grouped on the way.
    #[test]
    fn histogram_quantile_identical_across_resolutions_full_span(
        batches in prop::collection::vec(
            prop::collection::vec(1u64..1_000_000, 0..5),
            1..200,
        ),
        q in prop::sample::select(vec![0.5f64, 0.9, 0.99]),
    ) {
        let t0 = 3_600_000u64;
        let total: usize = batches.iter().map(Vec::len).sum();
        if total == 0 {
            // All-empty draws carry no quantile to compare.
            return;
        }
        let raw: Vec<Point> = batches
            .iter()
            .enumerate()
            .map(|(i, batch)| {
                let h = Histogram::new();
                for &v in batch {
                    h.record(v);
                }
                Point { t: t0 + i as u64, value: PointValue::Histogram(h.to_state()) }
            })
            .collect();
        let engine = MultiResSource::new("lat_ns", SeriesKind::Histogram, raw).engine();
        let t = t0 + batches.len() as u64 + 7_200;
        let expr = format!("histogram_quantile({q}, lat_ns[10000000])");
        let raw_json = engine.instant(&expr, t, Resolution::Raw1s).unwrap().to_api_json();
        let min_json = engine.instant(&expr, t, Resolution::Min1).unwrap().to_api_json();
        let hour_json = engine.instant(&expr, t, Resolution::Hour1).unwrap().to_api_json();
        prop_assert_eq!(&raw_json, &min_json, "1m diverged");
        prop_assert_eq!(&raw_json, &hour_json, "1h diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The segment codec is invisible to every read surface: the same
    /// appends left in open tails and sealed into binary segments
    /// answer `LtsReader::query` and `/api/v1/query_range` byte-identically
    /// — and stay identical across compaction.
    #[test]
    fn codec_choice_never_changes_query_bytes(
        per_tick in prop::collection::vec(
            (0u64..40, -50i64..50, prop::collection::vec(1u64..1_000_000, 0..3)),
            80..160,
        ),
        flush_every in 17u64..53,
    ) {
        use netqos_telemetry::{
            compact_store, LtsConfig, LtsCounters, LtsReader, LtsRetention, LtsSource, LtsStore,
            SegmentCodec,
        };
        use std::sync::Arc;

        let base = std::env::temp_dir().join(format!(
            "netqos-prop-codec-{}-{}",
            std::process::id(),
            per_tick.len() * 1000 + flush_every as usize,
        ));
        let dir_tails = base.join("tails");
        let dir_bin = base.join("bin");
        let _ = std::fs::remove_dir_all(&base);

        let build = |dir: &std::path::Path, seal_points: usize| {
            let config = LtsConfig {
                codec: SegmentCodec::Binary,
                seal_points,
                retention: LtsRetention { max_age_secs: 0, max_bytes: 0 },
            };
            let mut store = LtsStore::open(dir, config, LtsCounters::detached()).unwrap();
            for (t, (c, g, hist)) in per_tick.iter().enumerate() {
                let t = t as u64;
                store.append("c_total", t, PointValue::Counter(*c));
                store.append("depth", t, PointValue::Gauge(*g));
                let h = Histogram::new();
                for &v in hist {
                    h.record(v);
                }
                store.append("lat_ns", t, PointValue::Histogram(h.to_state()));
                if t % flush_every == flush_every - 1 {
                    store.flush().unwrap();
                }
            }
            store.flush().unwrap();
        };
        // A store that never seals keeps every point as a tail record.
        build(&dir_tails, usize::MAX);
        build(&dir_bin, 32);

        let read_all = |dir: &std::path::Path| -> String {
            let reader = LtsReader::open(dir);
            let mut out = String::new();
            for res in [Resolution::Raw1s, Resolution::Min1, Resolution::Hour1] {
                out.push_str(&reader.query("*", 0, u64::MAX, res).unwrap());
                out.push('\n');
            }
            let engine = QueryEngine::new()
                .with_source(None, Arc::new(LtsSource::new(LtsReader::open(dir))));
            let end = per_tick.len() as u64 - 1;
            for expr in ["rate(c_total[20s])", "depth", "sum(increase(c_total[45s]))"] {
                out.push_str(
                    &engine.range(expr, 10, end, 7).unwrap().to_api_json(),
                );
                out.push('\n');
            }
            out
        };

        let reference = read_all(&dir_tails);
        prop_assert_eq!(&read_all(&dir_bin), &reference, "binary store diverged");

        // Compaction seals everything, tails included.
        for dir in [&dir_tails, &dir_bin] {
            compact_store(dir).unwrap();
            prop_assert_eq!(&read_all(dir), &reference, "compacted store diverged");
        }

        let _ = std::fs::remove_dir_all(&base);
    }
}

mod oracle;

use netqos_telemetry::HistogramState;

/// A stream of small choices drawn from one seed (splitmix64).
struct Choices(u64);

impl Choices {
    fn next(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

// ---------------------------------------------------------------------
// The v2 segment codec: the encoder against the slice-walking oracle,
// the decoders against damage
// ---------------------------------------------------------------------

use netqos_telemetry::{decode_segment_v2, decode_segment_v2_header, encode_segment_v2};

const KINDS: [SeriesKind; 3] = [
    SeriesKind::Counter,
    SeriesKind::Gauge,
    SeriesKind::Histogram,
];

/// A `u64` from wherever codecs go wrong: small, around 2^53, at the
/// top, or any bits at all.
fn spell_u64(c: &mut Choices) -> u64 {
    match c.next(4) {
        0 => c.next(200) as u64,
        1 => (1 << 53) - 2 + c.next(5) as u64,
        2 => u64::MAX - c.next(3) as u64,
        _ => c.next(usize::MAX) as u64,
    }
}

/// A value of `kind`: counters past 2^53, gauges on both sides of zero,
/// histograms empty (as a quiet interval leaves them, and as they decode)
/// and populated.
fn spell_value(kind: SeriesKind, c: &mut Choices) -> PointValue {
    match kind {
        SeriesKind::Counter => PointValue::Counter(spell_u64(c)),
        SeriesKind::Gauge => PointValue::Gauge(match c.next(3) {
            0 => -(c.next(200) as i64),
            _ => spell_u64(c) as i64,
        }),
        SeriesKind::Histogram => {
            let empty = c.next(4) == 0;
            PointValue::Histogram(HistogramState {
                buckets: (0..c.next(6))
                    .map(|_| (spell_u64(c) as u32, spell_u64(c)))
                    .collect(),
                count: if empty { 0 } else { spell_u64(c).max(1) },
                sum: spell_u64(c),
                min: if empty { u64::MAX } else { spell_u64(c) },
                max: if empty { 0 } else { spell_u64(c) },
            })
        }
    }
}

/// What a segment of `kind` might be asked to hold: nothing, one point,
/// many; times a second apart, far apart, not increasing at all; and,
/// with `foreign`, values that are not of `kind`, which the encoder has
/// always taken.
fn spell_points(kind: SeriesKind, c: &mut Choices, foreign: bool) -> Vec<Point> {
    let len = [0, 1, 2, c.next(40)][c.next(4)];
    let mut t = spell_u64(c);
    (0..len)
        .map(|_| {
            t = t.wrapping_add([1, 1, 1, 60, 3_600, spell_u64(c)][c.next(6)]);
            let kind = if foreign && c.next(5) == 0 {
                KINDS[c.next(3)]
            } else {
                kind
            };
            Point {
                t,
                value: spell_value(kind, c),
            }
        })
        .collect()
}

/// The library's encoder, the writer's header fold and point encoder run
/// over a slice, writes the bytes the one that walked the whole slice
/// wrote.
fn encoder_matches_the_oracle(seed: u64) {
    let c = &mut Choices(seed);
    let kind = KINDS[c.next(3)];
    let pts = spell_points(kind, c, true);
    assert_eq!(
        encode_segment_v2(kind, &pts),
        oracle::encode_segment_v2(kind, &pts),
        "{kind:?} {pts:?}"
    );
}

/// A v2 header from its varints.
fn header_bytes(kind: SeriesKind, fields: &[u64]) -> Vec<u8> {
    let mut out = b"NQS2\x02".to_vec();
    out.push(KINDS.iter().position(|k| *k == kind).unwrap() as u8);
    fields
        .iter()
        .for_each(|f| oracle::push_varint(&mut out, *f));
    out
}

/// Both decoders over `buf`: neither panics, and where the whole segment
/// decodes, the header alone says the same as the header in it and both
/// describe the points. Returns the full decode.
fn decode_both(buf: &[u8]) -> Result<Vec<Point>, String> {
    let head = decode_segment_v2_header(buf);
    let (full, pts) = decode_segment_v2(buf)?;
    let head = head.expect("the header of a segment that decodes");
    assert_eq!(
        (head.kind, head.count, head.first_t, head.last_t, head.stats),
        (full.kind, full.count, full.first_t, full.last_t, full.stats)
    );
    assert_eq!(full.count, pts.len() as u64);
    assert_eq!(full.stats.is_some(), full.kind == SeriesKind::Counter);
    assert!(pts.iter().all(|p| p.value.kind() == full.kind));
    Ok(pts)
}

/// No damage to a segment panics a decoder or has it reserve what the
/// file cannot hold; an undamaged one comes back point for point.
fn decoders_survive_damage(seed: u64) {
    let c = &mut Choices(seed);
    let kind = KINDS[c.next(3)];
    let pts = spell_points(kind, c, false);
    let seg = encode_segment_v2(kind, &pts);
    assert_eq!(decode_both(&seg).as_ref(), Ok(&pts));

    // Cut short at every byte.
    for cut in 0..seg.len() {
        assert!(decode_both(&seg[..cut]).is_err(), "{cut} of {seg:?}");
    }
    // Every byte flipped: all of its bits, and one.
    for at in 0..seg.len() {
        for mask in [0xff, 1 << c.next(8)] {
            let mut damaged = seg.clone();
            damaged[at] ^= mask;
            let _ = decode_both(&damaged);
        }
    }
    // Content after the last point.
    let mut long = seg.clone();
    long.extend((0..1 + c.next(4)).map(|_| c.next(256) as u8));
    assert!(decode_both(&long).is_err(), "{long:?}");
    let _ = decode_both(&[&seg[..], &seg[..]].concat());

    // Header numbers that are not the payload's: count, first, last and
    // the counter fold, each replaced by whatever a `u64` can hold.
    let mut fields = vec![pts.len() as u64, 0, 0];
    if let (Some(first), Some(last)) = (pts.first(), pts.last()) {
        (fields[1], fields[2]) = (first.t, last.t);
    }
    if kind == SeriesKind::Counter {
        let values = pts.iter().map(|p| match p.value {
            PointValue::Counter(v) => v,
            _ => unreachable!(),
        });
        fields.push(values.clone().fold(0, u64::saturating_add));
        fields.push(values.clone().min().unwrap_or(0));
        fields.push(values.max().unwrap_or(0));
    }
    let head = header_bytes(kind, &fields);
    assert_eq!(seg[..head.len()], head[..]);
    let payload = &seg[head.len()..];
    for _ in 0..8 {
        let mut lied = fields.clone();
        for field in lied.iter_mut() {
            if c.next(2) == 0 {
                *field = spell_u64(c);
            }
        }
        let _ = decode_both(&[&header_bytes(kind, &lied)[..], payload].concat());
    }
    // A count with next to nothing behind it.
    for kind in KINDS {
        let bare = header_bytes(kind, &[spell_u64(c).max(2), 0, 0, 0, 0, 0]);
        assert!(decode_both(&bare).is_err(), "{bare:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn segment_encoder_matches_the_oracle(seed in any::<u64>()) {
        encoder_matches_the_oracle(seed);
    }

    #[test]
    fn segment_decoders_survive_damage(seed in any::<u64>()) {
        decoders_survive_damage(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The two properties above over enough segments to be CI's
    /// release-mode gate
    /// (`cargo test --release -p netqos-telemetry --test prop -- --ignored`).
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn segment_encoder_matches_the_oracle_at_length(seed in any::<u64>()) {
        encoder_matches_the_oracle(seed);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn segment_decoders_survive_damage_at_length(seed in any::<u64>()) {
        decoders_survive_damage(seed);
    }
}

// ---------------------------------------------------------------------
// Windowed reads against the forward whole-file scan
// ---------------------------------------------------------------------

use netqos_telemetry::{
    fold_series_range, parse_series_name, store_stats, verify_store, LtsConfig, LtsCounters,
    LtsReader, LtsRetention, LtsSource, LtsStore, RangeFold, SegmentCodec, SeriesInfo,
    LOOKBACK_FLOOR_SECS,
};
use oracle::OPEN_TAIL;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A store the writer produced: three labelled series of each kind with
/// a point wherever `gaps` puts one (values follow from the time),
/// flushed every `flush_every` points, so tails, seals and `1m`/`1h`
/// windows fall wherever the inputs put them. Some series join late and
/// some skip points, so their tails differ.
fn written_store(tag: &str, seal_points: usize, gaps: &[u64], flush_every: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netqos-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = LtsConfig {
        codec: SegmentCodec::Binary,
        seal_points,
        retention: LtsRetention {
            max_age_secs: 0,
            max_bytes: 0,
        },
    };
    let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
    let mut t = 1_700_000_000u64;
    for (n, gap) in gaps.iter().enumerate() {
        t += gap;
        for (i, (dev, grp)) in [("a", "x"), ("b", "x"), ("c", "y")].into_iter().enumerate() {
            if n < i * 7 || (i == 1 && n % 5 == 0) {
                continue;
            }
            let labels = format!("{{dev=\"{dev}\",grp=\"{grp}\"}}");
            let c = t % 1_000 + i as u64;
            store.append(&format!("c_total{labels}"), t, PointValue::Counter(c));
            let g = (t % 97) as i64 - 40 * i as i64;
            store.append(&format!("depth{labels}"), t, PointValue::Gauge(g));
            let h = Histogram::new();
            for k in 0..t % 4 {
                h.record((t % 13 + k) * (i as u64 + 1) * 100);
            }
            store.append(
                &format!("lat_ns{labels}"),
                t,
                PointValue::Histogram(h.to_state()),
            );
        }
        if n % flush_every == flush_every - 1 {
            store.flush().unwrap();
        }
    }
    store.flush().unwrap();
    dir
}

/// Gaps between points: mostly seconds, some minutes, a few hours.
fn arb_gaps() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            1u64..4,
            1u64..4,
            1u64..4,
            1u64..4,
            1u64..4,
            20u64..200,
            20u64..200,
            1_000u64..5_000
        ],
        60..140,
    )
}

/// Window bounds worth asking about in a series whose canonical points
/// are `all`: both ends of time, just outside and on the first and last
/// point, on and beside a few points picked by `c`, and the edges of
/// the sealed segments in `sdir`.
fn bounds_of(all: &[Point], sdir: &Path, c: &mut Choices) -> Vec<u64> {
    let mut bounds = vec![0, u64::MAX];
    if let (Some(first), Some(last)) = (all.first(), all.last()) {
        bounds.extend([first.t - 1, first.t, last.t, last.t + 1]);
        for _ in 0..3 {
            let t = all[c.next(all.len())].t;
            bounds.extend([t - 1, t, t + 1]);
        }
    }
    let sealed = oracle::sealed_in(sdir);
    for _ in 0..2.min(sealed.len()) {
        let seg = &sealed[c.next(sealed.len())];
        bounds.extend([seg.first, seg.last, seg.last + 1]);
    }
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever window is asked of whatever the writer left — starting
    /// on a point, between two, before the first, after the last,
    /// across a seal, inside sealed data, over a missing or an empty
    /// tail — the reader and the pushdown fold say what a forward scan
    /// of every record says, at every resolution and for every kind.
    #[test]
    fn windowed_reads_match_a_forward_scan(
        seal_points in 2usize..40,
        gaps in arb_gaps(),
        flush_every in 3usize..40,
        seed in any::<u64>(),
    ) {
        let dir = written_store("windows", seal_points, &gaps, flush_every);
        let reader = LtsReader::open(&dir);
        let c = &mut Choices(seed);
        for info in reader.index() {
            for res in Resolution::ALL {
                let sdir = dir.join(res.dir_name()).join(&info.slug);
                // An empty tail where a seal left none.
                if c.next(2) == 0 && sdir.is_dir() && !sdir.join(OPEN_TAIL).exists() {
                    std::fs::write(sdir.join(OPEN_TAIL), b"").unwrap();
                }
                let all = oracle::series_points(&dir, &info, res, 0, u64::MAX);
                let bounds = bounds_of(&all, &sdir, c);
                for (i, &start) in bounds.iter().enumerate() {
                    for &end in &bounds[i..] {
                        prop_assert_eq!(
                            reader.series_points(&info, res, start, end).unwrap(),
                            oracle::series_points(&dir, &info, res, start, end),
                            "{} at {} in [{}, {}]", info.name, res.dir_name(), start, end
                        );
                    }
                }
                if info.kind != SeriesKind::Counter {
                    prop_assert!(
                        fold_series_range(&dir, &info.slug, info.kind, res, None, u64::MAX)
                            .is_none()
                    );
                    continue;
                }
                let afters = std::iter::once(None).chain(bounds.iter().copied().map(Some));
                for after in afters {
                    for &upto in &bounds {
                        prop_assert!(
                            oracle::fold_agrees(&dir, &info, res, after, upto),
                            "a store the writer left folds"
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A histogram point `buckets` buckets wide, each bucket two bytes or,
/// if `big`, eleven, so that one record can be longer than many pieces.
fn wide_point(t: u64, buckets: usize, big: bool) -> Point {
    Point {
        t,
        value: PointValue::Histogram(HistogramState {
            buckets: (0..buckets as u32)
                .map(|i| (i, if big { u64::MAX - i as u64 } else { 1 }))
                .collect(),
            count: buckets as u64 + 1,
            sum: t,
            min: 1,
            max: t,
        }),
    }
}

/// A series' `1s` tail in the store at `dir`.
fn raw_tail(dir: &Path, info: &SeriesInfo) -> PathBuf {
    dir.join(Resolution::Raw1s.dir_name())
        .join(&info.slug)
        .join(OPEN_TAIL)
}

/// What the store at `dir` answers about one series: its raw points by
/// `LtsReader::query`, the store's `newest_t`, and the pushdown fold
/// over every window `bounds` make.
fn answers(
    dir: &Path,
    info: &SeriesInfo,
    bounds: &[u64],
) -> (String, Option<u64>, Vec<Option<RangeFold>>) {
    let reader = LtsReader::open(dir);
    let query = (reader.query(&info.name, 0, u64::MAX, Resolution::Raw1s)).unwrap();
    let mut folds = Vec::new();
    for after in std::iter::once(None).chain(bounds.iter().copied().map(Some)) {
        for &upto in bounds {
            folds.push(fold_series_range(
                dir,
                &info.slug,
                info.kind,
                Resolution::Raw1s,
                after,
                upto,
            ));
        }
    }
    (query, reader.newest_t(), folds)
}

/// Copies every file under `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A tail is read from its end a piece at a time; wherever in a
    /// piece its records end — some a few bytes long, some longer than a
    /// piece, one longer than the first two pieces together, the last
    /// one torn or not — every window reads as the forward scan of the
    /// file reads it.
    #[test]
    fn tails_of_any_record_lengths_read_like_a_forward_scan(
        seed in any::<u64>(),
        records in 20usize..200,
    ) {
        let dir = written_store("pieces", 1 << 20, &[1], 1);
        let reader = LtsReader::open(&dir);
        let index = reader.index();
        let info = index.iter().find(|i| i.kind == SeriesKind::Histogram).unwrap();
        let c = &mut Choices(seed);
        let (mut pts, mut t) = (Vec::new(), 10u64);
        for _ in 0..records {
            t += 1 + c.next(3) as u64;
            let buckets = match c.next(30) {
                0 => 800 + c.next(3_000),
                _ => [0, 1, 4, 40][c.next(4)],
            };
            pts.push(wide_point(t, buckets, c.next(2) == 0));
        }
        let at = c.next(pts.len());
        pts[at] = wide_point(pts[at].t, 2_500, true);
        let mut tail = oracle::tail_bytes(SeriesKind::Histogram, &pts);
        if c.next(2) == 0 {
            let record = oracle::tail_record(&wide_point(t + 1, c.next(2_000), true));
            tail.extend(&record[..c.next(record.len())]);
        }
        std::fs::write(raw_tail(&dir, info), tail).unwrap();
        let mut bounds = vec![0, 10, t, t + 1, u64::MAX];
        for _ in 0..5 {
            let at = pts[c.next(pts.len())].t;
            bounds.extend([at, at + c.next(2) as u64]);
        }
        bounds.sort_unstable();
        for (i, &start) in bounds.iter().enumerate() {
            for &end in &bounds[i..] {
                prop_assert_eq!(
                    reader.series_points(info, Resolution::Raw1s, start, end).unwrap(),
                    oracle::series_points(&dir, info, Resolution::Raw1s, start, end),
                    "[{}, {}]", start, end
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tail cut at any byte — a crash mid-append, or a reader that
    /// looks while the writer appends — answers queries, `newest_t` and
    /// the pushdown fold as the whole records before the cut alone do,
    /// and opening the store keeps exactly those records.
    #[test]
    fn a_tail_cut_anywhere_reads_as_its_whole_records(
        seal_points in 8usize..40,
        gaps in arb_gaps(),
        seed in any::<u64>(),
    ) {
        let dir = written_store("cut", seal_points, &gaps, 7);
        let whole = dir.with_extension("whole");
        let _ = std::fs::remove_dir_all(&whole);
        copy_tree(&dir, &whole);
        let c = &mut Choices(seed);
        let index = LtsReader::open(&dir).index();
        let info = &index[c.next(index.len())];
        let (cut_tail, whole_tail) = (raw_tail(&dir, info), raw_tail(&whole, info));
        let full = std::fs::read(&cut_tail).unwrap_or_default();
        let ends = oracle::read_tail(&full).map_or_else(Vec::new, |(_, r)| r);
        prop_assert_eq!(ends.last().map(|e| e.1).unwrap_or(6), full.len().max(6));
        let pts = oracle::series_points(&dir, info, Resolution::Raw1s, 0, u64::MAX);
        let mut bounds = vec![0, u64::MAX];
        for _ in 0..3.min(pts.len()) {
            let t = pts[c.next(pts.len())].t;
            bounds.extend([t - 1, t]);
        }
        for cut in 0..=full.len() {
            // The whole records before the cut, behind their prelude.
            let kept = match ends.iter().rev().find(|e| e.1 <= cut) {
                Some(e) => e.1,
                None if cut < 6 => 0,
                None => 6,
            };
            std::fs::write(&cut_tail, &full[..cut]).unwrap();
            std::fs::write(&whole_tail, &full[..kept]).unwrap();
            prop_assert_eq!(
                answers(&dir, info, &bounds),
                answers(&whole, info, &bounds),
                "{} cut at {} of {}", info.name, cut, full.len()
            );
            let config = LtsConfig {
                codec: SegmentCodec::Binary,
                seal_points,
                retention: LtsRetention { max_age_secs: 0, max_bytes: 0 },
            };
            let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
            prop_assert_eq!(store.take_warnings().len(), usize::from(kept != cut));
            drop(store);
            prop_assert_eq!(std::fs::read(&cut_tail).unwrap(), &full[..kept]);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&whole);
    }

    /// No bytes in a tail — its own bits flipped, bytes replaced, bytes
    /// appended, or nothing but arbitrary bytes — panic opening,
    /// verifying, querying or measuring the store.
    #[test]
    fn damaged_tails_never_panic(
        gaps in arb_gaps(),
        seed in any::<u64>(),
        junk in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let dir = written_store("damage", 24, &gaps, 5);
        let c = &mut Choices(seed);
        let index = LtsReader::open(&dir).index();
        let info = &index[c.next(index.len())];
        let tail = raw_tail(&dir, info);
        let full = std::fs::read(&tail).unwrap_or_default();
        for round in 0..24 {
            let mut bytes = full.clone();
            match round % 4 {
                0 if !bytes.is_empty() => {
                    let at = c.next(bytes.len());
                    bytes[at] ^= 1 << c.next(8);
                }
                1 if !bytes.is_empty() => {
                    let at = c.next(bytes.len());
                    bytes[at] = junk.get(round).copied().unwrap_or(0xff);
                }
                2 => bytes.extend(&junk[..c.next(junk.len() + 1)]),
                _ => bytes = junk[..c.next(junk.len() + 1)].to_vec(),
            }
            std::fs::write(&tail, &bytes).unwrap();
            let bounds = [0, 1_700_000_100, u64::MAX];
            answers(&dir, info, &bounds);
            // A damaged tail is read up to its first bad record.
            prop_assert!(LtsReader::open(&dir).query("*", 0, u64::MAX, Resolution::Min1).is_ok());
            prop_assert!(verify_store(&dir).is_ok());
            prop_assert!(store_stats(&dir).is_ok());
            let config = LtsConfig {
                codec: SegmentCodec::Binary,
                seal_points: 24,
                retention: LtsRetention { max_age_secs: 0, max_bytes: 0 },
            };
            prop_assert!(LtsStore::open(&dir, config, LtsCounters::detached()).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Queries through the store against the same engine over all the points
// ---------------------------------------------------------------------

/// Every series of a store with all its points in memory, served
/// whatever bounds a fetch names: what a query must answer however
/// little of the store it reads.
struct WholeStore(Vec<(SeriesInfo, PointsByRes)>);

/// A series' canonical points at each resolution, finest first.
type PointsByRes = Arc<[Vec<Point>; 3]>;

impl WholeStore {
    fn of(dir: &Path) -> WholeStore {
        let series = LtsReader::open(dir).index().into_iter().map(|info| {
            let all =
                Resolution::ALL.map(|res| oracle::series_points(dir, &info, res, 0, u64::MAX));
            (info, Arc::new(all))
        });
        WholeStore(series.collect())
    }
}

impl SeriesSource for WholeStore {
    fn series(&self) -> Result<Vec<PromSeries>, String> {
        let series = self.0.iter().map(|(info, all)| {
            let (base, labels) = parse_series_name(&info.name);
            let all = all.clone();
            PromSeries {
                base,
                labels,
                kind: info.kind,
                key: info.slug.clone(),
                fetch: Arc::new(move |res, _start, _end| {
                    let at = Resolution::ALL.iter().position(|r| *r == res).unwrap();
                    Ok(all[at].clone())
                }),
            }
        });
        Ok(series.collect())
    }
}

/// A random expression of the supported subset.
fn spell_query(c: &mut Choices) -> String {
    let matcher = ["", "", "{grp=\"x\"}", "{dev=~\"*b\"}", "{dev!=\"a\"}"][c.next(5)];
    let window = [3, 20, 60, 90, 300, 400, 3_600, 7_200][c.next(8)];
    let q = ["0.5", "0.99"][c.next(2)];
    let leaf = match c.next(9) {
        0 => format!("c_total{matcher}"),
        1 => format!("depth{matcher}"),
        2 => "{grp=\"x\"}".to_string(),
        3 => format!("rate(c_total{matcher}[{window}])"),
        4 => format!("increase(c_total{matcher}[{window}])"),
        5 => format!("delta(depth{matcher}[{window}])"),
        6 => format!("histogram_quantile({q}, lat_ns{matcher}[{window}])"),
        7 => format!("histogram_quantile({q}, lat_ns{matcher})"),
        // A window function over the wrong kind selects nothing.
        _ => format!("rate({{dev=\"a\"}}[{window}])"),
    };
    let grouped = match c.next(6) {
        0 => format!("sum by (grp) ({leaf})"),
        1 => format!("avg without (dev) ({leaf})"),
        2 => format!("max({leaf})"),
        3 => format!("count by (dev, grp) (sum without (grp) ({leaf}))"),
        _ => leaf,
    };
    match c.next(5) {
        0 => format!("{grouped} * 8"),
        1 => format!("1000 - {grouped}"),
        2 => format!("{grouped} > 40"),
        _ => grouped,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A query reads only as far back as its expression can reach, and
    /// answers as if it had read everything: instant and range results
    /// through `LtsSource` are those of the same engine over a source
    /// that hands it every point whatever bounds it names.
    #[test]
    fn queries_through_the_store_match_queries_over_every_point(
        seal_points in 2usize..40,
        gaps in arb_gaps(),
        flush_every in 3usize..40,
        seed in any::<u64>(),
    ) {
        let dir = written_store("reach", seal_points, &gaps, flush_every);
        let stored = QueryEngine::new()
            .with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
        let whole = QueryEngine::new().with_source(None, Arc::new(WholeStore::of(&dir)));
        let mut times = Vec::new();
        for gap in &gaps {
            times.push(times.last().unwrap_or(&1_700_000_000u64) + gap);
        }
        let c = &mut Choices(seed);
        for _ in 0..48 {
            let query = spell_query(c);
            let res = Resolution::ALL[c.next(3)];
            // At a point, soon after one, where it is about to go
            // stale, or well past it.
            let stale = LOOKBACK_FLOOR_SECS.max(2 * res.window_secs());
            let after = [0, 1, 2, 59, stale - 1, stale - 1, stale, 9_000][c.next(8)];
            let t = times[c.next(times.len())] / res.window_secs() * res.window_secs() + after;
            prop_assert_eq!(
                stored.instant(&query, t, res).unwrap().to_api_json(),
                whole.instant(&query, t, res).unwrap().to_api_json(),
                "{} at {} on {}", query, t, res.dir_name()
            );
            let step = [1, 7, 60, 300, 3_600][c.next(5)];
            let end = t + step * c.next(40) as u64;
            prop_assert_eq!(
                stored.range(&query, t, end, step).unwrap().to_api_json(),
                whole.range(&query, t, end, step).unwrap().to_api_json(),
                "{} over [{}, {}] step {}", query, t, end, step
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Quantile baselines against the dense-histogram oracle
// ---------------------------------------------------------------------

use netqos_telemetry::{BaselineState, BUCKETS};
use oracle::baseline::DenseBaseline;

/// A sample a baseline might be fed: exact small values, RTT-like and
/// rate-like magnitudes, anything, and the top of `u64`, so sums wrap.
fn spell_sample(c: &mut Choices) -> u64 {
    match c.next(7) {
        0 => 0,
        1 => c.next(16) as u64,
        2 => 500 + c.next(20_000) as u64,
        3 => 1_000_000 + c.next(100_000_000) as u64,
        4 => u64::MAX - c.next(3) as u64,
        _ => spell_u64(c),
    }
}

/// One window as a state file might hold it: buckets unsorted, repeated,
/// empty, past the layout and past `u16`; a `count` that agrees with the
/// buckets or not. Counts stay far enough below 2^64 that no sum of them
/// overflows, which the oracle's plain `+` would take for a bug.
fn spell_window(c: &mut Choices) -> HistogramState {
    let len = [0, 1, 3, c.next(40)][c.next(4)];
    let buckets: Vec<(u32, u64)> = (0..len)
        .map(|_| {
            let idx = match c.next(6) {
                0 => (BUCKETS + c.next(100)) as u32,
                1 => u32::MAX - c.next(2) as u32,
                2 => c.next(12) as u32,
                _ => c.next(BUCKETS) as u32,
            };
            let n = [0, 1 + c.next(5) as u64, c.next(1 << 40) as u64][c.next(3)];
            (idx, n)
        })
        .collect();
    let agreeing = buckets
        .iter()
        .filter(|(i, _)| (*i as usize) < BUCKETS)
        .map(|(_, n)| n)
        .sum();
    let empty = c.next(5) == 0;
    HistogramState {
        count: [agreeing, 0, c.next(1 << 44) as u64][c.next(3)],
        sum: spell_u64(c),
        min: if empty { u64::MAX } else { spell_u64(c) },
        max: if empty { 0 } else { spell_u64(c) },
        buckets,
    }
}

/// The windows the service and the poller use, and the small ones that
/// rotate every few samples.
fn spell_window_len(c: &mut Choices) -> u64 {
    if c.next(3) == 0 {
        300
    } else {
        1 + c.next(8) as u64
    }
}

/// Every question a caller can ask: the count, the rank of fixed probes
/// and of `last` and its neighbours, four quantiles, the whole state.
fn assert_same_answers(new: &QuantileBaseline, old: &DenseBaseline, last: u64, at: &str) {
    assert_eq!(new.count(), old.count(), "count {at}");
    let probes = [
        0,
        1,
        7,
        8,
        1_000,
        1 << 40,
        u64::MAX,
        last,
        last.wrapping_sub(1),
        last.wrapping_add(1),
    ];
    for v in probes {
        assert_eq!(
            new.rank(v).to_bits(),
            old.rank(v).to_bits(),
            "rank({v}) {at}"
        );
    }
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(new.quantile(q), old.quantile(q), "quantile({q}) {at}");
    }
    assert_eq!(new.to_state(), old.to_state(), "state {at}");
}

/// Feeds both baselines the same samples, comparing after every one.
fn feed_both(new: &QuantileBaseline, old: &DenseBaseline, c: &mut Choices, samples: usize) {
    for i in 0..samples {
        let v = spell_sample(c);
        new.record(v);
        old.record(v);
        assert_same_answers(new, old, v, &format!("after sample {i} ({v})"));
    }
}

/// A fresh baseline answers as the dense one did, sample by sample,
/// through as many rotations as its window allows.
fn baseline_matches_the_dense_oracle(seed: u64) {
    let c = &mut Choices(seed);
    let window = spell_window_len(c);
    let (new, old) = (QuantileBaseline::new(window), DenseBaseline::new(window));
    assert_same_answers(&new, &old, 0, "empty");
    let samples = c.next(3 * window as usize + 4);
    feed_both(&new, &old, c, samples);
}

/// So does one rebuilt from any state a file can hold, before and after
/// it records.
fn loaded_baseline_matches_the_dense_oracle(seed: u64) {
    let c = &mut Choices(seed);
    let state = BaselineState {
        window: [spell_window_len(c), 0, spell_u64(c)][c.next(3)],
        active: spell_window(c),
        previous: spell_window(c),
    };
    let (new, old) = (
        QuantileBaseline::from_state(&state),
        DenseBaseline::from_state(&state),
    );
    assert_same_answers(&new, &old, 0, &format!("loaded from {state:?}"));
    let samples = c.next(24);
    feed_both(&new, &old, c, samples);
}

fn save(entries: &[(String, QuantileBaseline)]) -> String {
    baselines_to_json(entries.iter().map(|(n, b)| (n.as_str(), b)))
}

/// `src` is refused, or what it loads saves to a file that loads back
/// to itself.
fn loads_or_refuses(src: &str) {
    if let Ok(entries) = baselines_from_json(src) {
        let saved = save(&entries);
        let again = baselines_from_json(&saved).expect("a saved file loads");
        assert_eq!(save(&again), saved, "from {src:?}");
    }
}

/// No damage to a real state file panics the loader.
fn state_file_survives_damage(seed: u64) {
    let c = &mut Choices(seed);
    let entries: Vec<(String, QuantileBaseline)> = (0..1 + c.next(2))
        .map(|i| {
            let b = QuantileBaseline::new(spell_window_len(c));
            (0..c.next(16)).for_each(|_| b.record(spell_sample(c)));
            (format!("p{i}"), b)
        })
        .collect();
    let file = save(&entries).into_bytes();
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    assert_eq!(
        save(&baselines_from_json(&text(&file)).unwrap()),
        text(&file)
    );
    for cut in 0..file.len() {
        loads_or_refuses(&text(&file[..cut]));
    }
    // Every byte flipped: all of its bits or one.
    for at in 0..file.len() {
        let mut damaged = file.clone();
        damaged[at] ^= [0xff, 1 << c.next(8)][c.next(2)];
        loads_or_refuses(&text(&damaged));
    }
    let mut long = file.clone();
    long.extend((0..1 + c.next(8)).map(|_| c.next(256) as u8));
    loads_or_refuses(&text(&long));
    loads_or_refuses(&text(&[&file[..], &file[..]].concat()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn baseline_matches_the_dense_baseline(seed in any::<u64>()) {
        baseline_matches_the_dense_oracle(seed);
    }

    #[test]
    fn loaded_baseline_matches_the_dense_baseline(seed in any::<u64>()) {
        loaded_baseline_matches_the_dense_oracle(seed);
    }

    #[test]
    fn baseline_state_files_survive_damage(seed in any::<u64>()) {
        state_file_survives_damage(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The two oracle properties above at CI's release-mode length.
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn baseline_matches_the_dense_baseline_at_length(seed in any::<u64>()) {
        baseline_matches_the_dense_oracle(seed);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn loaded_baseline_matches_the_dense_baseline_at_length(seed in any::<u64>()) {
        loaded_baseline_matches_the_dense_oracle(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Each case parses its file twice per byte, so the damage property
    /// runs a tenth as many cases (~9 s in release mode).
    #[test]
    #[ignore = "2 000 cases: run in release mode"]
    fn baseline_state_files_survive_damage_at_length(seed in any::<u64>()) {
        state_file_survives_damage(seed);
    }
}

/// An index that does not fit the `u32` the state holds is refused by
/// name, not counted in the bucket it wraps to.
#[test]
fn a_bucket_index_past_u32_is_an_error() {
    let file = |idx: u64| {
        format!(
            "{{\"version\":1,\"baselines\":{{\"feed1\":{{\"window\":300,\
             \"active\":{{\"count\":\"1\",\"sum\":\"5\",\"min\":\"5\",\"max\":\"5\",\
             \"buckets\":[[{idx},\"1\"]]}},\
             \"previous\":{{\"count\":\"0\",\"sum\":\"0\",\"min\":\"{}\",\"max\":\"0\",\
             \"buckets\":[]}}}}}}}}\n",
            u64::MAX
        )
    };
    let loaded = baselines_from_json(&file(5)).unwrap();
    assert_eq!(loaded[0].1.to_state().active.buckets, [(5, 1)]);
    assert_eq!(save(&loaded), file(5));
    let Err(err) = baselines_from_json(&file((1 << 32) + 5)) else {
        panic!("index 2^32 + 5 loaded");
    };
    assert!(err.contains("feed1") && err.contains("4294967301"), "{err}");
    // The largest `u32` fits; past the layout, it is ignored as before.
    let loaded = baselines_from_json(&file(u32::MAX as u64)).unwrap();
    assert!(loaded[0].1.to_state().active.buckets.is_empty());
}

/// A loaded bucket count of `u64::MAX` wraps to 0 on the next sample in
/// that bucket, as `fetch_add` does, and an empty bucket is not listed.
#[test]
fn a_bucket_count_that_wraps_leaves_the_list() {
    let state = BaselineState {
        window: 300,
        active: HistogramState {
            buckets: vec![(5, u64::MAX), (9, 2)],
            count: 3,
            sum: 5,
            min: 5,
            max: 9,
        },
        previous: HistogramState::default(),
    };
    let (new, old) = (
        QuantileBaseline::from_state(&state),
        DenseBaseline::from_state(&state),
    );
    new.record(5);
    old.record(5);
    assert_same_answers(&new, &old, 5, "after the wrap");
    assert_eq!(new.to_state().active.buckets, [(9, 2)]);
}

// ---- the state file the dense baseline wrote --------------------------

const GOLDEN_STATE: &str = "tests/golden/baselines.json";
const GOLDEN_ANSWERS: &str = "tests/golden/baselines.answers.txt";

/// The baselines behind [`GOLDEN_STATE`], by name order: empty, one
/// sample, RTT-like and rate-like windows rotated once and twice, windows
/// of one and four samples, sums that wrap.
fn golden_baselines() -> Vec<(String, QuantileBaseline)> {
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lcg >> 33
    };
    let fed = |window: u64, samples: Vec<u64>| {
        let b = QuantileBaseline::new(window);
        samples.into_iter().for_each(|v| b.record(v));
        b
    };
    let rtt: Vec<u64> = (0..700)
        .map(|_| 800 + next() % 4_000 + if next() % 50 == 0 { 20_000 } else { 0 })
        .collect();
    let rate: Vec<u64> = (0..450).map(|_| 1_000_000 * (1 + next() % 90)).collect();
    let small: Vec<u64> = (0..50).map(|_| next() % 100).collect();
    let wrap = vec![u64::MAX, u64::MAX, 3, 0, 1 << 63, u64::MAX - 1, 9];
    [
        ("a_empty", fed(300, vec![])),
        ("b_one", fed(300, vec![77])),
        ("c_rtt", fed(300, rtt)),
        ("d_rate", fed(300, rate)),
        ("e_tiny", fed(1, vec![5, 0, u64::MAX])),
        ("f_wrap", fed(4, wrap)),
        ("g_small", fed(7, small)),
    ]
    .into_iter()
    .map(|(n, b)| (n.to_owned(), b))
    .collect()
}

/// Count, six quantiles and twelve ranks of every baseline, one a line.
fn golden_answers(entries: &[(String, QuantileBaseline)]) -> String {
    let mut out = String::new();
    for (name, b) in entries {
        out += &format!("{name} count {}\n", b.count());
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            out += &format!("{name} quantile({q}) {}\n", b.quantile(q));
        }
        for v in [
            0,
            1,
            5,
            8,
            100,
            1_000,
            3_000,
            10_000,
            1_000_000,
            50_000_000,
            1 << 63,
            u64::MAX,
        ] {
            out += &format!("{name} rank({v}) {:?}\n", b.rank(v));
        }
    }
    out
}

/// Fails unless `actual` is the golden file at `path`, leaving `actual`
/// beside the test binary for a deliberate re-recording.
fn assert_golden(path: &str, actual: &str) {
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if actual != golden {
        let name = Path::new(path).file_name().unwrap();
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&dump, actual).unwrap();
        panic!("differs from {path}; now: {}", dump.display());
    }
}

/// The state file and answers recorded from the dense baseline at the
/// commit before windows became sparse: the same samples save the same
/// bytes, the file loads and saves back byte for byte, and the loaded
/// baselines answer what the dense ones did.
#[test]
fn the_state_file_the_dense_baseline_wrote_round_trips() {
    let built = golden_baselines();
    assert_golden(GOLDEN_STATE, &save(&built));
    assert_golden(GOLDEN_ANSWERS, &golden_answers(&built));
    let file = std::fs::read_to_string(GOLDEN_STATE).unwrap();
    let loaded = baselines_from_json(&file).unwrap();
    assert_eq!(save(&loaded), file);
    assert_eq!(
        golden_answers(&loaded),
        std::fs::read_to_string(GOLDEN_ANSWERS).unwrap()
    );
    // Every quirk of the file cut at every byte stays a refusal or a
    // fixed point.
    for cut in 0..file.len() {
        loads_or_refuses(&file[..cut]);
    }
}

// ---------------------------------------------------------------------
// Rule files against damage
// ---------------------------------------------------------------------

use netqos_telemetry::{parse_alert_rules, parse_record_rules};

const ALERT_RULES: &str = include_str!("../../../specs/alerts.rules");
const RECORD_RULES: &str = include_str!("../../../specs/record.rules");

/// `parse` over `bytes` read as text: whatever the damage, `Ok` or `Err`.
fn parses_or_refuses<T, E>(parse: fn(&str) -> Result<T, E>, bytes: &[u8]) {
    let _ = parse(&String::from_utf8_lossy(bytes));
}

/// One damage of each kind to `file`, chosen by `c`: cut at a byte,
/// a few bytes flipped (all their bits or one), bytes inserted at a
/// byte, content appended.
fn survives_damage<T, E>(parse: fn(&str) -> Result<T, E>, file: &str, c: &mut Choices) {
    let file = file.as_bytes();
    parses_or_refuses(parse, &file[..c.next(file.len() + 1)]);
    let mut damaged = file.to_vec();
    for _ in 0..1 + c.next(4) {
        damaged[c.next(file.len())] ^= [0xff, 1 << c.next(8)][c.next(2)];
    }
    parses_or_refuses(parse, &damaged);
    let mut inserted = file.to_vec();
    let at = c.next(file.len() + 1);
    let bytes: Vec<u8> = (0..1 + c.next(32)).map(|_| c.next(256) as u8).collect();
    inserted.splice(at..at, bytes);
    parses_or_refuses(parse, &inserted);
    let mut long = file.to_vec();
    long.extend((0..1 + c.next(32)).map(|_| c.next(256) as u8));
    parses_or_refuses(parse, &long);
    parses_or_refuses(parse, &[file, &file[..c.next(file.len())]].concat());
}

/// `file` cut at every byte and with every byte flipped, all its bits
/// or one.
fn survives_every_cut_and_flip<T, E>(parse: fn(&str) -> Result<T, E>, file: &str) {
    let file = file.as_bytes();
    for cut in 0..file.len() {
        parses_or_refuses(parse, &file[..cut]);
    }
    for at in 0..file.len() {
        for mask in [0xff, 1, 2, 4, 8, 16, 32, 64, 128] {
            let mut damaged = file.to_vec();
            damaged[at] ^= mask;
            parses_or_refuses(parse, &damaged);
        }
    }
}

fn rule_files_survive_damage(seed: u64) {
    let c = &mut Choices(seed);
    survives_damage(parse_alert_rules, ALERT_RULES, c);
    survives_damage(parse_record_rules, RECORD_RULES, c);
}

/// The shipped files parse to the rules they hold, and survive being cut
/// at every byte and having every byte flipped.
#[test]
fn rule_files_survive_every_cut_and_flip() {
    assert_eq!(parse_alert_rules(ALERT_RULES).unwrap().len(), 5);
    assert_eq!(parse_record_rules(RECORD_RULES).unwrap().len(), 4);
    survives_every_cut_and_flip(parse_alert_rules, ALERT_RULES);
    survives_every_cut_and_flip(parse_record_rules, RECORD_RULES);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rule_files_survive_damage_anywhere(seed in any::<u64>()) {
        rule_files_survive_damage(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The property above at CI's release-mode length.
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn rule_files_survive_damage_anywhere_at_length(seed in any::<u64>()) {
        rule_files_survive_damage(seed);
    }
}

// ---------------------------------------------------------------------
// Query expressions and flight documents against damage
// ---------------------------------------------------------------------

use netqos_telemetry::{
    check_query, cycles_from_jsonl, to_chrome_trace, to_jsonl, to_otlp, validate_chrome_trace,
    validate_otlp, CycleTrace, Tracer,
};

/// The shipped recording rules' expressions, then a sample of the ones
/// the store properties spell.
fn query_corpus() -> Vec<String> {
    let rules = parse_record_rules(RECORD_RULES).unwrap();
    let c = &mut Choices(7);
    let spelled = (0..48).map(|_| spell_query(c));
    rules.into_iter().map(|r| r.expr).chain(spelled).collect()
}

/// Two traced cycles, a root span and a child carrying an attribute of
/// every type.
fn flight_cycles() -> Vec<CycleTrace> {
    let t = Tracer::new();
    (0..2)
        .map(|_| {
            let trace_id = t.begin_cycle();
            let start_ns = t.now_ns();
            {
                let _root = t.span("monitor", "cycle");
                let mut poll = t.span("monitor.poll", "device");
                poll.set_attr("device", "sw-\"fore\"");
                poll.set_attr("bytes", 1234u64);
                poll.set_attr("rank", 0.5f64);
                poll.set_attr("ok", true);
            }
            CycleTrace {
                trace_id,
                start_ns,
                end_ns: t.now_ns(),
                epoch_unix_ns: 1_700_000_000_000_000_000,
                spans: t.end_cycle(),
                ..CycleTrace::default()
            }
        })
        .collect()
}

fn queries_survive_damage(seed: u64) {
    let c = &mut Choices(seed);
    let corpus = query_corpus();
    survives_damage(check_query, &corpus[c.next(corpus.len())], c);
}

fn flight_documents_survive_damage(seed: u64) {
    let c = &mut Choices(seed);
    let cycles = flight_cycles();
    survives_damage(validate_otlp, &to_otlp(&cycles), c);
    survives_damage(cycles_from_jsonl, &to_jsonl(&cycles), c);
    survives_damage(validate_chrome_trace, &to_chrome_trace(&cycles), c);
}

/// Every query of the corpus parses, and survives being cut at every
/// byte and having every byte flipped.
#[test]
fn queries_survive_every_cut_and_flip() {
    for query in query_corpus() {
        check_query(&query).unwrap_or_else(|e| panic!("{query}: {e}"));
        survives_every_cut_and_flip(check_query, &query);
    }
}

/// The documents `to_otlp`, `to_jsonl` and `to_chrome_trace` write
/// read back, and their readers — the last two take any file `netqos
/// flight` is handed — survive them being cut at every byte and having
/// every byte flipped.
#[test]
fn flight_documents_survive_every_cut_and_flip() {
    let cycles = flight_cycles();
    let otlp = to_otlp(&cycles);
    assert_eq!(validate_otlp(&otlp).unwrap().spans, 4);
    survives_every_cut_and_flip(validate_otlp, &otlp);
    let jsonl = to_jsonl(&cycles);
    assert_eq!(to_otlp(&cycles_from_jsonl(&jsonl).unwrap()), otlp);
    survives_every_cut_and_flip(cycles_from_jsonl, &jsonl);
    let chrome = to_chrome_trace(&cycles);
    assert_eq!(validate_chrome_trace(&chrome).unwrap().spans, 4);
    survives_every_cut_and_flip(validate_chrome_trace, &chrome);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queries_survive_damage_anywhere(seed in any::<u64>()) {
        queries_survive_damage(seed);
    }

    #[test]
    fn flight_documents_survive_damage_anywhere(seed in any::<u64>()) {
        flight_documents_survive_damage(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The properties above at CI's release-mode length.
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn queries_survive_damage_anywhere_at_length(seed in any::<u64>()) {
        queries_survive_damage(seed);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn flight_documents_survive_damage_anywhere_at_length(seed in any::<u64>()) {
        flight_documents_survive_damage(seed);
    }
}

// ---------------------------------------------------------------------
// Alert contexts refreshed in place
// ---------------------------------------------------------------------

use netqos_telemetry::{Counter, Gauge};
use oracle::alerts::OracleEngine;
use std::collections::BTreeMap;

/// Signals a scope may carry. Rules read the first three and `reg_total`
/// (a registry counter); none reads `unread`.
const SCOPE_SIGNALS: [&str; 4] = ["load", "errors", "depth", "unread"];

/// One scope of one tick.
#[derive(Debug, Clone)]
enum ScopeSpec {
    /// The registry's global scope.
    Registry,
    /// A scope built by hand.
    Built {
        labels: Vec<(&'static str, &'static str)>,
        signals: Vec<(&'static str, f64)>,
        annotations: Vec<(&'static str, &'static str)>,
    },
}

fn spell_alert_rules(c: &mut Choices) -> Vec<AlertRule> {
    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let severities = [
        AlertSeverity::Info,
        AlertSeverity::Warning,
        AlertSeverity::Critical,
    ];
    (0..1 + c.next(6))
        .map(|_| AlertRule {
            // Names repeat: the last definition of one wins.
            name: ["hot", "cold", "busy", "stall"][c.next(4)].into(),
            signal: ["load", "errors", "depth", "reg_total"][c.next(4)].into(),
            delta: c.next(3) == 0,
            op: ops[c.next(4)],
            threshold: [-1.0, 0.0, 0.5, 1.0, 2.5][c.next(5)],
            for_ticks: 1 + c.next(3) as u64,
            severity: severities[c.next(3)],
        })
        .collect()
}

fn spell_scope(c: &mut Choices) -> ScopeSpec {
    if c.next(6) == 0 {
        return ScopeSpec::Registry;
    }
    let mut labels = Vec::new();
    if c.next(6) != 0 {
        labels.push(("path", ["feed1", "feed2", "a\"b\\c", "x\ny"][c.next(4)]));
    }
    if c.next(4) == 0 {
        labels.push(("site", ["fore", "aft"][c.next(2)]));
    }
    let mut signals = Vec::new();
    for signal in SCOPE_SIGNALS {
        if c.next(3) != 0 {
            signals.push((signal, c.next(7) as f64 - 2.0));
        }
    }
    let mut annotations = Vec::new();
    for key in ["bottleneck", "kind"] {
        if c.next(2) == 0 {
            annotations.push((key, ["sw.p1 <-> a.eth0", "shared_medium", ""][c.next(3)]));
        }
    }
    ScopeSpec::Built {
        labels,
        signals,
        annotations,
    }
}

/// The next tick's scopes: mostly the last tick's with new values, some
/// vanished and some new ones slipped in anywhere (so the rest shift),
/// sometimes a new set altogether.
fn spell_next_scopes(c: &mut Choices, last: &[ScopeSpec]) -> Vec<ScopeSpec> {
    if last.is_empty() || c.next(5) == 0 {
        return (0..c.next(6)).map(|_| spell_scope(c)).collect();
    }
    let mut next = Vec::new();
    for spec in last {
        if c.next(8) == 0 {
            continue;
        }
        if c.next(8) == 0 {
            next.insert(c.next(next.len() + 1), spell_scope(c));
        }
        next.push(match spec {
            ScopeSpec::Built {
                labels,
                signals,
                annotations,
            } => ScopeSpec::Built {
                labels: labels.clone(),
                signals: (signals.iter())
                    .map(|&(s, v)| {
                        (
                            s,
                            if c.next(3) == 0 {
                                c.next(7) as f64 - 2.0
                            } else {
                                v
                            },
                        )
                    })
                    .collect(),
                annotations: annotations.clone(),
            },
            registry => registry.clone(),
        });
    }
    next
}

/// The counters and gauges a test registered, by name: the oracle reads
/// them here, not through the registry walk under test.
#[derive(Default)]
struct Registered {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
}

/// `spec` built from nothing; the registry's scope from the metrics the
/// test registered, a gauge's value shadowing a counter's of its name.
fn fresh_scope(spec: &ScopeSpec, registered: &Registered) -> AlertScope {
    let mut scope = AlertScope::global();
    match spec {
        ScopeSpec::Registry => {
            for (name, c) in &registered.counters {
                scope.signals.insert(name.to_string(), c.get() as f64);
            }
            for (name, g) in &registered.gauges {
                scope.signals.insert(name.to_string(), g.get() as f64);
            }
        }
        ScopeSpec::Built {
            labels,
            signals,
            annotations,
        } => {
            for &(k, v) in labels {
                scope.labels.insert(k.into(), v.into());
            }
            for &(s, v) in signals {
                scope.set(s, v);
            }
            for &(k, v) in annotations {
                scope.annotate(k, v);
            }
        }
    }
    scope
}

/// `scope`, whatever it held, rewritten in place to hold `spec`.
fn refill_scope(scope: &mut AlertScope, spec: &ScopeSpec, registry: &Registry) {
    let ScopeSpec::Built {
        labels,
        signals,
        annotations,
    } = spec
    else {
        scope.set_from_registry(registry);
        return;
    };
    scope
        .labels
        .retain(|k, _| labels.iter().any(|(l, _)| l == k));
    for &(k, v) in labels {
        match scope.labels.get_mut(k) {
            Some(value) => value.replace_range(.., v),
            None => {
                scope.labels.insert(k.into(), v.into());
            }
        }
    }
    scope
        .signals
        .retain(|k, _| signals.iter().any(|(s, _)| s == k));
    for &(s, v) in signals {
        scope.set(s, v);
    }
    scope
        .annotations
        .retain(|k, _| annotations.iter().any(|(a, _)| a == k));
    for &(k, v) in annotations {
        scope.annotate(k, v);
    }
}

/// One engine fed a context refreshed in place, one fed contexts built
/// fresh, and the engine that rebuilt its keys every tick fed the fresh
/// ones: the same transitions and the same `/alerts` document, tick after
/// tick, while scopes appear, vanish, shift position, carry signals no
/// rule reads, and registry counters move under delta rules.
fn refreshed_contexts_match_fresh_ones(seed: u64) {
    let c = &mut Choices(seed);
    let rules = spell_alert_rules(c);
    let mut in_place = AlertEngine::new(rules.clone());
    let mut fresh = AlertEngine::new(rules.clone());
    let mut oracle = OracleEngine::new(rules);
    let registry = Registry::new();
    let mut registered = Registered::default();
    let reg_total = registry.counter("reg_total");
    // A gauge and a counter of one name: the gauge is the signal.
    registry.counter("depth").add(5);
    let depth = registry.gauge("depth");
    for name in ["reg_total", "depth"] {
        registered.counters.insert(name, registry.counter(name));
    }
    registered.gauges.insert("depth", depth.clone());
    let mut ctx = AlertContext::default();
    let mut doc = String::new();
    let mut scopes: Vec<ScopeSpec> = Vec::new();
    for tick in 1..=8 + c.next(24) as u64 {
        reg_total.add(c.next(3) as u64);
        depth.set(c.next(5) as i64 - 2);
        if c.next(10) == 0 {
            let name = ["late_total", "errors"][c.next(2)];
            (registered.counters.entry(name))
                .or_insert_with(|| registry.counter(name))
                .inc();
        }
        scopes = spell_next_scopes(c, &scopes);
        ctx.tick = tick;
        ctx.scopes.resize_with(scopes.len(), AlertScope::default);
        for (scope, spec) in ctx.scopes.iter_mut().zip(&scopes) {
            refill_scope(scope, spec, &registry);
        }
        let mut built = AlertContext::new(tick);
        built.scopes = scopes.iter().map(|s| fresh_scope(s, &registered)).collect();
        assert_eq!(ctx, built, "tick {tick}: {scopes:?}");

        let want = oracle.evaluate(&built);
        assert_eq!(fresh.evaluate(&built), want, "tick {tick}, fresh context");
        assert_eq!(
            in_place.evaluate(&ctx),
            want,
            "tick {tick}, refreshed context"
        );
        let want = oracle.render_json();
        assert_eq!(fresh.render_json(), want, "tick {tick}");
        doc.clear();
        in_place.render_json_into(&mut doc);
        assert_eq!(doc, want, "tick {tick}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn alert_contexts_refreshed_in_place_evaluate_as_fresh_ones(seed in any::<u64>()) {
        refreshed_contexts_match_fresh_ones(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The property above at CI's release-mode length.
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn alert_contexts_refreshed_in_place_evaluate_as_fresh_ones_at_length(seed in any::<u64>()) {
        refreshed_contexts_match_fresh_ones(seed);
    }
}

// ---------------------------------------------------------------------
// The tick-phase fold: spans with any parent ids fold, and forests fold
// as the parent-chain walk did
// ---------------------------------------------------------------------

use netqos_telemetry::{parse_json, JsonValue, PhaseProfile, SpanRecord, MAX_PHASE_DEPTH};

const PHASE_LABELS: [(&str, &str); 4] = [
    ("monitor", "cycle"),
    ("monitor.poll", "device"),
    ("snmp.codec", "decode"),
    ("monitor.qos", "evaluate"),
];

fn phase_span(c: &mut Choices, span_id: u64, parent: Option<u64>) -> SpanRecord {
    let (target, name) = PHASE_LABELS[c.next(PHASE_LABELS.len())];
    SpanRecord {
        trace_id: 1,
        span_id,
        parent,
        target: target.into(),
        name: name.into(),
        start_ns: 0,
        dur_ns: c.next(1_000_000) as u64,
        attrs: Vec::new(),
    }
}

fn cycle_of(spans: Vec<SpanRecord>) -> CycleTrace {
    CycleTrace {
        spans,
        ..CycleTrace::default()
    }
}

/// Up to three cycles of spans whose parent ids are anything: their
/// own, each other's in loops, ids no span has, ids several spans share.
fn tangled_cycles(c: &mut Choices) -> Vec<CycleTrace> {
    (0..1 + c.next(3))
        .map(|_| {
            let spans = (0..c.next(40))
                .map(|_| {
                    let id = c.next(24) as u64;
                    let parent = (c.next(4) != 0).then(|| c.next(28) as u64);
                    phase_span(c, id, parent)
                })
                .collect();
            cycle_of(spans)
        })
        .collect()
}

/// Up to three cycles, each a forest no deeper than [`MAX_PHASE_DEPTH`]
/// with unique span ids, in shuffled order. One cycle in four is a long
/// chain with a few branches, which reaches the depth bound; the others
/// are bushy and hold orphans.
fn forest_cycles(c: &mut Choices) -> Vec<CycleTrace> {
    (0..1 + c.next(3))
        .map(|_| {
            let deep = c.next(4) == 0;
            let n = c.next(if deep { 300 } else { 40 });
            let mut depth = Vec::with_capacity(n);
            let mut spans = Vec::with_capacity(n);
            // The deep chain's last span.
            let mut tip = 0;
            for i in 0..n {
                let parent = match (i, deep, c.next(8)) {
                    (0, ..) => None,
                    (_, true, 0) => Some(c.next(i)),
                    (_, true, _) => Some(std::mem::replace(&mut tip, i)),
                    (_, false, 0) => None,
                    (_, false, 1) => Some(usize::MAX), // an orphan
                    _ => Some(c.next(i)),
                };
                let parent = parent.filter(|&p| p == usize::MAX || depth[p] < MAX_PHASE_DEPTH);
                depth.push(match parent {
                    Some(p) if p != usize::MAX => depth[p] + 1,
                    _ => 1,
                });
                let parent_id = parent.map(|p| if p == usize::MAX { 7 } else { 100 + p as u64 });
                spans.push(phase_span(c, 100 + i as u64, parent_id));
            }
            for i in (1..spans.len()).rev() {
                spans.swap(i, c.next(i + 1));
            }
            cycle_of(spans)
        })
        .collect()
}

/// Calls of every phase in a `/profile` phase list, and the phases.
fn calls_and_phases(phases: &JsonValue) -> (u64, usize) {
    let mut sum = (0, 0);
    for phase in phases.as_array().expect("phase list") {
        let (calls, count) = calls_and_phases(phase.get("children").expect("children"));
        sum.0 += phase
            .get("calls")
            .and_then(JsonValue::as_u64)
            .expect("calls")
            + calls;
        sum.1 += 1 + count;
    }
    sum
}

fn tangled_parent_ids_fold(seed: u64) {
    let cycles = tangled_cycles(&mut Choices(seed));
    let profile = PhaseProfile::fold(&cycles);
    let json = profile.to_json();
    let doc = parse_json(&json).unwrap_or_else(|e| panic!("{e:?}: {json}"));
    let spans: usize = cycles.iter().map(|c| c.spans.len()).sum();
    let (calls, phases) = calls_and_phases(doc.get("phases").unwrap());
    assert_eq!(calls, spans as u64, "{json}");
    assert_eq!(profile.to_folded().lines().count(), phases);
    let folded = doc.get("window_cycles").and_then(JsonValue::as_u64);
    assert_eq!(folded, Some(cycles.len() as u64));
}

fn forests_fold_as_the_oracle(seed: u64) {
    let cycles = forest_cycles(&mut Choices(seed));
    let profile = PhaseProfile::fold(&cycles);
    let walked = oracle::profile::Profile::fold(&cycles);
    assert_eq!(profile.to_json(), walked.to_json());
    assert_eq!(profile.to_folded(), walked.to_folded());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Self-parented spans, loops, missing parents and repeated ids fold
    /// without panicking, and every span is one call of one phase.
    #[test]
    fn spans_with_any_parent_ids_fold_every_span_once(seed in any::<u64>()) {
        tangled_parent_ids_fold(seed);
    }

    /// On forests within the depth bound, the one-pass fold writes the
    /// documents the parent-chain walk wrote, byte for byte.
    #[test]
    fn forests_fold_as_the_parent_chain_walk_did(seed in any::<u64>()) {
        forests_fold_as_the_oracle(seed);
    }
}

// ---------------------------------------------------------------------
// Downsampling: `downsample` against the fold that collected buckets in
// a map, the writer's `1m`/`1h` points against that fold over the raw
// points it kept; the wildcard matcher against the recursive one
// ---------------------------------------------------------------------

use netqos_telemetry::selector_matches;

/// A window of up to 40 points, one in five of another kind than the
/// one it is folded as, values near both ends of `u64`, histogram
/// buckets in any order and repeated.
fn downsample_agrees(seed: u64) {
    let c = &mut Choices(seed);
    let kind = KINDS[c.next(3)];
    let len = [0, 1, 2, c.next(40)][c.next(4)];
    let window: Vec<Point> = (0..len)
        .map(|t| {
            let k = if c.next(5) == 0 {
                KINDS[c.next(3)]
            } else {
                kind
            };
            Point {
                t: t as u64,
                value: spell_value(k, c),
            }
        })
        .collect();
    assert_eq!(
        downsample(kind, &window),
        oracle::downsample(kind, &window),
        "{kind:?} over {window:?}"
    );
}

/// A pattern over `a`, `b` and `*` against names over `a` and `b`.
fn wildcard_agrees(seed: u64) {
    let c = &mut Choices(seed);
    let mut spell = |alphabet: &[u8], max: usize| -> String {
        (0..c.next(max + 1))
            .map(|_| alphabet[c.next(alphabet.len())] as char)
            .collect()
    };
    let pattern = spell(b"ab**", 10);
    for _ in 0..8 {
        let name = spell(b"ab", 12);
        assert_eq!(
            selector_matches(&pattern, &name),
            oracle::selector_matches(&pattern, &name),
            "{pattern:?} against {name:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fold gives what the map-collecting window fold gave, for any
    /// slice, mixed kinds included.
    #[test]
    fn downsample_matches_the_oracle(seed in any::<u64>()) {
        downsample_agrees(seed);
    }

    /// Backtracking to the latest `*` only answers as trying every split
    /// did.
    #[test]
    fn wildcards_match_the_oracle(seed in any::<u64>()) {
        wildcard_agrees(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The two properties above at length, in CI's release-mode
    /// `--ignored` run.
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn downsample_matches_the_oracle_at_length(seed in any::<u64>()) {
        downsample_agrees(seed);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn wildcards_match_the_oracle_at_length(seed in any::<u64>()) {
        wildcard_agrees(seed);
    }
}

/// The `1m` and `1h` tails of a store, as they are: a tail and its
/// bytes, or a tail that is not there.
fn coarse_tails(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut tails = Vec::new();
    for res in [Resolution::Min1, Resolution::Hour1] {
        let Ok(entries) = std::fs::read_dir(dir.join(res.dir_name())) else {
            continue;
        };
        for e in entries.flatten() {
            let tail = e.path().join(OPEN_TAIL);
            let bytes = std::fs::read(&tail).ok();
            tails.push((tail, bytes));
        }
    }
    tails
}

/// One series of each kind appended with gaps of seconds, minutes and
/// hours, flushed off minute boundaries, the store dropped and reopened
/// mid-window, and now and then reopened over `1m` and `1h` tails put
/// back as they were a few flushes before, as a crash between a raw
/// write and the coarse ones leaves them. After a last flush, the store
/// verifies clean and every `1m` and `1h` point read back is the
/// oracle's fold of the raw points read back.
fn written_windows_agree(seed: u64) {
    let c = &mut Choices(seed);
    let dir = std::env::temp_dir().join(format!(
        "netqos-prop-windows-{seed:x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = LtsConfig {
        codec: SegmentCodec::Binary,
        seal_points: [3, 40, usize::MAX][c.next(3)],
        retention: LtsRetention {
            max_age_secs: 0,
            max_bytes: 0,
        },
    };
    let open = || LtsStore::open(&dir, config.clone(), LtsCounters::detached()).unwrap();
    let mut store = open();
    let mut snapshot = None;
    let mut t = 1_700_000_000u64 - 1_700_000_000 % 3_600 + c.next(7_200) as u64;
    for _ in 0..c.next(600) {
        t += match c.next(40) {
            0 => 600 + c.next(4_000) as u64,
            1..=4 => 20 + c.next(200) as u64,
            _ => 1 + c.next(3) as u64,
        };
        for (name, kind) in [
            ("c_total", SeriesKind::Counter),
            ("depth", SeriesKind::Gauge),
            ("lat_ns", SeriesKind::Histogram),
        ] {
            if c.next(6) != 0 {
                let mut value = spell_value(kind, c);
                // Counts too small to wrap a window's to 0, which the
                // codec would store without its min and max.
                if let PointValue::Histogram(h) = &mut value {
                    h.count = h.count.min(1 << 32);
                }
                store.append(name, t, value);
            }
        }
        match c.next(60) {
            0..=5 => {
                store.flush().unwrap();
            }
            6 => {
                drop(store);
                store = open();
            }
            7 if snapshot.is_none() => snapshot = Some(coarse_tails(&dir)),
            8 => {
                store.flush().unwrap();
                drop(store);
                for (tail, bytes) in snapshot.take().unwrap_or_default() {
                    match bytes {
                        Some(bytes) => std::fs::write(&tail, bytes).unwrap(),
                        None => {
                            let _ = std::fs::remove_file(&tail);
                        }
                    }
                }
                store = open();
            }
            _ => {}
        }
    }
    store.flush().unwrap();
    drop(store);
    let issues = verify_store(&dir).unwrap().issues;
    assert_eq!(issues, Vec::<String>::new(), "seed {seed:#x}");
    for info in LtsReader::open(&dir).index() {
        let raw = oracle::series_points(&dir, &info, Resolution::Raw1s, 0, u64::MAX);
        for res in [Resolution::Min1, Resolution::Hour1] {
            assert_eq!(
                oracle::series_points(&dir, &info, res, 0, u64::MAX),
                oracle::closed_windows(info.kind, &raw, res),
                "{} at {} (seed {seed:#x})",
                info.name,
                res.dir_name()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the schedule of appends, flushes, reopens and coarse
    /// tails left behind, the writer's `1m` and `1h` points are the
    /// windows of its raw points, folded.
    #[test]
    fn written_windows_match_the_oracle(seed in any::<u64>()) {
        written_windows_agree(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The property above over more schedules, in CI's release-mode
    /// `--ignored` run.
    #[test]
    #[ignore = "400 stores: run in release mode"]
    fn written_windows_match_the_oracle_at_length(seed in any::<u64>()) {
        written_windows_agree(seed);
    }
}
