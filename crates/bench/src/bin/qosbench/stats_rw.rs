//! `stats-rw`: writes beside reads on the stats plane. One tick is one
//! flush period — 60 seconds of appends for 256 series, a flush, then a
//! batch of PromQL reads through `LtsSource`.

use crate::driver::{self, ChildCfg, Plan, Workload};
use crate::harness::{self, Report, Rng};
use netqos_telemetry::{
    LtsConfig, LtsCounters, LtsReader, LtsRetention, LtsSource, LtsStore, PointValue, QueryEngine,
    QueryOutcome, QueryResult, QueryStats, Resolution, SegmentCodec, SeriesSource,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const NAME: &str = "stats-rw";
const SERIES: usize = 256;
const GROUPS: usize = 8;
/// Sub-groups the range query sums a group's 32 series by.
const SUBGROUPS: usize = 4;
/// The group the range query reads. Fixed: the groups' open tails differ
/// in length by a few lines, and the seed must not pick the work.
const RANGE_GROUP: usize = 3;
const SECS_PER_TICK: u64 = 60;
const INSTANTS: usize = 6;
/// Join phases of the series the instant queries read. A raw-resolution
/// read parses the series' open tail, whose length cycles with the
/// phase; fixed, evenly spaced phases keep the batch's cost the same for
/// every seed and within a few percent from tick to tick. The seed picks
/// which of the four series of each phase is read.
const INSTANT_PHASES: [u64; INSTANTS] = [0, 11, 21, 32, 43, 53];
const RATE_WINDOW: u64 = 300;
const RANGE_SPAN: u64 = 3_600;
/// Points per sealed segment: 64 flush periods. Series join the store
/// one phase per minute over the first 64 minutes of set-up, so exactly
/// `SERIES / PHASES` tails reach the seal size in every tick, instead of
/// all 256 in one tick out of 64 (which a floor would never see).
const PHASES: u64 = 64;
const SEAL_POINTS: usize = (PHASES * SECS_PER_TICK) as usize;
/// Minutes of sparse history (one point a minute) before the dense
/// data. A step-60 range query parses every selected series' whole 1m
/// open tail, which gains a line per tick; on a young store that made
/// the query 0.3 % dearer with every tick. With 16 h of 1m history in
/// the tail, as a monitor that has been up that long has, a tick adds
/// under 0.1 %, and the ticks of a run do the same work.
const HISTORY_MINUTES: u64 = 960;
/// Set-up appends the history, the stagger period, then the hour the
/// range query reads; the first tick starts at `T0`.
const T_HISTORY: u64 = 1_700_000_000 - 1_700_000_000 % 3_600;
const T_START: u64 = T_HISTORY + HISTORY_MINUTES * 60;
const T0: u64 = T_START + PHASES * 60 + RANGE_SPAN;
/// Sealed segments older than this behind the newest point are deleted,
/// so the store (and the work per tick) is steady however long the run.
const RETAIN_SECS: u64 = 2 * RANGE_SPAN;

const PLAN: Plan = Plan {
    warmup: 4,
    exact: 10,
    traced: 40,
    spans_per_tick: SECS_PER_TICK as usize + 1 + INSTANTS + 1,
};

/// The appended data: a seeded base per series plus a small periodic
/// term, so expected query results have a closed form.
struct Oracle {
    base: Vec<u64>,
}

impl Oracle {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5eed_0004);
        Oracle {
            base: (0..SERIES).map(|_| rng.range(1_000, 8_000)).collect(),
        }
    }

    /// First second of series `i`'s dense (one point a second) data.
    fn joined(i: usize) -> u64 {
        T_START + (i as u64 % PHASES) * 60
    }

    /// Whether series `i` has a point at second `t`: one a minute during
    /// the history, none until it joins, one a second after.
    fn has_point(i: usize, t: u64) -> bool {
        if t < T_START {
            t.is_multiple_of(60)
        } else {
            t >= Self::joined(i)
        }
    }

    /// Counter increase of series `i` recorded at second `t`.
    fn delta(&self, i: usize, t: u64) -> u64 {
        if !Self::has_point(i, t) {
            return 0;
        }
        self.base[i] + (t + i as u64) % 7
    }

    /// `rate(series_i[RATE_WINDOW])` at `t` over seconds `(t-W, t]`.
    fn rate(&self, i: usize, t: u64) -> f64 {
        let sum: u64 = (t + 1 - RATE_WINDOW..=t).map(|s| self.delta(i, s)).sum();
        sum as f64 / RATE_WINDOW as f64
    }
}

fn series_name(i: usize) -> String {
    format!(
        "qb_octets_total{{dev=\"d{i:03}\",grp=\"g{}\",sub=\"s{}\"}}",
        i % GROUPS,
        subgroup(i)
    )
}

fn subgroup(i: usize) -> usize {
    i / GROUPS % SUBGROUPS
}

struct StatsLoop {
    dir: PathBuf,
    store: LtsStore,
    counters: LtsCounters,
    engine: QueryEngine,
    oracle: Oracle,
    names: Vec<String>,
    /// The seeded series the instant queries read, one each.
    instant_queries: Vec<(usize, String)>,
    range_query: String,
    /// Next second to append.
    now: u64,
    /// Wall time of the write part (appends + flush) and of the read
    /// batch of every tick since they were last cleared.
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    appended: u64,
    queries: u64,
    query_errors: u64,
    points_written: u64,
    segments_sealed: u64,
    query_stats: QueryStats,
    /// Outcomes of the latest read batch, for the closed-form check.
    last_instants: Vec<QueryOutcome>,
    last_range: Option<QueryOutcome>,
}

impl StatsLoop {
    fn build(seed: u64, out_dir: &Path) -> Self {
        let dir = out_dir.join("lts-store");
        std::fs::remove_dir_all(&dir).ok();
        let counters = LtsCounters::detached();
        let config = LtsConfig {
            seal_points: SEAL_POINTS,
            retention: LtsRetention {
                max_age_secs: RETAIN_SECS,
                max_bytes: 0,
            },
            codec: SegmentCodec::Binary,
        };
        let store = LtsStore::open(&dir, config, counters.clone()).expect("store opens");
        let engine = QueryEngine::new().with_source(
            None,
            Arc::new(LtsSource::new(LtsReader::open(&dir))) as Arc<dyn SeriesSource>,
        );
        let mut rng = Rng::new(seed ^ 0x5eed_0005);
        let mut w = StatsLoop {
            dir,
            store,
            counters,
            engine,
            oracle: Oracle::new(seed),
            names: (0..SERIES).map(series_name).collect(),
            instant_queries: INSTANT_PHASES
                .iter()
                .map(|phase| {
                    let i = (phase + PHASES * rng.range(0, SERIES as u64 / PHASES - 1)) as usize;
                    (
                        i,
                        format!("rate(qb_octets_total{{dev=\"d{i:03}\"}}[{RATE_WINDOW}])"),
                    )
                })
                .collect(),
            range_query: format!(
                "sum by (sub) (rate(qb_octets_total{{grp=\"g{RANGE_GROUP}\"}}[{RATE_WINDOW}]))"
            ),
            now: T_START,
            // Room for any run, so the tick itself never grows them.
            write_ns: Vec::with_capacity(1 << 16),
            read_ns: Vec::with_capacity(1 << 16),
            appended: 0,
            queries: 0,
            query_errors: 0,
            points_written: 0,
            segments_sealed: 0,
            query_stats: QueryStats::default(),
            last_instants: Vec::with_capacity(INSTANTS),
            last_range: None,
        };
        w.write_history();
        while w.now < T0 {
            w.write_period();
        }
        w
    }

    /// Appends the sparse history, flushing every two hours of it.
    fn write_history(&mut self) {
        for minute in 0..HISTORY_MINUTES {
            let t = T_HISTORY + minute * 60;
            for (i, name) in self.names.iter().enumerate() {
                self.store
                    .append(name, t, PointValue::Counter(self.oracle.delta(i, t)));
                self.appended += 1;
            }
            if minute % 120 == 119 {
                self.store.flush().expect("flush");
            }
        }
    }

    /// Appends one flush period for every joined series and flushes.
    fn write_period(&mut self) {
        for t in self.now..self.now + SECS_PER_TICK {
            let _s = harness::span("telemetry.lts.append");
            for (i, name) in self.names.iter().enumerate() {
                if Oracle::has_point(i, t) {
                    self.store
                        .append(name, t, PointValue::Counter(self.oracle.delta(i, t)));
                    self.appended += 1;
                }
            }
        }
        self.now += SECS_PER_TICK;
        let _s = harness::span("telemetry.lts.flush");
        let flushed = self.store.flush().expect("flush");
        self.points_written += flushed.points_written;
        self.segments_sealed += flushed.segments_sealed;
    }

    fn read_batch(&mut self) {
        let t = self.now - 1;
        self.last_instants.clear();
        for (_, q) in &self.instant_queries {
            let _s = harness::span("telemetry.promql.instant");
            self.queries += 1;
            match self.engine.instant(q, t, Resolution::Raw1s) {
                Ok(out) => {
                    add_stats(&mut self.query_stats, &out.stats);
                    self.last_instants.push(out);
                }
                Err(_) => self.query_errors += 1,
            }
        }
        let _s = harness::span("telemetry.promql.range");
        self.queries += 1;
        match self.engine.range(&self.range_query, t - RANGE_SPAN, t, 60) {
            Ok(out) => {
                add_stats(&mut self.query_stats, &out.stats);
                self.last_range = Some(out);
            }
            Err(_) => self.query_errors += 1,
        }
    }

    /// Compares the latest read batch with the closed form of what was
    /// appended.
    fn check_reads(&self, report: &mut Report) {
        let t = self.now - 1;
        let close = |got: f64, want: f64| (got - want).abs() <= want.abs() * 1e-9;
        report.check(self.last_instants.len() == INSTANTS, || {
            format!(
                "{} of {INSTANTS} instant queries answered",
                self.last_instants.len()
            )
        });
        for ((i, query), out) in self.instant_queries.iter().zip(&self.last_instants) {
            let want = self.oracle.rate(*i, t);
            let got = match &out.result {
                QueryResult::Vector(samples) if samples.len() == 1 => samples[0].v,
                other => {
                    report
                        .failures
                        .push(format!("{query}: expected one sample, got {other:?}"));
                    continue;
                }
            };
            report.check(close(got, want), || {
                format!("{query}: reads {got} for {want}")
            });
        }
        let Some(QueryResult::Matrix(rows)) = self.last_range.as_ref().map(|o| &o.result) else {
            report.failures.push("range query gave no matrix".into());
            return;
        };
        report.check(rows.len() == SUBGROUPS, || {
            format!("range query: {} sub-groups", rows.len())
        });
        for row in rows {
            let sub = row
                .labels
                .iter()
                .find(|(k, _)| k == "sub")
                .and_then(|(_, v)| v.trim_start_matches('s').parse::<usize>().ok());
            let Some(sub) = sub.filter(|s| *s < SUBGROUPS) else {
                report
                    .failures
                    .push(format!("range query: stray sub-group {:?}", row.labels));
                continue;
            };
            report.check(row.values.len() == (RANGE_SPAN / 60 + 1) as usize, || {
                format!("range query: s{sub} has {} steps", row.values.len())
            });
            for &(step_t, v) in &row.values {
                // At step 60 the engine reads 1m points; each step's
                // window holds five whole minutes, except the newest
                // step, whose last minute has not closed yet.
                let upto = if step_t == t { step_t - 60 } else { step_t };
                let sum: u64 = (RANGE_GROUP..SERIES)
                    .step_by(GROUPS)
                    .filter(|i| subgroup(*i) == sub)
                    .map(|i| {
                        (step_t + 1 - RATE_WINDOW..=upto)
                            .map(|s| self.oracle.delta(i, s))
                            .sum::<u64>()
                    })
                    .sum();
                let want = sum as f64 / RATE_WINDOW as f64;
                report.check(close(v, want), || {
                    format!("range query: s{sub}@{step_t} reads {v} for {want}")
                });
            }
        }
    }

    fn finish(&mut self, report: &mut Report) {
        self.check_reads(report);
        let dropped = self.counters.dropped.get();
        report.attempted = self.appended + self.queries;
        report.failed = dropped + self.query_errors;
        report.check(report.failed == 0, || {
            format!(
                "{dropped} appends dropped, {} queries failed",
                self.query_errors
            )
        });
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn add_stats(total: &mut QueryStats, one: &QueryStats) {
    total.series += one.series;
    total.points_scanned += one.points_scanned;
    total.pushdown_evals += one.pushdown_evals;
    total.segments_folded += one.segments_folded;
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload for StatsLoop {
    fn tick(&mut self) {
        let start = std::time::Instant::now();
        self.write_period();
        let written = start.elapsed().as_nanos() as u64;
        self.read_batch();
        self.write_ns.push(written);
        self.read_ns
            .push(start.elapsed().as_nanos() as u64 - written);
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "telemetry.lts.disk_kb_per_tick",
            dir_bytes(&self.dir) as f64 / 1024.0,
        )]
    }
}

pub fn run(cfg: &ChildCfg) -> Report {
    let mut report = Report::default();
    let plan = PLAN.for_budget(cfg.budget);
    let mut w = driver::build_and_count(&plan, &mut report, || {
        StatsLoop::build(cfg.seed, &cfg.out_dir)
    });
    w.check_reads(&mut report);
    w.write_ns.clear();
    w.read_ns.clear();
    if !cfg.traced {
        driver::timed_window(&mut w, cfg.budget, &mut report);
        // The parent pools these across rounds like the tick samples.
        report.layers.insert(
            "telemetry.lts.write_floor_ms".into(),
            harness::floor_ms(&mut w.write_ns),
        );
        report.layers.insert(
            "telemetry.promql.query_floor_ms".into(),
            harness::floor_ms(&mut w.read_ns),
        );
        w.finish(&mut report);
        return report;
    }

    let (points0, sealed0, queries0) = (w.points_written, w.segments_sealed, w.queries);
    let stats0 = w.query_stats;
    let stages = driver::traced_window(&mut w, &plan, cfg, NAME, &mut report);
    w.finish(&mut report);
    let ticks = plan.traced as f64;
    let points = (w.points_written - points0) as f64;
    let queries = (w.queries - queries0) as f64;
    let append = driver::stage_floor_ms(&stages, "telemetry.lts.append");
    let l = &mut report.layers;
    l.insert("telemetry.lts.append_floor_ms".into(), append);
    l.insert(
        "telemetry.lts.append_ns_per_point".into(),
        append * 1e6 / (points / ticks),
    );
    l.insert(
        "telemetry.lts.flush_floor_ms".into(),
        driver::stage_floor_ms(&stages, "telemetry.lts.flush"),
    );
    l.insert("telemetry.lts.points_per_tick".into(), points / ticks);
    l.insert(
        "telemetry.lts.segments_sealed_per_tick".into(),
        (w.segments_sealed - sealed0) as f64 / ticks,
    );
    l.insert(
        "telemetry.lts.allocs_per_point".into(),
        (driver::stage_allocs_per(&stages, "telemetry.lts.append", 1.0)
            + driver::stage_allocs_per(&stages, "telemetry.lts.flush", 1.0))
            / points,
    );
    l.insert(
        "telemetry.promql.instant_floor_ms".into(),
        driver::stage_floor_ms(&stages, "telemetry.promql.instant"),
    );
    l.insert(
        "telemetry.promql.range_floor_ms".into(),
        driver::stage_floor_ms(&stages, "telemetry.promql.range"),
    );
    let s = w.query_stats;
    l.insert(
        "telemetry.promql.points_scanned_per_query".into(),
        (s.points_scanned - stats0.points_scanned) as f64 / queries,
    );
    l.insert(
        "telemetry.promql.segments_folded_per_query".into(),
        (s.segments_folded - stats0.segments_folded) as f64 / queries,
    );
    // Window evaluations answered from segment headers, as a share of
    // the series each query matched.
    l.insert(
        "telemetry.promql.pushdown_share".into(),
        (s.pushdown_evals - stats0.pushdown_evals) as f64
            / (s.series - stats0.series).max(1) as f64,
    );
    report
}
