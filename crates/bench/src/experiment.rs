//! The one experiment runner: the paper's §4 experiments and the sweeps
//! of the interval source and the poll period, run on the monitoring
//! service that ships and judged twice — against the offered load less
//! background (the paper's arithmetic) and against the simulator's own
//! octet counters, which leaves the measurement error alone.
//!
//! [`run`] drives [`MonitoringService::tick`] and reads each watched
//! qospath's row: `used_bps` is the measurement, and `truth_used_bps` the
//! value it should have read, the service's same evaluation over the
//! counters the simulator records after every poll ([`Network::truth`]).
//! `tests/experiments.rs` renders every scenario into EXPERIMENTS.md's
//! generated block and holds the file to it byte for byte.
//!
//! [`MonitoringService::tick`]: netqos_monitor::MonitoringService::tick
//! [`Network::truth`]: netqos_monitor::Network::truth

use crate::testbed::{build_service, Load, TestbedOptions};
use netqos_loadgen::LoadProfile;
use netqos_monitor::latency::LatencyStats;
use netqos_monitor::monitor::IntervalStrategy;
use netqos_monitor::{MonitorError, ServiceConfig};
use netqos_sim::time::SimDuration;
use std::fmt::Write as _;

/// A measurement window on one qospath, in seconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start (s).
    pub from_s: f64,
    /// Window end (s), exclusive.
    pub to_s: f64,
    /// Offered load in the window (Kbytes/s).
    pub generated_kbps: f64,
}

/// What to read off one qospath: an idle window, whose mean is the
/// background traffic, and the windows to judge.
#[derive(Debug, Clone)]
pub struct Watch {
    /// The qospath's name in `specs/lirtss.spec`.
    pub path: &'static str,
    /// The idle window (s).
    pub background: (f64, f64),
    /// The windows to judge.
    pub steps: Vec<Window>,
}

/// One experiment on the LIRTSS testbed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The heading of the table its rows go in; consecutive scenarios
    /// under one heading share the table.
    pub section: &'static str,
    /// The load generators.
    pub loads: Vec<Load>,
    /// The service's poll period.
    pub poll_period: SimDuration,
    /// Mean SNMP agent response jitter (None = instant agents).
    pub agent_jitter: Option<SimDuration>,
    /// How the monitor measures poll intervals.
    pub interval: IntervalStrategy,
    /// Simulated seconds to run.
    pub duration_s: u64,
    /// The qospaths to judge.
    pub watches: Vec<Watch>,
}

impl Scenario {
    /// The settings that tell this scenario from others in its table.
    pub fn label(&self) -> String {
        let jitter_ms = self.agent_jitter.map_or(0, |j| j.as_micros() / 1000);
        let interval = match self.interval {
            IntervalStrategy::SysUpTime => "sysUpTime",
            IntervalStrategy::NominalPeriod(_) => "nominal",
        };
        let period_s = self.poll_period.as_secs_f64();
        format!("{period_s} s, {jitter_ms} ms jitter, {interval}")
    }
}

/// Figure 4 + Table 2's section heading.
pub const FIG4: &str = "Figure 4 + Table 2 — staircase L→N1";
/// Figure 5's section heading.
pub const FIG5: &str = "Figure 5 — hosts on a hub";
/// Figure 6's section heading.
pub const FIG6: &str = "Figure 6 — hosts on a switch";
/// The interval-source sweep's section heading.
pub const INTERVAL: &str = "Interval source under agent jitter";
/// The poll-period sweep's section heading.
pub const PERIOD: &str = "Poll period";

fn window(from_s: f64, to_s: f64, generated_kbps: f64) -> Window {
    Window {
        from_s,
        to_s,
        generated_kbps,
    }
}

/// A scenario at the paper's settings: 1 s polls, 15 ms mean agent
/// jitter, sysUpTime intervals.
fn paper(
    section: &'static str,
    loads: Vec<Load>,
    duration_s: u64,
    watches: Vec<Watch>,
) -> Scenario {
    Scenario {
        section,
        loads,
        poll_period: SimDuration::from_secs(1),
        agent_jitter: Some(SimDuration::from_millis(15)),
        interval: IntervalStrategy::SysUpTime,
        duration_s,
        watches,
    }
}

/// Every scenario EXPERIMENTS.md reports, in its order. Windows start
/// 3 s after a load changes and end 1 s before the next change, so no
/// sample straddles an edge.
pub fn scenarios() -> Vec<Scenario> {
    // Figure 4: 100 KB/s L→N1 from 120 s, 100 KB/s more every 60 s, all
    // load off at 420 s; the last window is the tail back at background.
    let staircase = LoadProfile::staircase(120, 100_000, 100_000, 60, 5);
    let steps = (0..5).map(|i| {
        let start = 120.0 + 60.0 * f64::from(i);
        window(start + 3.0, start + 59.0, 100.0 * f64::from(i + 1))
    });
    let fig4 = Watch {
        path: "s1n1",
        background: (5.0, 115.0),
        steps: steps.chain([window(423.0, 479.0, 0.0)]).collect(),
    };
    // Figure 5: 200 KB/s L→N1 in [20, 80) and L→N2 in [40, 100); the hub
    // puts their sum on both paths.
    let hub = |path| Watch {
        path,
        background: (5.0, 18.0),
        steps: vec![
            window(23.0, 39.0, 200.0),
            window(43.0, 79.0, 400.0),
            window(83.0, 99.0, 200.0),
        ],
    };
    // Figure 6: 2000 KB/s L→S2 in [20, 60), L→S3 in [40, 80), L→S1 in
    // [100, 120); the switch shows each path its own load only, and the
    // load to S1 on both.
    let switch = |path, s2, s3| Watch {
        path,
        background: (5.0, 18.0),
        steps: vec![
            window(23.0, 39.0, s2),
            window(43.0, 59.0, s2 + s3),
            window(63.0, 79.0, s3),
            window(103.0, 119.0, 2000.0),
        ],
    };
    let mut all = vec![
        paper(FIG4, vec![Load::new("L", "N1", staircase)], 480, vec![fig4]),
        paper(
            FIG5,
            vec![
                Load::new("L", "N1", LoadProfile::pulse(20, 80, 200_000)),
                Load::new("L", "N2", LoadProfile::pulse(40, 100, 200_000)),
            ],
            120,
            vec![hub("s1n1"), hub("s1n2")],
        ),
        paper(
            FIG6,
            vec![
                Load::new("L", "S2", LoadProfile::pulse(20, 60, 2_000_000)),
                Load::new("L", "S3", LoadProfile::pulse(40, 80, 2_000_000)),
                Load::new("L", "S1", LoadProfile::pulse(100, 120, 2_000_000)),
            ],
            130,
            vec![switch("s1s2", 2000.0, 0.0), switch("s1s3", 0.0, 2000.0)],
        ),
    ];
    // The sweeps: one 200 KB/s pulse L→N1 in [15, 45).
    let pulse = |section| {
        let watch = Watch {
            path: "s1n1",
            background: (1.0, 14.0),
            steps: vec![window(18.0, 44.0, 200.0)],
        };
        let load = Load::new("L", "N1", LoadProfile::pulse(15, 45, 200_000));
        paper(section, vec![load], 55, vec![watch])
    };
    for jitter_ms in [0, 15, 60, 150] {
        for interval in [
            IntervalStrategy::SysUpTime,
            IntervalStrategy::NominalPeriod(100),
        ] {
            all.push(Scenario {
                agent_jitter: (jitter_ms > 0).then(|| SimDuration::from_millis(jitter_ms)),
                interval,
                ..pulse(INTERVAL)
            });
        }
    }
    for period_ms in [500, 1000, 2000, 5000] {
        all.push(Scenario {
            poll_period: SimDuration::from_millis(period_ms),
            ..pulse(PERIOD)
        });
    }
    all
}

/// One tick's answer on one watched qospath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated seconds since the start, when the tick ended.
    pub t_s: f64,
    /// The service's row: used bandwidth at the bottleneck, bits/s.
    pub measured_bps: u64,
    /// The row's `truth_used_bps`: the same evaluation over the counter
    /// truth, bits/s.
    pub truth_bps: Option<u64>,
}

/// A scenario and what its run saw.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The scenario run.
    pub scenario: Scenario,
    /// Per watch, in order: a sample for every tick that wrote the path
    /// a row.
    pub samples: Vec<Vec<Sample>>,
}

/// Runs `scenario` on the service to its duration.
pub fn run(scenario: Scenario) -> Result<Outcome, MonitorError> {
    let options = TestbedOptions {
        agent_jitter_mean: scenario.agent_jitter,
        ..TestbedOptions::default()
    };
    let config = ServiceConfig {
        poll_period: scenario.poll_period,
        ..ServiceConfig::default()
    };
    let mut service = build_service(&scenario.loads, &options, config)?;
    service
        .monitor_mut()
        .set_interval_strategy(scenario.interval);
    let qos_paths = &service.net_mut().model().qos_paths;
    let unknown = (scenario.watches.iter()).find(|w| !qos_paths.iter().any(|q| q.name == w.path));
    if let Some(watch) = unknown {
        return Err(MonitorError::Topology(format!("no qospath {}", watch.path)));
    }
    let start = service.net_mut().lan.now();
    let mut samples = vec![Vec::new(); scenario.watches.len()];
    loop {
        service.tick()?;
        let now = service.net_mut().lan.now();
        let t_s = now.duration_since(start).as_secs_f64();
        if t_s > scenario.duration_s as f64 {
            break;
        }
        for (watch, out) in scenario.watches.iter().zip(&mut samples) {
            if let Some(row) = service.rows().iter().find(|r| r.name == watch.path) {
                out.push(Sample {
                    t_s,
                    measured_bps: row.used_bps,
                    truth_bps: row.truth_used_bps,
                });
            }
        }
    }
    Ok(Outcome { scenario, samples })
}

/// One window's figures, in Kbytes/s and percent. The error columns are
/// `None` in a window with no offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// The window.
    pub window: Window,
    /// Mean measured load in the watch's idle window.
    pub background_kbps: f64,
    /// Mean measured load in the window, less the background.
    pub avg_less_background: f64,
    /// `(avg_less_background − generated) / generated`.
    pub pct_error: Option<f64>,
    /// The largest single-sample error against the generated load.
    pub max_pct_error: Option<f64>,
    /// The median `|measured − truth| / truth` over the window's samples.
    pub truth_median_pct: Option<f64>,
    /// The largest `|measured − truth| / truth` over the window's samples.
    pub truth_max_pct: Option<f64>,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

impl Outcome {
    /// The figures of watch `watch`'s windows, in order.
    pub fn stats(&self, watch: usize) -> Vec<WindowStat> {
        let spec = &self.scenario.watches[watch];
        let samples = &self.samples[watch];
        let within =
            |from: f64, to: f64| (samples.iter()).filter(move |s| s.t_s >= from && s.t_s < to);
        let kbps = |bps: u64| bps as f64 / 8000.0;
        let (bg_from, bg_to) = spec.background;
        let background = mean(within(bg_from, bg_to).map(|s| kbps(s.measured_bps)));
        (spec.steps.iter())
            .map(|&w| {
                let less: Vec<f64> = (within(w.from_s, w.to_s))
                    .map(|s| kbps(s.measured_bps) - background)
                    .collect();
                let avg = mean(less.iter().copied());
                let mut truth: Vec<f64> = (within(w.from_s, w.to_s))
                    .filter_map(|s| {
                        let truth = s.truth_bps.filter(|&t| t > 0)? as f64;
                        Some((s.measured_bps as f64 - truth).abs() / truth * 100.0)
                    })
                    .collect();
                truth.sort_by(f64::total_cmp);
                let loaded = w.generated_kbps > 0.0;
                let pct = |v: f64| (v - w.generated_kbps) / w.generated_kbps * 100.0;
                let max_pct = less.iter().map(|&v| pct(v).abs()).fold(0.0, f64::max);
                WindowStat {
                    window: w,
                    background_kbps: background,
                    avg_less_background: avg,
                    pct_error: loaded.then(|| pct(avg)),
                    max_pct_error: loaded.then_some(max_pct),
                    truth_median_pct: truth.get(truth.len() / 2).copied().filter(|_| loaded),
                    truth_max_pct: truth.last().copied().filter(|_| loaded),
                }
            })
            .collect()
    }
}

/// One load level of the latency-vs-load table: echo RTTs from the
/// monitor host to S1 (switch path) and N1 (through the hub).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRow {
    /// Constant L→N1 load (Kbytes/s).
    pub load_kbps: u64,
    /// RTTs to S1.
    pub s1: LatencyStats,
    /// RTTs to N1; `None` when every probe was lost.
    pub n1: Option<LatencyStats>,
}

/// The latency extension: probes S1 and N1 after three ticks under each
/// constant L→N1 load, from idle to hub saturation, with instant agents
/// so only queueing delays the echoes.
pub fn latency_vs_load() -> Result<Vec<LatencyRow>, MonitorError> {
    let mut rows = Vec::new();
    for load_kbps in [0, 200, 400, 800, 1000, 1150, 1250] {
        let loads: Vec<Load> = (load_kbps > 0)
            .then(|| Load::new("L", "N1", LoadProfile::constant(load_kbps * 1000)))
            .into_iter()
            .collect();
        let options = TestbedOptions {
            agent_jitter_mean: None,
            ..TestbedOptions::default()
        };
        let mut service = build_service(&loads, &options, ServiceConfig::default())?;
        service.run_ticks(3)?;
        let topology = service.monitor().topology();
        let (s1, n1) = (topology.node_by_name("S1")?, topology.node_by_name("N1")?);
        let net = service.net_mut();
        let timeout = SimDuration::from_millis(500);
        rows.push(LatencyRow {
            load_kbps,
            s1: net.measure_rtt(s1, 10, 64, timeout)?,
            n1: net.measure_rtt(n1, 10, 64, timeout).ok(),
        });
    }
    Ok(rows)
}

/// `v` to `digits` decimals, or "—".
fn figure(v: Option<f64>, digits: usize) -> String {
    v.map_or_else(|| "—".to_owned(), |v| format!("{v:.digits$}"))
}

/// EXPERIMENTS.md's generated block: one table per section, a row per
/// window, then the latency table.
pub fn render(outcomes: &[Outcome], latency: &[LatencyRow]) -> String {
    let mut out = String::new();
    let mut section = "";
    for outcome in outcomes {
        let scenario = &outcome.scenario;
        if scenario.section != section {
            section = scenario.section;
            let _ = write!(
                out,
                "\n### {section}\n\n\
                 | run | path | window (s) | generated | background | avg less background \
                 | % error | max % error | vs truth: median % | vs truth: max % |\n\
                 |---|---|---|---|---|---|---|---|---|---|\n"
            );
        }
        let label = scenario.label();
        for (i, watch) in scenario.watches.iter().enumerate() {
            for s in outcome.stats(i) {
                let _ = writeln!(
                    out,
                    "| {label} | {} | {}–{} | {} | {:.3} | {:.3} | {} | {} | {} | {} |",
                    watch.path,
                    s.window.from_s,
                    s.window.to_s,
                    s.window.generated_kbps,
                    s.background_kbps,
                    s.avg_less_background,
                    figure(s.pct_error, 1),
                    figure(s.max_pct_error, 1),
                    figure(s.truth_median_pct, 2),
                    figure(s.truth_max_pct, 2),
                );
            }
        }
    }
    out.push_str(
        "\n### Latency vs. load\n\n\
         | L→N1 load (KB/s) | RTT S1 (ms) | RTT N1 (ms) | N1 probes lost |\n\
         |---|---|---|---|\n",
    );
    for row in latency {
        let n1 = row.n1.map(|n1| n1.mean_ms());
        let lost = row.n1.map_or(10, |n1| n1.lost);
        let _ = writeln!(
            out,
            "| {} | {:.3} | {} | {lost} |",
            row.load_kbps,
            row.s1.mean_ms(),
            figure(n1, 3)
        );
    }
    out
}
