//! The shape every child run shares: build and warm up, count a fixed
//! window of ticks exactly, then either time ticks with all
//! instrumentation off or trace a window of staged ticks.

use crate::harness::{self, Report, StageStats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long the timed window of one child lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this much wall time has passed (the contract's `--seconds`).
    Seconds(f64),
    /// Exactly this many ticks (`--quick`).
    Ticks(u32),
}

/// One child's instructions.
#[derive(Debug, Clone)]
pub struct ChildCfg {
    pub seed: u64,
    /// Trace a window of staged ticks instead of timing.
    pub traced: bool,
    pub budget: Budget,
    /// Directory this child may write under (store files, the trace).
    pub out_dir: PathBuf,
}

/// Tick counts of the fixed-size phases of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Ticks before the first steady one; part of `setup_s`.
    pub warmup: u32,
    /// Ticks of the exactly counted window. The same tick indices in
    /// every round, so the counts must agree between rounds.
    pub exact: u32,
    /// Ticks of the traced window: long enough (a second or more) that
    /// some of them fall in a quiet phase of the machine, since stage
    /// floors are compared with the timed rounds' floor.
    pub traced: u32,
    /// Spans one traced tick records, for pre-sizing the span buffer.
    pub spans_per_tick: usize,
}

impl Plan {
    /// The plan as run under `budget`: a tick-count budget (`--quick`)
    /// is a smoke run and traces a short window.
    pub fn for_budget(self, budget: Budget) -> Plan {
        match budget {
            Budget::Ticks(_) => Plan {
                traced: self.traced.min(10),
                ..self
            },
            Budget::Seconds(_) => self,
        }
    }
}

/// Fewest timed ticks of a `Seconds` budget, so a stalled machine still
/// yields a floor.
const MIN_TIMED_TICKS: usize = 30;

/// A closed loop of identical ticks.
pub trait Workload {
    /// Input generation between ticks; never timed or counted.
    fn prepare(&mut self) {}
    /// One tick of the program under test.
    fn tick(&mut self);
    /// Cumulative counters whose per-tick increase must repeat exactly.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

fn one_tick<W: Workload>(w: &mut W, counted: bool) -> u64 {
    w.prepare();
    harness::set_counting(counted);
    let start = Instant::now();
    w.tick();
    let ns = start.elapsed().as_nanos() as u64;
    harness::set_counting(false);
    ns
}

/// Builds the workload, warms it up and counts the exact window.
/// `setup_s` ends at the first steady tick.
pub fn build_and_count<W: Workload>(
    plan: &Plan,
    report: &mut Report,
    build: impl FnOnce() -> W,
) -> W {
    let start = Instant::now();
    let mut w = build();
    for _ in 0..plan.warmup {
        one_tick(&mut w, false);
    }
    report.setup_s = start.elapsed().as_secs_f64();

    let before = w.counters();
    let (allocs0, bytes0) = harness::alloc_totals();
    for _ in 0..plan.exact {
        one_tick(&mut w, true);
    }
    let (allocs1, bytes1) = harness::alloc_totals();
    let ticks = plan.exact as f64;
    report
        .exact
        .insert("allocs_per_tick".into(), (allocs1 - allocs0) as f64 / ticks);
    report.exact.insert(
        "alloc_kb_per_tick".into(),
        (bytes1 - bytes0) as f64 / 1024.0 / ticks,
    );
    for ((name, b), (_, a)) in before.iter().zip(w.counters()) {
        report.exact.insert((*name).into(), (a - b) / ticks);
    }
    w
}

/// Times ticks with counting and spans off until the budget is spent.
pub fn timed_window<W: Workload>(w: &mut W, budget: Budget, report: &mut Report) {
    let start = Instant::now();
    loop {
        let done = match budget {
            Budget::Ticks(n) => report.tick_ns.len() >= n as usize,
            Budget::Seconds(s) => {
                report.tick_ns.len() >= MIN_TIMED_TICKS
                    && start.elapsed() >= Duration::from_secs_f64(s)
            }
        };
        if done {
            break;
        }
        let ns = one_tick(w, false);
        report.tick_ns.push(ns);
    }
}

/// Runs the traced window: spans and allocation counting on. Returns the
/// per-stage fold and writes the Chrome trace of the first ticks.
pub fn traced_window<W: Workload>(
    w: &mut W,
    plan: &Plan,
    cfg: &ChildCfg,
    name: &str,
    report: &mut Report,
) -> BTreeMap<&'static str, StageStats> {
    harness::start_tracing(plan.spans_per_tick * plan.traced as usize + 64);
    let mut traced_ns = Vec::with_capacity(plan.traced as usize);
    for i in 0..plan.traced {
        harness::set_tick(i);
        traced_ns.push(one_tick(w, true));
    }
    let spans = harness::stop_tracing();
    report.layers.insert(
        "harness.traced_tick_floor_ms".into(),
        harness::floor_ms(&mut traced_ns),
    );
    let path = cfg.out_dir.join(format!("trace-{name}.json"));
    if let Err(e) = std::fs::write(&path, harness::chrome_trace(&spans, 3)) {
        report
            .failures
            .push(format!("writing {}: {e}", path.display()));
    }
    harness::fold_stages(&spans)
}

/// Floor of a stage, 0 when the stage never ran.
pub fn stage_floor_ms(stages: &BTreeMap<&'static str, StageStats>, name: &str) -> f64 {
    stages.get(name).map(StageStats::floor_ms).unwrap_or(0.0)
}

/// A stage's own allocations per unit (`units` = ticks, devices, ...).
pub fn stage_allocs_per(
    stages: &BTreeMap<&'static str, StageStats>,
    name: &str,
    units: f64,
) -> f64 {
    stages
        .get(name)
        .map(|s| s.allocs as f64 / units)
        .unwrap_or(0.0)
}
