//! `qosbench`: the repository's end-to-end benchmark. See `README.md`
//! beside this file for the workloads, the metrics and why timings are
//! reported as quiet-machine floors.
//!
//! ```text
//! qosbench --seed 1                      every workload, every metric
//! qosbench --quick                       50-tick smoke of the same
//! qosbench --repeat 5                    run-to-run spread against the bounds
//! qosbench --workload W --seed N --seconds S --trace 0|1
//!                                        one workload; the last line is the
//!                                        BENCHMARK.json result object
//! ```
//!
//! The parent process only orchestrates: each (workload, round) runs in
//! a fresh single-threaded child, strictly one at a time.

mod agents_direct;
mod driver;
mod golden;
mod harness;
mod lan_wide;
mod paths_dense;
mod stats_rw;
mod topo;

use driver::{Budget, ChildCfg};
use harness::Report;
use netqos_telemetry::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// The metric catalogue is the checked-in contract itself.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

const WORKLOADS: [&str; 4] = [
    lan_wide::NAME,
    agents_direct::NAME,
    paths_dense::NAME,
    stats_rw::NAME,
];
const TIMED_ROUNDS: usize = 3;
const QUICK_TICKS: u32 = 50;
/// Timed seconds per workload when none are given.
const DEFAULT_SECONDS: f64 = 30.0;

fn run_workload(name: &str, cfg: &ChildCfg) -> Option<Report> {
    Some(match name {
        lan_wide::NAME => lan_wide::run(cfg),
        agents_direct::NAME => agents_direct::run(cfg),
        paths_dense::NAME => paths_dense::run(cfg),
        stats_rw::NAME => stats_rw::run(cfg),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Catalogue
// ---------------------------------------------------------------------

struct MetricDef {
    name: String,
    unit: String,
    /// Share of the median the metric may worsen by; per-layer metrics
    /// have none.
    bound: Option<f64>,
}

struct Catalogue {
    workloads: Vec<String>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

impl Catalogue {
    fn load() -> Result<Catalogue, String> {
        let doc = parse_json(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

// ---------------------------------------------------------------------
// One workload's result
// ---------------------------------------------------------------------

/// The rounds of one workload folded into named metrics.
struct Outcome {
    workload: String,
    end_to_end: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn fold(workload: &str, seed: u64, timed: &[Report], traced: &Report) -> Outcome {
    let mut failures = Vec::new();
    let all: Vec<&Report> = timed.iter().chain([traced]).collect();
    for (round, r) in all.iter().enumerate() {
        for f in &r.failures {
            failures.push(format!("round {round}: {f}"));
        }
    }

    // Every exact count and the answer digest must repeat in every round.
    let first = all[0];
    let mut agree = true;
    for (round, r) in all.iter().enumerate().skip(1) {
        if r.exact != first.exact {
            agree = false;
            failures.push(format!(
                "round {round}: exact counts {:?} differ from round 0's {:?}",
                r.exact, first.exact
            ));
        }
        if r.digest != first.digest {
            agree = false;
            failures.push(format!(
                "round {round}: digest {} differs from round 0's {}",
                r.digest, first.digest
            ));
        }
    }
    if let Some(want) = golden::digest(workload, seed) {
        if first.digest != want {
            failures.push(format!(
                "path digest {} is not the golden {want} of seed {seed}",
                first.digest
            ));
        }
    }

    let mut pooled: Vec<u64> = timed
        .iter()
        .flat_map(|r| r.tick_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    let floor_ms = harness::floor_ns(&pooled) as f64 / 1e6;
    let timed_median =
        |f: &dyn Fn(&Report) -> f64| harness::median(&timed.iter().map(f).collect::<Vec<_>>());

    let mut e2e = BTreeMap::new();
    // Set-up is timed once per round; like the tick floor, the quiet
    // machine's figure is the smallest.
    e2e.insert(
        "setup_s".to_owned(),
        all.iter().map(|r| r.setup_s).fold(f64::INFINITY, f64::min),
    );
    e2e.insert("tick_floor_ms".to_owned(), floor_ms);
    e2e.insert(
        "peak_rss_mb".to_owned(),
        timed_median(&|r| r.peak_rss_kb as f64 / 1024.0),
    );
    for name in ["allocs_per_tick", "alloc_kb_per_tick"] {
        e2e.insert(
            name.to_owned(),
            first.exact.get(name).copied().unwrap_or(0.0),
        );
    }

    let mut layers = traced.layers.clone();
    // Exact counts a single workload defines, and floors of tick parts
    // the timed rounds measured, ride along as per-layer metrics.
    for (name, v) in &first.exact {
        if !e2e.contains_key(name) {
            layers.insert(name.clone(), *v);
        }
    }
    for name in timed[0].layers.keys() {
        layers.insert(
            name.clone(),
            timed_median(&|r| r.layers.get(name).copied().unwrap_or(0.0)),
        );
    }
    layers.insert(
        "harness.tick_p50_ms".into(),
        harness::percentile_ns(&pooled, 0.50) as f64 / 1e6,
    );
    layers.insert(
        "harness.tick_p95_ms".into(),
        harness::percentile_ns(&pooled, 0.95) as f64 / 1e6,
    );
    layers.insert("harness.tick_samples".into(), pooled.len() as f64);
    layers.insert("harness.quiet_share".into(), harness::quiet_share(&pooled));
    layers.insert("harness.rounds_agree".into(), if agree { 1.0 } else { 0.0 });
    // What tracing costs: the traced window's tick floor against the
    // timed one's.
    if let Some(traced_floor) = layers.remove("harness.traced_tick_floor_ms") {
        layers.insert(
            "harness.trace_overhead_pct".into(),
            (traced_floor - floor_ms) / floor_ms * 100.0,
        );
    }
    Outcome {
        workload: workload.to_owned(),
        end_to_end: e2e,
        per_layer: layers,
        attempted: all.iter().map(|r| r.attempted).sum(),
        failed: all.iter().map(|r| r.failed).sum(),
        failures,
    }
}

/// Checks an outcome against the catalogue: every declared end-to-end
/// metric present and non-zero, nothing undeclared.
fn validate(cat: &Catalogue, o: &mut Outcome) {
    for m in &cat.end_to_end {
        match o.end_to_end.get(&m.name) {
            Some(v) if *v > 0.0 && v.is_finite() => {}
            other => o
                .failures
                .push(format!("end-to-end metric {} reads {other:?}", m.name)),
        }
    }
    for name in o.end_to_end.keys() {
        if !cat.end_to_end.iter().any(|m| &m.name == name) {
            o.failures
                .push(format!("end-to-end metric {name} is not in BENCHMARK.json"));
        }
    }
    for name in o.per_layer.keys() {
        if !cat.per_layer.iter().any(|m| &m.name == name) {
            o.failures
                .push(format!("per-layer metric {name} is not in BENCHMARK.json"));
        }
    }
    if o.per_layer.get("harness.rounds_agree") != Some(&1.0) {
        o.failures.push("harness.rounds_agree is 0".into());
    }
    if o.failed > 0 {
        o.failures
            .push(format!("{} of {} operations failed", o.failed, o.attempted));
    }
}

fn print_outcome(cat: &Catalogue, o: &Outcome) {
    println!("== {} ==", o.workload);
    for m in &cat.end_to_end {
        let v = o.end_to_end.get(&m.name).copied().unwrap_or(0.0);
        println!("  {:<44} {:>16.6} {}", m.name, v, m.unit);
    }
    println!(
        "  {:<44} {:>16.6} ratio  ({} of {})",
        "failed_share",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    for m in &cat.per_layer {
        if let Some(v) = o.per_layer.get(&m.name) {
            println!("  {:<44} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    if o.workload == lan_wide::NAME {
        let get = |k: &str| o.per_layer.get(k).copied().unwrap_or(0.0);
        let stages: f64 = lan_wide::STAGES
            .iter()
            .map(|s| get(&format!("{s}_floor_ms")))
            .sum();
        let residual = get("monitor.service.residual_ms");
        println!(
            "  ledger: stage floors {stages:.4} ms + monitor.service.residual_ms {residual:.4} ms \
             = untraced svc.tick() floor {:.4} ms in the traced round; tick_floor_ms {:.4} ms in the timed rounds",
            stages + residual,
            o.end_to_end.get("tick_floor_ms").copied().unwrap_or(0.0),
        );
    }
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
}

/// The contract's result object. `--trace 0` carries every end-to-end
/// metric, `--trace 1` every per-layer one (0 where the layer does no
/// work on this workload).
fn result_json(cat: &Catalogue, o: &Outcome, trace: bool) -> String {
    let (defs, values) = if trace {
        (&cat.per_layer, &o.per_layer)
    } else {
        (&cat.end_to_end, &o.end_to_end)
    };
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = values.get(&m.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

/// Where children may write: beside the build output, which is inside
/// the checkout and ignored by git.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable has no target directory")?;
    let dir = target.join("qosbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn spawn_child(workload: &str, cfg: &ChildCfg) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(workload)
        .arg("--seed")
        .arg(cfg.seed.to_string())
        .arg("--mode")
        .arg(if cfg.traced { "traced" } else { "timed" })
        .arg("--out")
        .arg(&cfg.out_dir);
    match cfg.budget {
        Budget::Seconds(s) => cmd.arg("--seconds").arg(s.to_string()),
        Budget::Ticks(n) => cmd.arg("--ticks").arg(n.to_string()),
    };
    // `output` waits for the child: never two busy processes at once.
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    // A child that died mid-run leaves its store behind.
    for entry in std::fs::read_dir(&cfg.out_dir)
        .into_iter()
        .flatten()
        .flatten()
    {
        if entry.file_name().to_string_lossy().starts_with("lts-") {
            std::fs::remove_dir_all(entry.path()).ok();
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Report::from_lines(&String::from_utf8_lossy(&out.stdout))
}

/// Runs the given workloads round-robin — W1, W2, .., W1, W2, .. — so
/// each samples separate time windows of the machine: three timed
/// rounds, then the traced one.
fn run_all(workloads: &[String], seed: u64, budget: Budget) -> Result<Vec<Outcome>, String> {
    let out_dir = out_dir()?;
    let round_budget = match budget {
        Budget::Seconds(s) => Budget::Seconds(s / TIMED_ROUNDS as f64),
        Budget::Ticks(n) => Budget::Ticks(n.div_ceil(TIMED_ROUNDS as u32)),
    };
    let mut reports: Vec<Vec<Report>> = vec![Vec::new(); workloads.len()];
    for round in 0..=TIMED_ROUNDS {
        for (i, w) in workloads.iter().enumerate() {
            let cfg = ChildCfg {
                seed,
                traced: round == TIMED_ROUNDS,
                budget: round_budget,
                out_dir: out_dir.clone(),
            };
            reports[i].push(spawn_child(w, &cfg)?);
        }
    }
    Ok(workloads
        .iter()
        .zip(&reports)
        .map(|(w, rs)| fold(w, seed, &rs[..TIMED_ROUNDS], &rs[TIMED_ROUNDS]))
        .collect())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver's spread rule uses.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// `--repeat N`: the whole benchmark N times; per workload and metric
/// min / median / max and the interquartile spread against the bound.
fn repeat(cat: &Catalogue, n: usize, seed: u64, budget: Budget) -> Result<bool, String> {
    let mut runs: Vec<Vec<Outcome>> = Vec::new();
    let mut ok = true;
    for i in 0..n {
        let mut outcomes = run_all(&cat.workloads, seed, budget)?;
        for o in &mut outcomes {
            validate(cat, o);
            if !o.correct() {
                ok = false;
                print_outcome(cat, o);
            }
        }
        eprintln!("repeat {}/{n} done", i + 1);
        runs.push(outcomes);
    }
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (wi, w) in cat.workloads.iter().enumerate() {
        for m in &cat.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r[wi].end_to_end.get(&m.name).copied().unwrap_or(0.0))
                .collect();
            let (q1, q2, q3) = if n >= 2 {
                quartiles(&values)
            } else {
                (values[0], values[0], values[0])
            };
            let spread = if q2 > 0.0 { (q3 - q1) / q2 } else { 0.0 };
            let bound = m.bound.unwrap_or(0.0);
            // The contract exempts the spread of set-up time.
            let over = spread > bound && m.name != "setup_s";
            ok &= !over;
            println!(
                "{:<14} {:<20} {:>12.5} {:>12.5} {:>12.5} {:>8.3}% {:>6.1}%{}",
                w,
                m.name,
                values.iter().copied().fold(f64::INFINITY, f64::min),
                q2,
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                spread * 100.0,
                bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    Ok(ok)
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

#[derive(Default)]
struct Args {
    child: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    ticks: Option<u32>,
    trace: Option<bool>,
    mode: Option<String>,
    out: Option<PathBuf>,
    quick: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--child" => a.child = Some(value()?),
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--seconds" => a.seconds = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--ticks" => a.ticks = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--mode" => a.mode = Some(value()?),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            "--repeat" => a.repeat = Some(value()?.parse().map_err(|e| bad(&e))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn child_main(workload: &str, a: &Args) -> Result<(), String> {
    // Work from inside the output directory and name files relative to
    // it: the store builds its file paths from the directory it is given,
    // so an absolute path would make `alloc_kb_per_tick` depend on how
    // long the checkout's own path is.
    let out = a.out.as_deref().ok_or("child needs --out")?;
    std::env::set_current_dir(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let cfg = ChildCfg {
        seed: a.seed.unwrap_or(1),
        traced: a.mode.as_deref() == Some("traced"),
        budget: match (a.ticks, a.seconds) {
            (Some(n), _) => Budget::Ticks(n),
            (None, Some(s)) => Budget::Seconds(s),
            (None, None) => return Err("child needs --ticks or --seconds".into()),
        },
        out_dir: PathBuf::from("."),
    };
    let mut report =
        run_workload(workload, &cfg).ok_or_else(|| format!("unknown workload {workload}"))?;
    report.peak_rss_kb = harness::peak_rss_kb();
    print!("{}", report.to_lines());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let a = parse_args()?;
    if let Some(workload) = &a.child {
        child_main(workload, &a)?;
        return Ok(true);
    }
    let cat = Catalogue::load()?;
    if cat.workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the binary runs {WORKLOADS:?}",
            cat.workloads
        ));
    }
    let seed = a.seed.unwrap_or(1);
    let budget = if a.quick {
        Budget::Ticks(QUICK_TICKS)
    } else {
        Budget::Seconds(a.seconds.unwrap_or(DEFAULT_SECONDS))
    };
    if let Some(n) = a.repeat {
        return repeat(&cat, n.max(1), seed, budget);
    }
    let workloads = match &a.workload {
        Some(w) if cat.workloads.contains(w) => vec![w.clone()],
        Some(w) => return Err(format!("unknown workload {w}")),
        None => cat.workloads.clone(),
    };
    let mut outcomes = run_all(&workloads, seed, budget)?;
    let mut ok = true;
    for o in &mut outcomes {
        validate(&cat, o);
        print_outcome(&cat, o);
        ok &= o.correct();
    }
    if let (Some(_), [o]) = (&a.workload, &outcomes[..]) {
        println!("{}", result_json(&cat, o, a.trace.unwrap_or(false)));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("qosbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn catalogue_is_the_checked_in_contract() {
        let cat = Catalogue::load().unwrap();
        assert_eq!(cat.workloads, WORKLOADS);
        assert!(cat.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(cat.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
    }

    fn report(ticks: &[u64], allocs: f64, digest: &str) -> Report {
        let mut r = Report {
            setup_s: 1.0,
            tick_ns: ticks.to_vec(),
            peak_rss_kb: 2048,
            attempted: 10,
            digest: digest.into(),
            ..Report::default()
        };
        r.exact.insert("allocs_per_tick".into(), allocs);
        r.exact.insert("alloc_kb_per_tick".into(), 4.0);
        r
    }

    #[test]
    fn fold_pools_ticks_and_flags_disagreeing_rounds() {
        let quiet = report(&[1_000_000; 40], 7.0, "d");
        let mut traced = quiet.clone();
        traced
            .layers
            .insert("harness.traced_tick_floor_ms".into(), 1.1);
        let o = fold(
            "x",
            99,
            &[quiet.clone(), quiet.clone(), quiet.clone()],
            &traced,
        );
        assert!(o.correct(), "{:?}", o.failures);
        assert_eq!(o.end_to_end["tick_floor_ms"], 1.0);
        assert_eq!(o.per_layer["harness.tick_samples"], 120.0);
        assert_eq!(o.per_layer["harness.rounds_agree"], 1.0);
        assert!((o.per_layer["harness.trace_overhead_pct"] - 10.0).abs() < 1e-9);
        assert_eq!(o.attempted, 40);

        let off = report(&[1_000_000; 40], 8.0, "d");
        let o = fold("x", 99, &[quiet.clone(), off, quiet.clone()], &traced);
        assert_eq!(o.per_layer["harness.rounds_agree"], 0.0);
        assert!(!o.correct());
    }
}
