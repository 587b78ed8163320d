//! Measures monitor-core scalability over generated ISP-scale
//! topologies and writes `BENCH_core.json` (the unified
//! `netqos-bench/v1` schema). For each topology size N the full
//! pipeline runs end to end — spec generation, parse/validate,
//! simulator build, then monitor ticks polling every SNMP host and
//! evaluating every QoS path — and the row records devices polled per
//! second, paths evaluated per second, and tick-latency percentiles.
//! Setup is recorded whole (`build_ns`) and per step: generating the
//! spec (`generate_ns`), parsing and validating it (`parse_ns`), and
//! building the service, simulator included (`service_build_ns`).
//!
//! Regenerate with `cargo run --release -p netqos-bench --bin
//! core_bench`; `--quick` runs the smallest scale with fewer ticks (the
//! CI smoke gate compares its rows against the checked-in document with
//! a loose tolerance).

use netqos_bench::{percentiles, BenchReport, BenchRow};
use netqos_monitor::service::{MonitoringService, ServiceConfig};
use netqos_monitor::simnet::SimNetworkOptions;
use netqos_spec::{generate_spec, parse_and_validate, GenParams};
use std::time::Instant;

const SCALES: [usize; 3] = [1_000, 3_000, 10_000];
const TICKS: usize = 20;
const QUICK_TICKS: usize = 5;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scales, ticks): (&[usize], usize) = if quick {
        (&SCALES[..1], QUICK_TICKS)
    } else {
        (&SCALES[..], TICKS)
    };

    let mut report = BenchReport::new("core");
    for &hosts in scales {
        let params = GenParams {
            hosts,
            ..GenParams::default()
        };
        let build_start = Instant::now();
        let src = generate_spec(&params);
        let generated = Instant::now();
        let model = parse_and_validate(&src).expect("generated spec must validate");
        let parsed = Instant::now();
        let qos_paths = model.qos_paths.len();
        let options = SimNetworkOptions {
            monitor_host: "h0-0".into(),
            ..SimNetworkOptions::default()
        };
        let mut svc = MonitoringService::from_model(model, options, ServiceConfig::default())
            .expect("service build");
        let built = Instant::now();
        let build_ns = (built - build_start).as_nanos();

        let polls_total = svc.registry().counter("netqos_monitor_polls_total");
        let polls_before = polls_total.get();
        let mut samples = Vec::with_capacity(ticks);
        let run_start = Instant::now();
        for _ in 0..ticks {
            let tick_start = Instant::now();
            svc.tick().expect("tick");
            samples.push(tick_start.elapsed().as_nanos());
        }
        let elapsed = run_start.elapsed().as_secs_f64();
        let polled = polls_total.get() - polls_before;
        let (p50, p99, max) = percentiles(&mut samples).expect("tick samples");

        eprintln!(
            "hosts={hosts}: {polled} polls, {} path evals over {ticks} ticks in {elapsed:.2}s",
            qos_paths * ticks
        );
        report.push(
            BenchRow::new(format!("tick-n{hosts}"))
                .param("hosts", hosts)
                .param("aps", params.ap_count())
                .param("sites", params.site_count())
                .param("qos_paths", qos_paths)
                .param("ticks", ticks)
                .metric("devices_polled_per_sec", polled as f64 / elapsed)
                .metric(
                    "paths_evaluated_per_sec",
                    (qos_paths * ticks) as f64 / elapsed,
                )
                .metric("tick_p50_ns", p50)
                .metric("tick_p99_ns", p99)
                .metric("tick_max_ns", max)
                .metric("build_ns", build_ns)
                .metric("generate_ns", (generated - build_start).as_nanos())
                .metric("parse_ns", (parsed - generated).as_nanos())
                .metric("service_build_ns", (built - parsed).as_nanos()),
        );
    }
    report
        .write("BENCH_core.json")
        .expect("write BENCH_core.json");
}
