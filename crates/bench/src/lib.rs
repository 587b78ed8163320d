//! # netqos-bench
//!
//! The experiment harness: rebuilds the paper's LIRTSS testbed inside the
//! simulator and regenerates the evaluation section:
//!
//! | Paper item | Where |
//! |---|---|
//! | Table 1 (MIB-II objects) | static in EXPERIMENTS.md; `netqos_snmp::mib2`'s tests assert it |
//! | Figure 3 (testbed) | [`testbed::build_service`] from `specs/lirtss.spec` |
//! | Figures 4–6, Table 2, the interval-source and poll-period sweeps, latency vs. load | [`experiment::scenarios`], run by [`experiment::run`]; `tests/experiments.rs` writes them into EXPERIMENTS.md and checks it |
//!
//! Criterion performance benches (`cargo bench -p netqos-bench`) cover the
//! building blocks: poll styles and fleet size, simulator throughput,
//! ingest and path evaluation, telemetry and tracing; `lts_bench` and
//! `query_bench` the long-term store and queries.

pub mod experiment;
pub mod report;
pub mod testbed;

pub use report::{percentiles, time_iters, BenchReport, BenchRow, BENCH_SCHEMA};
pub use testbed::{build_service, Load, TestbedOptions, LIRTSS_SPEC};
