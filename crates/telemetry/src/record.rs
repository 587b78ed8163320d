//! Recording rules: periodically evaluate PromQL-subset expressions
//! against the long-term store and append the results back as derived
//! series.
//!
//! A rules file is a sequence of stanzas in the same spirit as
//! `specs/alerts.rules`:
//!
//! ```text
//! # p99 SNMP round-trip, precomputed once per save tick
//! record: path_rtt_p99_ms
//! expr: histogram_quantile(0.99, netqos_monitor_poll_rtt_ns) / 1e6
//! ```
//!
//! [`parse_record_rules`] lints the file (`netqos record lint` calls it
//! too); [`evaluate_record_rules`] runs every rule at one timestamp
//! against a [`QueryEngine`] and appends each resulting sample as a
//! gauge point into the [`LtsStore`]. Derived series are first-class:
//! they downsample, compact, and serve through
//! `/api/v1/query[_range]` and `netqos lts query` like any sampled series. Idempotence across
//! restarts falls out of the store's append contract — a re-evaluated
//! point at `t <= newest(series)` is dropped, so replaying a tick after
//! re-open cannot duplicate derived points.

use crate::lts::Resolution;
use crate::lts::{json_escape, LtsStore, PointValue};
use crate::promql::{QueryEngine, QueryResult};
use crate::{Counter, Registry};

/// One recording rule: a derived series name and the expression that
/// produces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordRule {
    /// Derived metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Output series
    /// keep the labels of each sample the expression yields.
    pub name: String,
    /// PromQL-subset expression evaluated at each recording tick.
    pub expr: String,
}

/// Self-metrics for the recording engine.
#[derive(Clone)]
pub struct RecordingCounters {
    /// `netqos_recording_rules_evals_total` — rule evaluations run.
    pub evals: Counter,
    /// `netqos_recording_rules_failures_total` — evaluations that
    /// returned an error.
    pub failures: Counter,
}

impl RecordingCounters {
    /// Handles not attached to any registry.
    pub fn detached() -> Self {
        RecordingCounters {
            evals: Counter::new(),
            failures: Counter::new(),
        }
    }

    /// Handles registered under the canonical names.
    pub fn register_in(r: &Registry) -> Self {
        RecordingCounters {
            evals: r.counter("netqos_recording_rules_evals_total"),
            failures: r.counter("netqos_recording_rules_failures_total"),
        }
    }
}

/// What one recording pass did.
#[derive(Debug, Clone, Default)]
pub struct RecordReport {
    /// Rules evaluated.
    pub evals: u64,
    /// Rules whose evaluation failed.
    pub failures: u64,
    /// Derived points appended to the store.
    pub points: u64,
    /// `(rule name, error)` for each failed rule.
    pub errors: Vec<(String, String)>,
}

fn valid_rule_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses a recording-rules file. Stanzas are `record: NAME` followed
/// by `expr: EXPRESSION`; `#` comments and blank lines are ignored.
/// Every expression is checked against the query grammar, so a file
/// that lints clean here will not fail to parse at evaluation time.
pub fn parse_record_rules(src: &str) -> Result<Vec<RecordRule>, String> {
    let mut rules: Vec<RecordRule> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("record:") {
            if let Some((at, prev)) = pending.take() {
                return Err(format!(
                    "line {at}: record '{prev}' has no expr before line {lineno}"
                ));
            }
            let name = name.trim();
            if !valid_rule_name(name) {
                return Err(format!("line {lineno}: invalid record name '{name}'"));
            }
            if rules.iter().any(|r| r.name == name) {
                return Err(format!("line {lineno}: duplicate record name '{name}'"));
            }
            pending = Some((lineno, name.to_string()));
        } else if let Some(expr) = line.strip_prefix("expr:") {
            let Some((_, name)) = pending.take() else {
                return Err(format!("line {lineno}: expr without a preceding record"));
            };
            let expr = expr.trim();
            if expr.is_empty() {
                return Err(format!("line {lineno}: empty expr for record '{name}'"));
            }
            crate::promql::check_query(expr)
                .map_err(|e| format!("line {lineno}: record '{name}': {e}"))?;
            rules.push(RecordRule {
                name,
                expr: expr.to_string(),
            });
        } else {
            return Err(format!("line {lineno}: expected 'record:' or 'expr:'"));
        }
    }
    if let Some((at, prev)) = pending {
        return Err(format!("line {at}: record '{prev}' has no expr"));
    }
    Ok(rules)
}

/// Renders the store series name for one derived sample: the rule name
/// plus the sample's labels in the store's canonical
/// `base{k="v",...}` form (sorted keys, escaped values).
fn derived_name(rule: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return rule.to_string();
    }
    let mut sorted: Vec<&(String, String)> = labels.iter().collect();
    sorted.sort();
    let mut out = String::with_capacity(rule.len() + 16 * sorted.len());
    out.push_str(rule);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(&json_escape(v));
    }
    out.push('}');
    out
}

/// Evaluates every rule at instant `t` and appends the results to
/// `store` as gauge points. Non-finite values are skipped; finite
/// values are rounded to the nearest integer (the store's gauge points
/// are `i64`). Failures are counted and reported, never fatal — one
/// broken rule must not stop the rest of the pass.
pub fn evaluate_record_rules(
    rules: &[RecordRule],
    engine: &QueryEngine,
    store: &mut LtsStore,
    t: u64,
    counters: &RecordingCounters,
) -> RecordReport {
    let mut report = RecordReport::default();
    for rule in rules {
        counters.evals.inc();
        report.evals += 1;
        match engine.instant(&rule.expr, t, Resolution::Raw1s) {
            Ok(outcome) => {
                let mut samples: Vec<(String, f64)> = Vec::new();
                match &outcome.result {
                    QueryResult::Scalar { v, .. } => samples.push((rule.name.clone(), *v)),
                    QueryResult::Vector(vs) => {
                        for s in vs {
                            samples.push((derived_name(&rule.name, &s.labels), s.v));
                        }
                    }
                    QueryResult::Matrix(_) => {
                        counters.failures.inc();
                        report.failures += 1;
                        report.errors.push((
                            rule.name.clone(),
                            "expression yields a matrix; recording rules need an instant vector or scalar".to_string(),
                        ));
                        continue;
                    }
                }
                for (name, v) in samples {
                    if !v.is_finite() {
                        continue;
                    }
                    let clamped = v.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64;
                    store.append(&name, t, PointValue::Gauge(clamped));
                    report.points += 1;
                }
            }
            Err(e) => {
                counters.failures.inc();
                report.failures += 1;
                report.errors.push((rule.name.clone(), e));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::{LtsConfig, LtsCounters, LtsReader};
    use crate::promql::LtsSource;
    use crate::Registry;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("netqos-record-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_accepts_stanzas_comments_and_blanks() {
        let src = "# derived series\nrecord: qos_margin\nexpr: netqos_qos_ok_total\n\nrecord: rtt:p99\nexpr: rate(netqos_snmp_requests_total[60s])\n";
        let rules = parse_record_rules(src).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "qos_margin");
        assert_eq!(rules[1].name, "rtt:p99");
        assert_eq!(rules[1].expr, "rate(netqos_snmp_requests_total[60s])");
    }

    #[test]
    fn parse_rejects_malformed_files() {
        for (src, needle) in [
            ("expr: up\n", "expr without a preceding record"),
            ("record: a\nrecord: b\nexpr: up\n", "has no expr"),
            ("record: a\n", "has no expr"),
            ("record: 9bad\nexpr: up\n", "invalid record name"),
            (
                "record: a\nexpr: up\nrecord: a\nexpr: up\n",
                "duplicate record name",
            ),
            ("record: a\nexpr: rate(\n", "record 'a'"),
            ("bogus line\n", "expected 'record:'"),
            ("record: a\nexpr:\n", "empty expr"),
        ] {
            let err = parse_record_rules(src).unwrap_err();
            assert!(err.contains(needle), "{src:?} -> {err}");
            assert!(err.starts_with("line "), "{err}");
        }
    }

    #[test]
    fn evaluate_appends_derived_series_and_counts() {
        let dir = tmpdir("eval");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        for t in 0..60u64 {
            store.append("requests_total{path=\"a\"}", t, PointValue::Counter(2));
            store.append("requests_total{path=\"b\"}", t, PointValue::Counter(4));
        }
        store.flush().unwrap();
        let engine =
            QueryEngine::new().with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
        let rules = parse_record_rules(
            "record: requests_sum\nexpr: sum(requests_total)\nrecord: broken\nexpr: no_such_series\n",
        )
        .unwrap();
        let counters = RecordingCounters::register_in(&Registry::new());
        let report = evaluate_record_rules(&rules, &engine, &mut store, 59, &counters);
        assert_eq!(report.evals, 2);
        assert_eq!(report.points, 1);
        // `no_such_series` evaluates to an empty vector, not an error.
        assert_eq!(report.failures, 0);
        assert_eq!(counters.evals.get(), 2);
        store.flush().unwrap();

        let reader = LtsReader::open(&dir);
        let json = reader
            .query("requests_sum", 0, 120, Resolution::Raw1s)
            .unwrap();
        assert!(json.contains("\"requests_sum\""), "{json}");
        assert!(json.contains("\"kind\":\"gauge\""), "{json}");
        assert!(json.contains("[59,360]"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_failures_are_counted_not_fatal() {
        let dir = tmpdir("fail");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        store.append("g", 1, PointValue::Gauge(5));
        store.flush().unwrap();
        let engine =
            QueryEngine::new().with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
        // A range expression is a lint-time pass but an instant-time
        // failure mode we must survive.
        let rules = vec![
            RecordRule {
                name: "bad".into(),
                expr: "sum(".into(),
            },
            RecordRule {
                name: "ok".into(),
                expr: "g".into(),
            },
        ];
        let counters = RecordingCounters::detached();
        let report = evaluate_record_rules(&rules, &engine, &mut store, 1, &counters);
        assert_eq!(report.evals, 2);
        assert_eq!(report.failures, 1);
        assert_eq!(report.points, 1);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].0, "bad");
        assert_eq!(counters.failures.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reevaluation_after_reopen_is_idempotent() {
        let dir = tmpdir("idem");
        let rules = parse_record_rules("record: d\nexpr: sum(c_total)\n").unwrap();
        let counters = RecordingCounters::detached();
        {
            let mut store =
                LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
            for t in 0..30u64 {
                store.append("c_total", t, PointValue::Counter(1));
            }
            store.flush().unwrap();
            let engine = QueryEngine::new()
                .with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
            evaluate_record_rules(&rules, &engine, &mut store, 29, &counters);
            store.flush().unwrap();
        }
        let before = LtsReader::open(&dir)
            .query("d", 0, 120, Resolution::Raw1s)
            .unwrap();
        assert!(before.contains("[29,30]"), "{before}");
        {
            // Restart and replay the same recording tick: the store's
            // append contract drops t <= newest, so no duplicates.
            let mut store =
                LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
            let engine = QueryEngine::new()
                .with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
            let report = evaluate_record_rules(&rules, &engine, &mut store, 29, &counters);
            assert_eq!(report.points, 1); // appended, then dropped by the store
            store.flush().unwrap();
        }
        let after = LtsReader::open(&dir)
            .query("d", 0, 120, Resolution::Raw1s)
            .unwrap();
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn derived_name_renders_sorted_escaped_labels() {
        assert_eq!(derived_name("r", &[]), "r");
        let labels = vec![
            ("b".to_string(), "x\"y".to_string()),
            ("a".to_string(), "z".to_string()),
        ];
        assert_eq!(derived_name("r", &labels), "r{a=\"z\",b=\"x\\\"y\"}");
    }
}
