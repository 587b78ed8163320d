//! Every signal has a reader. [`SIGNALS`] names each metric family and
//! each event the library emits, with the file that reads it: a built-in
//! alert rule or a `specs/*.rules` file, the frozen benchmark
//! (`crates/bench/src/bin/qosbench/`), a `ci.yml` step, a CLI view in
//! `src/bin/netqos/`, or a test that asserts on the signal's value.
//! Goldens are not readers. Spans have no rows: every span is a
//! `/profile` phase and an OTLP span.
//!
//! The test fails when the library names a signal the table lacks, when
//! the table names one the library no longer has, and when a reader no
//! longer reads its signal. A signal nothing reads is deleted, not
//! listed.

use std::collections::BTreeSet;
use std::path::Path;

/// `(signal, reader)`.
///
/// A metric is its family name; a family whose name is built at run time
/// lists its members' suffixes, `netqos_path_{used_bps|available_bps}`.
/// An event is `target kind`; a kind chosen at run time lists its values,
/// `monitor.qos violation|cleared`.
///
/// The reader is a file, which must contain the metric's name, or the
/// event's target and every kind. A reader that holds the handle instead
/// names it after a space — `lan_wide.rs .poll_retransmits` — and the
/// library must register the metric beside a binding of that name.
#[rustfmt::skip]
const SIGNALS: &[(&str, &str)] = &[
    // Metrics, by family.
    ("netqos_alert_webhook_delivered_total", "src/bin/netqos/main.rs .pushed"),
    ("netqos_alert_webhook_dropped_total", "src/bin/netqos/main.rs .dropped"),
    ("netqos_alert_webhook_retries_total", "src/bin/netqos/main.rs .retries"),
    ("netqos_alerts_firing", "crates/monitor/src/service.rs .alerts_firing"),
    ("netqos_alerts_firing_total", "tests/alerts.rs"),
    ("netqos_alerts_pending_total", "crates/monitor/src/service.rs .alerts_pending_total"),
    ("netqos_alerts_resolved_total", "tests/alerts.rs .alerts_resolved_total"),
    ("netqos_build_info", "crates/monitor/src/telemetry.rs"),
    ("netqos_lts_appends_total", "crates/telemetry/src/lts.rs .appends"),
    ("netqos_lts_bytes_on_disk", ".github/workflows/ci.yml"),
    ("netqos_lts_compactions_total", ".github/workflows/ci.yml"),
    ("netqos_lts_dropped_total", "crates/bench/src/bin/qosbench/stats_rw.rs .dropped"),
    ("netqos_lts_segments", ".github/workflows/ci.yml"),
    ("netqos_monitor_anomaly_warnings_total", "tests/flight_recorder.rs .anomaly_warnings"),
    ("netqos_monitor_counter_wraps_total", "crates/telemetry/src/alerts.rs"),
    ("netqos_monitor_flight_snapshots_total", "tests/flight_recorder.rs .flight_snapshots"),
    ("netqos_monitor_otlp_push_dropped_total", "tests/otlp_push.rs .dropped"),
    ("netqos_monitor_otlp_push_retries_total", "tests/otlp_push.rs .retries"),
    ("netqos_monitor_otlp_pushed_total", "tests/otlp_push.rs"),
    ("netqos_monitor_path_rtt_us", "src/bin/netqos/main.rs .path_rtt_us"),
    ("netqos_monitor_poll_failures_total", "crates/bench/src/bin/qosbench/lan_wide.rs .poll_failures"),
    ("netqos_monitor_poll_retransmits_total", "crates/bench/src/bin/qosbench/lan_wide.rs .poll_retransmits"),
    ("netqos_monitor_poll_rtt_us", "crates/monitor/src/simnet.rs .poll_rtt_us"),
    ("netqos_monitor_poll_timeouts_total", "crates/bench/src/bin/qosbench/lan_wide.rs .poll_timeouts"),
    ("netqos_monitor_polls_total", "crates/telemetry/src/alerts.rs"),
    ("netqos_monitor_probes_lost_total", "specs/alerts.rules"),
    ("netqos_monitor_tick_duration_ns", ".github/workflows/ci.yml"),
    ("netqos_monitor_ticks_total", "tests/live_endpoints.rs"),
    ("netqos_monitor_trap_outbox_depth", "specs/alerts.rules"),
    ("netqos_monitor_uptime_resets_total", "crates/monitor/src/monitor.rs .uptime_resets"),
    ("netqos_path_{used_bps|available_bps}", "specs/record.rules"),
    ("netqos_query_eval_ns", "tests/query.rs"),
    ("netqos_query_requests_total", "tests/query.rs"),
    ("netqos_recording_rules_evals_total", "crates/telemetry/src/record.rs .evals"),
    ("netqos_recording_rules_failures_total", "crates/telemetry/src/record.rs .failures"),
    ("netqos_retention_deleted_total", "tests/otlp_export.rs .retention_deleted"),
    ("netqos_snmp_client_requests_total", "crates/snmp/src/telemetry.rs"),
    ("netqos_snmp_codec_decode_errors_total", "crates/monitor/tests/exchange_decodes.rs .decode_errors"),
    ("netqos_snmp_codec_decodes_total", "crates/bench/src/bin/qosbench/lan_wide.rs .decodes"),
    ("netqos_tick_phase_ns", ".github/workflows/ci.yml"),
    // Events, by target and kind.
    ("lts recovered", "tests/failure_reports.rs"),
    ("lts retention_delete", "crates/telemetry/tests/store.rs"),
    ("monitor.alerts pending|firing|resolved", "tests/alerts.rs"),
    ("monitor.baseline anomalous", "tests/flight_recorder.rs"),
    ("monitor.baseline persist_failed", "tests/failure_reports.rs"),
    ("monitor.flight retention_failed", "tests/failure_reports.rs"),
    ("monitor.flight snapshot_failed", "tests/failure_reports.rs"),
    ("monitor.lts compact_failed", "tests/failure_reports.rs"),
    ("monitor.lts flush_failed", "tests/failure_reports.rs"),
    ("monitor.qos violation|cleared", "tests/alerts.rs"),
    ("monitor.record record_rule_failed", "tests/failure_reports.rs"),
    ("monitor.tick tick", "tests/cli.rs"),
];

/// Where the library is: every `.rs` file under these, but the vendored
/// stand-ins and the bench crate.
const LIBRARY: [&str; 2] = ["src", "crates"];

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The library's source files, repo-relative.
fn library_files() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.to_string_lossy().replace('\\', "/");
            if ["crates/vendor", "crates/bench"].contains(&name.as_str()) {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else if name.ends_with(".rs") && (name.starts_with("src/") || name.contains("/src/"))
            {
                out.push(name);
            }
        }
    }
    let mut files = Vec::new();
    for root in LIBRARY {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    files
}

/// `text` without comment lines (`//` in Rust, `#` in rules and YAML).
fn code(text: &str, comment: &str) -> String {
    let lines = text
        .lines()
        .filter(|l| !l.trim_start().starts_with(comment));
    lines.map(|l| format!("{l}\n")).collect()
}

/// The part of a Rust file before its tests, as `scripts/net-lines.sh`
/// counts it, and the test part.
fn split_tests(text: &str) -> (&str, &str) {
    text.split_at(text.find("#[cfg(test)]").unwrap_or(text.len()))
}

/// The non-test code of every library file.
fn library() -> Vec<(String, String)> {
    (library_files().into_iter())
        .map(|f| {
            let text = code(split_tests(&read(&f)).0, "//");
            (f, text)
        })
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `"netqos_…` name in `text`; a name that runs into a format
/// argument (`"netqos_path_{signal}…`) comes back as `netqos_path_{`.
fn metric_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("\"netqos_") {
        let rest = &text[at + 1..];
        let end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
        let name = &rest[..end];
        if name.ends_with('_') && rest[end..].starts_with('{') {
            out.push(format!("{name}{{"));
        } else {
            out.push(name.to_string());
        }
    }
    out
}

/// The arguments of the call whose `(` ends `text[..open]`, split at
/// top-level commas.
fn call_args(text: &str, open: usize) -> Vec<&str> {
    let (mut depth, mut start, mut args) = (0usize, open, Vec::new());
    for (i, c) in text[open..].char_indices() {
        let i = open + i;
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 1 => {
                args.push(text[start + 1..i].trim());
                return args;
            }
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 1 => {
                args.push(text[start + 1..i].trim());
                start = i;
            }
            _ => {}
        }
    }
    panic!("unclosed call at {open}");
}

/// Every event `text` emits, as `target kind`, or `target |` when the
/// kind is chosen at run time. `EventSink::emit(level, target, kind, _)`
/// and the service's `warn_failed(target, kind, _)` are the emitters;
/// `warn_failed` itself forwards its own `target` and `kind`.
fn events(file: &str, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (call, target_arg) in [(".emit(", 1), ("warn_failed(", 0)] {
        for (at, _) in text.match_indices(call) {
            if text[..at].ends_with("fn ") {
                continue;
            }
            let args = call_args(text, at + call.len() - 1);
            let (target, kind) = (args[target_arg], args[target_arg + 1]);
            let literal = |a: &str| a.len() >= 2 && a.starts_with('"') && a.ends_with('"');
            if (target, kind) == ("target", "kind") {
                continue;
            }
            assert!(
                literal(target),
                "{file}: an event target must be a literal, got `{target}`"
            );
            let target = target.trim_matches('"');
            out.push(match literal(kind) {
                true => format!("{target} {}", kind.trim_matches('"')),
                false => format!("{target} |"),
            });
        }
    }
    out
}

/// What the library names: metric families and events.
fn signals_in_library() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (file, text) in library() {
        out.extend(metric_names(&text));
        out.extend(events(&file, &text));
    }
    out
}

/// The source key a table row stands for: `netqos_path_{` for a family
/// listed by suffix, `target |` for a kind listed by value.
fn key(signal: &str) -> String {
    match (signal.split_once('{'), signal.split_once(' ')) {
        (Some((family, _)), _) => format!("{family}{{"),
        (_, Some((target, kinds))) if kinds.contains('|') => format!("{target} |"),
        _ => signal.to_string(),
    }
}

/// What a reader must contain for `signal`: every metric name, or the
/// event's target and each kind.
fn needles(signal: &str) -> Vec<String> {
    if let Some((family, rest)) = signal.split_once('{') {
        let suffixes = rest.trim_end_matches('}').split('|');
        return suffixes.map(|s| format!("{family}{s}")).collect();
    }
    match signal.split_once(' ') {
        Some((target, kinds)) => (std::iter::once(target).chain(kinds.split('|')))
            .map(String::from)
            .collect(),
        None => vec![signal.to_string()],
    }
}

/// The text of `path` that can read a signal: a test file whole; a rules
/// file or `ci.yml` without comments; the frozen benchmark and the CLI
/// without comments; `alerts.rs` only for its built-in rules; any other
/// library file only for its unit tests.
fn reader_text(path: &str) -> String {
    let not_a_reader = || format!("{path} is not a reader");
    assert!(
        !path.contains("golden") && path != "tests/signals.rs",
        "{}",
        not_a_reader()
    );
    let text = read(path);
    if path == ".github/workflows/ci.yml" || path.starts_with("specs/") && path.ends_with(".rules")
    {
        return code(&text, "#");
    }
    assert!(path.ends_with(".rs"), "{}", not_a_reader());
    let whole = path.starts_with("tests/")
        || path.starts_with("crates/") && path.split('/').nth(2) == Some("tests")
        || path.starts_with("crates/bench/src/bin/qosbench/")
        || path.starts_with("src/bin/netqos/");
    if whole {
        return code(&text, "//");
    }
    if path == "crates/telemetry/src/alerts.rs" {
        let start = (text.find("pub fn builtin_alert_rules")).expect("built-in rules");
        let len = text[start..].find("\n}\n").expect("end of built-in rules");
        return code(&text[start..start + len], "//");
    }
    let library = path.starts_with("src/") || path.split('/').nth(2) == Some("src");
    assert!(library, "{}", not_a_reader());
    code(split_tests(&text).1, "//")
}

/// Whether `text` holds `name` whole, or as one of the series a
/// histogram exposes (`name_bucket`, `name_count`, ...).
fn reads_name(text: &str, name: &str) -> bool {
    (text.match_indices(name)).any(|(at, _)| {
        let rest = &text[at + name.len()..];
        let rest = ["_bucket", "_count", "_sum", "_min", "_max"]
            .iter()
            .find_map(|s| rest.strip_prefix(s))
            .unwrap_or(rest);
        !rest.starts_with(is_ident)
    })
}

/// Whether `text` holds `.handle` as a whole field or method access.
fn reads_handle(text: &str, handle: &str) -> bool {
    let access = format!(".{handle}");
    (text.match_indices(&access)).any(|(at, _)| {
        let after = text[at + access.len()..].chars().next();
        !after.is_some_and(is_ident)
    })
}

/// Whether the library registers `signal` within two lines of a binding
/// named `handle` (`handle: r.counter("signal")`).
fn binds(library: &[(String, String)], signal: &str, handle: &str) -> bool {
    let quoted = format!("\"{signal}");
    library.iter().any(|(_, text)| {
        let lines: Vec<&str> = text.lines().collect();
        (0..lines.len()).any(|i| {
            lines[i].contains(&quoted)
                && lines[i.saturating_sub(2)..(i + 3).min(lines.len())]
                    .iter()
                    .any(|l| l.split(|c| !is_ident(c)).any(|w| w == handle))
        })
    })
}

#[test]
fn every_signal_in_the_library_has_a_row_and_no_row_outlives_its_signal() {
    let source = signals_in_library();
    let mut table = BTreeSet::new();
    for (signal, _) in SIGNALS {
        assert!(table.insert(key(signal)), "two rows for {signal}");
    }
    let unread: Vec<_> = source.difference(&table).collect();
    assert!(
        unread.is_empty(),
        "signals with no row (give each a reader, or delete it): {unread:#?}"
    );
    let gone: Vec<_> = table.difference(&source).collect();
    assert!(
        gone.is_empty(),
        "rows for signals the library no longer names: {gone:#?}"
    );
}

#[test]
fn every_reader_reads_its_signal() {
    let library = library();
    let mut failures = Vec::new();
    for &(signal, reader) in SIGNALS {
        let (path, handle) = match reader.split_once(" .") {
            Some((path, handle)) => (path, Some(handle)),
            None => (reader, None),
        };
        let text = reader_text(path);
        match handle {
            Some(handle) => {
                assert!(!signal.contains(' '), "{signal}: an event has no handle");
                for name in needles(signal) {
                    if !binds(&library, &name, handle) {
                        failures.push(format!("{name} is not registered as `{handle}`"));
                    }
                }
                if !reads_handle(&text, handle) {
                    failures.push(format!("{path} does not read .{handle} ({signal})"));
                }
            }
            None => {
                for needle in needles(signal) {
                    if !reads_name(&text, &needle) {
                        failures.push(format!("{path} does not read {needle} ({signal})"));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
