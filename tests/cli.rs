//! Integration tests for the `netqos` command-line binary: exercises the
//! compiled binary's contract (exit codes, output shape) end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn netqos_bin() -> PathBuf {
    // Cargo puts integration-test binaries in target/<profile>/deps; the
    // CLI lives one level up.
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // deps/
    path.pop(); // debug/ (or release/)
    path.push("netqos");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(netqos_bin())
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
}

#[test]
fn check_accepts_the_shipped_specs() {
    for spec in ["specs/lirtss.spec", "specs/two-switch.spec"] {
        let out = run(&["check", spec]);
        assert!(out.status.success(), "{spec}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("OK"), "{stdout}");
    }
}

#[test]
fn check_rejects_broken_spec_with_position() {
    let dir = std::env::temp_dir().join("netqos-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.spec");
    std::fs::write(&bad, "host A {\n  interface e;\n}\n").unwrap(); // no speed
    let out = run(&["check", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no speed"), "{stderr}");
    assert!(
        stderr.contains("2:"),
        "should carry the line number: {stderr}"
    );
}

#[test]
fn fmt_output_reparses_identically() {
    let out = run(&["fmt", "specs/lirtss.spec"]);
    assert!(out.status.success());
    let formatted = String::from_utf8(out.stdout).unwrap();
    // The canonical form must itself validate.
    let model = netqos::spec::parse_and_validate(&formatted).expect("fmt output valid");
    assert_eq!(model.topology.node_count(), 11);
    assert_eq!(model.applications.len(), 3);
}

#[test]
fn fmt_writes_percentages_check_reads_back() {
    // 0.57 * 100.0 is 56.99999999999999, which the lexer refuses.
    let dir = std::env::temp_dir().join("netqos-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("percent.spec");
    std::fs::write(
        &spec,
        "host A { interface e { speed 10Mbps; } }\n\
         host B { interface e { speed 10Mbps; } }\n\
         connection A.e <-> B.e;\n\
         qospath ab from A to B { max_utilization 57%; }\n",
    )
    .unwrap();
    let out = run(&["fmt", spec.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let formatted = String::from_utf8(out.stdout).unwrap();
    assert!(formatted.contains("max_utilization 57%;"), "{formatted}");
    let written = dir.join("percent.fmt.spec");
    std::fs::write(&written, &formatted).unwrap();
    let out = run(&["check", written.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn paths_lists_all_qospaths() {
    let out = run(&["paths", "specs/lirtss.spec"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["s1n1", "s1n2", "s1s2", "s1s3"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
    assert!(stdout.contains("hub1"), "hub paths must show the hub hop");
}

#[test]
fn monitor_emits_csv_with_load() {
    let out = run(&[
        "monitor",
        "specs/lirtss.spec",
        "--duration",
        "6",
        "--load",
        "L:N1:200:1:5",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("t_s,"), "{}", lines[0]);
    assert!(lines[0].contains("s1n1_used_kBps"));
    // 6 data rows follow the header, then the latency summary line.
    assert_eq!(lines.len(), 8, "{stdout}");
    assert!(
        lines[7].starts_with("# path_rtt: p50 "),
        "expected latency p50/p99 summary: {}",
        lines[7]
    );
    assert!(lines[7].contains("p99 "), "{}", lines[7]);
    // At least one loaded sample near 200 KB/s on s1n1 (first column pair).
    let loaded = lines[1..7].iter().any(|l| {
        l.split(',')
            .nth(1)
            .and_then(|v| v.parse::<f64>().ok())
            .map(|v| (150.0..280.0).contains(&v))
            .unwrap_or(false)
    });
    assert!(loaded, "expected a ~200 KB/s sample: {stdout}");
}

/// `netqos audit` on both shipped specs prints `tests/golden/audit.txt`
/// byte for byte. On a deliberate change of answers, copy the
/// `audit.actual.txt` the failure names over it.
#[test]
fn audit_reports_verdicts() {
    let mut actual = String::new();
    for spec in ["specs/lirtss.spec", "specs/two-switch.spec"] {
        let out = run(&["audit", spec]);
        assert!(out.status.success(), "{spec}: {out:?}");
        actual += &format!("$ netqos audit {spec}\n");
        actual += &String::from_utf8(out.stdout).unwrap();
    }
    assert_golden("tests/golden/audit.txt", &actual);
}

/// Fails naming the first line where `actual` differs from the file
/// `golden`, and writes `actual` beside the test binaries as
/// `<stem>.actual.txt`.
fn assert_golden(golden: &str, actual: &str) {
    let expected = std::fs::read_to_string(golden).unwrap_or_default();
    if actual == expected {
        return;
    }
    let stem = std::path::Path::new(golden).file_stem().unwrap();
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}.actual.txt", stem.to_string_lossy()));
    std::fs::write(&dump, actual).unwrap();
    let line = (actual.lines().zip(expected.lines()))
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "output differs from {golden} at line {}:\n  now:    {}\n  golden: {}\nfull output: {}",
        line + 1,
        actual.lines().nth(line).unwrap_or("<end>"),
        expected.lines().nth(line).unwrap_or("<end>"),
        dump.display()
    );
}

#[test]
fn alerts_lints_rules_files() {
    // The shipped example file parses; every echoed line is itself a
    // valid rule (canonical form round trips).
    let out = run(&["alerts", "specs/alerts.rules"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("alert path_hot if path_rank >= 0.99"),
        "{stdout}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("5 rule(s) OK"));

    // Builtins are listed in the same grammar.
    let out = run(&["alerts", "--builtin"]);
    assert!(out.status.success());
    let builtin = String::from_utf8_lossy(&out.stdout);
    assert!(
        builtin.contains("alert path_qos_violation if path_violated > 0.5"),
        "{builtin}"
    );

    // A broken file fails with line context and a nonzero exit.
    let bad = std::env::temp_dir().join(format!("netqos-bad-{}.rules", std::process::id()));
    std::fs::write(
        &bad,
        "alert ok if s > 1 for 1 severity info\nalert bad if s ?? 1\n",
    )
    .unwrap();
    let out = run(&["alerts", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    std::fs::remove_file(&bad).ok();

    // --alert-rules on a monitor run rejects the same broken file.
    std::fs::write(&bad, "alert bad if\n").unwrap();
    let out = run(&[
        "monitor",
        "specs/two-switch.spec",
        "--duration",
        "1",
        "--alert-rules",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(&bad).ok();
}

#[test]
fn usage_on_bad_invocations() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(1));
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["check", "/nonexistent/x.spec"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

#[test]
fn options_a_command_does_not_act_on_are_refused_with_its_own_usage() {
    let full = String::from_utf8(run(&["help"]).stdout).unwrap();
    // Options a command ignores, and the trace sampler's and delta push's
    // options, which no command has any more.
    for (args, option) in [
        (
            &["monitor", "specs/lirtss.spec", "--trace-sample", "3"][..],
            "--trace-sample",
        ),
        (
            &["monitor", "specs/lirtss.spec", "--trace-adaptive"],
            "--trace-adaptive",
        ),
        (
            &["monitor", "specs/lirtss.spec", "--otlp-push-delta"],
            "--otlp-push-delta",
        ),
        (
            &["stats", "specs/lirtss.spec", "--serve", "127.0.0.1:0"],
            "--serve",
        ),
        (
            &["stats", "specs/lirtss.spec", "--lts-compact"],
            "--lts-compact",
        ),
        (
            &["trace", "specs/two-switch.spec", "--serve", "127.0.0.1:0"],
            "--serve",
        ),
        (
            &["trace", "specs/two-switch.spec", "--pace-ms", "5"],
            "--pace-ms",
        ),
        (&["monitor", "specs/lirtss.spec", "--out", "x"], "--out"),
        (
            &[
                "federate",
                "specs/lirtss.spec",
                "specs/two-switch.spec",
                "--slow-query-ms",
                "5",
            ],
            "--slow-query-ms",
        ),
        (
            &[
                "federate",
                "specs/lirtss.spec",
                "specs/two-switch.spec",
                "--load",
                "L:N1:1",
            ],
            "--load",
        ),
        (&["flight", "show", "x.jsonl", "--otlp"], "--otlp"),
        (
            &["check", "specs/lirtss.spec", "--duration", "1"],
            "--duration",
        ),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option `{option}`")),
            "{stderr}"
        );
        let command = args[..if args[0] == "flight" { 2 } else { 1 }].join(" ");
        assert!(stderr.contains(&format!("netqos {command}")), "{stderr}");
        assert!(
            stderr.lines().count() * 3 < full.lines().count(),
            "one command's usage, not the listing: {stderr}"
        );
    }
}

#[test]
fn options_and_positionals_interleave() {
    let csv = |args: &[&str]| {
        let out = run(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let after = csv(&["monitor", "specs/lirtss.spec", "--duration", "2"]);
    assert_eq!(after.lines().count(), 4, "{after}");
    assert_eq!(
        csv(&["monitor", "--duration", "2", "specs/lirtss.spec"]),
        after
    );

    // federate counted "0" specs when an option came first.
    let shards = csv(&[
        "federate",
        "--duration",
        "1",
        "specs/two-switch.spec",
        "specs/lirtss.spec",
    ]);
    assert!(shards.contains("shard two-switch: 1 ticks"), "{shards}");
    assert!(shards.contains("shard lirtss: 1 ticks"), "{shards}");
}

#[test]
fn stats_prints_prometheus_snapshot() {
    let out = run(&["stats", "specs/lirtss.spec", "--duration", "3"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# TYPE netqos_monitor_ticks_total counter"));
    assert!(stdout.contains("netqos_monitor_ticks_total 3"), "{stdout}");
    // Poll RTT and tick-duration histograms must have samples.
    for count_line in [
        "netqos_monitor_poll_rtt_us_count",
        "netqos_monitor_tick_duration_ns_count",
    ] {
        let nonzero = stdout.lines().any(|l| {
            l.starts_with(count_line)
                && l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(|v| v > 0)
                    .unwrap_or(false)
        });
        assert!(nonzero, "{count_line} should be non-zero:\n{stdout}");
    }
}

#[test]
fn trace_writes_validatable_flight_snapshots() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-trace-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = run(&[
        "trace",
        "specs/two-switch.spec",
        "--duration",
        "10",
        "--load",
        "sensor1:console:9000",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("traced 10 cycles"), "{stdout}");
    assert!(stdout.contains("violation(s)"), "{stdout}");
    assert!(stdout.contains("baseline feed1"), "{stdout}");

    // The run wrote JSONL only: `last.jsonl` and one tagged file.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.contains(&"last.jsonl".to_string()), "{names:?}");
    assert!(names.iter().all(|n| n.ends_with(".jsonl")), "{names:?}");

    // `flight show` summarizes the JSONL snapshot with baseline ranks.
    let jsonl = dir.join("last.jsonl");
    let out = run(&["flight", "show", jsonl.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cycle"), "{stdout}");
    assert!(stdout.contains("rank"), "{stdout}");

    // `flight dump` renders the JSONL as valid Chrome trace JSON, and
    // `flight check` validates what it printed.
    let out = run(&["flight", "dump", jsonl.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let roundtrip = String::from_utf8(out.stdout).unwrap();
    netqos_telemetry::validate_chrome_trace(&roundtrip).expect("dump output is a valid trace");
    let chrome = dir.join("dump.trace.json");
    std::fs::write(&chrome, &roundtrip).unwrap();
    let out = run(&["flight", "check", chrome.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK"), "{stdout}");

    // `flight check` rejects garbage.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"traceEvents\":[{\"ph\":\"X\"}]}").unwrap();
    let out = run(&["flight", "check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flight_dump_otlp_round_trips_and_checks() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-otlp-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = run(&[
        "trace",
        "specs/two-switch.spec",
        "--duration",
        "10",
        "--load",
        "sensor1:console:9000",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let jsonl = dir.join("last.jsonl");
    assert!(
        stdout.contains("jsonl:") && !stdout.contains("otlp:"),
        "trace reports the one snapshot file: {stdout}"
    );

    // `flight dump --otlp` renders the JSONL as the push worker would
    // have, through the one renderer.
    let out = run(&["flight", "dump", jsonl.to_str().unwrap(), "--otlp"]);
    assert!(out.status.success(), "{out:?}");
    let dumped = String::from_utf8(out.stdout).unwrap();
    let cycles =
        netqos_telemetry::cycles_from_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
    assert_eq!(dumped, netqos_telemetry::to_otlp(&cycles));
    netqos_telemetry::validate_otlp(&dumped).expect("dump --otlp output validates");
    let otlp_file = dir.join("dump.otlp.json");
    std::fs::write(&otlp_file, &dumped).unwrap();

    // `flight check` auto-detects the OTLP shape and validates it.
    let out = run(&["flight", "check", otlp_file.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK") && stdout.contains("OTLP"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baseline_state_accumulates_across_runs() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-baseline-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("baselines.json");

    let samples_of = |out: &Output| -> u64 {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.contains("baseline feed1"))
            .unwrap_or_else(|| panic!("no baseline line in {stdout}"));
        // "... over N samples"
        line.split_whitespace()
            .rev()
            .nth(1)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable baseline line {line:?}"))
    };
    let flight_dir = dir.join("flight");
    let trace = |extra: &[&str]| {
        let mut args = vec![
            "trace",
            "specs/two-switch.spec",
            "--duration",
            "8",
            "--out",
            flight_dir.to_str().unwrap(),
            "--baseline-state",
            state.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        run(&args)
    };

    // First run starts cold and saves its histograms on exit.
    let out = trace(&[]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("baseline state saved to"),
        "{out:?}"
    );
    let first = samples_of(&out);
    assert!(state.exists());

    // Second run restores them: its baselines carry both runs' samples.
    let out = trace(&[]);
    assert!(out.status.success(), "{out:?}");
    let second = samples_of(&out);
    assert!(
        second > first,
        "restored baselines should accumulate: {first} then {second}"
    );

    // A corrupt state file is ignored with a warning, not a crash.
    std::fs::write(&state, "not json at all").unwrap();
    let out = trace(&[]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("baseline state ignored"),
        "{out:?}"
    );
    assert_eq!(
        samples_of(&out),
        first,
        "corrupt state must mean a cold start"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn monitor_telemetry_flag_writes_prom_and_jsonl() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("t");
    let out = run(&[
        "monitor",
        "specs/lirtss.spec",
        "--duration",
        "4",
        "--telemetry",
        prefix.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let prom = std::fs::read_to_string(dir.join("t.prom")).expect("t.prom written");
    assert!(prom.contains("netqos_monitor_ticks_total 4"), "{prom}");
    assert!(prom.contains("netqos_monitor_poll_rtt_us_count"), "{prom}");

    let jsonl = std::fs::read_to_string(dir.join("t.jsonl")).expect("t.jsonl written");
    let ticks = jsonl
        .lines()
        .filter(|l| l.contains("\"target\":\"monitor.tick\""))
        .count();
    assert_eq!(ticks, 4, "one tick event per tick:\n{jsonl}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lts_subcommand_round_trip() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-lts-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");

    // A monitor run leaves a store behind...
    let out = run(&[
        "monitor",
        "specs/two-switch.spec",
        "--duration",
        "8",
        "--lts",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("long-term stats flushed"), "{stderr}");

    // ...that info summarizes, verify blesses, and query reads.
    let out = run(&["lts", "info", store.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("netqos_monitor_ticks_total"), "{stdout}");

    let out = run(&["lts", "verify", store.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    let query = [
        "lts",
        "query",
        store.to_str().unwrap(),
        "--series",
        "netqos_monitor_ticks_total",
        "--step",
        "1s",
    ];
    let out = run(&query);
    assert!(out.status.success(), "{out:?}");
    let before = String::from_utf8(out.stdout).unwrap();
    assert!(before.contains("\"points\":[["), "{before}");

    // Compaction changes the layout, not one byte of the answers.
    let out = run(&["lts", "compact", store.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&query);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), before);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_lints_rules_files() {
    // The shipped example parses; each stanza echoes back canonically.
    let out = run(&["record", "lint", "specs/record.rules"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("record: path:used_bps:sum"), "{stdout}");
    assert!(
        stdout.contains("expr: sum(netqos_path_used_bps)"),
        "{stdout}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("4 rule(s) OK"));

    // Broken files fail with line context and a nonzero exit.
    let bad = std::env::temp_dir().join(format!("netqos-bad-{}.record", std::process::id()));
    std::fs::write(&bad, "record: orphaned\n").unwrap();
    let out = run(&["record", "lint", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "{stderr}");
    assert!(stderr.contains("has no expr"), "{stderr}");

    std::fs::write(&bad, "record: x\nexpr: rate(\n").unwrap();
    let out = run(&["record", "lint", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 2"),
        "{out:?}"
    );
    std::fs::remove_file(&bad).ok();
}

#[test]
fn monitor_record_rules_produce_queryable_derived_series() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-record-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");

    // --record-rules without --lts is refused up front.
    let out = run(&[
        "monitor",
        "specs/two-switch.spec",
        "--duration",
        "4",
        "--record-rules",
        "specs/record.rules",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("needs --lts"),
        "{out:?}"
    );

    // A short run with a save tick inside it evaluates the rules and
    // appends derived series into the same store.
    let out = run(&[
        "monitor",
        "specs/two-switch.spec",
        "--duration",
        "12",
        "--lts",
        store.to_str().unwrap(),
        "--record-rules",
        "specs/record.rules",
        "--baseline-save-ticks",
        "5",
    ]);
    assert!(out.status.success(), "{out:?}");

    // The derived series answers offline queries like any sampled one.
    let out = run(&[
        "query",
        "path:used_bps:sum",
        "--lts",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("path:used_bps:sum"), "{stdout}");

    // And `lts info` lists it with the per-resolution codec breakdown.
    let out = run(&["lts", "info", store.to_str().unwrap(), "--segments"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("path:used_bps:sum"), "{stdout}");
    assert!(stdout.contains("open tail(s)"), "{stdout}");
    assert!(stdout.contains("1s "), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A store holding a sealed v1 segment is refused by every entry that
/// reads it, the error names the file, and nothing on disk changes.
#[test]
fn every_lts_entry_refuses_a_store_holding_a_v1_segment() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-v1-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let store_arg = store.to_str().unwrap();
    let monitor = ["monitor", "specs/two-switch.spec", "--duration", "10"];
    let out = run(&[&monitor[..], &["--lts", store_arg]].concat());
    assert!(out.status.success(), "{out:?}");
    let query = || run(&["lts", "query", store_arg, "--series", "*", "--step", "1s"]);
    let before = query();
    assert!(before.status.success(), "{before:?}");

    let slug = std::fs::read_dir(store.join("1s"))
        .unwrap()
        .flatten()
        .next()
        .unwrap()
        .file_name();
    let v1 = store
        .join("1s")
        .join(slug)
        .join("seg-000000000001-000000000002.seg");
    std::fs::write(&v1, "{\"t\":1,\"kind\":\"counter\",\"v\":1}\n").unwrap();
    let files = |d: &std::path::Path| {
        let mut out = Vec::new();
        let mut todo = vec![d.to_path_buf()];
        while let Some(d) = todo.pop() {
            for e in std::fs::read_dir(d).unwrap().flatten() {
                match e.path() {
                    p if p.is_dir() => todo.push(p),
                    p => out.push((p.clone(), std::fs::read(p).unwrap())),
                }
            }
        }
        out.sort();
        out
    };
    let on_disk = files(&store);
    let refused = format!("{}: a sealed v1 (JSONL) segment", v1.display());
    for args in [
        vec!["lts", "verify", store_arg],
        vec!["lts", "info", store_arg],
        vec!["lts", "compact", store_arg],
        vec!["lts", "query", store_arg],
        vec!["query", "netqos_monitor_ticks_total", "--lts", store_arg],
        [&monitor[..], &["--lts", store_arg]].concat(),
    ] {
        let out = run(&args);
        assert!(!out.status.success(), "{args:?} accepted it: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&refused), "{args:?}: {stderr}");
        assert!(files(&store) == on_disk, "{args:?} changed the store");
    }

    std::fs::remove_file(&v1).unwrap();
    assert_eq!(query().stdout, before.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

/// A store built with the library: a counter, a gauge and a histogram,
/// 22 points each 15 minutes apart, sealed every 3 points, so every
/// resolution holds sealed segments and an open tail.
fn fixed_store(store: &std::path::Path) {
    use netqos::telemetry::{
        Histogram, LtsConfig, LtsCounters, LtsRetention, LtsStore, PointValue,
    };
    let config = LtsConfig {
        seal_points: 3,
        retention: LtsRetention {
            max_age_secs: 0,
            max_bytes: 0,
        },
        ..LtsConfig::default()
    };
    let mut lts = LtsStore::open(store, config, LtsCounters::detached()).unwrap();
    for i in 0..22u64 {
        let t = 1_790_000_000 + 900 * i;
        let h = Histogram::new();
        for v in [i, 10 * i + 3, 1_000 + i] {
            h.record(v);
        }
        lts.append("fixed_requests_total", t, PointValue::Counter(i + 1));
        lts.append("fixed_depth", t, PointValue::Gauge(7 * i as i64 - 20));
        lts.append("fixed_latency_us", t, PointValue::Histogram(h.to_state()));
        if i % 4 == 3 {
            lts.flush().unwrap();
        }
    }
    lts.flush().unwrap();
}

/// `lts info`, `lts info --segments`, `lts verify` and `lts compact` on
/// a sound store print `tests/golden/lts_tools.txt`, the store's path
/// written `DIR`. On a deliberate change of output, copy the
/// `lts_tools.actual.txt` the failure names over it.
#[test]
fn the_store_tools_print_the_golden_on_a_sound_store() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("store");
    fixed_store(&store);
    let store_arg = store.to_str().unwrap();
    let mut actual = String::new();
    for args in [
        vec!["lts", "info", store_arg],
        vec!["lts", "info", store_arg, "--segments"],
        vec!["lts", "verify", store_arg],
        vec!["lts", "compact", store_arg],
        vec!["lts", "info", store_arg, "--segments"],
        vec!["lts", "verify", store_arg],
    ] {
        let out = run(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let shown: Vec<&str> = args
            .iter()
            .map(|a| if *a == store_arg { "DIR" } else { a })
            .collect();
        actual += &format!("$ netqos {}\n", shown.join(" "));
        actual += &String::from_utf8(out.stdout)
            .unwrap()
            .replace(store_arg, "DIR");
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_golden("tests/golden/lts_tools.txt", &actual);
}

/// A store with one byte flipped in the middle of a sealed segment and a
/// stray `x.bin` beside it: `lts verify` names both, `lts compact`
/// fails naming the segment and leaves both files as they were, `lts
/// query` and `query --lts` over the segment fail naming it, and `lts
/// info` prints one point total.
#[test]
fn the_store_tools_agree_on_a_damaged_store() {
    let dir = std::env::temp_dir().join(format!("netqos-cli-damaged-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("store");
    fixed_store(&store);
    let store_arg = store.to_str().unwrap();
    let sdir = (std::fs::read_dir(store.join("1s")).unwrap().flatten())
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().contains("fixed_requests_total"))
        .unwrap();
    let mut segments: Vec<PathBuf> = (std::fs::read_dir(&sdir).unwrap().flatten())
        .map(|e| e.path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"))
        .collect();
    segments.sort();
    let (seg, stray) = (segments[1].clone(), sdir.join("x.bin"));
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    std::fs::write(&seg, &bytes).unwrap();
    std::fs::write(&stray, "not a segment").unwrap();
    let both = [(&seg, bytes), (&stray, b"not a segment".to_vec())];

    let out = run(&["lts", "verify", store_arg]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (path, _) in &both {
        let name = path.file_name().unwrap().to_string_lossy();
        assert!(
            stderr.contains(&*name),
            "verify does not name {name}: {stderr}"
        );
    }

    let out = run(&["lts", "compact", store_arg]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&seg.display().to_string()), "{stderr}");
    for (path, bytes) in &both {
        assert_eq!(&std::fs::read(path).unwrap(), bytes, "{}", path.display());
    }

    let series = "fixed_requests_total";
    for args in [
        vec!["lts", "query", store_arg, "--series", series],
        vec![
            "query", "--lts", store_arg, series, "--last", "6h", "--step", "30s",
        ],
    ] {
        let out = run(&args);
        assert!(!out.status.success(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&seg.display().to_string()),
            "{args:?}: {stderr}"
        );
    }

    let out = run(&["lts", "info", store_arg]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let points = |line: &str| -> u64 {
        let (head, _) = line.split_once(" point(s)").unwrap();
        head.rsplit(' ').next().unwrap().parse().unwrap()
    };
    let mut lines = stdout.lines();
    let total = points(lines.next().unwrap());
    let by_resolution: u64 = lines.take(3).map(points).sum();
    assert_eq!(total, by_resolution, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
