//! `netqos` — command-line front end for the network QoS monitor.
//!
//! Every subcommand, its positionals and the options it acts on are
//! declared once, in [`cli::COMMANDS`]: `netqos help` prints that table,
//! and a usage error prints the one command's entry.
//!
//! Exit codes: 0 success, 1 no command given, 2 any other failure.

mod cli;

use cli::Args;
use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::discovery::{self, Verdict};
use netqos::monitor::live::{self, RouterOptions};
use netqos::monitor::qos::QosEvent;
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::{SimNetwork, SimNetworkOptions};
use netqos::monitor::{Network, NetworkMonitor};
use netqos::sim::time::SimDuration;
use netqos::spec;
use netqos_telemetry::{EventSink, Level, OtlpPusher, PushConfig, PushTarget};
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        None => {
            eprintln!("{}", cli::help());
            return ExitCode::from(1);
        }
        Some("--help" | "-h" | "help") => {
            println!("{}", cli::help());
            Ok(())
        }
        Some(_) => cli::lookup(&argv).and_then(|(cmd, rest)| (cmd.run)(&cli::parse(cmd, rest)?)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("netqos: {msg}");
            ExitCode::from(2)
        }
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let path = args.pos(0)?;
    let text = read_file(path)?;
    match spec::parse_and_validate(&text) {
        Ok(model) => {
            let hosts = model
                .topology
                .nodes()
                .filter(|(_, n)| n.kind.is_host())
                .count();
            println!(
                "{path}: OK — {} nodes ({hosts} hosts), {} connections, {} SNMP agents, {} qospaths",
                model.topology.node_count(),
                model.topology.connection_count(),
                model.snmp_nodes().len(),
                model.qos_paths.len()
            );
            Ok(())
        }
        Err(e) => Err(match e.span() {
            Some(span) => format!("{path}:{span}: {e}"),
            None => format!("{path}: {e}"),
        }),
    }
}

fn cmd_fmt(args: &Args) -> Result<(), String> {
    let text = read_file(args.pos(0)?)?;
    let ast = spec::parse(&text).map_err(|e| e.to_string())?;
    print!("{}", spec::write_spec(&ast));
    Ok(())
}

fn cmd_paths(args: &Args) -> Result<(), String> {
    let text = read_file(args.pos(0)?)?;
    let model = spec::parse_and_validate(&text).map_err(|e| e.to_string())?;
    let monitor = NetworkMonitor::new(model.topology.clone());
    if model.qos_paths.is_empty() {
        println!("no qospath declarations; showing all host pairs:");
        for p in netqos::topology::path::all_host_pairs(&model.topology) {
            println!("  {}", p.describe(&model.topology));
        }
        return Ok(());
    }
    for q in &model.qos_paths {
        let p = monitor.path(q.from, q.to).map_err(|e| e.to_string())?;
        let req = q
            .min_available_bps
            .map(|b| format!(" (min_available {} KB/s)", b / 8000))
            .unwrap_or_default();
        println!("{:<10} {}{req}", q.name, p.describe(&model.topology));
    }
    Ok(())
}

/// `FROM:TO:KBPS[:START:END]`
fn parse_load(s: &str) -> Option<(String, String, LoadProfile)> {
    let parts: Vec<&str> = s.split(':').collect();
    let numbers: Result<Vec<u64>, _> = parts.iter().skip(2).map(|n| n.parse()).collect();
    let profile = match numbers.ok()?[..] {
        [kbps] => LoadProfile::constant(kbps * 1000),
        [kbps, start, end] => LoadProfile::pulse(start, end, kbps * 1000),
        _ => return None,
    };
    Some((parts[0].to_owned(), parts[1].to_owned(), profile))
}

/// Folds the persistence/alerting options into a service config. User
/// alert rules are appended after the built-ins so a same-name rule
/// overrides its built-in (the engine keeps the last).
fn apply_service_options(mut config: ServiceConfig, args: &Args) -> Result<ServiceConfig, String> {
    if let Some(path) = args.value("--alert-rules") {
        let rules = netqos_telemetry::parse_alert_rules(&read_file(path)?)
            .map_err(|e| format!("{path}: {e}"))?;
        config.alert_rules.extend(rules);
    }
    config.baseline_state = args.path("--baseline-state");
    if let Some(n) = args.num::<NonZeroU64>("--baseline-save-ticks")? {
        config.baseline_save_ticks = n.get();
    }
    config.lts_dir = args.path("--lts");
    for dependent in ["--lts-compact", "--record-rules"] {
        if args.flag(dependent) && config.lts_dir.is_none() {
            return Err(format!("{dependent} needs --lts"));
        }
    }
    config.lts_compact = args.flag("--lts-compact");
    if let Some(path) = args.value("--record-rules") {
        config.record_rules = netqos_telemetry::parse_record_rules(&read_file(path)?)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(config)
}

/// Whether an option consumes the traces: `/profile` behind `--serve`,
/// or the collector behind `--otlp-push`.
fn wants_tracing(args: &Args) -> bool {
    args.flag("--serve") || args.flag("--otlp-push")
}

/// Starts the push worker behind `--otlp-push` or `--alert-webhook`
/// when `url` was given, announcing the target as `announce http://...`;
/// `enable` wires it into the service, whose registry carries the
/// delivery counters (`netqos_monitor_otlp_*`, `netqos_alert_webhook_*`).
fn start_push(
    url: Option<&str>,
    parse: fn(&str) -> Result<PushTarget, String>,
    announce: &str,
    enable: impl FnOnce(PushConfig) -> Arc<OtlpPusher>,
) -> Result<Option<Arc<OtlpPusher>>, String> {
    let Some(url) = url else {
        return Ok(None);
    };
    let target = parse(url)?;
    eprintln!(
        "{announce} http://{}:{}{}",
        target.host, target.port, target.path
    );
    Ok(Some(enable(PushConfig::new(target))))
}

/// Drains the push queue and reports delivery counters.
fn finish_push(what: &str, pusher: &OtlpPusher) {
    pusher.shutdown();
    let c = pusher.counters();
    eprintln!(
        "{what}: {} delivered, {} retries, {} dropped",
        c.pushed.get(),
        c.retries.get(),
        c.dropped.get()
    );
}

/// How long the tick loop may be quiet before `/healthz` reports stale:
/// several paced ticks, or 2 s, whichever is larger.
fn stale_after_ns(pace_ms: u64) -> u64 {
    (pace_ms.saturating_mul(10_000_000)).max(2_000_000_000)
}

/// The export plane `args` ask for over `service`: `/healthz` goes stale
/// after [`stale_after_ns`], `/api/v1` reads the `--lts` store when one
/// is open, `/profile` folds the service's flight ring, and `--slow-query-ms`
/// sets the slow-query threshold. `monitor --serve` and every `federate`
/// shard build their routers from it.
fn router_options(
    service: &MonitoringService,
    args: &Args,
    pace_ms: u64,
) -> Result<RouterOptions, String> {
    let live = service.live().clone();
    live.set_stale_after_ns(stale_after_ns(pace_ms));
    let mut options = RouterOptions::new(service.registry().clone(), live);
    // /api/v1 reads the long-term store straight from disk, so the
    // handler threads never touch the service.
    if let (Some(dir), true) = (args.value("--lts"), service.lts_enabled()) {
        options.lts = Some(netqos_telemetry::LtsReader::open(dir));
    }
    // Serving is what turns tracing on, so traced cycles fill the ring.
    options.profile = Some(service.flight().clone());
    if let Some(ms) = args.num::<u64>("--slow-query-ms")? {
        options.slow_query_ns = ms.saturating_mul(1_000_000);
    }
    Ok(options)
}

/// Starts the export plane when `--serve` is given: binds ADDR, prints
/// the bound address to stderr (`:0` picks an ephemeral port), and
/// serves the [`router_options`] plane.
fn start_serve_plane(
    service: &MonitoringService,
    args: &Args,
    pace_ms: u64,
) -> Result<Option<netqos_telemetry::HttpServer>, String> {
    let Some(addr) = args.value("--serve") else {
        return Ok(None);
    };
    let options = router_options(service, args, pace_ms)?;
    let server = netqos_telemetry::HttpServer::serve(addr, live::build_router(options))
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!(
        "serving http://{}/ (metrics, healthz, snapshot, alerts, profile)",
        server.local_addr(),
    );
    Ok(Some(server))
}

/// Reports what the plane served and stops it, lingering first so a
/// scraper started alongside the run can still read the final state
/// (the smoke jobs curl after the run ends).
fn stop_serve_plane(server: netqos_telemetry::HttpServer, pace_ms: u64) {
    if pace_ms > 0 {
        std::thread::sleep(Duration::from_millis(pace_ms.min(500)));
    }
    eprintln!("served {} request(s)", server.requests_served());
    server.stop();
}

/// Simulator options for `model`: its first SNMP-capable host is the
/// station the monitor (or the audit) runs on.
fn sim_options(model: &spec::SpecModel) -> Result<SimNetworkOptions, String> {
    let topology = &model.topology;
    let station = (model.snmp_nodes().into_iter())
        .find(|&n| topology.node(n).is_ok_and(|x| x.kind.is_host()))
        .ok_or("no SNMP-capable host to run the monitor on")?;
    Ok(SimNetworkOptions {
        monitor_host: topology
            .node(station)
            .map_err(|e| e.to_string())?
            .name
            .clone(),
        ..SimNetworkOptions::default()
    })
}

/// Builds the assembled monitoring service on [`sim_options`]: `--load` sources are installed as
/// simulated apps, and `--telemetry` routes the service's structured
/// events to `PATH.jsonl`.
fn build_service(
    model: spec::SpecModel,
    args: &Args,
    config: ServiceConfig,
) -> Result<MonitoringService, String> {
    let net_options = sim_options(&model)?;
    let loads = (args.all("--load"))
        .map(|s| parse_load(s).ok_or_else(|| args.bad("--load", s)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut service =
        MonitoringService::from_model_with(model, net_options, config, |builder, map, m| {
            for (from, to, profile) in &loads {
                let (Ok(f), Ok(t)) = (m.topology.node_by_name(from), m.topology.node_by_name(to))
                else {
                    continue;
                };
                if let Some(ip) = m.addresses.get(&t).and_then(|a| a.parse().ok()) {
                    let _ = builder.install_app(
                        map[&f],
                        Box::new(ProfiledSource::new(ip, profile.clone())),
                        None,
                    );
                }
            }
        })
        .map_err(|e| e.to_string())?;
    if let Some(prefix) = args.value("--telemetry") {
        let sink = EventSink::to_file(format!("{prefix}.jsonl"))
            .map_err(|e| format!("cannot open {prefix}.jsonl: {e}"))?;
        // The trail should include the per-tick Debug events, not just
        // violations; operators narrow it with per-target levels instead.
        sink.set_default_level(Level::Debug);
        service.set_event_sink(Arc::new(sink));
    }
    Ok(service)
}

/// The start of every run (`monitor`, `stats`, `trace`, each `federate`
/// shard): reads and validates the spec at `path`, requires a qospath,
/// builds the service the options describe on top of `config`, reports
/// what it could not restore, refuses an `--lts` store it cannot open,
/// and turns tracing on when an option reads the traces.
fn open_service(
    path: &str,
    args: &Args,
    config: ServiceConfig,
) -> Result<(MonitoringService, Vec<spec::QosPathSpec>), String> {
    let model = spec::parse_and_validate(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
    let qos_paths = model.qos_paths.clone();
    if qos_paths.is_empty() {
        return Err(format!("{path}: declares no qospath to monitor"));
    }
    let config = apply_service_options(config, args)?;
    let mut service = build_service(model, args, config)?;
    if let Some(warning) = service.baseline_load_warning() {
        eprintln!("netqos: baseline state ignored: {warning}");
    }
    if let Some(warning) = service.lts_open_warning() {
        return Err(warning.to_string());
    }
    if wants_tracing(args) {
        service.set_tracing(true);
    }
    Ok((service, qos_paths))
}

/// `--duration` (default 30 simulated seconds) and `--pace-ms` (default
/// unpaced), read before anything is built so a bad number fails first.
fn run_length(args: &Args) -> Result<(u64, u64), String> {
    let duration = args.num("--duration")?.unwrap_or(30);
    Ok((duration, args.num("--pace-ms")?.unwrap_or(0)))
}

/// Ticks `duration` times, calling `each` after every tick and sleeping
/// `pace_ms` of wall clock between ticks; returns how many QoS
/// violations began.
fn run_ticks(
    service: &mut MonitoringService,
    duration: u64,
    pace_ms: u64,
    mut each: impl FnMut(&mut MonitoringService),
) -> Result<usize, String> {
    let mut violations = 0;
    for _ in 0..duration {
        let events = service.tick().map_err(|e| e.to_string())?;
        violations += (events.iter())
            .filter(|e| matches!(e, QosEvent::Violated { .. }))
            .count();
        each(service);
        if pace_ms > 0 {
            std::thread::sleep(Duration::from_millis(pace_ms));
        }
    }
    Ok(violations)
}

/// Echo-probes every qospath destination, which fills the
/// `netqos_monitor_path_rtt_us` histogram.
fn probe_paths(service: &mut MonitoringService, qos_paths: &[spec::QosPathSpec]) {
    for q in qos_paths {
        let _ = service
            .net_mut()
            .measure_rtt(q.to, 8, 64, SimDuration::from_millis(250));
    }
}

/// The end of every run: saves the baselines back, flushes the
/// long-term store so the run's tail is on disk (and queryable by
/// `netqos lts` / the next run) before exit, and writes the
/// `--telemetry` registry dump — each only when its option was given.
fn finish_run(service: &mut MonitoringService, args: &Args) -> Result<(), String> {
    if service
        .persist_baselines()
        .map_err(|e| format!("cannot save baseline state: {e}"))?
    {
        let path = args.value("--baseline-state").unwrap_or_default();
        eprintln!("baseline state saved to {path}");
    }
    if service.flush_lts().is_some() {
        let dir = args.value("--lts").unwrap_or_default();
        eprintln!("long-term stats flushed to {dir}");
    }
    if let Some(prefix) = args.value("--telemetry") {
        let prom_path = format!("{prefix}.prom");
        std::fs::write(&prom_path, service.registry().render_prometheus())
            .map_err(|e| format!("cannot write {prom_path}: {e}"))?;
        service.event_sink().flush();
        eprintln!("telemetry written to {prefix}.prom and {prefix}.jsonl");
    }
    Ok(())
}

fn cmd_monitor(args: &Args) -> Result<(), String> {
    let (duration, pace_ms) = run_length(args)?;
    let (mut service, qos_paths) = open_service(args.pos(0)?, args, ServiceConfig::default())?;
    let pusher = start_push(
        args.value("--otlp-push"),
        netqos_telemetry::parse_push_url,
        "pushing OTLP to",
        |config| service.enable_otlp_push(config),
    )?;
    let webhook = start_push(
        args.value("--alert-webhook"),
        netqos_telemetry::parse_webhook_url,
        "alert webhook at",
        |config| service.enable_alert_webhook(config),
    )?;
    let server = start_serve_plane(&service, args, pace_ms)?;

    // Header.
    print!("t_s");
    for q in &qos_paths {
        print!(",{}_used_kBps,{}_avail_kBps", q.name, q.name);
    }
    println!();

    let start = service.net_mut().lan.now();
    run_ticks(&mut service, duration, pace_ms, |service| {
        let t_s = service
            .net_mut()
            .lan
            .now()
            .duration_since(start)
            .as_secs_f64();
        print!("{t_s:.0}");
        // One row per path the tick could evaluate, in qospath order.
        let mut rows = service.rows().iter().peekable();
        for q in &qos_paths {
            match rows.next_if(|row| row.name == q.name) {
                Some(row) => print!(
                    ",{:.1},{:.1}",
                    row.used_bps as f64 / 8000.0,
                    row.available_bps as f64 / 8000.0
                ),
                None => print!(",,"),
            }
        }
        println!();
    })?;

    // RTT p50/p99 (derived from the `netqos_monitor_path_rtt_us`
    // histogram) as a `#`-prefixed summary line after the CSV body.
    probe_paths(&mut service, &qos_paths);
    let rtt = service.telemetry().path_rtt_us.clone();
    if rtt.count() > 0 {
        println!(
            "# path_rtt: p50 {:.3} ms, p99 {:.3} ms over {} probes ({} lost)",
            rtt.quantile(0.5) as f64 / 1000.0,
            rtt.quantile(0.99) as f64 / 1000.0,
            rtt.count(),
            service.telemetry().probes_lost.get(),
        );
    }
    finish_run(&mut service, args)?;
    // Push the final flight snapshot, so short runs without violations
    // still deliver their traces.
    service.flush_otlp_push();
    for (what, pusher) in [("otlp push", pusher), ("alert webhook", webhook)] {
        if let Some(pusher) = pusher {
            finish_push(what, &pusher);
        }
    }
    if let Some(server) = server {
        service.live().mark_finished();
        stop_serve_plane(server, pace_ms);
    }
    Ok(())
}

/// Runs one monitoring shard per spec file, each on its own thread,
/// behind a single federated export plane. Shard names come from the
/// spec file stems (deduplicated); the merged `/metrics` carries every
/// shard's series labelled `shard="..."` plus unlabelled aggregates,
/// `/healthz` is 503 if any shard stalls, `/snapshot` and `/alerts` list
/// every shard's own document, `/profile?shard=NAME` is that shard's
/// phase profile, and `/api/v1` queries every shard at once.
fn cmd_federate(args: &Args) -> Result<(), String> {
    let specs = &args.positionals;
    if specs.len() < 2 {
        return Err(args.cmd.fail(format!(
            "federate needs at least two <spec> files (got {})",
            specs.len()
        )));
    }
    let (duration, pace_ms) = run_length(args)?;

    // Shard names: file stems, deduplicated by suffixing an index.
    let mut names: Vec<String> = Vec::new();
    for path in specs {
        let stem = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        let mut name = stem.clone();
        let mut n = 2;
        while names.contains(&name) {
            name = format!("{stem}-{n}");
            n += 1;
        }
        names.push(name);
    }

    // Each shard builds and runs its service inside its own thread
    // (the service itself never crosses threads); only the handles its
    // export plane reads come back for federation.
    let fed = netqos_telemetry::ShardRegistry::new();
    let (handle_tx, handle_rx) =
        std::sync::mpsc::channel::<Result<(String, RouterOptions), String>>();
    let mut workers = Vec::new();
    for (name, path) in names.iter().cloned().zip(specs.iter().cloned()) {
        let tx = handle_tx.clone();
        // A shard takes the options as given, except that it keeps its
        // own store under DIR/<shard>, the store the federated /api/v1
        // engine reads for it.
        let mut shard_args = args.clone();
        shard_args.replace("--lts", |root| {
            format!("{}", PathBuf::from(root).join(&name).display())
        });
        let worker = std::thread::Builder::new()
            .name(format!("netqos-shard-{name}"))
            .spawn(move || -> Result<(String, u64, usize), String> {
                let opened = open_service(&path, &shard_args, ServiceConfig::default()).and_then(
                    |(mut service, _)| {
                        // The merged plane always serves /profile?shard=.
                        service.set_tracing(true);
                        let options = router_options(&service, &shard_args, pace_ms)?;
                        Ok((service, options))
                    },
                );
                let (mut service, options) = match opened {
                    Ok(opened) => opened,
                    Err(e) => {
                        let _ = tx.send(Err(e.clone()));
                        return Err(e);
                    }
                };
                // Close this worker's sender once it has sent: the main
                // thread serves as soon as every shard has checked in,
                // not when the runs end.
                let _ = tx.send(Ok((name.clone(), options)));
                drop(tx);
                let violations = run_ticks(&mut service, duration, pace_ms, |_| {})
                    .map_err(|e| format!("{name}: {e}"))?;
                finish_run(&mut service, &shard_args)?;
                service.live().mark_finished();
                Ok((name, service.telemetry().ticks.get(), violations))
            })
            .map_err(|e| format!("cannot spawn shard thread: {e}"))?;
        workers.push(worker);
    }
    drop(handle_tx);

    // Register every shard before serving, so the first scrape already
    // sees the whole federation.
    let mut startup_errors = Vec::new();
    for handles in handle_rx {
        match handles {
            Ok((name, options)) => fed
                .register(live::shard_for(name, options))
                .map_err(|e| e.to_string())?,
            Err(e) => startup_errors.push(e),
        }
    }
    if !startup_errors.is_empty() {
        for w in workers {
            let _ = w.join();
        }
        return Err(startup_errors.join("\n"));
    }

    let addr = args.value("--serve").unwrap_or("127.0.0.1:0");
    let server = netqos_telemetry::HttpServer::serve(addr, fed.router())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!(
        "federation serving http://{}/ ({} shards: metrics, healthz, snapshot, alerts, \
         profile, api/v1)",
        server.local_addr(),
        fed.len()
    );

    let mut failures = Vec::new();
    for worker in workers {
        match worker.join() {
            Ok(Ok((name, ticks, violations))) => {
                println!("shard {name}: {ticks} ticks, {violations} violation(s)");
            }
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push("shard thread panicked".into()),
        }
    }
    stop_serve_plane(server, pace_ms);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Parses the rules file at `path` with `parse`, refusing an empty one.
fn lint_rules<R>(path: &str, parse: fn(&str) -> Result<Vec<R>, String>) -> Result<Vec<R>, String> {
    let rules = parse(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
    if rules.is_empty() {
        return Err(format!("{path}: no rules found"));
    }
    Ok(rules)
}

/// Lints an alert rules file: parses it and echoes every rule in
/// canonical form, or lists the built-in rules with `--builtin`.
/// Nonzero exit (with `file:line:` context) on the first syntax error,
/// so CI can gate on rules files the way it gates on specs.
fn cmd_alerts(args: &Args) -> Result<(), String> {
    if args.flag("--builtin") {
        for rule in netqos_telemetry::builtin_alert_rules() {
            println!("{rule}");
        }
        return Ok(());
    }
    let path = args.pos(0)?;
    let rules = lint_rules(path, netqos_telemetry::parse_alert_rules)?;
    for rule in &rules {
        println!("{rule}");
    }
    eprintln!("{path}: {} rule(s) OK", rules.len());
    Ok(())
}

/// `netqos record lint FILE`: parse a recording-rules file and echo
/// each rule back, mirroring what `netqos alerts` does for alert rules.
fn cmd_record_lint(args: &Args) -> Result<(), String> {
    let path = args.pos(0)?;
    let rules = lint_rules(path, netqos_telemetry::parse_record_rules)?;
    for rule in &rules {
        println!("record: {}", rule.name);
        println!("expr: {}", rule.expr);
    }
    eprintln!("{path}: {} rule(s) OK", rules.len());
    Ok(())
}

/// Runs the monitor for `--duration` simulated seconds without the CSV
/// body and prints the telemetry registry in Prometheus text format —
/// the monitor monitoring itself, on demand.
fn cmd_stats(args: &Args) -> Result<(), String> {
    let (duration, pace_ms) = run_length(args)?;
    let (mut service, qos_paths) = open_service(args.pos(0)?, args, ServiceConfig::default())?;
    run_ticks(&mut service, duration, pace_ms, |_| {})?;
    probe_paths(&mut service, &qos_paths);
    print!("{}", service.registry().render_prometheus());
    finish_run(&mut service, args)
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    let text = read_file(args.pos(0)?)?;
    let model = spec::parse_and_validate(&text).map_err(|e| e.to_string())?;
    let topology = model.topology.clone();
    let options = sim_options(&model)?;
    let mut net = SimNetwork::from_model(model, options).map_err(|e| e.to_string())?;

    // Make every agent transmit once so switches learn their MACs.
    let mut monitor = NetworkMonitor::new(topology);
    let every = net.pollable_nodes();
    let _ = net.poll_nodes(&every, &mut monitor);

    let findings = discovery::audit(&mut net).map_err(|e| e.to_string())?;
    if findings.is_empty() {
        println!("no managed switches to audit");
        return Ok(());
    }
    let mut mismatches = 0;
    for f in &findings {
        let verdict = match &f.verdict {
            Verdict::Confirmed => "CONFIRMED".to_owned(),
            Verdict::Unverified => "unverified".to_owned(),
            Verdict::Mismatch {
                specified_port,
                learned_port,
            } => {
                mismatches += 1;
                format!("MISMATCH (spec: port {specified_port}, learned: port {learned_port})")
            }
        };
        println!("{:<40} {verdict}", f.description);
    }
    if mismatches > 0 {
        Err(format!(
            "{mismatches} connection(s) contradict the specification"
        ))
    } else {
        Ok(())
    }
}

/// Runs the monitor with causal tracing on and writes the flight
/// recorder to `--out DIR` (default `flight/`): `last.jsonl` always
/// holds the newest snapshot, and each QoS violation additionally leaves
/// a tagged `flight-<seq>.jsonl` behind. `flight dump` renders either as
/// Chrome `trace_event` or OTLP/JSON.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let (duration, pace_ms) = run_length(args)?;
    let out = args
        .path("--out")
        .unwrap_or_else(|| PathBuf::from("flight"));
    let config = ServiceConfig {
        flight_dir: Some(out.clone()),
        ..ServiceConfig::default()
    };
    let (mut service, qos_paths) = open_service(args.pos(0)?, args, config)?;
    service.set_tracing(true);
    let violations = run_ticks(&mut service, duration, pace_ms, |_| {})?;
    let cycles = service.flight().snapshot();
    if cycles.is_empty() {
        return Err("no cycles were traced (duration 0?)".into());
    }
    // Final snapshot regardless of violations, so every run leaves a
    // loadable trace behind.
    let tag = cycles.last().map(|c| c.seq).unwrap_or(0);
    let path = netqos_telemetry::write_snapshot(&out, tag, &cycles)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let spans: usize = cycles.iter().map(|c| c.spans.len()).sum();
    println!(
        "traced {} cycles ({spans} spans), {violations} violation(s), {} snapshot(s) on violation",
        cycles.len(),
        service.snapshots().len(),
    );
    for q in &qos_paths {
        if let Some(b) = service.path_baseline(&q.name) {
            println!(
                "baseline {}: p50 {:.1} kB/s, p99 {:.1} kB/s over {} samples",
                q.name,
                b.quantile(0.5) as f64 / 8000.0,
                b.quantile(0.99) as f64 / 8000.0,
                b.count(),
            );
        }
    }
    println!("jsonl:  {}", path.display());
    finish_run(&mut service, args)
}

/// Reads the flight-recorder JSONL snapshot at `path`.
fn read_cycles(path: &str) -> Result<Vec<netqos_telemetry::CycleTrace>, String> {
    netqos_telemetry::cycles_from_jsonl(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

/// `flight dump`: renders a JSONL snapshot as Chrome `trace_event` JSON
/// (or OTLP/JSON with `--otlp`), through the renderers the live ring
/// uses.
fn cmd_flight_dump(args: &Args) -> Result<(), String> {
    let cycles = read_cycles(args.pos(0)?)?;
    if args.flag("--otlp") {
        // No trailing newline: the output is byte-identical to the body
        // the push worker sent for the same ring.
        print!("{}", netqos_telemetry::to_otlp(&cycles));
    } else {
        print!("{}", netqos_telemetry::to_chrome_trace(&cycles));
    }
    Ok(())
}

/// `flight show`: a per-cycle summary of a JSONL snapshot.
fn cmd_flight_show(args: &Args) -> Result<(), String> {
    let path = args.pos(0)?;
    let cycles = read_cycles(path)?;
    println!("{} cycle(s) in {path}", cycles.len());
    for c in &cycles {
        let dur_us = c.end_ns.saturating_sub(c.start_ns) / 1_000;
        println!(
            "cycle {:>4}  trace {:#018x}  {:>7} µs  {:>3} spans",
            c.seq,
            c.trace_id,
            dur_us,
            c.spans.len()
        );
        for s in &c.samples {
            println!(
                "    {}: used {:.1} kB/s (rank {:.3}, baseline p50 {:.1} p99 {:.1}) on {}",
                s.path,
                s.used_bps as f64 / 8000.0,
                s.used_rank,
                s.baseline_p50 as f64 / 8000.0,
                s.baseline_p99 as f64 / 8000.0,
                s.connection,
            );
        }
        for e in &c.events {
            println!("    ! {e}");
        }
    }
    Ok(())
}

/// `flight check`: validates a Chrome trace or OTLP export file (used
/// by CI).
fn cmd_flight_check(args: &Args) -> Result<(), String> {
    let path = args.pos(0)?;
    let src = read_file(path)?;
    // Sniff the format: OTLP exports start with a resourceSpans
    // document; everything else is treated as Chrome trace JSON.
    if src.trim_start().starts_with("{\"resourceSpans\"") {
        let stats = netqos_telemetry::validate_otlp(&src).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: OK — OTLP, {} spans, {} traces, {} child spans",
            stats.spans, stats.traces, stats.child_spans
        );
    } else {
        let stats =
            netqos_telemetry::validate_chrome_trace(&src).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: OK — {} events, {} spans, {} cycles",
            stats.events, stats.spans, stats.cycles
        );
    }
    Ok(())
}

/// `--format`, when given, must be one of `allowed`; the first is the
/// default.
fn format_of<'a>(args: &'a Args, allowed: &[&'a str]) -> Result<&'a str, String> {
    let format = args.value("--format").unwrap_or(allowed[0]);
    if allowed.contains(&format) {
        Ok(format)
    } else {
        Err(args.bad("--format", format))
    }
}

/// GETs `path` from the export plane at `url`; anything but 200 is an
/// error naming `what` failed.
fn fetch(url: &str, path: &str, what: &str) -> Result<String, String> {
    let (host, port) = parse_base_url(url)?;
    let (status, body) =
        netqos_telemetry::http_get(&host, port, path).map_err(|e| format!("{host}:{port}: {e}"))?;
    if status != 200 {
        return Err(format!("{what} failed (HTTP {status}): {}", body.trim()));
    }
    Ok(body)
}

/// Renders a monitor's tick-phase profile: online from a live (or
/// federated) export plane's `GET /profile`, or offline by folding a
/// flight-recorder JSONL snapshot through the fold the live endpoint runs
/// over its ring — the same cycles give the same document.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let format = format_of(args, &["json", "folded"])?;
    let (url, shard) = (args.value("--url"), args.value("--shard"));
    let file = args.positionals.first();
    if url.is_some() == file.is_some() {
        return Err(args
            .cmd
            .fail("profile needs exactly one of --url http://host:port or PATH.jsonl"));
    }

    if let Some(url) = url {
        let mut path = format!("/profile?format={format}");
        if let Some(name) = shard {
            path.push_str(&format!("&shard={}", percent_encode(name)));
        }
        print!("{}", fetch(url, &path, "profile")?);
        return Ok(());
    }

    if shard.is_some() {
        return Err("--shard only applies with --url (offline snapshots are one shard)".into());
    }
    let profile = netqos_telemetry::PhaseProfile::fold(&read_cycles(args.pos(0)?)?);
    match format {
        "folded" => print!("{}", profile.to_folded()),
        _ => print!("{}", profile.to_json()),
    }
    Ok(())
}

/// Emits a synthetic ISP-scale topology spec (see
/// `netqos_spec::generate_spec`); validated before it leaves the tool
/// so the output is always monitor-ready.
fn cmd_gen_topology(args: &Args) -> Result<(), String> {
    let mut params = spec::GenParams::default();
    if let Some(n) = args.num::<NonZeroUsize>("--hosts")? {
        params.hosts = n.get();
    }
    if let Some(n) = args.num("--hosts-per-ap")? {
        if !(1..=249).contains(&n) {
            return Err("--hosts-per-ap must be 1..=249".into());
        }
        params.hosts_per_ap = n;
    }
    if let Some(n) = args.num::<NonZeroUsize>("--aps-per-site")? {
        params.aps_per_site = n.get();
    }
    if let Some(n) = args.num("--hub-every")? {
        params.hub_every = n;
    }
    if let Some(n) = args.num("--qos-paths")? {
        params.qos_paths = n;
    }
    let src = spec::generate_spec(&params);
    let model = spec::parse_and_validate(&src)
        .map_err(|e| format!("internal error: generated spec does not validate: {e}"))?;
    eprintln!(
        "generated {} node(s): {} host(s), {} access point(s), {} site(s), {} qospath(s)",
        model.topology.node_count(),
        params.hosts,
        params.ap_count(),
        params.site_count(),
        model.qos_paths.len()
    );
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &src).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{src}"),
    }
    Ok(())
}

/// Compares two unified `BENCH_*.json` documents and fails when any
/// shared metric regresses beyond the tolerance. Direction comes from
/// the metric-name suffix: `*_per_sec` should not drop, `*_ns` and
/// `*_bytes` should not grow; other metrics are informational.
fn cmd_bench_check(args: &Args) -> Result<(), String> {
    let (old_path, new_path) = (args.pos(0)?, args.pos(1)?);
    let tolerance = match args.num::<f64>("--tolerance")? {
        Some(t) if t >= 0.0 => t,
        Some(_) => return Err("--tolerance needs a non-negative percentage".into()),
        None => 10.0,
    };

    let load = |path: &str| -> Result<netqos_telemetry::JsonValue, String> {
        let doc =
            netqos_telemetry::parse_json(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
        match doc.get("schema").and_then(|v| v.as_str()) {
            Some("netqos-bench/v1") => Ok(doc),
            Some(other) => Err(format!("{path}: unsupported schema `{other}`")),
            None => Err(format!(
                "{path}: not a netqos-bench/v1 document (missing \"schema\")"
            )),
        }
    };
    let old_doc = load(old_path)?;
    let new_doc = load(new_path)?;

    // Row name -> metric name -> value.
    let rows_of = |doc: &netqos_telemetry::JsonValue| -> Vec<(String, Vec<(String, f64)>)> {
        let mut rows = Vec::new();
        for row in doc
            .get("rows")
            .and_then(|v| v.as_array())
            .unwrap_or_default()
        {
            let Some(name) = row.get("name").and_then(|v| v.as_str()) else {
                continue;
            };
            let mut metrics = Vec::new();
            if let Some(netqos_telemetry::JsonValue::Object(m)) = row.get("metrics") {
                for (k, v) in m {
                    if let Some(x) = v.as_f64() {
                        metrics.push((k.clone(), x));
                    }
                }
            }
            rows.push((name.to_string(), metrics));
        }
        rows
    };
    let old_rows = rows_of(&old_doc);
    let new_rows = rows_of(&new_doc);

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for (name, old_metrics) in &old_rows {
        let Some((_, new_metrics)) = new_rows.iter().find(|(n, _)| n == name) else {
            println!("{name}: only in {old_path}, skipped");
            continue;
        };
        for (metric, old_v) in old_metrics {
            let Some((_, new_v)) = new_metrics.iter().find(|(m, _)| m == metric) else {
                println!("{name}/{metric}: only in {old_path}, skipped");
                continue;
            };
            let higher_better = metric.ends_with("_per_sec");
            let lower_better = metric.ends_with("_ns") || metric.ends_with("_bytes");
            if !higher_better && !lower_better {
                continue;
            }
            // A worst-single-iteration figure is scheduler jitter, not a
            // code property; report it but gate on the percentiles.
            if metric.ends_with("max_ns") {
                let change_pct = if *old_v != 0.0 {
                    (new_v - old_v) / old_v * 100.0
                } else {
                    0.0
                };
                println!(
                    "{name}/{metric}: {old_v:.0} -> {new_v:.0} ({change_pct:+.1}%) informational"
                );
                continue;
            }
            compared += 1;
            let change_pct = if *old_v != 0.0 {
                (new_v - old_v) / old_v * 100.0
            } else {
                0.0
            };
            let regressed = if higher_better {
                *new_v < old_v * (1.0 - tolerance / 100.0)
            } else {
                *new_v > old_v * (1.0 + tolerance / 100.0)
            };
            let verdict = if regressed { "REGRESSION" } else { "ok" };
            println!("{name}/{metric}: {old_v:.0} -> {new_v:.0} ({change_pct:+.1}%) {verdict}");
            if regressed {
                regressions.push(format!("{name}/{metric} ({change_pct:+.1}%)"));
            }
        }
    }
    for (name, _) in &new_rows {
        if !old_rows.iter().any(|(n, _)| n == name) {
            println!("{name}: only in {new_path}, skipped");
        }
    }
    if compared == 0 {
        return Err("no comparable metrics between the two documents".into());
    }
    if regressions.is_empty() {
        println!("bench check: OK — {compared} metric(s) within {tolerance}% of {old_path}");
        Ok(())
    } else {
        Err(format!(
            "bench check: {} regression(s) beyond {tolerance}%: {}",
            regressions.len(),
            regressions.join(", ")
        ))
    }
}

/// Current Unix time in seconds (0 on a pre-1970 clock).
fn unix_now_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Percent-encodes a query-string value (everything but unreserved
/// characters), so PromQL operators like `{`, `"` and spaces survive the
/// trip through a URL.
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Splits `http://host:port[/...]` (scheme optional) into host and port.
fn parse_base_url(url: &str) -> Result<(String, u16), String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let authority = rest.split('/').next().unwrap_or(rest);
    let (host, port) = authority
        .rsplit_once(':')
        .ok_or_else(|| format!("--url needs http://host:port (got `{url}`)"))?;
    let port: u16 = port
        .parse()
        .map_err(|_| format!("bad port in --url `{url}`"))?;
    if host.is_empty() {
        return Err(format!("--url needs http://host:port (got `{url}`)"));
    }
    Ok((host.to_string(), port))
}

/// One CSV field: quoted (with doubled inner quotes) only when needed.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders an `/api/v1` metric object (`{"__name__":...,"path":...}`)
/// back into selector notation: `name{label="value",...}`.
fn render_metric(metric: &netqos_telemetry::JsonValue) -> String {
    let netqos_telemetry::JsonValue::Object(m) = metric else {
        return String::new();
    };
    let name = m
        .get("__name__")
        .and_then(|v| v.as_str())
        .unwrap_or_default();
    let labels: Vec<String> = m
        .iter()
        .filter(|(k, _)| k.as_str() != "__name__")
        .map(|(k, v)| {
            format!(
                "{k}={}",
                netqos_telemetry::json_escape(v.as_str().unwrap_or_default())
            )
        })
        .collect();
    if labels.is_empty() {
        if name.is_empty() {
            "{}".to_string()
        } else {
            name.to_string()
        }
    } else {
        format!("{name}{{{}}}", labels.join(","))
    }
}

/// `body` with exactly one trailing newline (`--format json` passes the
/// document through).
fn newline_terminated(body: &str) -> String {
    format!("{}\n", body.strip_suffix('\n').unwrap_or(body))
}

/// Reshapes an `/api/v1/query[_range]` response body: `json` passes it
/// through, `prom` emits Prometheus text lines (`metric value t_ms`),
/// `csv` emits `series,t,value` rows.
fn format_api_query(body: &str, format: &str) -> Result<String, String> {
    if format == "json" {
        return Ok(newline_terminated(body));
    }
    let doc = netqos_telemetry::parse_json(body).map_err(|e| format!("bad response JSON: {e}"))?;
    let data = doc
        .get("data")
        .ok_or("response has no `data` (was the query rejected?)")?;
    let rtype = data
        .get("resultType")
        .and_then(|v| v.as_str())
        .unwrap_or_default();
    let empty = netqos_telemetry::JsonValue::Null;
    let mut out = String::new();
    if format == "csv" {
        out.push_str("series,t,value\n");
    }
    let mut push_sample = |series: &str, t: f64, v: &str| {
        if format == "csv" {
            out.push_str(&format!("{},{t},{v}\n", csv_field(series)));
        } else {
            out.push_str(&format!("{series} {v} {}\n", (t * 1000.0) as i64));
        }
    };
    match rtype {
        "scalar" => {
            let pair = data.get("result").and_then(|v| v.as_array());
            if let Some([t, v]) = pair.and_then(|p| <&[_; 2]>::try_from(p).ok()) {
                push_sample(
                    "scalar",
                    t.as_f64().unwrap_or(0.0),
                    v.as_str().unwrap_or_default(),
                );
            }
        }
        "vector" => {
            for item in data
                .get("result")
                .and_then(|v| v.as_array())
                .unwrap_or_default()
            {
                let series = render_metric(item.get("metric").unwrap_or(&empty));
                if let Some([t, v]) = item
                    .get("value")
                    .and_then(|v| v.as_array())
                    .and_then(|p| <&[_; 2]>::try_from(p).ok())
                {
                    push_sample(
                        &series,
                        t.as_f64().unwrap_or(0.0),
                        v.as_str().unwrap_or_default(),
                    );
                }
            }
        }
        "matrix" => {
            for item in data
                .get("result")
                .and_then(|v| v.as_array())
                .unwrap_or_default()
            {
                let series = render_metric(item.get("metric").unwrap_or(&empty));
                for pair in item
                    .get("values")
                    .and_then(|v| v.as_array())
                    .unwrap_or_default()
                {
                    if let Some([t, v]) = pair.as_array().and_then(|p| <&[_; 2]>::try_from(p).ok())
                    {
                        push_sample(
                            &series,
                            t.as_f64().unwrap_or(0.0),
                            v.as_str().unwrap_or_default(),
                        );
                    }
                }
            }
        }
        other => return Err(format!("unexpected resultType `{other}`")),
    }
    Ok(out)
}

/// Reshapes a `netqos lts query` document. Counter
/// and gauge points become one line/row each; a histogram point fans out
/// into `_count`/`_sum` series plus `quantile="0.5"`/`"0.99"` samples,
/// mirroring the Prometheus summary idiom.
fn format_store_query(body: &str, format: &str) -> Result<String, String> {
    if format == "json" {
        return Ok(newline_terminated(body));
    }
    let doc = netqos_telemetry::parse_json(body).map_err(|e| format!("bad store JSON: {e}"))?;
    let mut out = String::new();
    if format == "csv" {
        out.push_str("series,t,value\n");
    }
    let mut push_sample = |series: &str, t: u64, v: String| {
        if format == "csv" {
            out.push_str(&format!("{},{t},{v}\n", csv_field(series)));
        } else {
            out.push_str(&format!("{series} {v} {}\n", t * 1000));
        }
    };
    // `name` carries its label set inline (`base{k="v"}`), so derived
    // histogram series re-split it to graft `_count` / `quantile=` on.
    let derived = |name: &str, suffix: &str, extra: Option<(&str, &str)>| -> String {
        let (base, labels) = netqos_telemetry::parse_series_name(name);
        let mut parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}={}", netqos_telemetry::json_escape(v)))
            .collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            format!("{base}{suffix}")
        } else {
            format!("{base}{suffix}{{{}}}", parts.join(","))
        }
    };
    for series in doc
        .get("series")
        .and_then(|v| v.as_array())
        .unwrap_or_default()
    {
        let name = series
            .get("name")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string();
        for point in series
            .get("points")
            .and_then(|v| v.as_array())
            .unwrap_or_default()
        {
            if let Some([t, v]) = point.as_array().and_then(|p| <&[_; 2]>::try_from(p).ok()) {
                // Counter/gauge: [t, value].
                push_sample(
                    &name,
                    t.as_u64().unwrap_or(0),
                    netqos_telemetry::fmt_value(v.as_f64().unwrap_or(0.0)),
                );
            } else if let Some(t) = point.get("t").and_then(|v| v.as_u64()) {
                // Histogram: {"t":..,"count":..,"sum":..,"p50":..,"p99":..}.
                for (field, suffix, quantile) in [
                    ("count", "_count", None),
                    ("sum", "_sum", None),
                    ("p50", "", Some(("quantile", "0.5"))),
                    ("p99", "", Some(("quantile", "0.99"))),
                ] {
                    if let Some(v) = point.get(field).and_then(|v| v.as_f64()) {
                        push_sample(
                            &derived(&name, suffix, quantile),
                            t,
                            netqos_telemetry::fmt_value(v),
                        );
                    }
                }
            }
        }
    }
    Ok(out)
}

/// The window `--range START:END` or `--last DUR` asks for, if either
/// was given; `newest` anchors the trailing window.
fn window_of(args: &Args, newest: impl FnOnce() -> u64) -> Result<Option<(u64, u64)>, String> {
    let last = (args.value("--last"))
        .map(|s| netqos_telemetry::parse_duration(s).ok_or_else(|| args.bad("--last", s)))
        .transpose()?;
    match (last, args.value("--range")) {
        (Some(_), Some(_)) => Err("--last and --range are mutually exclusive".into()),
        (Some(window), None) => {
            let end = newest();
            Ok(Some((end.saturating_sub(window.saturating_sub(1)), end)))
        }
        (None, Some(range)) => netqos_telemetry::parse_range(range)
            .map(Some)
            .ok_or_else(|| args.bad("--range", range)),
        (None, None) => Ok(None),
    }
}

/// Evaluates a PromQL-subset expression offline against a long-term
/// store (`--lts DIR`) or online against a live monitor or federation
/// plane (`--url http://host:port`, proxied to `/api/v1/query[_range]`).
fn cmd_query(args: &Args) -> Result<(), String> {
    let expr = args.pos(0)?;
    let format = format_of(args, &["json", "prom", "csv"])?;
    let time = args.num::<u64>("--time")?;
    let step = (args.value("--step"))
        .map(|s| {
            netqos_telemetry::parse_duration(s)
                .filter(|n| *n > 0)
                .ok_or_else(|| args.bad("--step", s))
        })
        .transpose()?;
    let step_secs = step.unwrap_or(60);
    let (lts, url) = (args.path("--lts"), args.value("--url"));
    if lts.is_some() == url.is_some() {
        return Err(args
            .cmd
            .fail("query needs exactly one of --lts DIR or --url http://host:port"));
    }

    if let Some(dir) = lts {
        if !dir.is_dir() {
            return Err(format!("{}: no long-term store there", dir.display()));
        }
        refuse_unreadable_store(&dir)?;
        let engine = netqos_telemetry::QueryEngine::new().with_source(
            None,
            Arc::new(netqos_telemetry::LtsSource::new(
                netqos_telemetry::LtsReader::open(&dir),
            )),
        );
        // Offline, the store's newest sample anchors `--last` and the
        // default instant.
        let newest = || engine.newest_t().unwrap_or_else(unix_now_s);
        let outcome = match window_of(args, newest)? {
            Some((start, end)) => engine.range(expr, start, end, step_secs)?,
            None => {
                let res = step.map_or(
                    netqos_telemetry::Resolution::Raw1s,
                    netqos_telemetry::resolution_for_step,
                );
                engine.instant(expr, time.unwrap_or_else(newest), res)?
            }
        };
        print!("{}", format_api_query(&outcome.to_api_json(), format)?);
        return Ok(());
    }

    // Online, the client clock anchors the trailing window (the
    // server's newest sample is not knowable up front).
    let path = match window_of(args, unix_now_s)? {
        Some((start, end)) => format!(
            "/api/v1/query_range?query={}&start={start}&end={end}&step={step_secs}",
            percent_encode(expr)
        ),
        None => {
            let mut p = format!("/api/v1/query?query={}", percent_encode(expr));
            if let Some(t) = time {
                p.push_str(&format!("&time={t}"));
            }
            if let Some(step_secs) = step {
                // The instant endpoint takes a resolution, not an arbitrary
                // step: snap to the coarsest store resolution that fits.
                p.push_str(&format!(
                    "&step={}",
                    netqos_telemetry::resolution_for_step(step_secs).dir_name()
                ));
            }
            p
        }
    };
    let body = fetch(url.unwrap_or_default(), &path, "query")?;
    print!("{}", format_api_query(&body, format)?);
    Ok(())
}

/// Refuses, before an offline query reads it, a store whose segments
/// the readers would skip: `store_stats` lists every series directory
/// and errs on a sealed v1 segment.
fn refuse_unreadable_store(dir: &Path) -> Result<(), String> {
    netqos_telemetry::store_stats(dir)
        .map(drop)
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// `lts info`: summarizes a long-term stats store.
fn cmd_lts_info(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.pos(0)?);
    let reader = netqos_telemetry::LtsReader::open(&dir);
    let index = reader.index();
    let report =
        netqos_telemetry::verify_store(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stats =
        netqos_telemetry::store_stats(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // The totals are the resolution lines' sums, plus the index's bytes.
    let index_bytes = std::fs::metadata(dir.join("series.idx")).map_or(0, |m| m.len());
    let total = |of: fn(&netqos_telemetry::ResolutionStat) -> u64| {
        stats.resolutions.iter().map(of).sum::<u64>()
    };
    println!(
        "{}: {} series, {} segment(s), {} point(s), {} bytes",
        dir.display(),
        index.len(),
        total(|r| r.segments),
        total(|r| r.points),
        total(|r| r.bytes) + index_bytes
    );
    for (res, r) in [
        netqos_telemetry::Resolution::Raw1s,
        netqos_telemetry::Resolution::Min1,
        netqos_telemetry::Resolution::Hour1,
    ]
    .iter()
    .zip(stats.resolutions.iter())
    {
        println!(
            "  {:<3} {} bytes, {} point(s), {} sealed segment(s), {} open tail(s)",
            res.dir_name(),
            r.bytes,
            r.points,
            r.sealed,
            r.open_tails
        );
    }
    for info in &index {
        println!("  {:<9} {}", info.kind.as_str(), info.name);
    }
    if args.flag("--segments") {
        for seg in &stats.segments {
            println!(
                "  {:<6} {:>8} point(s) {:>10} bytes  {}",
                if seg.sealed { "sealed" } else { "open" },
                seg.points,
                seg.bytes,
                seg.path
            );
        }
    }
    if !report.issues.is_empty() {
        eprintln!("{} issue(s) — run `netqos lts verify`", report.issues.len());
    }
    Ok(())
}

/// `lts verify`: checks a store's invariants (CI-friendly nonzero exit).
fn cmd_lts_verify(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.pos(0)?);
    let report =
        netqos_telemetry::verify_store(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for issue in &report.issues {
        eprintln!("{}: {issue}", dir.display());
    }
    if report.issues.is_empty() {
        println!(
            "{}: OK — {} series, {} segment(s), {} point(s), {} bytes",
            dir.display(),
            report.series,
            report.segments,
            report.points,
            report.bytes
        );
        Ok(())
    } else {
        Err(format!(
            "{}: {} issue(s) found",
            dir.display(),
            report.issues.len()
        ))
    }
}

/// `lts compact`: rewrites every series into one canonical segment per
/// resolution.
fn cmd_lts_compact(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.pos(0)?);
    let report =
        netqos_telemetry::compact_store(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "{}: {} -> {} segment(s), {} -> {} bytes",
        dir.display(),
        report.segments_before,
        report.segments_after,
        report.bytes_before,
        report.bytes_after
    );
    Ok(())
}

/// `lts query`: prints the points a store holds as JSON, the document
/// compaction and restarts must leave byte-identical.
fn cmd_lts_query(args: &Args) -> Result<(), String> {
    let format = format_of(args, &["json", "prom", "csv"])?;
    let step = args.value("--step").unwrap_or("1s");
    let res = netqos_telemetry::Resolution::parse(step).ok_or_else(|| args.bad("--step", step))?;
    let dir = PathBuf::from(args.pos(0)?);
    refuse_unreadable_store(&dir)?;
    let reader = netqos_telemetry::LtsReader::open(&dir);
    // Anchor the trailing window at the newest stored sample, so
    // `--last 15m` works on historical stores as naturally as on one
    // still being written; no window at all is the whole store.
    let (start, end) = window_of(args, || reader.newest_t().unwrap_or(0))?.unwrap_or((0, u64::MAX));
    let selector = args.value("--series").unwrap_or("*");
    let body =
        (reader.query(selector, start, end, res)).map_err(|e| format!("{}: {e}", dir.display()))?;
    print!("{}", format_store_query(&body, format)?);
    Ok(())
}
