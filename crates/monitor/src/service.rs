//! The high-level monitoring service: everything the paper's monitoring
//! *program* did, behind one API.
//!
//! [`MonitoringService`] owns a [`Network`] — the simulated one by
//! default, or real agents over UDP — the monitor state and the QoS
//! evaluator, and each [`tick`] is the list of its stages
//! ([`TICK_STAGES`]), every one a method of its own and one span directly
//! under `monitor.cycle`:
//!
//! 1. **advance** — the network runs one poll period;
//! 2. **poll** — [`Network::poll_nodes`] polls this tick's round and
//!    ingests each snapshot as it arrives (counters become rates per
//!    device). The round is the *demand set* — every device whose
//!    counters some qospath's evaluation may read ([`QosMonitor::demand`])
//!    — then the next slice of the *survey*, the agents no path reads,
//!    taken round-robin so each is polled once every [`SURVEY_TICKS`];
//! 3. **evaluate** — every qospath is walked and `min(m_i − u_i)` taken
//!    once, ranked against its baseline, and written down as one
//!    [`PathRow`], with what the same plan reads over the counters the
//!    network knows to be true ([`Network::truth`]; on the simulator
//!    only); everything after this reads the rows;
//! 4. **detect** — QoS state changes become events and SNMPv1 traps (kept
//!    in an outbox, optionally sent through the network to a management
//!    station), and the alert rules see one scope per row;
//! 5. **record** — rows and registry are sampled into the long-term
//!    store, and on a save tick baselines persist, the store flushes and
//!    the recording rules run;
//!
//! then, the cycle closed, **publish** files its trace (flight ring,
//! violation snapshot, OTLP push) and posts `/snapshot`.
//!
//! [`tick`]: MonitoringService::tick

use crate::error::MonitorError;
use crate::live::{unix_now_ns, LiveStatus};
use crate::monitor::NetworkMonitor;
use crate::network::Network;
use crate::qos::{self, QosEvent, QosMonitor};
use crate::report::PathRow;
use crate::simnet::{SimNetwork, SimNetworkOptions};
use crate::telemetry::MonitorTelemetry;
use netqos_sim::time::{SimDuration, SimTime};
use netqos_sim::Ipv4Addr;
use netqos_telemetry::{
    builtin_alert_rules, escape_label_value, fields, push_json_str, report_flush, to_otlp,
    transitions_to_json, AlertContext, AlertEngine, AlertRule, AlertScope, CycleTrace, EventSink,
    FlightRecorder, FlushReport, Histogram, Level, LtsConfig, LtsCounters, LtsReader, LtsSource,
    LtsStore, OtlpPusher, PointValue, PushConfig, PushCounters, QuantileBaseline, QueryEngine,
    RecordRule, RecordingCounters, Registry, RegistrySampler, RetentionPolicy, SpanRecord, Tracer,
    DEFAULT_FLIGHT_CAPACITY, DEFAULT_WINDOW,
};
use netqos_topology::NodeId;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Baseline samples required before anomaly warnings can fire — a young
/// baseline ranks everything at the extremes.
pub const MIN_BASELINE_HISTORY: u64 = 16;

/// Percentile rank above which a bandwidth sample is "anomalous vs.
/// baseline" (a pre-violation warning, not a QoS violation).
pub const ANOMALY_RANK: f64 = 0.99;

/// The stages of a tick, in order: the spans directly under
/// `monitor.cycle`, so the phases `/profile` attributes a tick to, and
/// the calls [`MonitoringService::tick`] makes.
pub const TICK_STAGES: [&str; 5] = [
    "monitor.sim.advance",
    "monitor.poll.round",
    "monitor.qos.evaluate",
    "monitor.alerts.detect",
    "monitor.stats.record",
];

/// Ticks over which the survey — the pollable devices no qospath reads —
/// is polled once round-robin. At a 1 s poll period every device is then
/// read at least every 30 s, well inside the 343 s in which a 100 Mb/s
/// port's `Counter32` wraps.
pub const SURVEY_TICKS: usize = 30;

/// Traps kept in the outbox; when it is full, the oldest trap is evicted.
pub const TRAP_OUTBOX_CAPACITY: usize = 256;

/// Which devices each tick polls: all of `demand` in node order, then
/// the next `ceil(survey.len() / SURVEY_TICKS)` devices of `survey` from
/// a wrapping cursor.
///
/// The survey is kept in stride order — every `SURVEY_TICKS`-th device in
/// node order, from the first, then from the second, and so on — so one
/// tick's slice is spread over the network. Consecutive node ids sit on
/// the same access switch; surveying them together puts a tick's survey
/// traffic on one uplink, which a path crossing it reads as load (on
/// `lan-wide`, `p1` up to 5.6 % over its offered load instead of 1.3 %).
struct PollSchedule {
    demand: Vec<NodeId>,
    survey: Vec<NodeId>,
    /// Survey devices polled per tick.
    slice: usize,
    cursor: usize,
    /// This tick's round, rebuilt in place each tick.
    round: Vec<NodeId>,
}

impl PollSchedule {
    /// Splits `pollable` (in node order) into the nodes `demand` (sorted)
    /// names and the rest.
    fn new(pollable: Vec<NodeId>, demand: &[NodeId]) -> Self {
        let (demand, rest): (Vec<_>, Vec<_>) = pollable
            .into_iter()
            .partition(|node| demand.binary_search(node).is_ok());
        let survey: Vec<NodeId> = (0..SURVEY_TICKS)
            .flat_map(|first| rest.iter().skip(first).step_by(SURVEY_TICKS).copied())
            .collect();
        let slice = survey.len().div_ceil(SURVEY_TICKS);
        PollSchedule {
            round: Vec::with_capacity(demand.len() + slice),
            demand,
            survey,
            slice,
            cursor: 0,
        }
    }

    /// The next tick's round.
    fn next_round(&mut self) -> &[NodeId] {
        self.round.clear();
        self.round.extend_from_slice(&self.demand);
        for _ in 0..self.slice {
            self.round.push(self.survey[self.cursor]);
            self.cursor = (self.cursor + 1) % self.survey.len();
        }
        &self.round
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Poll period.
    pub poll_period: SimDuration,
    /// Community stamped on emitted traps.
    pub trap_community: String,
    /// If set, traps are also transmitted through the network to this
    /// address's UDP port 162 (a management station).
    pub trap_destination: Option<Ipv4Addr>,
    /// If set, the flight recorder is snapshotted to this directory
    /// (JSONL + Chrome `trace_event` JSON) whenever a QoS violation
    /// begins.
    pub flight_dir: Option<PathBuf>,
    /// Cap on on-disk flight snapshots (count and bytes), enforced after
    /// every snapshot write. The newest snapshot is never deleted.
    pub retention: RetentionPolicy,
    /// If set, per-path bandwidth baselines are restored from this file
    /// at startup and saved back periodically and via
    /// [`MonitoringService::persist_baselines`].
    pub baseline_state: Option<PathBuf>,
    /// Alert rules evaluated once per tick. Defaults to the built-in
    /// set; user rules appended after a builtin with the same name
    /// override it.
    pub alert_rules: Vec<AlertRule>,
    /// If set, a long-term stats store under this directory samples the
    /// registry and per-path QoS signals every tick at 1s resolution
    /// (downsampled on flush to 1m and 1h), kept for the default
    /// [`netqos_telemetry::LtsRetention`]: 7 days and 256 MiB.
    pub lts_dir: Option<PathBuf>,
    /// Ticks between automatic baseline saves (when `baseline_state` is
    /// set) — also the long-term store's flush cadence (when `lts_dir`
    /// is set). Zero behaves as one.
    pub baseline_save_ticks: u64,
    /// Compact the long-term store on every save tick instead of only
    /// flushing it: open tails fold into one sealed segment per
    /// series/resolution, so read amplification stays flat on long
    /// runs. Queries are unaffected — readers canonicalize, so results
    /// are byte-identical across a compaction.
    pub lts_compact: bool,
    /// Recording rules evaluated against the long-term store on every
    /// save tick (after the flush, so each pass sees its own tick's
    /// data). Results append back as first-class derived gauge series.
    /// Requires `lts_dir`.
    pub record_rules: Vec<RecordRule>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            poll_period: SimDuration::from_secs(1),
            trap_community: "public".to_owned(),
            trap_destination: None,
            flight_dir: None,
            retention: RetentionPolicy::default(),
            baseline_state: None,
            alert_rules: builtin_alert_rules(),
            lts_dir: None,
            baseline_save_ticks: 60,
            lts_compact: false,
            record_rules: Vec::new(),
        }
    }
}

/// The assembled monitoring program over the network `N`. Its fields are
/// grouped by the stage of [`MonitoringService::tick`] that owns them.
pub struct MonitoringService<N = SimNetwork> {
    config: ServiceConfig,
    start: SimTime,
    telemetry: MonitorTelemetry,
    events: Arc<EventSink>,
    tracer: Tracer,
    /// Wall-clock nanoseconds of the tracer's origin: added to monotonic
    /// span offsets to place traces on the Unix timeline (OTLP export),
    /// and to simulated seconds to place long-term samples on it.
    epoch_unix_ns: u64,

    // advance, poll
    net: N,
    monitor: NetworkMonitor,
    schedule: PollSchedule,

    // evaluate
    qos: QosMonitor,
    /// Used-bandwidth baseline per qospath, so each tick can be ranked
    /// against recent history.
    path_baselines: HashMap<String, QuantileBaseline>,
    /// Why restoring `baseline_state` failed, if it did (the service
    /// starts cold rather than refusing to run).
    baseline_load_warning: Option<String>,
    /// This tick's row per evaluated qospath, in specification order,
    /// each rewritten in place from tick to tick.
    rows: Vec<PathRow>,

    // detect
    traps: Vec<Vec<u8>>,
    /// What the alert rules see: the registry's scope, then one scope per
    /// row, refreshed in place each tick.
    alert_context: AlertContext,
    /// Per-tick alert rule evaluation (pending/firing/resolved).
    alerts: AlertEngine,
    /// Webhook delivery of alert transition batches.
    webhook: Option<Arc<OtlpPusher>>,

    // record
    /// Long-term stats store (when `lts_dir` is set), the query source
    /// over it that every recording-rule pass reads through (so its
    /// index cache lasts from pass to pass), and the delta sampler that
    /// feeds the store from the registry each tick.
    lts: Option<(LtsStore, Arc<LtsSource>)>,
    lts_sampler: RegistrySampler,
    /// Each qospath's long-term series names, in [`PathRow::gauges`]
    /// order, built the first time the path has a row.
    path_series: HashMap<String, [String; 2]>,
    /// Why opening `lts_dir` failed, if it did (the service runs without
    /// durable stats rather than refusing to start).
    lts_open_warning: Option<String>,
    /// Self-metrics for the recording-rule engine (registered only when
    /// rules are configured).
    record_counters: RecordingCounters,

    // publish
    /// The ring of recent traced cycles: violation snapshots, OTLP
    /// pushes and `GET /profile` all read it.
    flight: Arc<FlightRecorder>,
    /// `netqos_tick_phase_ns{phase="target.name"}` handles by span target,
    /// then name, so a steady traced tick formats no label.
    phase_ns: HashMap<String, HashMap<String, Histogram>>,
    /// Snapshots written this session (newest last).
    snapshots: Vec<PathBuf>,
    /// Push-based OTLP delivery of flight snapshots at violation time.
    pusher: Option<Arc<OtlpPusher>>,
    /// Status shared with HTTP endpoint threads.
    live: Arc<LiveStatus>,
    /// The `/snapshot` and `/alerts` documents [`LiveStatus`] retired on
    /// the last publication: the next ones are rendered into them.
    spare_snapshot: String,
    spare_alerts: String,
}

/// What a tick's stages leave behind for [`MonitoringService::publish_trace`].
struct Cycle {
    /// Whether the tracer is on, so the cycle will be published.
    traced: bool,
    trace_id: u64,
    start_ns: u64,
    /// One line per thing that happened (`qos_violation feed1`): the
    /// flight cycle's event list.
    happened: Vec<String>,
}

impl Cycle {
    /// Notes one thing that happened; formatted only if the cycle will
    /// be published.
    fn note(&mut self, what: fmt::Arguments) {
        if self.traced {
            self.happened.push(what.to_string());
        }
    }
}

/// A count as a gauge value (gauges are signed; counts saturate).
fn gauge(count: u64) -> i64 {
    count.min(i64::MAX as u64) as i64
}

/// Starts a push worker counting into `counters` and keeps it in `slot`.
fn start_pusher(
    slot: &mut Option<Arc<OtlpPusher>>,
    config: PushConfig,
    counters: &PushCounters,
) -> Arc<OtlpPusher> {
    let pusher = Arc::new(OtlpPusher::start(config, counters.clone()));
    *slot = Some(pusher.clone());
    pusher
}

impl MonitoringService<SimNetwork> {
    /// Builds the service from specification source text.
    pub fn from_spec(
        spec_src: &str,
        net_options: SimNetworkOptions,
        config: ServiceConfig,
    ) -> Result<Self, MonitorError> {
        let model = netqos_spec::parse_and_validate(spec_src)
            .map_err(|e| MonitorError::Topology(e.to_string()))?;
        Self::from_model(model, net_options, config)
    }

    /// Builds the service from an already-validated model.
    pub fn from_model(
        model: netqos_spec::SpecModel,
        net_options: SimNetworkOptions,
        config: ServiceConfig,
    ) -> Result<Self, MonitorError> {
        Self::from_model_with(model, net_options, config, |_, _, _| {})
    }

    /// Like [`MonitoringService::from_model`], with a hook to install
    /// extra apps (load generators, custom services) before the network
    /// is finalized — same signature as [`SimNetwork::from_model_with`].
    pub fn from_model_with<F>(
        model: netqos_spec::SpecModel,
        net_options: SimNetworkOptions,
        config: ServiceConfig,
        extra: F,
    ) -> Result<Self, MonitorError>
    where
        F: FnOnce(
            &mut netqos_sim::builder::LanBuilder,
            &std::collections::HashMap<netqos_topology::NodeId, netqos_sim::DeviceId>,
            &netqos_spec::SpecModel,
        ),
    {
        let net = SimNetwork::from_model_with(model, net_options, extra)?;
        Self::new(net, config)
    }

    /// The simulated network (to install extra state or read counters).
    pub fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }
}

impl<N: Network> MonitoringService<N> {
    /// Builds the service over `net`, polling its agents for the qospaths
    /// of the model it was built from. Service and poll runtime share the
    /// network's registry, so [`MonitoringService::registry`] exposes the
    /// whole pipeline's metrics in a single snapshot.
    pub fn new(mut net: N, config: ServiceConfig) -> Result<Self, MonitorError> {
        let mut monitor = NetworkMonitor::new(net.model().topology.clone());
        let qos = QosMonitor::new(&monitor, &net.model().qos_paths)?;
        let pollable = net.agents().pollable().to_vec();
        let schedule = PollSchedule::new(pollable, &qos.demand(&monitor));
        let start = net.now();
        let telemetry = net.agents().telemetry().clone();
        // One tracer, shared by every pipeline stage so their spans land
        // in the same per-tick cycle buffer and nest causally. Disabled
        // until `set_tracing(true)`: each stage then pays one relaxed
        // atomic load per span site.
        let tracer = Tracer::disabled();
        net.agents_mut().set_tracer(tracer.clone());
        monitor.set_tracer(tracer.clone());
        monitor.set_health_counters(
            telemetry.uptime_resets.clone(),
            telemetry.counter_wraps.clone(),
        );
        // Anchor the tracer's monotonic origin on the Unix timeline once;
        // every cycle carries this epoch so OTLP timestamps are absolute.
        let epoch_unix_ns = unix_now_ns().saturating_sub(tracer.now_ns());
        let flight = Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY));
        let alerts = AlertEngine::new(config.alert_rules.clone());
        // Restore persisted baselines (if configured and present); a
        // missing or corrupt state file degrades to a cold start.
        let mut path_baselines = HashMap::new();
        let mut baseline_load_warning = None;
        if let Some(state_path) = &config.baseline_state {
            if state_path.exists() {
                match netqos_telemetry::load_baselines(state_path) {
                    Ok(loaded) => path_baselines.extend(loaded),
                    Err(e) => baseline_load_warning = Some(e),
                }
            }
        }
        // Open the long-term store (if configured); its own health
        // counters land in the shared registry, so the store samples the
        // cost of its existence. Failure degrades to a stats-less run.
        let mut lts = None;
        let mut lts_open_warning = None;
        if let Some(dir) = &config.lts_dir {
            let counters = LtsCounters::register_in(telemetry.registry());
            match LtsStore::open(dir, LtsConfig::default(), counters) {
                Ok(store) => {
                    let source = LtsSource::new(LtsReader::open(store.dir()));
                    lts = Some((store, Arc::new(source)));
                }
                Err(e) => {
                    lts_open_warning =
                        Some(format!("lts store at {} unavailable: {e}", dir.display()));
                }
            }
        }
        let record_counters = if config.record_rules.is_empty() {
            RecordingCounters::detached()
        } else {
            RecordingCounters::register_in(telemetry.registry())
        };
        Ok(MonitoringService {
            config,
            start,
            telemetry,
            events: Arc::new(EventSink::null()),
            tracer,
            epoch_unix_ns,
            net,
            monitor,
            schedule,
            rows: Vec::with_capacity(qos.len()),
            qos,
            path_baselines,
            baseline_load_warning,
            traps: Vec::new(),
            alert_context: AlertContext::default(),
            alerts,
            webhook: None,
            lts,
            lts_sampler: RegistrySampler::new(),
            path_series: HashMap::new(),
            lts_open_warning,
            record_counters,
            flight,
            phase_ns: HashMap::new(),
            snapshots: Vec::new(),
            pusher: None,
            live: LiveStatus::new(),
            spare_snapshot: String::new(),
            spare_alerts: String::new(),
        })
    }

    /// Reports a failed side task on the event trail; the tick carries on.
    fn warn_failed(&self, target: &str, kind: &str, error: &dyn std::fmt::Display) {
        let fields = || fields!["error" => error.to_string()];
        self.events.emit(Level::Warn, target, kind, fields);
    }

    /// The registry holding this service's pipeline metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        self.telemetry.registry()
    }

    /// The service's telemetry handles.
    pub fn telemetry(&self) -> &MonitorTelemetry {
        &self.telemetry
    }

    /// Routes structured events (ticks, violations, trap drops) to `sink`.
    pub fn set_event_sink(&mut self, sink: Arc<EventSink>) {
        self.events = sink;
    }

    /// The current event sink.
    pub fn event_sink(&self) -> &Arc<EventSink> {
        &self.events
    }

    /// Turns causal span recording on or off. Costs nothing measurable
    /// when off (one relaxed atomic load per instrumented site).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// The pipeline-wide tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The flight-recorder ring of recent cycle traces (filled while
    /// tracing is on; share it with the export plane for `/profile`).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The `flight-<seq>.jsonl` snapshots written to disk so far (newest
    /// last).
    pub fn snapshots(&self) -> &[PathBuf] {
        &self.snapshots
    }

    /// The used-bandwidth baseline for a qospath, if any samples have
    /// been recorded.
    pub fn path_baseline(&self, path_name: &str) -> Option<&QuantileBaseline> {
        self.path_baselines.get(path_name)
    }

    /// Starts a background OTLP pusher delivering the flight snapshot
    /// whenever a QoS violation begins. Delivery counters land in this
    /// service's registry (`netqos_monitor_otlp_*`). Implies nothing
    /// about tracing — enable it too, or the snapshots will be empty.
    pub fn enable_otlp_push(&mut self, config: PushConfig) -> Arc<OtlpPusher> {
        start_pusher(&mut self.pusher, config, &self.telemetry.otlp_push)
    }

    /// Starts a background webhook notifier: every tick with alert
    /// transitions POSTs one JSON batch to the configured endpoint.
    /// Delivery counters land in this service's registry
    /// (`netqos_alert_webhook_*`).
    pub fn enable_alert_webhook(&mut self, config: PushConfig) -> Arc<OtlpPusher> {
        start_pusher(&mut self.webhook, config, &self.telemetry.alert_webhook)
    }

    /// The alert engine's current state (rules, active alerts, history).
    pub fn alerts(&self) -> &AlertEngine {
        &self.alerts
    }

    /// Pushes the whole flight ring, if push is enabled and the ring
    /// holds a cycle; the collector deduplicates by trace and span id. A
    /// full push queue counts a drop instead of blocking.
    pub fn flush_otlp_push(&self) {
        let Some(pusher) = &self.pusher else { return };
        let cycles = self.flight.snapshot();
        if !cycles.is_empty() {
            pusher.enqueue(to_otlp(&cycles));
        }
    }

    /// The status handle the HTTP endpoints read; share it with
    /// [`crate::live::build_router`] to serve `/healthz` and `/snapshot`.
    pub fn live(&self) -> &Arc<LiveStatus> {
        &self.live
    }

    /// Why restoring `baseline_state` failed at startup, if it did.
    pub fn baseline_load_warning(&self) -> Option<&str> {
        self.baseline_load_warning.as_deref()
    }

    /// Why opening `lts_dir` failed at startup, if it did.
    pub fn lts_open_warning(&self) -> Option<&str> {
        self.lts_open_warning.as_deref()
    }

    /// Whether a long-term store is attached and healthy.
    pub fn lts_enabled(&self) -> bool {
        self.lts.is_some()
    }

    /// Flushes the long-term store: buffered points are written, completed
    /// `1m`/`1h` windows fold, oversized tails seal, and retention runs —
    /// with one JSONL event per deletion and per recovery warning, for a
    /// flush that failed in part too. Returns `None` when no store is
    /// attached or the flush failed (the failure is reported on the event
    /// sink).
    pub fn flush_lts(&mut self) -> Option<FlushReport> {
        let (store, _) = self.lts.as_mut()?;
        let flushed = store.flush();
        let warnings = store.take_warnings();
        let report = match &flushed {
            Ok(report) => report,
            Err(e) => &e.report,
        };
        report_flush(
            &self.events,
            &self.telemetry.retention_deleted,
            report,
            &warnings,
        );
        match flushed {
            Ok(report) => Some(report),
            Err(e) => {
                self.warn_failed("monitor.lts", "flush_failed", &e);
                None
            }
        }
    }

    /// Compacts the long-term store in place: a flush, then every
    /// series/resolution rewritten as one sealed segment. Runs between
    /// ticks on the service thread, so no query ever observes a
    /// half-compacted store through this process — and readers
    /// canonicalize anyway, so results are byte-identical across it.
    /// Returns `None` when no store is attached or compaction failed
    /// (the failure is reported on the event sink).
    pub fn compact_lts(&mut self) -> Option<netqos_telemetry::CompactReport> {
        self.flush_lts()?;
        let (store, _) = self.lts.as_mut()?;
        match store.compact() {
            Ok(report) => Some(report),
            Err(e) => {
                self.warn_failed("monitor.lts", "compact_failed", &e);
                None
            }
        }
    }

    /// Evaluates the configured recording rules against the long-term
    /// store and appends the results as derived gauge series, then
    /// flushes so the derived points are durable and queryable
    /// immediately. Runs on the save-tick cadence, after the regular
    /// flush, so each pass sees the data of its own tick. The pass is
    /// traced (`record.rules/evaluate`), counted
    /// (`netqos_recording_rules_{evals,failures}_total`), and each broken
    /// rule is reported as a `record_rule_failed` warning. A failed rule
    /// never stops the rest.
    pub fn run_record_rules(&mut self) -> Option<netqos_telemetry::RecordReport> {
        if self.config.record_rules.is_empty() {
            return None;
        }
        let (store, source) = self.lts.as_mut()?;
        // Evaluate at the newest stored instant, not the wall clock:
        // derived points then line up with the data they summarize.
        let t = store.newest_t()?;
        let engine = QueryEngine::new().with_source(None, source.clone());
        let mut span = self.tracer.span("record.rules", "evaluate");
        let report = netqos_telemetry::evaluate_record_rules(
            &self.config.record_rules,
            &engine,
            store,
            t,
            &self.record_counters,
        );
        span.set_attr("rules", report.evals);
        span.set_attr("points", report.points);
        span.set_attr("failures", report.failures);
        drop(span);
        for (rule, error) in &report.errors {
            self.events.emit(
                Level::Warn,
                "monitor.record",
                "record_rule_failed",
                || fields!["rule" => rule.as_str(), "error" => error.as_str()],
            );
        }
        self.flush_lts();
        Some(report)
    }

    /// Saves the per-path baselines to `config.baseline_state` (atomic
    /// write). Returns `Ok(false)` when no state path is configured.
    pub fn persist_baselines(&self) -> std::io::Result<bool> {
        let Some(path) = &self.config.baseline_state else {
            return Ok(false);
        };
        let mut entries: Vec<(&str, &QuantileBaseline)> = self
            .path_baselines
            .iter()
            .map(|(n, b)| (n.as_str(), b))
            .collect();
        entries.sort_by_key(|(n, _)| *n);
        netqos_telemetry::save_baselines(path, entries)?;
        Ok(true)
    }

    /// Appends the `/snapshot` JSON digest for the current tick to `out`.
    fn write_status_json(&self, out: &mut String, t_s: f64, rows: &[PathRow]) {
        out.push('{');
        let _ = write!(
            out,
            "\"t_s\":{t_s:.3},\"ticks\":{}",
            self.telemetry.ticks.get()
        );
        out.push_str(",\"paths\":[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            row.write_json(out);
        }
        out.push_str("],\"violated\":[");
        for (i, name) in self.qos.violated().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, name);
        }
        let _ = write!(
            out,
            "],\"flight\":{{\"cycles\":{},\"capacity\":{},\"snapshots\":{}}}",
            self.flight.len(),
            DEFAULT_FLIGHT_CAPACITY,
            self.snapshots.len(),
        );
        let _ = write!(
            out,
            ",\"alerts\":{{\"pending\":{},\"firing\":{}}}}}",
            self.alerts.pending_count(),
            self.alerts.firing_count(),
        );
    }

    /// One poll period, as the list of its stages ([`TICK_STAGES`]):
    /// advance the network, poll the demand set and a survey slice (each
    /// snapshot ingested as it arrives), evaluate every qospath into its
    /// [`PathRow`], detect (QoS events, traps, alert rules), record
    /// (long-term store, save tick) — then, the cycle closed, publish its
    /// trace and `/snapshot`.
    /// Returns the QoS events of this tick.
    pub fn tick(&mut self) -> Result<Vec<QosEvent>, MonitorError> {
        let wall_timer = self.telemetry.tick_ns.start_timer();
        let mut cycle = Cycle {
            traced: self.tracer.is_enabled(),
            trace_id: self.tracer.begin_cycle(),
            start_ns: self.tracer.now_ns(),
            happened: Vec::new(),
        };
        let cycle_span = self.tracer.span("monitor", "cycle");
        self.advance();
        let polled = self.poll()?;
        let t_s = self.net.now().duration_since(self.start).as_secs_f64();
        let events = self.evaluate(&mut cycle);
        self.detect(t_s, &events, &mut cycle)?;
        self.record(t_s);
        drop(cycle_span);
        if cycle.traced {
            self.publish_trace(cycle, &events);
        }
        let wall = wall_timer.stop();
        let mut status = std::mem::take(&mut self.spare_snapshot);
        status.clear();
        self.write_status_json(&mut status, t_s, &self.rows);
        self.spare_snapshot = self.live.record_tick(
            self.epoch_unix_ns.saturating_add(self.tracer.now_ns()),
            status,
        );
        self.events.emit(Level::Debug, "monitor.tick", "tick", || {
            fields![
                "t_s" => t_s,
                "polled" => polled,
                "events" => events.len(),
                "wall_us" => (wall.as_nanos() / 1_000) as u64,
            ]
        });
        Ok(events)
    }

    /// Stage 1: the network runs one poll period (on the simulator,
    /// background traffic and load generators keep flowing).
    fn advance(&mut self) {
        let _span = self.tracer.span("monitor.sim", "advance");
        let next = self.net.now() + self.config.poll_period;
        self.net.advance_to(next);
    }

    /// Stage 2: this tick's round of the [`PollSchedule`], each snapshot
    /// ingested as it arrives. Returns the number of successful polls.
    fn poll(&mut self) -> Result<usize, MonitorError> {
        let round = self.schedule.next_round();
        self.net.poll_nodes(round, &mut self.monitor)
    }

    /// Stage 3: the one evaluation of every qospath this tick, written
    /// down as one [`PathRow`] each — a path that could not be evaluated
    /// now has no row rather than a stale figure — with its truth, the
    /// same plans over [`Network::truth`] recorded for the demand set.
    /// Every later stage reads the rows, which are rewritten in place.
    fn evaluate(&mut self, cycle: &mut Cycle) -> Vec<QosEvent> {
        let mut span = self.tracer.span("monitor.qos", "evaluate");
        let events = self.qos.evaluate(&self.monitor);
        span.set_attr("events", events.len());
        let mut count = 0;
        for (spec, bw, violated) in self.qos.evaluated() {
            let name = &spec.name;
            if !self.path_baselines.contains_key(name) {
                let fresh = QuantileBaseline::new(DEFAULT_WINDOW);
                self.path_baselines.insert(name.clone(), fresh);
            }
            let baseline = self.path_baselines.get_mut(name).expect("just inserted");
            // Rank against history *before* folding the sample in, so
            // the sample cannot vouch for itself.
            let rank = baseline.rank(bw.used_bps);
            let history = baseline.count();
            let p50 = baseline.quantile(0.5);
            let p99 = baseline.quantile(0.99);
            baseline.record(bw.used_bps);
            // A young baseline ranks everything at the extremes.
            if history >= MIN_BASELINE_HISTORY && rank > ANOMALY_RANK {
                // Pre-violation warning: usage is extreme for *this*
                // connection even if no QoS rule has tripped yet.
                self.telemetry.anomaly_warnings.inc();
                self.events
                    .emit(Level::Warn, "monitor.baseline", "anomalous", || {
                        fields![
                            "path" => name.as_str(),
                            "used_bps" => bw.used_bps,
                            "rank" => rank,
                            "baseline_p99" => p99,
                        ]
                    });
                cycle.note(format_args!("baseline_anomaly {name}"));
            }
            if count == self.rows.len() {
                self.rows.push(PathRow::default());
            }
            let row = &mut self.rows[count];
            count += 1;
            row.name.clone_from(name);
            row.used_bps = bw.used_bps;
            row.available_bps = bw.available_bps;
            row.rank = rank;
            row.baseline_count = history + 1;
            row.baseline_p50 = p50;
            row.baseline_p99 = p99;
            let worst = bw.connections.iter().map(|c| c.utilization());
            row.utilization = worst.fold(0.0, f64::max);
            row.violated = violated;
            let topology = self.monitor.topology();
            topology.describe_connection_into(bw.bottleneck, &mut row.bottleneck);
            let at_bottleneck = bw.connections.iter().find(|c| c.conn == bw.bottleneck);
            row.bottleneck_bandwidth = at_bottleneck.cloned();
            row.min_available_bps = spec.min_available_bps;
            row.max_utilization = spec.max_utilization;
        }
        self.rows.truncate(count);
        let truth = self.net.truth(&self.schedule.demand);
        let mut truths = truth.map(|truth| self.qos.used_over(&self.monitor, truth));
        for row in &mut self.rows {
            row.truth_used_bps = truths.as_mut().and_then(Iterator::next).flatten();
        }
        events
    }

    /// Stage 4: QoS state changes become events and traps, then the
    /// alert rules see the registry (every self-telemetry counter and
    /// gauge) plus one labelled scope per row. Inside the traced cycle,
    /// so transitions land as cycle events.
    fn detect(
        &mut self,
        t_s: f64,
        events: &[QosEvent],
        cycle: &mut Cycle,
    ) -> Result<(), MonitorError> {
        let _span = self.tracer.span("monitor.alerts", "detect");
        if !events.is_empty() {
            self.emit_traps(t_s, events, cycle)?;
        }
        self.telemetry.ticks.inc();
        self.telemetry
            .trap_outbox_depth
            .set(self.traps.len() as i64);
        let tick_no = self.telemetry.ticks.get();
        let ctx = &mut self.alert_context;
        ctx.tick = tick_no;
        ctx.scopes
            .resize_with(1 + self.rows.len(), AlertScope::default);
        ctx.scopes[0].set_from_registry(self.telemetry.registry());
        for (row, scope) in self.rows.iter().zip(&mut ctx.scopes[1..]) {
            row.fill_alert_scope(scope);
        }
        let transitions = self.alerts.evaluate(ctx);
        for tr in &transitions {
            match tr.to {
                "pending" => self.telemetry.alerts_pending_total.inc(),
                "firing" => self.telemetry.alerts_firing_total.inc(),
                _ => self.telemetry.alerts_resolved_total.inc(),
            }
            cycle.note(format_args!("alert_{} {}", tr.to, tr.fingerprint));
            let level = if tr.to == "firing" {
                Level::Warn
            } else {
                Level::Info
            };
            self.events.emit(level, "monitor.alerts", tr.to, || {
                fields![
                    "rule" => tr.rule.as_str(),
                    "fingerprint" => tr.fingerprint.as_str(),
                    "from" => tr.from,
                    "value" => tr.value,
                ]
            });
        }
        let pending = self.alerts.pending_count();
        let firing = self.alerts.firing_count();
        self.telemetry.alerts_firing.set(gauge(firing));
        if !transitions.is_empty() {
            if let Some(hook) = &self.webhook {
                hook.enqueue(transitions_to_json("netqos", tick_no, &transitions));
            }
        }
        let mut doc = std::mem::take(&mut self.spare_alerts);
        doc.clear();
        self.alerts.render_json_into(&mut doc);
        self.spare_alerts = self
            .live
            .record_alerts(doc, pending, firing, transitions.len() as u64);
        Ok(())
    }

    /// Reports each QoS state change and emits its SNMPv1 trap: into the
    /// bounded outbox, and through the network when a trap destination is
    /// configured.
    fn emit_traps(
        &mut self,
        t_s: f64,
        events: &[QosEvent],
        cycle: &mut Cycle,
    ) -> Result<(), MonitorError> {
        let agent_addr = self.net.trap_agent_addr();
        let uptime = (t_s * 100.0) as u32;
        for event in events {
            let (level, kind, path_name) = match event {
                QosEvent::Violated { path_name, .. } => (Level::Warn, "violation", path_name),
                QosEvent::Cleared { path_name } => (Level::Info, "cleared", path_name),
            };
            cycle.note(format_args!("qos_{kind} {path_name}"));
            self.events.emit(
                level,
                "monitor.qos",
                kind,
                || fields!["path" => path_name.as_str(), "t_s" => t_s],
            );
            let bytes = qos::encode_trap(event, &self.config.trap_community, agent_addr, uptime)?;
            if let Some(dst) = self.config.trap_destination {
                self.net.send_trap(dst, &bytes);
            }
            // Bounded outbox: evict oldest rather than grow forever.
            if self.traps.len() >= TRAP_OUTBOX_CAPACITY {
                self.traps.remove(0);
            }
            self.traps.push(bytes);
        }
        Ok(())
    }

    /// Stage 5: long-term stats — one sample per row signal and per
    /// registry series at 1s resolution, placed at sim-anchored Unix
    /// seconds so a restarted run extends the same series instead of
    /// starting a parallel timeline — and, on a save tick, the baselines
    /// to their state file, the store's flush (or compaction) and the
    /// recording rules.
    fn record(&mut self, t_s: f64) {
        let _span = self.tracer.span("monitor.stats", "record");
        if let Some((store, _)) = self.lts.as_mut() {
            let t_unix = self.epoch_unix_ns / 1_000_000_000 + t_s as u64;
            for row in &self.rows {
                if !self.path_series.contains_key(&row.name) {
                    let series = (row.gauges()).map(|(signal, _)| {
                        format!("netqos_path_{signal}{{path=\"{}\"}}", row.name)
                    });
                    self.path_series.insert(row.name.clone(), series);
                }
                let series = &self.path_series[&row.name];
                for ((_, value), name) in row.gauges().into_iter().zip(series) {
                    store.append(name, t_unix, PointValue::Gauge(value));
                }
            }
            self.lts_sampler
                .sample(self.telemetry.registry(), store, t_unix);
        }
        let save_every = self.config.baseline_save_ticks.max(1);
        if !self.telemetry.ticks.get().is_multiple_of(save_every) {
            return;
        }
        if self.config.baseline_state.is_some() {
            if let Err(e) = self.persist_baselines() {
                self.warn_failed("monitor.baseline", "persist_failed", &e);
            }
        }
        if self.config.lts_compact {
            self.compact_lts();
        } else {
            self.flush_lts();
        }
        self.run_record_rules();
    }

    /// After the cycle span closes: each span feeds its phase histogram
    /// and the cycle enters the flight ring. A cycle in which a violation
    /// began is pushed to the collector and snapshotted, itself included
    /// in the forensic record.
    fn publish_trace(&mut self, cycle: Cycle, events: &[QosEvent]) {
        let end_ns = self.tracer.now_ns();
        let spans = self.tracer.end_cycle();
        for span in &spans {
            self.phase_histogram(span).record(span.dur_ns);
        }
        let seq = self.flight.push(CycleTrace {
            seq: 0, // assigned by the recorder
            trace_id: cycle.trace_id,
            start_ns: cycle.start_ns,
            end_ns,
            epoch_unix_ns: self.epoch_unix_ns,
            spans,
            samples: self.rows.iter().map(PathRow::annotation).collect(),
            events: cycle.happened,
        });
        if !(events.iter()).any(|e| matches!(e, QosEvent::Violated { .. })) {
            return;
        }
        self.flush_otlp_push();
        if let Some(dir) = self.config.flight_dir.clone() {
            self.snapshot_flight(&dir, seq);
        }
    }

    /// The `netqos_tick_phase_ns` histogram of `span`'s phase, registered
    /// the first time the phase closes.
    fn phase_histogram(&mut self, span: &SpanRecord) -> &Histogram {
        if !self.phase_ns.contains_key(&*span.target) {
            self.phase_ns
                .insert(span.target.to_string(), HashMap::new());
        }
        let names = self
            .phase_ns
            .get_mut(&*span.target)
            .expect("inserted above");
        if !names.contains_key(&*span.name) {
            let phase = escape_label_value(&format!("{}.{}", span.target, span.name));
            let name = format!("netqos_tick_phase_ns{{phase=\"{phase}\"}}");
            let histogram = self.telemetry.registry().histogram(&name);
            names.insert(span.name.to_string(), histogram);
        }
        &names[&*span.name]
    }

    /// Writes the flight ring to `dir` as snapshot `seq`, then keeps the
    /// directory within its retention budget now that one more landed.
    fn snapshot_flight(&mut self, dir: &Path, seq: u64) {
        match netqos_telemetry::write_snapshot(dir, seq, &self.flight.snapshot()) {
            Ok(path) => {
                self.telemetry.flight_snapshots.inc();
                self.snapshots.push(path);
            }
            Err(e) => self.warn_failed("monitor.flight", "snapshot_failed", &e),
        }
        match netqos_telemetry::enforce_retention(dir, self.config.retention) {
            // The cross-plane deletion total the LTS retention also feeds.
            Ok(deleted) => self.telemetry.retention_deleted.add(deleted as u64),
            Err(e) => self.warn_failed("monitor.flight", "retention_failed", &e),
        }
    }

    /// Runs `n` ticks, collecting all events.
    pub fn run_ticks(&mut self, n: usize) -> Result<Vec<QosEvent>, MonitorError> {
        let mut all = Vec::new();
        for _ in 0..n {
            all.extend(self.tick()?);
        }
        Ok(all)
    }

    /// The monitor state (rates, path bandwidth queries).
    pub fn monitor(&self) -> &NetworkMonitor {
        &self.monitor
    }

    /// The monitor state, to choose its [`IntervalStrategy`].
    ///
    /// [`IntervalStrategy`]: crate::monitor::IntervalStrategy
    pub fn monitor_mut(&mut self) -> &mut NetworkMonitor {
        &mut self.monitor
    }

    /// The rows of the most recent tick: one per qospath it could
    /// evaluate, in specification order.
    pub fn rows(&self) -> &[PathRow] {
        &self.rows
    }

    /// All traps emitted so far (encoded SNMPv1 messages, newest last).
    pub fn traps(&self) -> &[Vec<u8>] {
        &self.traps
    }

    /// Names of paths currently in violation.
    pub fn violated_paths(&self) -> Vec<&str> {
        self.qos.violated_paths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        host M { address 10.0.0.1; snmp community "public"; interface eth0 { speed 10Mbps; } }
        host W { address 10.0.0.2; snmp community "public"; interface eth0 { speed 10Mbps; } }
        connection M.eth0 <-> W.eth0;
        qospath mw from M to W { min_available 9Mbps; }
    "#;

    fn idle_service() -> MonitoringService {
        let model = netqos_spec::parse_and_validate(SPEC).unwrap();
        let options = SimNetworkOptions {
            monitor_host: "M".into(),
            ..SimNetworkOptions::default()
        };
        MonitoringService::from_model(model, options, ServiceConfig::default()).unwrap()
    }

    #[test]
    fn ticks_write_rows() {
        let mut svc = idle_service();
        svc.run_ticks(3).unwrap();
        let [row] = svc.rows() else {
            panic!("one row per qospath: {:?}", svc.rows());
        };
        assert_eq!(row.name, "mw");
        // Idle network: usage is tiny (just SNMP chatter).
        assert!(row.used_bps < 80_000, "{row:?}");
        assert!(svc.violated_paths().is_empty());
        assert!(svc.traps().is_empty());
    }

    #[test]
    fn violation_emits_decodable_trap() {
        let mut svc = idle_service();
        svc.run_ticks(2).unwrap();
        // Saturate the 10 Mb/s link directly: 2 MB instantly queued.
        let m = svc.monitor().topology().node_by_name("M").unwrap();
        let m_dev = svc.net_mut().device_of(m).unwrap();
        for _ in 0..40 {
            svc.net_mut()
                .lan
                .post_udp(
                    m_dev,
                    5000,
                    "10.0.0.2".parse().unwrap(),
                    9,
                    vec![0u8; 50_000].into(),
                )
                .unwrap();
        }
        let events = svc.run_ticks(3).unwrap();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, QosEvent::Violated { .. })),
            "expected a violation; events: {events:?}"
        );
        assert!(!svc.traps().is_empty());
        let (specific, name) = qos::decode_trap(&svc.traps()[0]).unwrap();
        assert_eq!(specific, qos::TRAP_QOS_VIOLATED);
        assert_eq!(name, "mw");
        // The one-shot blast drains within the window, so by now the path
        // may already have recovered — in which case a Cleared trap
        // follows the Violated one.
        if svc.violated_paths().is_empty() {
            let (last, _) = qos::decode_trap(svc.traps().last().unwrap()).unwrap();
            assert_eq!(last, qos::TRAP_QOS_CLEARED);
        }
    }

    #[test]
    fn traced_ticks_fill_flight_ring_with_nested_cycles() {
        let mut svc = idle_service();
        svc.set_tracing(true);
        svc.run_ticks(3).unwrap();
        assert_eq!(svc.flight().len(), 3);
        let cycles = svc.flight().snapshot();
        for cycle in &cycles {
            assert_ne!(cycle.trace_id, 0);
            let root = cycle
                .spans
                .iter()
                .find(|s| s.name == "cycle")
                .expect("root span");
            assert!(root.parent.is_none());
            // Poll round, per-device polls, codec stages, path bandwidth,
            // and QoS evaluation all land in the same cycle.
            for name in [
                "round",
                "device",
                "encode",
                "decode",
                "evaluate",
                "bandwidth",
            ] {
                assert!(
                    cycle.spans.iter().any(|s| s.name == name),
                    "missing span {name}"
                );
            }
            // Every non-root span's parent exists in the same cycle.
            for s in &cycle.spans {
                if let Some(p) = s.parent {
                    assert!(cycle.spans.iter().any(|t| t.span_id == p));
                }
            }
        }
        // The first tick has no rates yet (rates need two polls); every
        // later cycle carries the qospath's annotated sample.
        assert!(cycles[0].samples.is_empty());
        let last = cycles.last().unwrap();
        assert_eq!(last.samples.len(), 1, "one qospath sample per tick");
        assert_eq!(last.samples[0].path, "mw");
        assert!(last.samples[0].used_rank >= 0.0);
        // Disabled tracing stops recording (and costs nothing).
        svc.set_tracing(false);
        svc.run_ticks(2).unwrap();
        assert_eq!(svc.flight().len(), 3);
    }

    /// Each span a traced tick closes is one sample of its phase's
    /// `netqos_tick_phase_ns` histogram; an untraced tick records none.
    #[test]
    fn traced_ticks_record_one_phase_sample_per_span() {
        const N: usize = 5;
        let mut svc = idle_service();
        svc.set_tracing(true);
        svc.run_ticks(N).unwrap();
        svc.set_tracing(false);
        svc.run_ticks(2).unwrap();
        let text = svc.registry().render_prometheus();
        assert!(
            text.contains("# TYPE netqos_tick_phase_ns histogram"),
            "{text}"
        );
        let devices = (svc.flight().snapshot().iter())
            .flat_map(|c| &c.spans)
            .filter(|s| s.target == "monitor.poll" && s.name == "device")
            .count();
        assert!(devices > N, "{devices}");
        for (phase, count) in [("monitor.cycle", N), ("monitor.poll.device", devices)] {
            let line = format!("netqos_tick_phase_ns_count{{phase=\"{phase}\"}} {count}\n");
            assert!(text.contains(&line), "{line}{text}");
        }
    }

    #[test]
    fn live_status_publishes_snapshot_json() {
        let mut svc = idle_service();
        svc.run_ticks(3).unwrap();
        let live = svc.live().clone();
        assert_eq!(live.ticks(), 3);
        let snap = live.snapshot_response();
        assert_eq!(snap.status, 200);
        let doc = netqos_telemetry::parse_json(&snap.body).unwrap();
        assert_eq!(doc.get("ticks").and_then(|v| v.as_u64()), Some(3));
        let paths = doc.get("paths").and_then(|v| v.as_array()).unwrap();
        assert_eq!(
            paths[0].get("name").and_then(|v| v.as_str()),
            Some("mw"),
            "snapshot lists the qospath"
        );
        // Healthz sees the recent tick.
        let h = live.healthz(crate::live::unix_now_ns());
        assert_eq!(h.status, 200);
    }

    /// A qospath name is written into `/snapshot` as a JSON string, in the
    /// path rows and in the violated list alike, whatever it holds.
    #[test]
    fn snapshot_writes_path_names_as_json_strings() {
        const NAME: &str = "a\"b\n\u{1}é";
        let mut model = netqos_spec::parse_and_validate(SPEC).unwrap();
        model.qos_paths[0].name = NAME.into();
        let options = SimNetworkOptions {
            monitor_host: "M".into(),
            ..SimNetworkOptions::default()
        };
        let mut svc =
            MonitoringService::from_model(model, options, ServiceConfig::default()).unwrap();
        svc.run_ticks(2).unwrap();
        saturate_link(&mut svc);
        svc.run_ticks(1).unwrap();
        assert_eq!(svc.violated_paths(), [NAME]);
        let snap = svc.live().snapshot_response();
        let doc = netqos_telemetry::parse_json(&snap.body).unwrap();
        let paths = doc.get("paths").and_then(|v| v.as_array()).unwrap();
        assert_eq!(paths[0].get("name").and_then(|v| v.as_str()), Some(NAME));
        let violated = doc.get("violated").and_then(|v| v.as_array()).unwrap();
        assert_eq!(violated[0].as_str(), Some(NAME));
    }

    #[test]
    fn baselines_survive_a_service_restart() {
        let dir = std::env::temp_dir().join(format!("netqos-svc-baseline-{}", std::process::id()));
        let state = dir.join("baselines.json");
        std::fs::create_dir_all(&dir).unwrap();
        let model = netqos_spec::parse_and_validate(SPEC).unwrap();
        let options = || SimNetworkOptions {
            monitor_host: "M".into(),
            ..SimNetworkOptions::default()
        };
        let config = ServiceConfig {
            baseline_state: Some(state.clone()),
            ..ServiceConfig::default()
        };
        let mut svc =
            MonitoringService::from_model(model.clone(), options(), config.clone()).unwrap();
        assert!(svc.path_baseline("mw").is_none(), "nothing to restore");
        svc.run_ticks(5).unwrap();
        let count = svc.path_baseline("mw").unwrap().count();
        assert!(count > 0);
        assert!(svc.persist_baselines().unwrap());

        // "Restart": a fresh service from the same config resumes with
        // the recorded history instead of a cold baseline.
        let svc2 = MonitoringService::from_model(model, options(), config).unwrap();
        assert_eq!(svc2.baseline_load_warning(), None);
        assert_eq!(svc2.path_baseline("mw").unwrap().count(), count);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_rule_passes_read_through_one_source_and_see_new_series() {
        let dir = std::env::temp_dir().join(format!("netqos-svc-record-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let model = netqos_spec::parse_and_validate(SPEC).unwrap();
        let options = SimNetworkOptions {
            monitor_host: "M".into(),
            ..SimNetworkOptions::default()
        };
        let config = ServiceConfig {
            lts_dir: Some(dir.clone()),
            record_rules: vec![RecordRule {
                name: "late:copy".into(),
                expr: "late_gauge".into(),
            }],
            ..ServiceConfig::default()
        };
        let mut svc = MonitoringService::from_model(model, options, config).unwrap();
        let source = svc.lts.as_ref().expect("store opened").1.clone();
        svc.run_ticks(3).unwrap();
        svc.flush_lts().unwrap();
        let first = svc.run_record_rules().unwrap();
        assert_eq!((first.evals, first.points), (1, 0), "nothing to copy yet");

        // A series that first appears between two passes.
        let (store, _) = svc.lts.as_mut().unwrap();
        let t = store.newest_t().unwrap();
        store.append("late_gauge", t, PointValue::Gauge(7));
        svc.flush_lts().unwrap();
        let second = svc.run_record_rules().unwrap();
        assert_eq!((second.evals, second.points), (1, 1));

        // Both passes read through the source built beside the store,
        // and neither kept it.
        assert!(Arc::ptr_eq(&source, &svc.lts.as_ref().unwrap().1));
        assert_eq!(Arc::strong_count(&source), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trap_destination_generates_network_traffic() {
        let model = netqos_spec::parse_and_validate(SPEC).unwrap();
        let options = SimNetworkOptions {
            monitor_host: "M".into(),
            ..SimNetworkOptions::default()
        };
        let config = ServiceConfig {
            trap_destination: Some("10.0.0.2".parse().unwrap()),
            ..ServiceConfig::default()
        };
        let mut svc = MonitoringService::from_model(model, options, config).unwrap();
        svc.run_ticks(2).unwrap();
        let m = svc.monitor().topology().node_by_name("M").unwrap();
        let m_dev = svc.net_mut().device_of(m).unwrap();
        for _ in 0..40 {
            svc.net_mut()
                .lan
                .post_udp(
                    m_dev,
                    5000,
                    "10.0.0.2".parse().unwrap(),
                    9,
                    vec![0u8; 50_000].into(),
                )
                .unwrap();
        }
        let before = svc.net_mut().lan.stats().datagrams_unbound;
        svc.run_ticks(3).unwrap();
        // Nothing listens on W:162, so the trap datagram lands unbound —
        // proof it actually crossed the simulated wire.
        let after = svc.net_mut().lan.stats().datagrams_unbound;
        assert!(after > before, "trap never hit the wire");
    }

    /// Keeps `svc`'s 10 Mb/s link saturated for one tick: 1 MB queued
    /// instantly is 8 Mb/s over the 1 s poll period.
    fn saturate_link(svc: &mut MonitoringService) {
        let m = svc.monitor().topology().node_by_name("M").unwrap();
        let m_dev = svc.net_mut().device_of(m).unwrap();
        for _ in 0..20 {
            svc.net_mut()
                .lan
                .post_udp(
                    m_dev,
                    5000,
                    "10.0.0.2".parse().unwrap(),
                    9,
                    vec![0u8; 50_000].into(),
                )
                .unwrap();
        }
    }

    #[test]
    fn sustained_violation_fires_diagnosed_alert_then_resolves() {
        let mut svc = idle_service();
        svc.set_tracing(true);
        svc.run_ticks(2).unwrap();
        // Keep the link saturated across several ticks so the builtin
        // path_qos_violation rule (for 2) crosses its hysteresis.
        for _ in 0..4 {
            saturate_link(&mut svc);
            svc.run_ticks(1).unwrap();
        }
        assert!(svc.alerts().firing_count() >= 1, "alert never fired");
        assert_eq!(svc.telemetry().alerts_firing.get(), 1);
        assert!(svc.telemetry().alerts_pending_total.get() >= 1);
        assert!(svc.telemetry().alerts_firing_total.get() >= 1);
        // The firing alert names the rule and diagnoses the bottleneck.
        let doc = netqos_telemetry::parse_json(&svc.alerts().render_json()).unwrap();
        assert_eq!(doc.get("firing").and_then(|v| v.as_u64()), Some(1));
        let alerts = doc.get("alerts").and_then(|v| v.as_array()).unwrap();
        let firing = alerts
            .iter()
            .find(|a| a.get("state").and_then(|v| v.as_str()) == Some("firing"))
            .expect("firing alert in render_json");
        assert_eq!(
            firing.get("rule").and_then(|v| v.as_str()),
            Some("path_qos_violation")
        );
        let bottleneck = firing
            .get("annotations")
            .and_then(|a| a.get("bottleneck"))
            .and_then(|v| v.as_str())
            .expect("bottleneck annotation");
        assert!(
            bottleneck.contains("M.eth0"),
            "diagnosis names the saturated link: {bottleneck}"
        );
        // Transition landed in the flight ring as a cycle event.
        assert!(
            svc.flight()
                .snapshot()
                .iter()
                .any(|c| c.events.iter().any(|e| e.starts_with("alert_firing"))),
            "alert_firing missing from the flight ring"
        );
        // And in the live plane: /alerts body plus the /healthz summary.
        let live_doc = netqos_telemetry::parse_json(&svc.live().alerts_json()).unwrap();
        assert_eq!(live_doc.get("firing").and_then(|v| v.as_u64()), Some(1));
        let h = svc.live().healthz(crate::live::unix_now_ns());
        let h_doc = netqos_telemetry::parse_json(&h.body).unwrap();
        assert_eq!(
            h_doc
                .get("alerts")
                .and_then(|a| a.get("firing"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        // Load stops: the alert resolves once the condition clears.
        svc.run_ticks(4).unwrap();
        assert_eq!(svc.alerts().firing_count(), 0);
        assert!(svc.telemetry().alerts_resolved_total.get() >= 1);
        let doc = netqos_telemetry::parse_json(&svc.alerts().render_json()).unwrap();
        let resolved = doc.get("resolved").and_then(|v| v.as_array()).unwrap();
        assert!(
            resolved
                .iter()
                .any(|r| r.get("rule").and_then(|v| v.as_str()) == Some("path_qos_violation")),
            "resolved history records the episode"
        );
        // The snapshot digest carries the summary too.
        let mut status = String::new();
        svc.write_status_json(&mut status, 0.0, &[]);
        let s_doc = netqos_telemetry::parse_json(&status).unwrap();
        assert_eq!(
            s_doc
                .get("alerts")
                .and_then(|a| a.get("firing"))
                .and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}
