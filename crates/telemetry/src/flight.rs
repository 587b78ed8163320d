//! QoS flight recorder: a bounded ring of complete cycle traces.
//!
//! Every poll cycle the monitoring service assembles a [`CycleTrace`] —
//! the cycle's span tree from the [`Tracer`](crate::Tracer) plus
//! per-connection bandwidth samples annotated against their
//! [`QuantileBaseline`](crate::QuantileBaseline) — and pushes it into a
//! [`FlightRecorder`]. The ring keeps the last N cycles in memory; when
//! QoS evaluation raises a violation the service calls
//! [`write_snapshot`], which persists the whole ring as JSONL (one cycle
//! per line, machine-readable) and as Chrome `trace_event` JSON that
//! loads directly in `chrome://tracing` or Perfetto. Violations
//! therefore always ship with their causal history: what was polled,
//! how long each stage took, and how the traffic compared to baseline
//! in the cycles *before* the threshold tripped.
//!
//! [`validate_chrome_trace`] re-parses an exported trace and checks the
//! structural invariants (every span within its parent's interval) — it
//! backs the golden-file test, `netqos flight check`, and the CI smoke
//! job.

use crate::events::escape_json_into;
use crate::json::{parse_json, JsonValue};
use crate::trace::{SpanRecord, TraceId};
use crate::FieldValue;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One per-connection bandwidth sample, annotated against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleAnnotation {
    /// QoS path this sample belongs to.
    pub path: String,
    /// Human description of the connection.
    pub connection: String,
    /// Observed used bandwidth, bits/s.
    pub used_bps: u64,
    /// Remaining bandwidth under the connection's rule, bits/s.
    pub available_bps: u64,
    /// Percentile rank of `used_bps` against the connection's baseline,
    /// in [0, 1] (e.g. 0.998 = "at p99.8 of recent history").
    pub used_rank: f64,
    /// Baseline median used bandwidth, bits/s.
    pub baseline_p50: u64,
    /// Baseline p99 used bandwidth, bits/s.
    pub baseline_p99: u64,
}

/// One complete poll cycle: span tree + annotated samples + events.
#[derive(Debug, Clone, Default)]
pub struct CycleTrace {
    /// Monotonic cycle number (assigned by the recorder on push).
    pub seq: u64,
    /// The tracer's id for this cycle (0 when tracing was disabled).
    pub trace_id: TraceId,
    /// Wall-clock nanoseconds since the Unix epoch corresponding to the
    /// tracer's origin (offset 0), so exports can place the cycle's
    /// monotonic span offsets on the real timeline. 0 when unknown.
    pub epoch_unix_ns: u64,
    /// Cycle start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Cycle end, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Finished spans (children precede parents).
    pub spans: Vec<SpanRecord>,
    /// Per-connection bandwidth samples with baseline annotations.
    pub samples: Vec<SampleAnnotation>,
    /// Notable happenings this cycle ("qos_violation feed1", ...).
    pub events: Vec<String>,
}

/// Bounded in-memory ring of the most recent cycles. Cheap to share
/// behind an `Arc`; push and snapshot take a short mutex.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<CycleTrace>>,
    seq: AtomicU64,
}

/// Default ring capacity: comfortably more than the 8 cycles of history
/// a violation snapshot must carry.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 32;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` cycles (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
        }
    }

    /// Appends a cycle, assigning its `seq` and evicting the oldest
    /// cycle when full. Returns the assigned sequence number.
    pub fn push(&self, mut cycle: CycleTrace) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        cycle.seq = seq;
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(cycle);
        seq
    }

    /// The ring's contents, oldest first.
    pub fn snapshot(&self) -> Vec<CycleTrace> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Cycles currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum cycles held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total cycles ever pushed (not just retained).
    pub fn cycles_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

fn write_attrs_json(out: &mut String, attrs: &[(String, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json_into(out, k);
        out.push_str("\":");
        v.write_json_into(out);
    }
    out.push('}');
}

/// Renders cycles as JSONL: one self-contained JSON object per line.
pub fn to_jsonl(cycles: &[CycleTrace]) -> String {
    let mut out = String::new();
    for c in cycles {
        // The epoch is serialized as a string: epoch nanoseconds exceed
        // 2^53, and the JSONL reader parses numbers through f64.
        let _ = write!(
            out,
            "{{\"seq\":{},\"trace_id\":{},\"epoch_unix_ns\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"spans\":[",
            c.seq, c.trace_id, c.epoch_unix_ns, c.start_ns, c.end_ns
        );
        for (i, s) in c.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"span_id\":{},\"parent\":", s.span_id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"target\":\"");
            escape_json_into(&mut out, s.target);
            out.push_str("\",\"name\":\"");
            escape_json_into(&mut out, s.name);
            let _ = write!(
                out,
                "\",\"start_ns\":{},\"dur_ns\":{},\"attrs\":",
                s.start_ns, s.dur_ns
            );
            write_attrs_json(&mut out, &s.attrs);
            out.push('}');
        }
        out.push_str("],\"samples\":[");
        for (i, s) in c.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"path\":\"");
            escape_json_into(&mut out, &s.path);
            out.push_str("\",\"connection\":\"");
            escape_json_into(&mut out, &s.connection);
            let _ = write!(
                out,
                "\",\"used_bps\":{},\"available_bps\":{},\"used_rank\":{:.4},\"baseline_p50\":{},\"baseline_p99\":{}}}",
                s.used_bps, s.available_bps, s.used_rank, s.baseline_p50, s.baseline_p99
            );
        }
        out.push_str("],\"events\":[");
        for (i, e) in c.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(&mut out, e);
            out.push('"');
        }
        out.push_str("]}\n");
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn write_chrome_span(
    out: &mut String,
    first: &mut bool,
    trace_id: TraceId,
    span_id: u64,
    parent: Option<u64>,
    target: &str,
    name: &str,
    start_ns: u64,
    dur_ns: u64,
    attrs_json: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"");
    escape_json_into(out, target);
    out.push('.');
    escape_json_into(out, name);
    out.push_str("\",\"cat\":\"");
    escape_json_into(out, target);
    // ts/dur are microseconds; three decimals preserve the nanosecond.
    let _ = write!(
        out,
        "\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent\":",
        start_ns / 1000,
        start_ns % 1000,
        dur_ns / 1000,
        dur_ns % 1000,
        trace_id,
        trace_id,
        span_id
    );
    match parent {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"attrs\":");
    out.push_str(attrs_json);
    out.push_str("}}");
}

fn write_chrome_instant(
    out: &mut String,
    first: &mut bool,
    trace_id: TraceId,
    ts_ns: u64,
    text: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"");
    escape_json_into(out, text);
    let _ = write!(
        out,
        "\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}}}",
        ts_ns / 1000,
        ts_ns % 1000,
        trace_id
    );
}

fn write_chrome_counter(out: &mut String, first: &mut bool, ts_ns: u64, sample: &SampleAnnotation) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"bps ");
    escape_json_into(out, &sample.connection);
    let _ = write!(
        out,
        "\",\"cat\":\"flight\",\"ph\":\"C\",\"ts\":{}.{:03},\"pid\":1,\"args\":{{\"used_bps\":{},\"available_bps\":{}}}}}",
        ts_ns / 1000,
        ts_ns % 1000,
        sample.used_bps,
        sample.available_bps
    );
}

/// Renders cycles in the Chrome `trace_event` JSON format. Each cycle
/// occupies its own track (tid = trace id); spans are complete (`ph:X`)
/// events, cycle events become instants, and bandwidth samples become
/// counter tracks. Loads in `chrome://tracing` and Perfetto.
pub fn to_chrome_trace(cycles: &[CycleTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for c in cycles {
        for s in &c.spans {
            let mut attrs_json = String::new();
            write_attrs_json(&mut attrs_json, &s.attrs);
            write_chrome_span(
                &mut out,
                &mut first,
                c.trace_id,
                s.span_id,
                s.parent,
                s.target,
                s.name,
                s.start_ns,
                s.dur_ns,
                &attrs_json,
            );
        }
        for e in &c.events {
            write_chrome_instant(&mut out, &mut first, c.trace_id, c.end_ns, e);
        }
        for s in &c.samples {
            write_chrome_counter(&mut out, &mut first, c.end_ns, s);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// A span re-read from a snapshot file (owned strings, unlike the
/// `&'static str` in the live [`SpanRecord`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Span id.
    pub span_id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Subsystem path.
    pub target: String,
    /// Stage name.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Attributes.
    pub attrs: Vec<(String, FieldValue)>,
}

/// A cycle re-read from a JSONL snapshot file.
#[derive(Debug, Clone, Default)]
pub struct ParsedCycle {
    /// Cycle number.
    pub seq: u64,
    /// Trace id.
    pub trace_id: u64,
    /// Unix-epoch nanoseconds of the tracer's origin (0 when the
    /// snapshot predates epoch stamping).
    pub epoch_unix_ns: u64,
    /// Cycle start, ns.
    pub start_ns: u64,
    /// Cycle end, ns.
    pub end_ns: u64,
    /// Spans (children precede parents, as recorded).
    pub spans: Vec<ParsedSpan>,
    /// Annotated samples.
    pub samples: Vec<SampleAnnotation>,
    /// Cycle events.
    pub events: Vec<String>,
}

fn field_value_of(v: &JsonValue) -> FieldValue {
    match v {
        JsonValue::Bool(b) => FieldValue::Bool(*b),
        JsonValue::String(s) => FieldValue::Str(s.clone()),
        JsonValue::Number(n) if n.fract() == 0.0 && *n >= 0.0 => FieldValue::U64(n.round() as u64),
        JsonValue::Number(n) if n.fract() == 0.0 => FieldValue::I64(n.round() as i64),
        JsonValue::Number(n) => FieldValue::F64(*n),
        _ => FieldValue::Str(String::new()),
    }
}

fn attrs_of(v: Option<&JsonValue>) -> Vec<(String, FieldValue)> {
    match v {
        Some(JsonValue::Object(m)) => m
            .iter()
            .map(|(k, v)| (k.clone(), field_value_of(v)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Parses a JSONL snapshot (as produced by [`to_jsonl`]) back into
/// cycles. Empty lines are skipped; a malformed line is an error.
pub fn cycles_from_jsonl(src: &str) -> Result<Vec<ParsedCycle>, String> {
    let mut cycles = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let num = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        // String-encoded (new snapshots) or absent (old ones); a bare
        // number is accepted too, at f64 precision.
        let epoch_unix_ns = match v.get("epoch_unix_ns") {
            Some(JsonValue::String(s)) => s.parse::<u64>().unwrap_or(0),
            Some(other) => other.as_u64().unwrap_or(0),
            None => 0,
        };
        let mut cycle = ParsedCycle {
            seq: num("seq"),
            trace_id: num("trace_id"),
            epoch_unix_ns,
            start_ns: num("start_ns"),
            end_ns: num("end_ns"),
            ..ParsedCycle::default()
        };
        if let Some(spans) = v.get("spans").and_then(JsonValue::as_array) {
            for s in spans {
                cycle.spans.push(ParsedSpan {
                    span_id: s.get("span_id").and_then(JsonValue::as_u64).unwrap_or(0),
                    parent: s.get("parent").and_then(JsonValue::as_u64),
                    target: s
                        .get("target")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    name: s
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    start_ns: s.get("start_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                    dur_ns: s.get("dur_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                    attrs: attrs_of(s.get("attrs")),
                });
            }
        }
        if let Some(samples) = v.get("samples").and_then(JsonValue::as_array) {
            for s in samples {
                cycle.samples.push(SampleAnnotation {
                    path: s
                        .get("path")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    connection: s
                        .get("connection")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    used_bps: s.get("used_bps").and_then(JsonValue::as_u64).unwrap_or(0),
                    available_bps: s
                        .get("available_bps")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0),
                    used_rank: s
                        .get("used_rank")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                    baseline_p50: s
                        .get("baseline_p50")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0),
                    baseline_p99: s
                        .get("baseline_p99")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0),
                });
            }
        }
        if let Some(events) = v.get("events").and_then(JsonValue::as_array) {
            for e in events {
                if let Some(t) = e.as_str() {
                    cycle.events.push(t.to_string());
                }
            }
        }
        cycles.push(cycle);
    }
    Ok(cycles)
}

/// Converts a parsed JSONL snapshot back to Chrome `trace_event` JSON
/// (the `netqos flight dump` path).
pub fn parsed_to_chrome_trace(cycles: &[ParsedCycle]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for c in cycles {
        for s in &c.spans {
            let mut attrs_json = String::new();
            write_attrs_json(&mut attrs_json, &s.attrs);
            write_chrome_span(
                &mut out,
                &mut first,
                c.trace_id,
                s.span_id,
                s.parent,
                &s.target,
                &s.name,
                s.start_ns,
                s.dur_ns,
                &attrs_json,
            );
        }
        for e in &c.events {
            write_chrome_instant(&mut out, &mut first, c.trace_id, c.end_ns, e);
        }
        for s in &c.samples {
            write_chrome_counter(&mut out, &mut first, c.end_ns, s);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total trace events of any phase.
    pub events: usize,
    /// Complete (`ph:X`) span events.
    pub spans: usize,
    /// Distinct trace ids among span events.
    pub cycles: usize,
}

/// Validates Chrome `trace_event` JSON structurally: the document must
/// parse, `traceEvents` must be an array of objects with the required
/// keys per phase, and every span must lie within its parent's interval
/// (`ts >= parent.ts && ts + dur <= parent.ts + parent.dur`, with 1 ns
/// tolerance for the microsecond rounding).
pub fn validate_chrome_trace(src: &str) -> Result<ChromeTraceStats, String> {
    let doc = parse_json(src).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;

    struct Span {
        ts: f64,
        dur: f64,
        parent: Option<u64>,
        trace_id: u64,
    }
    let mut spans: std::collections::BTreeMap<u64, Span> = std::collections::BTreeMap::new();
    let mut stats = ChromeTraceStats {
        events: events.len(),
        spans: 0,
        cycles: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ev.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event {i}: X event missing dur"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur"));
            }
            if ev.get("pid").and_then(JsonValue::as_u64).is_none()
                || ev.get("tid").and_then(JsonValue::as_u64).is_none()
            {
                return Err(format!("event {i}: X event missing pid/tid"));
            }
            let args = ev
                .get("args")
                .ok_or_else(|| format!("event {i}: missing args"))?;
            let span_id = args
                .get("span_id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("event {i}: missing args.span_id"))?;
            let trace_id = args
                .get("trace_id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("event {i}: missing args.trace_id"))?;
            let parent = args.get("parent").and_then(JsonValue::as_u64);
            spans.insert(
                span_id,
                Span {
                    ts,
                    dur,
                    parent,
                    trace_id,
                },
            );
            stats.spans += 1;
        }
    }
    // Nesting: each child interval must lie within its parent interval.
    const EPS_US: f64 = 0.002; // two nanoseconds of rounding slack
    for (id, s) in &spans {
        if let Some(pid) = s.parent {
            let p = spans
                .get(&pid)
                .ok_or_else(|| format!("span {id}: parent {pid} not in trace"))?;
            if p.trace_id != s.trace_id {
                return Err(format!("span {id}: parent {pid} belongs to another trace"));
            }
            if s.ts + EPS_US < p.ts || s.ts + s.dur > p.ts + p.dur + EPS_US {
                return Err(format!(
                    "span {id} [{:.3}, {:.3}] escapes parent {pid} [{:.3}, {:.3}]",
                    s.ts,
                    s.ts + s.dur,
                    p.ts,
                    p.ts + p.dur
                ));
            }
        }
    }
    let mut trace_ids: Vec<u64> = spans.values().map(|s| s.trace_id).collect();
    trace_ids.sort_unstable();
    trace_ids.dedup();
    stats.cycles = trace_ids.len();
    Ok(stats)
}

/// File paths produced by [`write_snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotPaths {
    /// The per-violation JSONL file.
    pub jsonl: PathBuf,
    /// The per-violation Chrome trace file.
    pub chrome: PathBuf,
    /// The per-violation OTLP/JSON file.
    pub otlp: PathBuf,
}

/// Persists a ring snapshot to `dir` as `flight-<tag>.jsonl`,
/// `flight-<tag>.trace.json`, and `flight-<tag>.otlp.json`, also
/// refreshing the stable aliases `last.jsonl` / `last.trace.json` /
/// `last.otlp.json` (what CI and quick tooling read). Creates `dir` if
/// needed.
pub fn write_snapshot(
    dir: &Path,
    tag: u64,
    cycles: &[CycleTrace],
) -> std::io::Result<SnapshotPaths> {
    std::fs::create_dir_all(dir)?;
    let jsonl = to_jsonl(cycles);
    let chrome = to_chrome_trace(cycles);
    let otlp = crate::otlp::to_otlp(cycles);
    let jsonl_path = dir.join(format!("flight-{tag}.jsonl"));
    let chrome_path = dir.join(format!("flight-{tag}.trace.json"));
    let otlp_path = dir.join(format!("flight-{tag}.otlp.json"));
    std::fs::write(&jsonl_path, &jsonl)?;
    std::fs::write(&chrome_path, &chrome)?;
    std::fs::write(&otlp_path, &otlp)?;
    std::fs::write(dir.join("last.jsonl"), &jsonl)?;
    std::fs::write(dir.join("last.trace.json"), &chrome)?;
    std::fs::write(dir.join("last.otlp.json"), &otlp)?;
    Ok(SnapshotPaths {
        jsonl: jsonl_path,
        chrome: chrome_path,
        otlp: otlp_path,
    })
}

/// Disk budget for tagged `flight-<seq>.*` snapshot files.
///
/// A violation storm writes one snapshot trio per violation onset;
/// without a cap that fills the disk exactly when the system is least
/// healthy. [`enforce_retention`] deletes the oldest tagged snapshots
/// (lowest sequence number first) until both limits hold. The `last.*`
/// aliases are never counted or deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Maximum tagged snapshots kept (each is a jsonl/chrome/otlp
    /// trio). 0 means unlimited.
    pub max_snapshots: usize,
    /// Maximum total bytes across all tagged snapshot files. 0 means
    /// unlimited.
    pub max_bytes: u64,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            max_snapshots: 32,
            max_bytes: 64 * 1024 * 1024,
        }
    }
}

impl RetentionPolicy {
    /// No limits — nothing is ever deleted.
    pub fn unlimited() -> Self {
        RetentionPolicy {
            max_snapshots: 0,
            max_bytes: 0,
        }
    }
}

/// The tag of `flight-<tag>.<ext>`, or `None` for anything else
/// (including the `last.*` aliases).
fn snapshot_tag(file_name: &str) -> Option<u64> {
    file_name
        .strip_prefix("flight-")?
        .split('.')
        .next()?
        .parse()
        .ok()
}

/// Deletes the oldest tagged `flight-<seq>.*` files in `dir` until the
/// policy's count and byte budgets both hold. The newest snapshot is
/// never deleted, even when it alone exceeds the byte budget — it is
/// the forensic record of the most recent violation. Returns how many
/// snapshots (tag groups) it deleted. Files that vanish concurrently are
/// skipped, not errors.
pub fn enforce_retention(dir: &Path, policy: RetentionPolicy) -> std::io::Result<usize> {
    if policy.max_snapshots == 0 && policy.max_bytes == 0 {
        return Ok(0);
    }
    // Group tagged files by sequence number, totalling their bytes.
    let mut groups: std::collections::BTreeMap<u64, (u64, Vec<PathBuf>)> =
        std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(tag) = snapshot_tag(&name.to_string_lossy()) else {
            continue;
        };
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        let g = groups.entry(tag).or_default();
        g.0 += bytes;
        g.1.push(entry.path());
    }
    let mut total_bytes: u64 = groups.values().map(|(b, _)| *b).sum();
    let mut deleted = 0;
    // BTreeMap iterates tags ascending = oldest first; spare the newest.
    let mut tags: Vec<u64> = groups.keys().copied().collect();
    tags.pop();
    for tag in tags {
        let over_count = policy.max_snapshots > 0 && groups.len() - deleted > policy.max_snapshots;
        let over_bytes = policy.max_bytes > 0 && total_bytes > policy.max_bytes;
        if !over_count && !over_bytes {
            break;
        }
        let (bytes, paths) = &groups[&tag];
        for p in paths {
            match std::fs::remove_file(p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        total_bytes = total_bytes.saturating_sub(*bytes);
        deleted += 1;
    }
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn traced_cycle(t: &Tracer) -> CycleTrace {
        let trace_id = t.begin_cycle();
        let start_ns = t.now_ns();
        {
            let _root = t.span("monitor", "cycle");
            {
                let mut poll = t.span("monitor.poll", "device");
                poll.set_attr("device", "sw-fore");
                let _decode = t.span("snmp.codec", "decode");
            }
            let _qos = t.span("monitor.qos", "evaluate");
        }
        let end_ns = t.now_ns();
        CycleTrace {
            seq: 0,
            trace_id,
            start_ns,
            end_ns,
            epoch_unix_ns: 1_722_000_000_000_000_000,
            spans: t.end_cycle(),
            samples: vec![SampleAnnotation {
                path: "feed1".into(),
                connection: "sw-fore <-> sw-aft (trunk)".into(),
                used_bps: 71_000_000,
                available_bps: 29_000_000,
                used_rank: 0.998,
                baseline_p50: 40_000_000,
                baseline_p99: 65_000_000,
            }],
            events: vec!["qos_violation feed1".into()],
        }
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let fr = FlightRecorder::new(3);
        for _ in 0..5 {
            fr.push(CycleTrace::default());
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.cycles_recorded(), 5);
        let seqs: Vec<u64> = fr.snapshot().iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_round_trips() {
        let t = Tracer::new();
        let mut cycle = traced_cycle(&t);
        cycle.seq = 7;
        let jsonl = to_jsonl(&[cycle.clone()]);
        let parsed = cycles_from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!(p.seq, 7);
        assert_eq!(p.trace_id, cycle.trace_id);
        assert_eq!(p.spans.len(), cycle.spans.len());
        let decode = p.spans.iter().find(|s| s.name == "decode").unwrap();
        let poll = p.spans.iter().find(|s| s.name == "device").unwrap();
        assert_eq!(decode.parent, Some(poll.span_id));
        assert_eq!(
            poll.attrs,
            vec![("device".to_string(), FieldValue::Str("sw-fore".into()))]
        );
        assert_eq!(p.samples, cycle.samples);
        assert_eq!(p.events, cycle.events);
    }

    #[test]
    fn chrome_trace_validates_and_nests() {
        let t = Tracer::new();
        let cycles = vec![traced_cycle(&t), traced_cycle(&t)];
        let chrome = to_chrome_trace(&cycles);
        let stats = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(stats.spans, 8);
        assert_eq!(stats.cycles, 2);
        // spans + 2 instants + 2 counters
        assert_eq!(stats.events, 12);
        // The parsed-JSONL export path produces the same valid shape.
        let parsed = cycles_from_jsonl(&to_jsonl(&cycles)).unwrap();
        let stats2 = validate_chrome_trace(&parsed_to_chrome_trace(&parsed)).unwrap();
        assert_eq!(stats2.spans, stats.spans);
    }

    #[test]
    fn validator_rejects_escaping_child() {
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"X","ts":0.0,"dur":10.0,"pid":1,"tid":1,"args":{"trace_id":1,"span_id":1,"parent":null,"attrs":{}}},
            {"name":"b","cat":"t","ph":"X","ts":5.0,"dur":10.0,"pid":1,"tid":1,"args":{"trace_id":1,"span_id":2,"parent":1,"attrs":{}}}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let no_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":0.0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(no_dur).is_err());
    }

    #[test]
    fn snapshot_files_written_and_valid() {
        let t = Tracer::new();
        let dir = std::env::temp_dir().join(format!("netqos-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_snapshot(&dir, 42, &[traced_cycle(&t)]).unwrap();
        let chrome = std::fs::read_to_string(&paths.chrome).unwrap();
        assert!(validate_chrome_trace(&chrome).is_ok());
        let jsonl = std::fs::read_to_string(&paths.jsonl).unwrap();
        assert_eq!(cycles_from_jsonl(&jsonl).unwrap().len(), 1);
        let otlp = std::fs::read_to_string(&paths.otlp).unwrap();
        assert!(crate::otlp::validate_otlp(&otlp).is_ok());
        assert!(dir.join("last.trace.json").exists());
        assert!(dir.join("last.jsonl").exists());
        assert!(dir.join("last.otlp.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_survives_the_jsonl_round_trip_exactly() {
        let t = Tracer::new();
        let mut cycle = traced_cycle(&t);
        // A realistic epoch: > 2^53, would corrupt through an f64.
        cycle.epoch_unix_ns = 1_722_000_000_123_456_789;
        let parsed = cycles_from_jsonl(&to_jsonl(&[cycle.clone()])).unwrap();
        assert_eq!(parsed[0].epoch_unix_ns, cycle.epoch_unix_ns);
    }

    #[test]
    fn retention_deletes_oldest_snapshots_by_count_and_bytes() {
        let t = Tracer::new();
        let dir = std::env::temp_dir().join(format!("netqos-retention-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for tag in 0..6u64 {
            write_snapshot(&dir, tag, &[traced_cycle(&t)]).unwrap();
        }
        // Count cap: keep the 3 newest snapshot trios.
        let deleted = enforce_retention(
            &dir,
            RetentionPolicy {
                max_snapshots: 3,
                max_bytes: 0,
            },
        )
        .unwrap();
        assert_eq!(deleted, 3);
        for tag in 0..3u64 {
            assert!(!dir.join(format!("flight-{tag}.jsonl")).exists(), "{tag}");
        }
        for tag in 3..6u64 {
            assert!(dir.join(format!("flight-{tag}.jsonl")).exists(), "{tag}");
            assert!(dir.join(format!("flight-{tag}.otlp.json")).exists());
        }
        // The stable aliases are never touched.
        assert!(dir.join("last.jsonl").exists());

        // Byte cap: tiny budget forces everything but the newest out.
        let one = std::fs::metadata(dir.join("flight-5.jsonl")).unwrap().len();
        let deleted = enforce_retention(
            &dir,
            RetentionPolicy {
                max_snapshots: 0,
                max_bytes: one * 4,
            },
        )
        .unwrap();
        assert!(deleted > 0, "byte budget should evict something");
        assert!(dir.join("flight-5.jsonl").exists(), "newest must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_unlimited_is_a_no_op() {
        let t = Tracer::new();
        let dir = std::env::temp_dir().join(format!("netqos-retention-nop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_snapshot(&dir, 1, &[traced_cycle(&t)]).unwrap();
        assert_eq!(
            enforce_retention(&dir, RetentionPolicy::unlimited()).unwrap(),
            0
        );
        assert!(dir.join("flight-1.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
