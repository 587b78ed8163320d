//! QoS flight recorder: a bounded ring of complete cycle traces.
//!
//! Every poll cycle the monitoring service assembles a [`CycleTrace`] —
//! the cycle's span tree from the [`Tracer`](crate::Tracer) plus
//! per-connection bandwidth samples annotated against their
//! [`QuantileBaseline`](crate::QuantileBaseline) — and pushes it into a
//! [`FlightRecorder`]. The ring keeps the last N cycles in memory; when
//! QoS evaluation raises a violation the service calls
//! [`write_snapshot`], which persists the whole ring as one JSONL file
//! (one cycle per line, lossless). Violations therefore always ship with
//! their causal history: what was polled, how long each stage took, and
//! how the traffic compared to baseline in the cycles *before* the
//! threshold tripped.
//!
//! Each format has one renderer over `&[CycleTrace]`, whether the cycles
//! come from the live ring or from [`cycles_from_jsonl`]: [`to_jsonl`],
//! [`to_chrome_trace`] (Chrome `trace_event` JSON, loads in
//! `chrome://tracing` or Perfetto) and [`to_otlp`](crate::to_otlp).
//! `netqos flight dump` renders the latter two from a snapshot file.
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
use std::borrow::Cow;
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
/// Live from the tracer or read back by [`cycles_from_jsonl`], it is
/// what every rendering takes.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// `Some(p)` as the number `p`, `None` as `null`.
fn write_parent(out: &mut String, parent: Option<u64>) {
    match parent {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
}

/// Renders cycles as JSONL: one self-contained JSON object per line.
/// The flight snapshot format: [`cycles_from_jsonl`] reads it back as
/// the cycles it was written from (sample ranks to four decimals), so a
/// snapshot's Chrome and OTLP renderings are those of the live cycles.
pub fn to_jsonl(cycles: &[CycleTrace]) -> String {
    let mut out = String::new();
    for c in cycles {
        // Nanosecond counts are serialized as strings: epoch nanoseconds
        // exceed 2^53, tracer offsets do after ~104 days of uptime, and
        // the JSONL reader parses numbers through f64.
        let _ = write!(
            out,
            "{{\"seq\":{},\"trace_id\":{},\"epoch_unix_ns\":\"{}\",\"start_ns\":\"{}\",\"end_ns\":\"{}\",\"spans\":[",
            c.seq, c.trace_id, c.epoch_unix_ns, c.start_ns, c.end_ns
        );
        for (i, s) in c.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"span_id\":{},\"parent\":", s.span_id);
            write_parent(&mut out, s.parent);
            out.push_str(",\"target\":\"");
            escape_json_into(&mut out, &s.target);
            out.push_str("\",\"name\":\"");
            escape_json_into(&mut out, &s.name);
            let _ = write!(
                out,
                "\",\"start_ns\":\"{}\",\"dur_ns\":\"{}\",\"attrs\":",
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

/// Renders cycles in the Chrome `trace_event` JSON format. Each cycle
/// occupies its own track (tid = trace id); spans are complete (`ph:X`)
/// events, cycle events become instants, and bandwidth samples become
/// counter tracks. Loads in `chrome://tracing` and Perfetto. `ts` and
/// `dur` are microseconds; three decimals preserve the nanosecond.
pub fn to_chrome_trace(cycles: &[CycleTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut sep = "";
    for c in cycles {
        let (ts_us, ts_frac) = (c.end_ns / 1000, c.end_ns % 1000);
        for s in &c.spans {
            out.push_str(sep);
            sep = ",";
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, &s.target);
            out.push('.');
            escape_json_into(&mut out, &s.name);
            out.push_str("\",\"cat\":\"");
            escape_json_into(&mut out, &s.target);
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent\":",
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                c.trace_id,
                c.trace_id,
                s.span_id
            );
            write_parent(&mut out, s.parent);
            out.push_str(",\"attrs\":");
            write_attrs_json(&mut out, &s.attrs);
            out.push_str("}}");
        }
        for e in &c.events {
            out.push_str(sep);
            sep = ",";
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, e);
            let _ = write!(
                out,
                "\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us}.{ts_frac:03},\"pid\":1,\"tid\":{}}}",
                c.trace_id
            );
        }
        for s in &c.samples {
            out.push_str(sep);
            sep = ",";
            out.push_str("{\"name\":\"bps ");
            escape_json_into(&mut out, &s.connection);
            let _ = write!(
                out,
                "\",\"cat\":\"flight\",\"ph\":\"C\",\"ts\":{ts_us}.{ts_frac:03},\"pid\":1,\"args\":{{\"used_bps\":{},\"available_bps\":{}}}}}",
                s.used_bps, s.available_bps
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
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

/// `v[key]` as a u64 written as a decimal string (exact) or as a bare
/// number (snapshots from older builds; exact below 2^53); 0 when absent
/// or malformed.
fn u64_of(v: &JsonValue, key: &str) -> u64 {
    match v.get(key) {
        Some(JsonValue::String(s)) => s.parse().unwrap_or(0),
        Some(n) => n.as_u64().unwrap_or(0),
        None => 0,
    }
}

/// `v[key]` as an owned string; empty when absent or not a string.
fn string_of(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string()
}

/// `v[key]`'s elements; none when absent or not an array.
fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::as_array).unwrap_or_default()
}

/// Parses a JSONL snapshot (as produced by [`to_jsonl`]) back into
/// cycles, each span taking its `trace_id` from its cycle. Empty lines
/// are skipped; a malformed line is an error.
pub fn cycles_from_jsonl(src: &str) -> Result<Vec<CycleTrace>, String> {
    let mut cycles = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let trace_id = u64_of(&v, "trace_id");
        let spans = items(&v, "spans").iter().map(|s| SpanRecord {
            trace_id,
            span_id: u64_of(s, "span_id"),
            parent: s.get("parent").and_then(JsonValue::as_u64),
            target: Cow::Owned(string_of(s, "target")),
            name: Cow::Owned(string_of(s, "name")),
            start_ns: u64_of(s, "start_ns"),
            dur_ns: u64_of(s, "dur_ns"),
            attrs: attrs_of(s.get("attrs")),
        });
        let samples = items(&v, "samples").iter().map(|s| SampleAnnotation {
            path: string_of(s, "path"),
            connection: string_of(s, "connection"),
            used_bps: u64_of(s, "used_bps"),
            available_bps: u64_of(s, "available_bps"),
            used_rank: s
                .get("used_rank")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            baseline_p50: u64_of(s, "baseline_p50"),
            baseline_p99: u64_of(s, "baseline_p99"),
        });
        let events = items(&v, "events").iter().filter_map(JsonValue::as_str);
        cycles.push(CycleTrace {
            seq: u64_of(&v, "seq"),
            trace_id,
            epoch_unix_ns: u64_of(&v, "epoch_unix_ns"),
            start_ns: u64_of(&v, "start_ns"),
            end_ns: u64_of(&v, "end_ns"),
            spans: spans.collect(),
            samples: samples.collect(),
            events: events.map(str::to_string).collect(),
        });
    }
    Ok(cycles)
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

/// Persists a ring snapshot to `dir` as `flight-<tag>.jsonl`, also
/// refreshing the stable alias `last.jsonl` (what CI and quick tooling
/// read), and returns the tagged file's path. Creates `dir` if needed.
/// `netqos flight dump` renders the Chrome and OTLP forms from it.
pub fn write_snapshot(dir: &Path, tag: u64, cycles: &[CycleTrace]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let jsonl = to_jsonl(cycles);
    let path = dir.join(format!("flight-{tag}.jsonl"));
    std::fs::write(&path, &jsonl)?;
    std::fs::write(dir.join("last.jsonl"), &jsonl)?;
    Ok(path)
}

/// Disk budget for tagged `flight-<seq>.*` snapshot files.
///
/// A violation storm writes one snapshot per violation onset;
/// without a cap that fills the disk exactly when the system is least
/// healthy. [`enforce_retention`] deletes the oldest tagged snapshots
/// (lowest sequence number first) until both limits hold. The `last.*`
/// aliases are never counted or deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Maximum tagged snapshots kept (each one `flight-<seq>.jsonl`, or
    /// the group of `flight-<seq>.*` files an older build wrote). 0 means
    /// unlimited.
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
        let seqs: Vec<u64> = fr.snapshot().iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_round_trips() {
        let t = Tracer::new();
        let mut cycle = traced_cycle(&t);
        cycle.seq = 7;
        let parsed = cycles_from_jsonl(&to_jsonl(&[cycle.clone()])).unwrap();
        assert_eq!(parsed, vec![cycle]);
        let decode = parsed[0].spans.iter().find(|s| s.name == "decode").unwrap();
        let poll = parsed[0].spans.iter().find(|s| s.name == "device").unwrap();
        assert_eq!(decode.parent, Some(poll.span_id));
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
        // Cycles read back from the JSONL render to the same document.
        let parsed = cycles_from_jsonl(&to_jsonl(&cycles)).unwrap();
        assert_eq!(to_chrome_trace(&parsed), chrome);
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

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_snapshot_is_one_jsonl_file_and_its_alias() {
        let t = Tracer::new();
        let dir = std::env::temp_dir().join(format!("netqos-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cycles = [traced_cycle(&t)];
        let path = write_snapshot(&dir, 42, &cycles).unwrap();
        assert_eq!(path, dir.join("flight-42.jsonl"));
        assert_eq!(file_names(&dir), ["flight-42.jsonl", "last.jsonl"]);
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("last.jsonl")).unwrap(),
            jsonl
        );
        assert_eq!(cycles_from_jsonl(&jsonl).unwrap(), cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Past 2^53 ns (~104 days) of tracer uptime an f64 no longer holds
    /// every offset, and a realistic epoch is past it already: a root at
    /// 2^53 + 1 with a 1-ns child reads back exactly, and renders as it
    /// did live.
    #[test]
    fn offsets_past_2_pow_53_survive_the_jsonl_round_trip_exactly() {
        let root = (1u64 << 53) + 1;
        let span = |span_id, parent, name, start_ns, dur_ns| SpanRecord {
            trace_id: 9,
            span_id,
            parent,
            target: "monitor".into(),
            name: Cow::Borrowed(name),
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        };
        let cycle = CycleTrace {
            seq: 3,
            trace_id: 9,
            epoch_unix_ns: 1_722_000_000_123_456_789,
            start_ns: root,
            end_ns: root + 2,
            spans: vec![
                span(2, Some(1), "poll", root + 1, 1),
                span(1, None, "cycle", root, 2),
            ],
            ..CycleTrace::default()
        };
        let cycles = [cycle];
        let parsed = cycles_from_jsonl(&to_jsonl(&cycles)).unwrap();
        assert_eq!(parsed, cycles);
        assert_eq!(crate::to_otlp(&parsed), crate::to_otlp(&cycles));
        crate::validate_otlp(&crate::to_otlp(&parsed)).unwrap();
        validate_chrome_trace(&to_chrome_trace(&parsed)).unwrap();
    }

    /// A snapshot written before nanosecond counts became strings still
    /// reads, its numbers taken as they are.
    #[test]
    fn snapshots_with_bare_number_offsets_still_read() {
        let old = r#"{"seq":4,"trace_id":5,"epoch_unix_ns":"1722000000123456789","start_ns":100,"end_ns":900,"spans":[{"span_id":6,"parent":null,"target":"monitor","name":"cycle","start_ns":100,"dur_ns":800,"attrs":{}}],"samples":[],"events":[]}"#;
        let parsed = cycles_from_jsonl(old).unwrap();
        assert_eq!(
            (
                parsed[0].start_ns,
                parsed[0].end_ns,
                parsed[0].epoch_unix_ns
            ),
            (100, 900, 1_722_000_000_123_456_789)
        );
        let s = &parsed[0].spans[0];
        assert_eq!((s.trace_id, s.start_ns, s.dur_ns), (5, 100, 800));
    }

    #[test]
    fn retention_deletes_oldest_snapshots_by_count_and_bytes() {
        let t = Tracer::new();
        let dir = std::env::temp_dir().join(format!("netqos-retention-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Tags are numbers, not padded text: 10 is newer than 9.
        for tag in [0u64, 2, 9, 10, 11, 100] {
            write_snapshot(&dir, tag, &[traced_cycle(&t)]).unwrap();
        }
        // Snapshot 0 as an older build left it: three files, and `last.*`
        // aliases of all three formats.
        for name in [
            "flight-0.trace.json",
            "flight-0.otlp.json",
            "last.trace.json",
            "last.otlp.json",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        // Count cap: keep the 3 newest snapshots.
        let deleted = enforce_retention(
            &dir,
            RetentionPolicy {
                max_snapshots: 3,
                max_bytes: 0,
            },
        )
        .unwrap();
        assert_eq!(deleted, 3);
        // The old snapshot went as one group; no alias was touched.
        assert_eq!(
            file_names(&dir),
            [
                "flight-10.jsonl",
                "flight-100.jsonl",
                "flight-11.jsonl",
                "last.jsonl",
                "last.otlp.json",
                "last.trace.json",
            ]
        );

        // Byte cap: tiny budget forces everything but the newest out.
        let one = std::fs::metadata(dir.join("flight-100.jsonl"))
            .unwrap()
            .len();
        let deleted = enforce_retention(
            &dir,
            RetentionPolicy {
                max_snapshots: 0,
                max_bytes: one * 5 / 2,
            },
        )
        .unwrap();
        assert_eq!(deleted, 1, "byte budget should evict the oldest");
        assert!(dir.join("flight-100.jsonl").exists(), "newest must survive");
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
