//! OTLP/JSON export for flight-recorder cycle traces.
//!
//! [`to_otlp`] maps [`SpanRecord`] trees onto the OpenTelemetry
//! OTLP/JSON wire shape (`resourceSpans` → `scopeSpans` → `spans`) so a
//! flight ring loads into any OTLP-speaking backend (Jaeger, Tempo, an
//! OpenTelemetry collector). It is the one renderer: the push worker
//! sends it over the live ring, and `netqos flight dump --otlp` prints
//! it over the cycles a JSONL snapshot reads back as, byte for byte the
//! same. Hand-rolled, no new dependencies — the format is plain JSON
//! with a few conventions from the protobuf mapping:
//!
//! * `traceId` is 32 lowercase hex chars (we left-pad the monitor's
//!   64-bit cycle trace id), `spanId`/`parentSpanId` are 16;
//! * 64-bit integers — timestamps and `intValue` attributes — are JSON
//!   *strings*, because JSON numbers lose precision past 2^53;
//! * timestamps are nanoseconds since the Unix epoch: each cycle
//!   carries `epoch_unix_ns` (the wall-clock instant of the tracer's
//!   origin), added to the spans' monotonic offsets.
//!
//! [`validate_otlp`] re-parses an export and checks the structural
//! invariants (required fields, hex id shapes, end ≥ start, every
//! `parentSpanId` resolving to a span of the same trace that contains
//! the child's interval). It backs the golden-file test, `netqos flight
//! check`, and the CI smoke job.

use crate::events::escape_json_into;
use crate::flight::CycleTrace;
use crate::json::{parse_json, JsonValue};
use crate::trace::SpanRecord;
use crate::FieldValue;
use std::fmt::Write as _;

/// The scope name stamped on every export.
pub const OTLP_SCOPE: &str = "netqos-telemetry";
/// The `service.name` resource attribute.
pub const OTLP_SERVICE: &str = "netqos-monitor";

fn write_attr_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{{\"intValue\":\"{n}\"}}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{{\"intValue\":\"{n}\"}}");
        }
        // Floats are canonicalized the same way the JSONL reader
        // classifies bare JSON numbers (whole → int, else double), so a
        // live export and its JSONL round trip are byte-identical.
        FieldValue::F64(f) if f.is_finite() && f.fract() == 0.0 && *f >= 0.0 => {
            let _ = write!(out, "{{\"intValue\":\"{}\"}}", f.round() as u64);
        }
        FieldValue::F64(f) if f.is_finite() && f.fract() == 0.0 => {
            let _ = write!(out, "{{\"intValue\":\"{}\"}}", f.round() as i64);
        }
        FieldValue::F64(f) if f.is_finite() => {
            let _ = write!(out, "{{\"doubleValue\":{f}}}");
        }
        // JSONL serializes non-finite floats as `null`, which reads back
        // as an empty string; match that here.
        FieldValue::F64(_) => out.push_str("{\"stringValue\":\"\"}"),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{{\"boolValue\":{b}}}");
        }
        FieldValue::Str(s) => {
            out.push_str("{\"stringValue\":\"");
            escape_json_into(out, s);
            out.push_str("\"}");
        }
    }
}

fn write_span(out: &mut String, epoch_unix_ns: u64, s: &SpanRecord) {
    let start_unix_ns = epoch_unix_ns.saturating_add(s.start_ns);
    let _ = write!(
        out,
        "{{\"traceId\":\"{:032x}\",\"spanId\":\"{:016x}\",\"parentSpanId\":\"",
        s.trace_id, s.span_id
    );
    if let Some(p) = s.parent {
        let _ = write!(out, "{p:016x}");
    }
    out.push_str("\",\"name\":\"");
    escape_json_into(out, &s.target);
    out.push('.');
    escape_json_into(out, &s.name);
    // SPAN_KIND_INTERNAL = 1 in the OTLP enum.
    let _ = write!(
        out,
        "\",\"kind\":1,\"startTimeUnixNano\":\"{}\",\"endTimeUnixNano\":\"{}\",\"attributes\":[",
        start_unix_ns,
        start_unix_ns.saturating_add(s.dur_ns)
    );
    // Attributes are sorted by key so the export is deterministic and a
    // JSONL round trip (which stores attrs in a BTreeMap) is byte-equal.
    let mut attrs: Vec<&(String, FieldValue)> = s.attrs.iter().collect();
    attrs.sort_by(|a, b| a.0.cmp(&b.0));
    for (i, (k, v)) in attrs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":\"");
        escape_json_into(out, k);
        out.push_str("\",\"value\":");
        write_attr_value(out, v);
        out.push('}');
    }
    out.push_str("]}");
}

/// Renders cycles as OTLP/JSON: the body the push worker sends, and
/// what `netqos flight dump --otlp` prints for a snapshot. Each cycle's
/// `epoch_unix_ns` shifts its spans' monotonic offsets onto the Unix
/// timeline (an epoch of 0 leaves them relative to the monitor's start,
/// still valid OTLP).
pub fn to_otlp(cycles: &[CycleTrace]) -> String {
    let mut out = format!(
        "{{\"resourceSpans\":[{{\"resource\":{{\"attributes\":[\
         {{\"key\":\"service.name\",\"value\":{{\"stringValue\":\"{OTLP_SERVICE}\"}}}}\
         ]}},\"scopeSpans\":[{{\"scope\":{{\"name\":\"{OTLP_SCOPE}\"}},\"spans\":["
    );
    let mut sep = "";
    for c in cycles {
        for s in &c.spans {
            out.push_str(sep);
            sep = ",";
            write_span(&mut out, c.epoch_unix_ns, s);
        }
    }
    out.push_str("]}]}]}");
    out
}

/// Summary returned by [`validate_otlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtlpStats {
    /// Total spans across all scopes.
    pub spans: usize,
    /// Distinct trace ids.
    pub traces: usize,
    /// Spans with a parent.
    pub child_spans: usize,
}

fn hex_id(v: &JsonValue, key: &str, len: usize, i: usize) -> Result<String, String> {
    let s = v
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("span {i}: missing {key}"))?;
    if s.len() != len || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("span {i}: {key} {s:?} is not {len} hex chars"));
    }
    if s.bytes().all(|b| b == b'0') {
        return Err(format!("span {i}: {key} is all zeroes"));
    }
    Ok(s.to_string())
}

fn unix_nano(v: &JsonValue, key: &str, i: usize) -> Result<u64, String> {
    let s = v
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("span {i}: missing {key} (must be a string of nanoseconds)"))?;
    s.parse::<u64>()
        .map_err(|_| format!("span {i}: {key} {s:?} is not a u64 nanosecond count"))
}

/// Validates OTLP/JSON structurally: the `resourceSpans` →
/// `scopeSpans` → `spans` nesting must be present, every span needs
/// well-formed hex ids, a name, and string-encoded nanosecond
/// timestamps with `end >= start`, and every non-empty `parentSpanId`
/// must resolve to a span of the same trace whose interval contains the
/// child's.
pub fn validate_otlp(src: &str) -> Result<OtlpStats, String> {
    let doc = parse_json(src).map_err(|e| e.to_string())?;
    let resource_spans = doc
        .get("resourceSpans")
        .and_then(JsonValue::as_array)
        .ok_or("missing resourceSpans array")?;

    struct Span {
        trace: String,
        parent: Option<String>,
        start: u64,
        end: u64,
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut by_id: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for rs in resource_spans {
        let scope_spans = rs
            .get("scopeSpans")
            .and_then(JsonValue::as_array)
            .ok_or("resourceSpans entry missing scopeSpans")?;
        for ss in scope_spans {
            let Some(list) = ss.get("spans").and_then(JsonValue::as_array) else {
                continue;
            };
            for (i, sp) in list.iter().enumerate() {
                let trace = hex_id(sp, "traceId", 32, i)?;
                let span_id = hex_id(sp, "spanId", 16, i)?;
                let name = sp
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("span {i}: missing name"))?;
                if name.is_empty() {
                    return Err(format!("span {i}: empty name"));
                }
                let start = unix_nano(sp, "startTimeUnixNano", i)?;
                let end = unix_nano(sp, "endTimeUnixNano", i)?;
                if end < start {
                    return Err(format!("span {i}: endTimeUnixNano {end} < start {start}"));
                }
                let parent = match sp.get("parentSpanId").and_then(JsonValue::as_str) {
                    None => return Err(format!("span {i}: missing parentSpanId")),
                    Some("") => None,
                    Some(p) => {
                        if p.len() != 16 || !p.bytes().all(|b| b.is_ascii_hexdigit()) {
                            return Err(format!("span {i}: parentSpanId {p:?} malformed"));
                        }
                        Some(p.to_string())
                    }
                };
                if let Some(attrs) = sp.get("attributes").and_then(JsonValue::as_array) {
                    for a in attrs {
                        if a.get("key").and_then(JsonValue::as_str).is_none()
                            || a.get("value").is_none()
                        {
                            return Err(format!("span {i}: malformed attribute"));
                        }
                    }
                }
                if by_id.insert(span_id.clone(), spans.len()).is_some() {
                    return Err(format!("duplicate spanId {span_id}"));
                }
                spans.push(Span {
                    trace,
                    parent,
                    start,
                    end,
                });
            }
        }
    }
    let mut child_spans = 0usize;
    for (id, idx) in &by_id {
        let s = &spans[*idx];
        let Some(pid) = &s.parent else { continue };
        child_spans += 1;
        let p_idx = by_id
            .get(pid)
            .ok_or_else(|| format!("span {id}: parent {pid} not in export"))?;
        let p = &spans[*p_idx];
        if p.trace != s.trace {
            return Err(format!("span {id}: parent {pid} belongs to another trace"));
        }
        // Timestamps are exact nanoseconds (no microsecond rounding as
        // in the Chrome export), so containment is checked exactly.
        if s.start < p.start || s.end > p.end {
            return Err(format!(
                "span {id} [{}, {}] escapes parent {pid} [{}, {}]",
                s.start, s.end, p.start, p.end
            ));
        }
    }
    let mut traces: Vec<&str> = spans.iter().map(|s| s.trace.as_str()).collect();
    traces.sort_unstable();
    traces.dedup();
    Ok(OtlpStats {
        spans: spans.len(),
        traces: traces.len(),
        child_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn traced_cycle(t: &Tracer, epoch: u64) -> CycleTrace {
        let trace_id = t.begin_cycle();
        let start_ns = t.now_ns();
        {
            let _root = t.span("monitor", "cycle");
            {
                let mut poll = t.span("monitor.poll", "device");
                poll.set_attr("device", "sw-fore");
                poll.set_attr("bytes", 1234u64);
                poll.set_attr("rank", 0.5f64);
                poll.set_attr("ok", true);
            }
        }
        CycleTrace {
            trace_id,
            start_ns,
            end_ns: t.now_ns(),
            epoch_unix_ns: epoch,
            spans: t.end_cycle(),
            ..CycleTrace::default()
        }
    }

    #[test]
    fn export_validates_and_counts() {
        let t = Tracer::new();
        let epoch = 1_700_000_000_000_000_000u64;
        let cycles = vec![traced_cycle(&t, epoch), traced_cycle(&t, epoch)];
        let otlp = to_otlp(&cycles);
        let stats = validate_otlp(&otlp).unwrap();
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.traces, 2);
        assert_eq!(stats.child_spans, 2);
        // Timestamps landed on the Unix timeline.
        assert!(otlp.contains("\"startTimeUnixNano\":\"17"));
    }

    #[test]
    fn parent_child_ids_preserved() {
        let t = Tracer::new();
        let cycle = traced_cycle(&t, 0);
        let root = cycle.spans.iter().find(|s| s.name == "cycle").unwrap();
        let child = cycle.spans.iter().find(|s| s.name == "device").unwrap();
        let otlp = to_otlp(std::slice::from_ref(&cycle));
        assert!(otlp.contains(&format!("\"spanId\":\"{:016x}\"", root.span_id)));
        assert!(otlp.contains(&format!("\"parentSpanId\":\"{:016x}\"", root.span_id)));
        assert!(otlp.contains(&format!("\"spanId\":\"{:016x}\"", child.span_id)));
        // Attribute value typing follows the OTLP mapping.
        assert!(otlp.contains("{\"intValue\":\"1234\"}"));
        assert!(otlp.contains("{\"doubleValue\":0.5}"));
        assert!(otlp.contains("{\"boolValue\":true}"));
        assert!(otlp.contains("{\"stringValue\":\"sw-fore\"}"));
    }

    #[test]
    fn validator_rejects_structural_breakage() {
        assert!(validate_otlp("not json").is_err());
        assert!(validate_otlp("{}").is_err());
        // Orphaned parent.
        let orphan = r#"{"resourceSpans":[{"resource":{},"scopeSpans":[{"spans":[
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000002",
             "parentSpanId":"00000000000000ff","name":"a","kind":1,
             "startTimeUnixNano":"10","endTimeUnixNano":"20","attributes":[]}
        ]}]}]}"#;
        assert!(validate_otlp(orphan).unwrap_err().contains("not in export"));
        // Child escaping its parent's interval.
        let escape = r#"{"resourceSpans":[{"resource":{},"scopeSpans":[{"spans":[
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000001",
             "parentSpanId":"","name":"p","kind":1,
             "startTimeUnixNano":"10","endTimeUnixNano":"20","attributes":[]},
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000002",
             "parentSpanId":"0000000000000001","name":"c","kind":1,
             "startTimeUnixNano":"15","endTimeUnixNano":"25","attributes":[]}
        ]}]}]}"#;
        assert!(validate_otlp(escape)
            .unwrap_err()
            .contains("escapes parent"));
        // End before start.
        let backwards = r#"{"resourceSpans":[{"resource":{},"scopeSpans":[{"spans":[
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000001",
             "parentSpanId":"","name":"p","kind":1,
             "startTimeUnixNano":"20","endTimeUnixNano":"10","attributes":[]}
        ]}]}]}"#;
        assert!(validate_otlp(backwards).is_err());
    }

    #[test]
    fn jsonl_round_trip_matches_live_export() {
        let t = Tracer::new();
        let cycles = vec![traced_cycle(&t, 42_000)];
        let live = to_otlp(&cycles);
        let parsed = crate::flight::cycles_from_jsonl(&crate::flight::to_jsonl(&cycles)).unwrap();
        assert_eq!(to_otlp(&parsed), live);
    }
}
