//! Structured JSONL event sink with one minimum level.
//!
//! Each emitted event becomes one JSON object on its own line:
//!
//! ```json
//! {"t_s":1.042,"level":"info","target":"snmp.client","kind":"timeout","fields":{"agent":"10.0.0.7","attempt":2}}
//! ```
//!
//! Targets are dotted paths (`monitor.tick`, `snmp.client`); an event
//! below the sink's level is dropped whatever its target.

use parking_lot::{Mutex, RwLock};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained tracing (per-request).
    Debug,
    /// Normal operational events.
    Info,
    /// Degraded but functioning (timeouts, drops).
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// Lowercase name used in the JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "debug" => Ok(Level::Debug),
            "info" => Ok(Level::Info),
            "warn" => Ok(Level::Warn),
            "error" => Ok(Level::Error),
            other => Err(format!("unknown level {other:?}")),
        }
    }
}

/// A field value; renders as a bare JSON number/bool or a quoted string.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// Appends this value as JSON (non-finite floats become `null`).
    pub fn write_json_into(&self, s: &mut String) {
        match self {
            FieldValue::U64(n) => {
                let _ = write!(s, "{n}");
            }
            FieldValue::I64(n) => {
                let _ = write!(s, "{n}");
            }
            FieldValue::F64(f) if f.is_finite() => {
                let _ = write!(s, "{f}");
            }
            FieldValue::F64(_) => s.push_str("null"),
            FieldValue::Bool(b) => {
                let _ = write!(s, "{b}");
            }
            FieldValue::Str(t) => {
                s.push('"');
                escape_json_into(s, t);
                s.push('"');
            }
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event, as written to the sink.
#[derive(Debug, Clone)]
pub struct Event {
    /// Seconds since the sink was created.
    pub t_s: f64,
    /// Severity.
    pub level: Level,
    /// Dotted origin path, e.g. `monitor.tick`.
    pub target: String,
    /// Event kind within the target, e.g. `qos_violation`.
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

/// Appends `s` as a quoted JSON string literal — quotes, backslashes and
/// control characters escaped — growing `out` and allocating nothing else.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    escape_json_into(out, s);
    out.push('"');
}

pub(crate) fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t_s\":{:.6},\"level\":\"{}\",\"target\":\"",
            self.t_s,
            self.level.as_str()
        );
        escape_json_into(&mut s, &self.target);
        s.push_str("\",\"kind\":\"");
        escape_json_into(&mut s, &self.kind);
        s.push_str("\",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_json_into(&mut s, k);
            s.push_str("\":");
            v.write_json_into(&mut s);
        }
        s.push_str("}}");
        s
    }
}

/// Where emitted events go.
enum SinkOut {
    /// Discard (still counts emitted events).
    Null,
    /// Any buffered writer.
    Writer(BufWriter<Box<dyn Write + Send>>),
}

/// A JSONL event sink with one minimum level.
pub struct EventSink {
    start: Instant,
    out: Mutex<SinkOut>,
    default_level: RwLock<Level>,
    emitted: std::sync::atomic::AtomicU64,
}

impl Default for EventSink {
    fn default() -> Self {
        Self::null()
    }
}

impl EventSink {
    fn with_out(out: SinkOut) -> Self {
        EventSink {
            start: Instant::now(),
            out: Mutex::new(out),
            default_level: RwLock::new(Level::Info),
            emitted: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// A sink that discards events (the default for tests/benches).
    pub fn null() -> Self {
        Self::with_out(SinkOut::Null)
    }

    /// A sink writing JSONL to an arbitrary writer.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        Self::with_out(SinkOut::Writer(BufWriter::new(w)))
    }

    /// A sink appending JSONL to a file (created if absent).
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let f = File::create(path)?;
        Ok(Self::to_writer(Box::new(f)))
    }

    /// Sets the minimum level an event needs to be written.
    pub fn set_default_level(&self, level: Level) {
        *self.default_level.write() = level;
    }

    /// Emits one event unless it is below the sink's level. `fields`
    /// builds the payload and is called only when the event is written,
    /// so an event the sink filters or discards allocates nothing.
    pub fn emit(
        &self,
        level: Level,
        target: &str,
        kind: &str,
        fields: impl FnOnce() -> Vec<(String, FieldValue)>,
    ) {
        use std::sync::atomic::Ordering;
        if level < *self.default_level.read() {
            return;
        }
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let mut out = self.out.lock();
        if let SinkOut::Writer(w) = &mut *out {
            let ev = Event {
                t_s: self.start.elapsed().as_secs_f64(),
                level,
                target: target.to_string(),
                kind: kind.to_string(),
                fields: fields(),
            };
            let _ = writeln!(w, "{}", ev.to_json());
        }
    }

    /// Number of events written (post-filter).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        if let SinkOut::Writer(w) = &mut *self.out.lock() {
            let _ = w.flush();
        }
    }
}

impl Drop for EventSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Builds a `fields` vector from `key => value` pairs; values can be
/// anything `Into<FieldValue>`. [`EventSink::emit`] takes it behind a
/// closure: `|| fields!["path" => name]`.
#[macro_export]
macro_rules! fields {
    ($($k:literal => $v:expr),* $(,)?) => {
        vec![$(($k.to_string(), $crate::FieldValue::from($v))),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer handing written bytes back to the test.
    #[derive(Clone)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture_sink() -> (EventSink, Arc<StdMutex<Vec<u8>>>) {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let sink = EventSink::to_writer(Box::new(Capture(buf.clone())));
        (sink, buf)
    }

    #[test]
    fn emits_valid_jsonl_shape() {
        let (sink, buf) = capture_sink();
        sink.emit(
            Level::Info,
            "snmp.client",
            "timeout",
            || fields!["agent" => "10.0.0.7", "attempt" => 2u64, "ok" => false],
        );
        sink.flush();
        let s = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(s.ends_with('\n'));
        assert!(s.contains("\"level\":\"info\""));
        assert!(s.contains("\"target\":\"snmp.client\""));
        assert!(s.contains("\"kind\":\"timeout\""));
        assert!(s.contains("\"agent\":\"10.0.0.7\""));
        assert!(s.contains("\"attempt\":2"));
        assert!(s.contains("\"ok\":false"));
    }

    #[test]
    fn events_below_the_level_are_not_written() {
        let (sink, buf) = capture_sink();
        sink.set_default_level(Level::Error);
        sink.emit(Level::Info, "monitor", "tick", Vec::new);
        sink.emit(Level::Error, "monitor", "boom", Vec::new);
        sink.flush();
        assert_eq!(sink.emitted(), 1);
        let s = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("boom"));
    }

    #[test]
    fn json_escaping() {
        let ev = Event {
            t_s: 0.5,
            level: Level::Warn,
            target: "a".into(),
            kind: "k\"ind\n".into(),
            fields: vec![("msg".to_string(), FieldValue::from("tab\there"))],
        };
        let s = ev.to_json();
        assert!(s.contains("k\\\"ind\\n"));
        assert!(s.contains("tab\\there"));
    }
}
