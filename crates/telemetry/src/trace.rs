//! Causal per-cycle tracing: spans with trace/parent propagation.
//!
//! A [`Tracer`] stamps every poll cycle with a fresh [`TraceId`] and
//! records a tree of [`SpanRecord`]s — one per pipeline stage (SNMP
//! encode, network exchange, decode, delta computation, path traversal,
//! QoS evaluation, RM decision). Spans are RAII guards: opening a span
//! reads the current top of the span stack as its parent, and dropping
//! the guard timestamps the span and appends it to the cycle buffer.
//!
//! The tracer is cheap when disabled: [`Tracer::span`] is a single
//! relaxed atomic load returning an inert guard, so an un-traced monitor
//! pays no locks and no allocations (< 5 % overhead budget, enforced by
//! the `trace` bench).
//!
//! Clones share state: one tracer, passed to every stage of a cycle,
//! keeps parent/child attribution exact.

use crate::FieldValue;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifies one poll cycle end to end.
pub type TraceId = u64;
/// Identifies one span within a trace.
pub type SpanId = u64;

/// One finished span: a named interval with causal parentage. The
/// tracer records `target` and `name` borrowed, with no allocation; a
/// span read back from a flight snapshot owns them.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The cycle this span belongs to.
    pub trace_id: TraceId,
    /// This span's id (unique within the tracer).
    pub span_id: SpanId,
    /// The enclosing span, if any (`None` = cycle root).
    pub parent: Option<SpanId>,
    /// Dotted subsystem path, e.g. `snmp.codec` or `monitor.poll`.
    pub target: Cow<'static, str>,
    /// Stage name within the target, e.g. `encode`.
    pub name: Cow<'static, str>,
    /// Start offset from the tracer's origin, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (at least 1 so Chrome renders it).
    pub dur_ns: u64,
    /// Span attributes (device name, byte counts, percentile ranks, ...).
    pub attrs: Vec<(String, FieldValue)>,
}

struct TracerCore {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    state: Mutex<TraceState>,
}

#[derive(Default)]
struct TraceState {
    trace_id: TraceId,
    stack: Vec<SpanId>,
    spans: Vec<SpanRecord>,
    /// How many spans the last cycle drained: the room the next one
    /// starts with.
    last_cycle_spans: usize,
}

/// Span collector for one logical execution context. Cheap to clone
/// (clones share everything).
#[derive(Clone)]
pub struct Tracer {
    core: Arc<TracerCore>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    fn with_enabled(enabled: bool) -> Self {
        Tracer {
            core: Arc::new(TracerCore {
                enabled: AtomicBool::new(enabled),
                origin: Instant::now(),
                next_id: AtomicU64::new(1),
                state: Mutex::new(TraceState::default()),
            }),
        }
    }

    /// A tracer that records spans.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A tracer that discards everything (the no-overhead default).
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.core.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.core.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Starts a new cycle: clears the span buffer, makes room in it for
    /// as many spans as the last cycle drained — one allocation here
    /// rather than a buffer regrown from empty inside the cycle — and
    /// assigns a fresh trace id (0 when disabled).
    pub fn begin_cycle(&self) -> TraceId {
        if !self.is_enabled() {
            return 0;
        }
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        let mut st = self.core.state.lock();
        st.trace_id = id;
        st.stack.clear();
        st.spans.clear();
        let room = st.last_cycle_spans;
        st.spans.reserve(room);
        id
    }

    /// Ends the cycle, draining its finished spans (parents after their
    /// children, since guards close inside-out).
    pub fn end_cycle(&self) -> Vec<SpanRecord> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let mut st = self.core.state.lock();
        st.stack.clear();
        st.last_cycle_spans = st.spans.len();
        std::mem::take(&mut st.spans)
    }

    /// Opens a span under the current innermost span. The guard records
    /// the span when dropped; attributes attach via
    /// [`SpanGuard::set_attr`]. Inert (no lock, no allocation) when the
    /// tracer is disabled.
    #[inline]
    pub fn span(&self, target: &'static str, name: &'static str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { active: None };
        }
        self.span_slow(target, name)
    }

    fn span_slow(&self, target: &'static str, name: &'static str) -> SpanGuard {
        let span_id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        let (trace_id, parent) = {
            let mut st = self.core.state.lock();
            let parent = st.stack.last().copied();
            st.stack.push(span_id);
            (st.trace_id, parent)
        };
        SpanGuard {
            active: Some(ActiveSpan {
                tracer: self.clone(),
                trace_id,
                span_id,
                parent,
                target,
                name,
                start_ns: self.now_ns(),
                attrs: Vec::new(),
            }),
        }
    }

    fn finish(&self, span: &mut ActiveSpan) {
        // One shared timebase (`now_ns`) for both endpoints: a second
        // clock read at open time would let a span's recorded end drift
        // past its parent's, breaking child-within-parent nesting.
        let dur_ns = self.now_ns().saturating_sub(span.start_ns);
        let mut st = self.core.state.lock();
        // Pop this span (and anything leaked above it) off the stack.
        if let Some(pos) = st.stack.iter().rposition(|&id| id == span.span_id) {
            st.stack.truncate(pos);
        }
        st.spans.push(SpanRecord {
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent: span.parent,
            target: Cow::Borrowed(span.target),
            name: Cow::Borrowed(span.name),
            start_ns: span.start_ns,
            dur_ns: dur_ns.max(1),
            attrs: std::mem::take(&mut span.attrs),
        });
    }
}

struct ActiveSpan {
    tracer: Tracer,
    trace_id: TraceId,
    span_id: SpanId,
    parent: Option<SpanId>,
    target: &'static str,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(String, FieldValue)>,
}

/// RAII handle for an open span; records it on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Attaches an attribute (no-op on an inert guard).
    pub fn set_attr(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Whether this guard will record a span (false when the tracer was
    /// disabled at open time) — lets callers skip attribute formatting.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut a) = self.active.take() {
            let tracer = a.tracer.clone();
            tracer.finish(&mut a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.begin_cycle(), 0);
        {
            let mut s = t.span("a", "b");
            assert!(!s.is_recording());
            s.set_attr("k", 1u64);
        }
        assert!(t.end_cycle().is_empty());
    }

    #[test]
    fn spans_nest_via_stack() {
        let t = Tracer::new();
        let trace = t.begin_cycle();
        let root_id;
        {
            let root = t.span("cycle", "root");
            root_id = root.active.as_ref().unwrap().span_id;
            {
                let _child = t.span("stage", "inner");
                let _grand = t.span("stage", "leaf");
            }
            let _sibling = t.span("stage", "second");
        }
        let spans = t.end_cycle();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.trace_id == trace));
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").parent, None);
        assert_eq!(by_name("inner").parent, Some(root_id));
        assert_eq!(by_name("leaf").parent, Some(by_name("inner").span_id));
        assert_eq!(by_name("second").parent, Some(root_id));
        // Children close before parents.
        assert_eq!(spans.last().unwrap().name, "root");
    }

    #[test]
    fn attrs_and_timing_recorded() {
        let t = Tracer::new();
        t.begin_cycle();
        {
            let mut s = t.span("snmp", "encode");
            s.set_attr("bytes", 123u64);
            s.set_attr("agent", "10.0.0.7");
        }
        let spans = t.end_cycle();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.dur_ns >= 1);
        assert_eq!(s.attrs[0], ("bytes".to_string(), FieldValue::U64(123)));
        assert_eq!(
            s.attrs[1],
            ("agent".to_string(), FieldValue::Str("10.0.0.7".into()))
        );
    }

    #[test]
    fn begin_cycle_resets_buffer() {
        let t = Tracer::new();
        t.begin_cycle();
        {
            let _s = t.span("a", "one");
        }
        t.begin_cycle();
        {
            let _s = t.span("a", "two");
        }
        let spans = t.end_cycle();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "two");
    }
}
