//! Hierarchical tick-phase profiling over the tracer's span stream.
//!
//! [`ProfileHub`] rides the spans the [`Tracer`](crate::Tracer) already
//! records — no new instrumentation sites — and folds each finished
//! cycle into a rolling *phase tree*: one node per distinct
//! `target.name` span label under its parent chain, carrying call
//! counts, total wall-clock, *self* time (total minus the time spent in
//! child phases), and a log-bucket latency histogram of per-occurrence
//! durations (the same bucket layout as [`Histogram`](crate::Histogram),
//! so quantiles carry the same ≤ 6.25 % relative error bound).
//! [`ProfileHub::record_spans`] is the one entry point: the tick loop
//! feeds it each cycle's spans live, and `netqos profile PATH` the cycles
//! a flight snapshot reads back as, so online and offline profiles share
//! one code path.
//!
//! Aggregation is windowed: only the most recent `window` cycles
//! contribute, so the profile tracks the *current* shape of the tick
//! loop rather than its whole history. Eviction subtracts the per-cycle
//! contributions exactly, which is why the per-phase state holds plain
//! bucket arrays behind one mutex instead of the shared atomic
//! histograms (those can only merge, never subtract).
//!
//! Two renderings come out of one tree:
//!
//! 1. [`ProfileHub::to_json`] — the nested phase tree with per-phase
//!    stats, served as `GET /profile`;
//! 2. [`ProfileHub::to_folded`] — flamegraph-compatible folded stacks
//!    (`root;child;leaf <self_ns>` per line, depth-first with children
//!    sorted by label), served as `GET /profile?format=folded`.
//!
//! Both are deterministic: the same span stream produces byte-identical
//! output, enforced by test.
//!
//! When constructed with a registry ([`ProfileHub::with_registry`]),
//! every span occurrence is also recorded into a
//! `netqos_tick_phase_ns{phase="..."}` histogram, so phase latencies
//! ride the ordinary `/metrics` exposition, the PromQL plane, and the
//! long-term store's registry sampler.
//!
//! The profiler costs nothing when tracing is off: `end_cycle` yields no
//! spans, so nothing reaches [`ProfileHub::record_spans`] — the only
//! per-span-site cost is the tracer's one relaxed atomic load (pinned by
//! the `profile`/`trace` benches).

use crate::json_escape;
use crate::metrics::{bucket_index, bucket_mid, quantile_of, BUCKETS};
use crate::trace::SpanRecord;
use crate::{escape_label_value, Histogram, HttpRequest, HttpResponse, Registry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// Cycles kept in the rolling window by default — at the monitor's 1 s
/// poll cadence, a bit over four minutes of recent history.
pub const DEFAULT_PROFILE_WINDOW: usize = 256;

/// One phase: a distinct span label at a distinct position in the tree.
struct PhaseNode {
    /// `target.name` of the spans aggregated here.
    label: String,
    /// Children by label (BTreeMap for deterministic order).
    children: BTreeMap<String, usize>,
    /// Span occurrences in the window.
    calls: u64,
    /// Summed wall-clock of those occurrences, nanoseconds.
    total_ns: u64,
    /// Summed wall-clock minus time spent in child phases.
    self_ns: u64,
    /// Log-bucket histogram of per-occurrence durations (same layout as
    /// [`crate::Histogram`], but plain counts so eviction can subtract).
    buckets: Vec<u64>,
    /// Cached `netqos_tick_phase_ns{phase="..."}` handle, when a
    /// registry is attached.
    metric: Option<Histogram>,
}

impl PhaseNode {
    fn new(label: String) -> PhaseNode {
        PhaseNode {
            label,
            children: BTreeMap::new(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            buckets: vec![0; BUCKETS],
            metric: None,
        }
    }

    /// Quantile over the windowed duration buckets (bucket midpoint,
    /// ≤ 6.25 % relative error). 0 when the phase has no calls.
    fn quantile(&self, q: f64) -> u64 {
        let buckets = (0..).zip(self.buckets.iter().copied());
        quantile_of(buckets, self.calls, self.max_ns(), q)
    }

    /// Midpoint of the highest occupied bucket — the windowed maximum at
    /// bucket resolution.
    fn max_ns(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&n| n != 0)
            .map(bucket_mid)
            .unwrap_or(0)
    }
}

/// One cycle's contributions, kept so eviction can subtract them:
/// `(node index, dur_ns, self_ns)` per span occurrence.
type CycleContribution = Vec<(usize, u64, u64)>;

/// The phase tree plus its rolling window. `nodes[0]` is a synthetic
/// root whose children are the cycle's top-level phases.
struct PhaseProfiler {
    nodes: Vec<PhaseNode>,
    window: usize,
    cycles: VecDeque<CycleContribution>,
    cycles_seen: u64,
    registry: Option<Arc<Registry>>,
}

impl PhaseProfiler {
    fn new(window: usize, registry: Option<Arc<Registry>>) -> PhaseProfiler {
        PhaseProfiler {
            nodes: vec![PhaseNode::new(String::new())],
            window: window.max(1),
            cycles: VecDeque::new(),
            cycles_seen: 0,
            registry,
        }
    }

    /// Finds or creates the child of `parent` labelled `label`.
    fn child(&mut self, parent: usize, label: &str) -> usize {
        if let Some(&idx) = self.nodes[parent].children.get(label) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(PhaseNode::new(label.to_string()));
        self.nodes[parent].children.insert(label.to_string(), idx);
        idx
    }

    /// Folds one cycle's spans into the tree. Order-independent: each
    /// span's position comes from walking its parent chain, so the live
    /// children-before-parents guard order and a flight snapshot's
    /// serialized order profile identically.
    fn record(&mut self, spans: &[SpanRecord]) {
        self.cycles_seen += 1;
        if spans.is_empty() {
            // An empty cycle still ages the window, so a profile left
            // behind by a burst of traced cycles decays.
            self.push_cycle(Vec::new());
            return;
        }
        let by_id: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id, i))
            .collect();
        // Time attributed to children, per parent span.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent.filter(|p| by_id.contains_key(p)) {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let mut contribution = Vec::with_capacity(spans.len());
        for s in spans {
            // Walk the parent chain to the root to place this span.
            // Spans whose parent never closed (or fell off a truncated
            // snapshot) root their own subtree.
            let mut chain = Vec::new();
            let mut cursor = s;
            loop {
                chain.push(format!("{}.{}", cursor.target, cursor.name));
                match cursor.parent.and_then(|p| by_id.get(&p)) {
                    Some(&i) => cursor = &spans[i],
                    None => break,
                }
            }
            let mut node = 0usize;
            for label in chain.iter().rev() {
                node = self.child(node, label);
            }
            let self_ns = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.span_id).copied().unwrap_or(0));
            let n = &mut self.nodes[node];
            n.calls += 1;
            n.total_ns += s.dur_ns;
            n.self_ns += self_ns;
            n.buckets[bucket_index(s.dur_ns)] += 1;
            if let Some(registry) = &self.registry {
                if n.metric.is_none() {
                    n.metric = Some(registry.histogram(&format!(
                        "netqos_tick_phase_ns{{phase=\"{}\"}}",
                        escape_label_value(&n.label)
                    )));
                }
                if let Some(metric) = &n.metric {
                    metric.record(s.dur_ns);
                }
            }
            contribution.push((node, s.dur_ns, self_ns));
        }
        self.push_cycle(contribution);
    }

    fn push_cycle(&mut self, contribution: CycleContribution) {
        self.cycles.push_back(contribution);
        while self.cycles.len() > self.window {
            let evicted = self.cycles.pop_front().unwrap_or_default();
            for (node, dur_ns, self_ns) in evicted {
                let n = &mut self.nodes[node];
                n.calls = n.calls.saturating_sub(1);
                n.total_ns = n.total_ns.saturating_sub(dur_ns);
                n.self_ns = n.self_ns.saturating_sub(self_ns);
                let b = bucket_index(dur_ns);
                n.buckets[b] = n.buckets[b].saturating_sub(1);
            }
        }
    }

    /// Summed wall-clock of the top-level phases — the denominator the
    /// per-phase self times partition (they sum to exactly this).
    fn root_total_ns(&self) -> u64 {
        self.nodes[0]
            .children
            .values()
            .map(|&i| self.nodes[i].total_ns)
            .sum()
    }

    fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"cycles_seen\":{},\"window\":{},\"window_cycles\":{},\"root_total_ns\":{}",
            self.cycles_seen,
            self.window,
            self.cycles.len(),
            self.root_total_ns(),
        );
        out.push_str(",\"phases\":");
        self.render_children(&mut out, 0);
        out.push_str("}\n");
        out
    }

    fn render_children(&self, out: &mut String, node: usize) {
        out.push('[');
        let mut first = true;
        for &child in self.nodes[node].children.values() {
            let n = &self.nodes[child];
            if n.calls == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"phase\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{},\
                 \"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"children\":",
                json_escape(&n.label),
                n.calls,
                n.total_ns,
                n.self_ns,
                n.quantile(0.5),
                n.quantile(0.99),
                n.max_ns(),
            );
            self.render_children(out, child);
            out.push('}');
        }
        out.push(']');
    }

    fn render_folded(&self) -> String {
        let mut out = String::new();
        let mut stack = Vec::new();
        self.fold_into(&mut out, &mut stack, 0);
        out
    }

    fn fold_into(&self, out: &mut String, stack: &mut Vec<String>, node: usize) {
        for (label, &child) in &self.nodes[node].children {
            let n = &self.nodes[child];
            if n.calls == 0 {
                continue;
            }
            stack.push(label.clone());
            let _ = writeln!(out, "{} {}", stack.join(";"), n.self_ns);
            self.fold_into(out, stack, child);
            stack.pop();
        }
    }
}

/// Thread-safe handle around the phase tree: the tick loop records into
/// it, HTTP handler threads render from it.
pub struct ProfileHub {
    inner: Mutex<PhaseProfiler>,
}

impl ProfileHub {
    /// A profiler keeping the most recent `window` cycles (zero behaves
    /// as one).
    pub fn new(window: usize) -> Arc<ProfileHub> {
        Arc::new(ProfileHub {
            inner: Mutex::new(PhaseProfiler::new(window, None)),
        })
    }

    /// Like [`ProfileHub::new`], additionally recording every span
    /// occurrence into `netqos_tick_phase_ns{phase="..."}` histograms in
    /// `registry`.
    pub fn with_registry(window: usize, registry: Arc<Registry>) -> Arc<ProfileHub> {
        Arc::new(ProfileHub {
            inner: Mutex::new(PhaseProfiler::new(window, Some(registry))),
        })
    }

    /// Folds one cycle's spans into the profile: live from the tracer,
    /// or read back from a flight snapshot (offline `netqos profile`).
    pub fn record_spans(&self, spans: &[SpanRecord]) {
        self.inner.lock().record(spans);
    }

    /// Cycles ever recorded (kept or aged out of the window alike).
    pub fn cycles_seen(&self) -> u64 {
        self.inner.lock().cycles_seen
    }

    /// Summed wall-clock of the windowed top-level phases — by
    /// construction exactly the sum of every phase's self time.
    pub fn root_total_ns(&self) -> u64 {
        self.inner.lock().root_total_ns()
    }

    /// The profile as a nested JSON phase tree (`GET /profile`).
    pub fn to_json(&self) -> String {
        self.inner.lock().render_json()
    }

    /// The profile as flamegraph folded stacks: one
    /// `root;child;leaf <self_ns>` line per phase, in deterministic
    /// depth-first order with children sorted by label. Feed it straight
    /// to `flamegraph.pl` / `inferno`.
    pub fn to_folded(&self) -> String {
        self.inner.lock().render_folded()
    }
}

/// Serves one `GET /profile` request: the JSON phase tree by default,
/// folded stacks with `?format=folded` (or an `Accept: text/plain`
/// preference). Unknown `format=` values get a 400.
pub fn profile_response(hub: &ProfileHub, req: &HttpRequest) -> HttpResponse {
    let folded = match req.query_param("format").as_deref() {
        Some("folded") => true,
        Some("json") => false,
        Some(other) => {
            return HttpResponse::json(
                400,
                format!(
                    "{{\"error\":\"bad format; expected json or folded\",\"got\":{}}}\n",
                    json_escape(other)
                ),
            )
        }
        None => {
            let accept = req.accept.to_ascii_lowercase();
            accept.contains("text/plain") && !accept.contains("application/json")
        }
    };
    if folded {
        HttpResponse {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: hub.to_folded(),
        }
    } else {
        HttpResponse::json(200, hub.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    /// A deterministic synthetic cycle: root with two children, one of
    /// which repeats.
    fn cycle(scale: u64) -> Vec<SpanRecord> {
        let span = |id, parent, target: &'static str, name: &'static str, dur| SpanRecord {
            trace_id: 1,
            span_id: id,
            parent,
            target: target.into(),
            name: name.into(),
            start_ns: 0,
            dur_ns: dur,
            attrs: Vec::new(),
        };
        // Children-before-parents, the order end_cycle yields.
        vec![
            span(2, Some(1), "monitor.poll", "device", 400 * scale),
            span(3, Some(1), "monitor.poll", "device", 600 * scale),
            span(4, Some(1), "monitor.qos", "evaluate", 1_000 * scale),
            span(1, None, "monitor", "cycle", 3_000 * scale),
        ]
    }

    #[test]
    fn aggregates_calls_totals_and_self_time() {
        let hub = ProfileHub::new(8);
        hub.record_spans(&cycle(1));
        let json = hub.to_json();
        // Root: total 3000, children consume 2000, self 1000.
        assert!(json.contains("\"phase\":\"monitor.cycle\""), "{json}");
        assert!(
            json.contains("\"total_ns\":3000,\"self_ns\":1000"),
            "{json}"
        );
        // The two poll spans fold into one phase node.
        assert!(
            json.contains("\"phase\":\"monitor.poll.device\",\"calls\":2"),
            "{json}"
        );
        assert_eq!(hub.root_total_ns(), 3000);
    }

    #[test]
    fn self_times_partition_the_root_total() {
        let hub = ProfileHub::new(16);
        for scale in 1..=10 {
            hub.record_spans(&cycle(scale));
        }
        let folded = hub.to_folded();
        let sum: u64 = folded
            .lines()
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<u64>().ok())
            .sum();
        assert_eq!(sum, hub.root_total_ns());
    }

    #[test]
    fn folded_output_is_deterministic() {
        let render = || {
            let hub = ProfileHub::new(8);
            for scale in [3, 1, 2] {
                hub.record_spans(&cycle(scale));
            }
            (hub.to_folded(), hub.to_json())
        };
        let (folded_a, json_a) = render();
        let (folded_b, json_b) = render();
        assert_eq!(folded_a, folded_b, "same span stream, same bytes");
        assert_eq!(json_a, json_b);
        // Folded lines are parent-prefixed paths, sorted, value = self.
        let lines: Vec<&str> = folded_a.lines().collect();
        assert_eq!(
            lines[0],
            format!("monitor.cycle {}", 6 * 1000),
            "{folded_a}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("monitor.cycle;monitor.poll.device ")),
            "{folded_a}"
        );
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "folded stacks sort lexicographically");
    }

    #[test]
    fn window_evicts_old_cycles_exactly() {
        let hub = ProfileHub::new(2);
        hub.record_spans(&cycle(1000)); // will be evicted
        hub.record_spans(&cycle(1));
        hub.record_spans(&cycle(1));
        // Only the two scale-1 cycles remain: totals as if the giant
        // cycle never happened.
        assert_eq!(hub.root_total_ns(), 6000);
        let json = hub.to_json();
        assert!(
            json.contains("\"phase\":\"monitor.poll.device\",\"calls\":4"),
            "{json}"
        );
        assert!(json.contains("\"window_cycles\":2"), "{json}");
        assert_eq!(hub.cycles_seen(), 3);
    }

    #[test]
    fn live_tracer_spans_profile_end_to_end() {
        let tracer = Tracer::new();
        tracer.begin_cycle();
        {
            let _root = tracer.span("monitor", "cycle");
            {
                let _poll = tracer.span("monitor.poll", "device");
            }
            let _qos = tracer.span("monitor.qos", "evaluate");
        }
        let spans = tracer.end_cycle();
        let hub = ProfileHub::new(4);
        hub.record_spans(&spans);
        let folded = hub.to_folded();
        assert!(folded.contains("monitor.cycle "), "{folded}");
        assert!(
            folded.contains("monitor.cycle;monitor.poll.device "),
            "{folded}"
        );
        assert!(
            folded.contains("monitor.cycle;monitor.qos.evaluate "),
            "{folded}"
        );
    }

    #[test]
    fn registry_gains_labelled_phase_histograms() {
        let registry = Registry::new();
        let hub = ProfileHub::with_registry(8, registry.clone());
        hub.record_spans(&cycle(1));
        hub.record_spans(&cycle(2));
        let text = registry.render_prometheus();
        assert!(
            text.contains("# TYPE netqos_tick_phase_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("netqos_tick_phase_ns_count{phase=\"monitor.cycle\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("netqos_tick_phase_ns_count{phase=\"monitor.poll.device\"} 4"),
            "{text}"
        );
    }

    #[test]
    fn response_negotiates_format() {
        let hub = ProfileHub::new(4);
        hub.record_spans(&cycle(1));
        let req = |query: &str, accept: &str| HttpRequest {
            method: "GET".into(),
            path: "/profile".into(),
            query: query.into(),
            accept: accept.into(),
        };
        let json = profile_response(&hub, &req("", ""));
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        assert!(crate::parse_json(&json.body).is_ok(), "{}", json.body);
        let folded = profile_response(&hub, &req("format=folded", ""));
        assert_eq!(folded.status, 200);
        assert!(folded.content_type.starts_with("text/plain"));
        assert!(folded.body.starts_with("monitor.cycle "), "{}", folded.body);
        // Accept: text/plain implies folded without the parameter.
        let via_accept = profile_response(&hub, &req("", "text/plain"));
        assert_eq!(via_accept.body, folded.body);
        let bad = profile_response(&hub, &req("format=xml", ""));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn orphan_spans_root_their_own_subtree() {
        let orphan = SpanRecord {
            trace_id: 1,
            span_id: 9,
            parent: Some(777), // never recorded
            target: "monitor.poll".into(),
            name: "late".into(),
            start_ns: 0,
            dur_ns: 50,
            attrs: Vec::new(),
        };
        let hub = ProfileHub::new(4);
        hub.record_spans(&[orphan]);
        let folded = hub.to_folded();
        assert_eq!(folded, "monitor.poll.late 50\n");
    }
}
