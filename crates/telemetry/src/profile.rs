//! Hierarchical tick-phase profiling over recorded cycles.
//!
//! [`PhaseProfile::fold`] rides the spans the [`Tracer`](crate::Tracer)
//! already records — no new instrumentation sites — and folds a slice of
//! [`CycleTrace`]s into a *phase tree*: one node per distinct
//! `target.name` span label under its parent chain, carrying call
//! counts, total wall-clock, *self* time (total minus the time spent in
//! child phases), and a log-bucket latency histogram of per-occurrence
//! durations (a [`Histogram`], so quantiles carry its ≤ 6.25 % relative
//! error bound).
//!
//! The fold is a pure function of its cycles, run when a profile is
//! asked for: `GET /profile` folds a copy of the flight ring (the cycles
//! the next violation snapshot will hold), and `netqos profile PATH`
//! folds the cycles a snapshot reads back as. The same cycles give the
//! same document, byte for byte, whichever way in. Nothing folds on the
//! tick.
//!
//! Two renderings come out of one tree:
//!
//! 1. [`PhaseProfile::to_json`] — the nested phase tree with per-phase
//!    stats, served as `GET /profile`;
//! 2. [`PhaseProfile::to_folded`] — flamegraph-compatible folded stacks
//!    (`root;child;leaf <self_ns>` per line, depth-first with children
//!    sorted by label), served as `GET /profile?format=folded`.
//!
//! Both are deterministic: the same spans produce byte-identical output,
//! enforced by test.
//!
//! A snapshot file comes from outside the program, so the fold trusts no
//! parent id: each span is placed once, below its parent's already
//! placed phase, which keeps the fold linear in spans. A span whose
//! parent chain comes back to itself, or that would sit deeper than
//! [`MAX_PHASE_DEPTH`] phases, roots its own subtree; so does one whose
//! parent is not in its cycle.

use crate::flight::CycleTrace;
use crate::json_escape;
use crate::trace::SpanRecord;
use crate::{Histogram, HttpRequest, HttpResponse};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Deepest a phase sits below the root: the nesting cap
/// [`MAX_JSON_DEPTH`](crate::MAX_JSON_DEPTH) and PromQL use.
pub const MAX_PHASE_DEPTH: usize = 128;

/// One phase: a distinct span label at a distinct position in the tree.
struct PhaseNode {
    /// `target.name` of the spans aggregated here.
    label: String,
    /// Children by label (BTreeMap for deterministic order).
    children: BTreeMap<String, usize>,
    /// Summed wall-clock of the span occurrences, nanoseconds.
    total_ns: u64,
    /// Summed wall-clock minus time spent in child phases.
    self_ns: u64,
    /// Per-occurrence durations; its count is the phase's calls.
    durations: Histogram,
}

impl PhaseNode {
    fn new(label: String) -> PhaseNode {
        PhaseNode {
            label,
            children: BTreeMap::new(),
            total_ns: 0,
            self_ns: 0,
            durations: Histogram::new(),
        }
    }
}

/// Where a span was placed: its phase node and that node's depth (1 for
/// a top-level phase).
#[derive(Clone, Copy)]
struct Placed {
    node: usize,
    depth: usize,
}

/// The phase tree of a slice of cycles. `nodes[0]` is a synthetic root
/// whose children are the cycles' top-level phases.
pub struct PhaseProfile {
    nodes: Vec<PhaseNode>,
    cycles: usize,
}

impl PhaseProfile {
    /// Folds `cycles` into one phase tree.
    pub fn fold(cycles: &[CycleTrace]) -> PhaseProfile {
        let mut profile = PhaseProfile {
            nodes: vec![PhaseNode::new(String::new())],
            cycles: cycles.len(),
        };
        for cycle in cycles {
            profile.record(&cycle.spans);
        }
        profile
    }

    /// Finds or creates `span`'s phase below `above` (the root when
    /// `None`).
    fn place_under(&mut self, above: Option<Placed>, span: &SpanRecord) -> Placed {
        let Placed {
            node: parent,
            depth,
        } = above.unwrap_or(Placed { node: 0, depth: 0 });
        let label = format!("{}.{}", span.target, span.name);
        let node = match self.nodes[parent].children.get(&label) {
            Some(&node) => node,
            None => {
                let node = self.nodes.len();
                self.nodes.push(PhaseNode::new(label.clone()));
                self.nodes[parent].children.insert(label, node);
                node
            }
        };
        Placed {
            node,
            depth: depth + 1,
        }
    }

    /// Folds one cycle's spans into the tree. Order-independent: a
    /// span's position comes from its parent chain, so the live
    /// children-before-parents guard order and any order a file holds
    /// profile identically. Linear in spans: each is placed once, below
    /// its parent's placement.
    fn record(&mut self, spans: &[SpanRecord]) {
        let by_id: HashMap<u64, usize> = (spans.iter().enumerate())
            .map(|(i, s)| (s.span_id, i))
            .collect();
        let parent_of: Vec<Option<usize>> = (spans.iter())
            .map(|s| s.parent.and_then(|p| by_id.get(&p).copied()))
            .collect();
        let mut placed: Vec<Option<Placed>> = vec![None; spans.len()];
        // Time spent in the spans placed directly below each span.
        let mut child_ns = vec![0u64; spans.len()];
        let mut on_chain = vec![false; spans.len()];
        let mut chain = Vec::new();
        for start in 0..spans.len() {
            // Climb to the first span already placed, a root, or a span
            // the climb has passed before (a cycle in the parent ids).
            let mut i = start;
            let mut above = loop {
                if let Some(p) = placed[i] {
                    break Some(p);
                }
                if on_chain[i] {
                    // Every span from `i` on comes back to itself: each
                    // roots its own subtree.
                    let from = chain.iter().rposition(|&j| j == i).unwrap_or(0);
                    for j in chain.drain(from..) {
                        on_chain[j] = false;
                        placed[j] = Some(self.place_under(None, &spans[j]));
                    }
                    break placed[i];
                }
                on_chain[i] = true;
                chain.push(i);
                match parent_of[i] {
                    Some(p) => i = p,
                    None => break None,
                }
            };
            // Place the climbed spans top-down, each below the last.
            while let Some(j) = chain.pop() {
                on_chain[j] = false;
                if above.is_some_and(|p| p.depth >= MAX_PHASE_DEPTH) {
                    above = None;
                }
                let here = self.place_under(above, &spans[j]);
                if let (Some(p), true) = (parent_of[j], above.is_some()) {
                    child_ns[p] = child_ns[p].saturating_add(spans[j].dur_ns);
                }
                placed[j] = Some(here);
                above = Some(here);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let Some(Placed { node, .. }) = placed[i] else {
                continue;
            };
            let n = &mut self.nodes[node];
            n.total_ns = n.total_ns.saturating_add(s.dur_ns);
            n.self_ns = (n.self_ns).saturating_add(s.dur_ns.saturating_sub(child_ns[i]));
            n.durations.record(s.dur_ns);
        }
    }

    /// Summed wall-clock of the top-level phases — the denominator the
    /// per-phase self times partition (they sum to exactly this).
    fn root_total_ns(&self) -> u64 {
        (self.nodes[0].children.values())
            .fold(0, |sum, &i| sum.saturating_add(self.nodes[i].total_ns))
    }

    /// The profile as a nested JSON phase tree (`GET /profile`):
    /// `{"window_cycles":N,"root_total_ns":…,"phases":[…]}`, where
    /// `window_cycles` counts the cycles folded.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"window_cycles\":{},\"root_total_ns\":{},\"phases\":",
            self.cycles,
            self.root_total_ns(),
        );
        self.render_children(&mut out, 0);
        out.push_str("}\n");
        out
    }

    fn render_children(&self, out: &mut String, node: usize) {
        out.push('[');
        for (i, &child) in self.nodes[node].children.values().enumerate() {
            let n = &self.nodes[child];
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{},\
                 \"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"children\":",
                json_escape(&n.label),
                n.durations.count(),
                n.total_ns,
                n.self_ns,
                n.durations.quantile(0.5),
                n.durations.quantile(0.99),
                // The highest occupied bucket's midpoint.
                n.durations.quantile(1.0),
            );
            self.render_children(out, child);
            out.push('}');
        }
        out.push(']');
    }

    /// The profile as flamegraph folded stacks: one
    /// `root;child;leaf <self_ns>` line per phase, in deterministic
    /// depth-first order with children sorted by label. Feed it straight
    /// to `flamegraph.pl` / `inferno`.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        let mut stack = Vec::new();
        self.fold_into(&mut out, &mut stack, 0);
        out
    }

    fn fold_into<'a>(&'a self, out: &mut String, stack: &mut Vec<&'a str>, node: usize) {
        for (label, &child) in &self.nodes[node].children {
            stack.push(label);
            let _ = writeln!(out, "{} {}", stack.join(";"), self.nodes[child].self_ns);
            self.fold_into(out, stack, child);
            stack.pop();
        }
    }
}

/// Serves one `GET /profile` request over `cycles`: the JSON phase tree
/// by default, folded stacks with `?format=folded` (or an
/// `Accept: text/plain` preference). Unknown `format=` values get a 400.
pub fn profile_response(cycles: &[CycleTrace], req: &HttpRequest) -> HttpResponse {
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
    let profile = PhaseProfile::fold(cycles);
    if folded {
        HttpResponse {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: profile.to_folded(),
        }
    } else {
        HttpResponse::json(200, profile.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn span(id: u64, parent: Option<u64>, target: &'static str, name: &'static str) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent,
            target: target.into(),
            name: name.into(),
            start_ns: 0,
            dur_ns: 10,
            attrs: Vec::new(),
        }
    }

    fn cycle_of(spans: Vec<SpanRecord>) -> CycleTrace {
        CycleTrace {
            spans,
            ..CycleTrace::default()
        }
    }

    /// A deterministic synthetic cycle: root with two children, one of
    /// which repeats.
    fn cycle(scale: u64) -> CycleTrace {
        let timed = |id, parent, target, name, dur| SpanRecord {
            dur_ns: dur,
            ..span(id, parent, target, name)
        };
        // Children-before-parents, the order end_cycle yields.
        cycle_of(vec![
            timed(2, Some(1), "monitor.poll", "device", 400 * scale),
            timed(3, Some(1), "monitor.poll", "device", 600 * scale),
            timed(4, Some(1), "monitor.qos", "evaluate", 1_000 * scale),
            timed(1, None, "monitor", "cycle", 3_000 * scale),
        ])
    }

    /// Sum of the `calls` of every phase in a `to_json` document.
    fn calls_in(json: &str) -> u64 {
        json.split("\"calls\":")
            .skip(1)
            .map(|s| s[..s.find(',').unwrap()].parse::<u64>().unwrap())
            .sum()
    }

    #[test]
    fn aggregates_calls_totals_and_self_time() {
        let profile = PhaseProfile::fold(&[cycle(1)]);
        let json = profile.to_json();
        assert!(
            json.starts_with("{\"window_cycles\":1,\"root_total_ns\":3000,\"phases\":["),
            "{json}"
        );
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
        assert_eq!(profile.root_total_ns(), 3000);
    }

    #[test]
    fn self_times_partition_the_root_total() {
        let cycles: Vec<CycleTrace> = (1..=10).map(cycle).collect();
        let profile = PhaseProfile::fold(&cycles);
        let sum: u64 = (profile.to_folded().lines())
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<u64>().ok())
            .sum();
        assert_eq!(sum, profile.root_total_ns());
        assert!(profile.to_json().starts_with("{\"window_cycles\":10,"));
    }

    #[test]
    fn folded_output_is_deterministic() {
        let render = || {
            let profile = PhaseProfile::fold(&[cycle(3), cycle(1), cycle(2)]);
            (profile.to_folded(), profile.to_json())
        };
        let (folded_a, json_a) = render();
        let (folded_b, json_b) = render();
        assert_eq!(folded_a, folded_b, "same spans, same bytes");
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
    fn span_order_within_a_cycle_does_not_matter() {
        let forward = cycle(1);
        let mut reversed = forward.clone();
        reversed.spans.reverse();
        let a = PhaseProfile::fold(&[forward]);
        let b = PhaseProfile::fold(&[reversed]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_folded(), b.to_folded());
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
        let folded = PhaseProfile::fold(&[cycle_of(tracer.end_cycle())]).to_folded();
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
    fn response_negotiates_format() {
        let cycles = [cycle(1)];
        let req = |query: &str, accept: &str| HttpRequest {
            method: "GET".into(),
            path: "/profile".into(),
            query: query.into(),
            accept: accept.into(),
        };
        let json = profile_response(&cycles, &req("", ""));
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        assert!(crate::parse_json(&json.body).is_ok(), "{}", json.body);
        let folded = profile_response(&cycles, &req("format=folded", ""));
        assert_eq!(folded.status, 200);
        assert!(folded.content_type.starts_with("text/plain"));
        assert!(folded.body.starts_with("monitor.cycle "), "{}", folded.body);
        // Accept: text/plain implies folded without the parameter.
        let via_accept = profile_response(&cycles, &req("", "text/plain"));
        assert_eq!(via_accept.body, folded.body);
        let bad = profile_response(&cycles, &req("format=xml", ""));
        assert_eq!(bad.status, 400);
        // No cycles: an empty tree, not an error.
        let empty = profile_response(&[], &req("", ""));
        assert_eq!(
            empty.body,
            "{\"window_cycles\":0,\"root_total_ns\":0,\"phases\":[]}\n"
        );
    }

    #[test]
    fn orphan_spans_root_their_own_subtree() {
        let orphan = SpanRecord {
            dur_ns: 50,
            ..span(9, Some(777), "monitor.poll", "late") // 777 never recorded
        };
        let folded = PhaseProfile::fold(&[cycle_of(vec![orphan])]).to_folded();
        assert_eq!(folded, "monitor.poll.late 50\n");
    }

    #[test]
    fn a_self_parented_span_roots_its_own_subtree() {
        let spans = vec![
            span(1, Some(1), "a", "loop"),
            span(2, Some(1), "b", "child"),
        ];
        let profile = PhaseProfile::fold(&[cycle_of(spans)]);
        assert_eq!(profile.to_folded(), "a.loop 0\na.loop;b.child 10\n");
        assert_eq!(calls_in(&profile.to_json()), 2);
    }

    #[test]
    fn two_spans_parenting_each_other_each_root_a_subtree() {
        let spans = vec![
            span(1, Some(2), "a", "x"),
            SpanRecord {
                dur_ns: 100,
                ..span(2, Some(1), "b", "y")
            },
            span(3, Some(2), "c", "z"),
        ];
        let profile = PhaseProfile::fold(&[cycle_of(spans.clone())]);
        // `a.x` is not below `b.y`, so it takes none of its time.
        assert_eq!(profile.to_folded(), "a.x 10\nb.y 90\nb.y;c.z 10\n");
        assert_eq!(calls_in(&profile.to_json()), 3);
        // Whichever span the climb starts from.
        let mut reversed = spans;
        reversed.reverse();
        let again = PhaseProfile::fold(&[cycle_of(reversed)]);
        assert_eq!(again.to_folded(), profile.to_folded());
    }

    /// A parent chain 200 000 spans long (a 14 MB snapshot line) folds
    /// in one pass, cut into subtrees no deeper than [`MAX_PHASE_DEPTH`].
    #[test]
    fn a_long_parent_chain_folds_linearly_and_stays_shallow() {
        const N: u64 = 200_000;
        let spans: Vec<SpanRecord> = (1..=N)
            .map(|id| span(id, (id > 1).then(|| id - 1), "deep", "span"))
            .collect();
        let profile = PhaseProfile::fold(&[cycle_of(spans)]);
        assert!(profile.nodes.len() <= MAX_PHASE_DEPTH + 1);
        let folded = profile.to_folded();
        let deepest = folded.lines().map(|l| l.split(';').count()).max();
        assert_eq!(deepest, Some(MAX_PHASE_DEPTH));
        assert_eq!(calls_in(&profile.to_json()), N);
    }
}
