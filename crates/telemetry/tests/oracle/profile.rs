//! The tick-phase fold as the rolling profiler did it: each span placed
//! by walking its parent chain to the root, formatting a label at every
//! step. Quadratic in a chain's length and endless on a chain that comes
//! back to itself, so it is fed forests only. Its documents carry the
//! header `PhaseProfile` writes.

use netqos_telemetry::{json_escape, CycleTrace, Histogram, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

struct Node {
    label: String,
    children: BTreeMap<String, usize>,
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Histogram,
}

impl Node {
    fn new(label: String) -> Node {
        Node {
            label,
            children: BTreeMap::new(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            durations: Histogram::new(),
        }
    }
}

/// The phase tree of some cycles; `nodes[0]` is the synthetic root.
pub struct Profile {
    nodes: Vec<Node>,
    cycles: usize,
}

impl Profile {
    pub fn fold(cycles: &[CycleTrace]) -> Profile {
        let mut profile = Profile {
            nodes: vec![Node::new(String::new())],
            cycles: cycles.len(),
        };
        for cycle in cycles {
            profile.record(&cycle.spans);
        }
        profile
    }

    fn child(&mut self, parent: usize, label: &str) -> usize {
        if let Some(&idx) = self.nodes[parent].children.get(label) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::new(label.to_string()));
        self.nodes[parent].children.insert(label.to_string(), idx);
        idx
    }

    fn record(&mut self, spans: &[SpanRecord]) {
        let by_id: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id, i))
            .collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent.filter(|p| by_id.contains_key(p)) {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        for s in spans {
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
            n.durations.record(s.dur_ns);
        }
    }

    pub fn to_json(&self) -> String {
        let root_total: u64 = (self.nodes[0].children.values())
            .map(|&i| self.nodes[i].total_ns)
            .sum();
        let mut out = format!(
            "{{\"window_cycles\":{},\"root_total_ns\":{root_total},\"phases\":",
            self.cycles
        );
        self.render_children(&mut out, 0);
        out.push_str("}\n");
        out
    }

    fn render_children(&self, out: &mut String, node: usize) {
        out.push('[');
        let mut first = true;
        for &child in self.nodes[node].children.values() {
            let n = &self.nodes[child];
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
                n.durations.quantile(0.5),
                n.durations.quantile(0.99),
                n.durations.quantile(1.0),
            );
            self.render_children(out, child);
            out.push('}');
        }
        out.push(']');
    }

    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        let mut stack = Vec::new();
        self.fold_into(&mut out, &mut stack, 0);
        out
    }

    fn fold_into(&self, out: &mut String, stack: &mut Vec<String>, node: usize) {
        for (label, &child) in &self.nodes[node].children {
            stack.push(label.clone());
            let _ = writeln!(out, "{} {}", stack.join(";"), self.nodes[child].self_ns);
            self.fold_into(out, stack, child);
            stack.pop();
        }
    }
}
