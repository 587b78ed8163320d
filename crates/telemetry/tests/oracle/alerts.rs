//! The `AlertEngine` the library shipped until it kept its state in
//! buffers of its own: every evaluation builds a `String` fingerprint per
//! holding condition into a fresh map, and remembers the level of every
//! signal of every scope under a freshly formatted key, whether or not a
//! `delta` rule reads it. Every transition and `/alerts` document of the
//! library's engine is held to this one.

use netqos_telemetry::{
    push_json_str, ActiveAlert, AlertContext, AlertRule, AlertState, AlertTransition, ResolvedAlert,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

const RESOLVED_HISTORY: usize = 32;

fn escape_label_value(v: &str) -> String {
    let mut out = String::new();
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn fingerprint(rule: &str, labels: &BTreeMap<String, String>) -> String {
    let mut out = String::from(rule);
    if labels.is_empty() {
        return out;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn delta_key(labels: &BTreeMap<String, String>, signal: &str) -> String {
    let mut key = fingerprint("", labels);
    key.push('\u{1}');
    key.push_str(signal);
    key
}

/// The engine that rebuilt its keys every tick.
pub struct OracleEngine {
    rules: Vec<AlertRule>,
    active: BTreeMap<String, ActiveAlert>,
    resolved: VecDeque<ResolvedAlert>,
    last_values: BTreeMap<String, f64>,
    transitions_total: u64,
    tick: u64,
}

impl OracleEngine {
    pub fn new(mut rules: Vec<AlertRule>) -> Self {
        let mut seen = BTreeSet::new();
        let mut dedup: Vec<AlertRule> = Vec::new();
        for rule in rules.drain(..).rev() {
            if seen.insert(rule.name.clone()) {
                dedup.push(rule);
            }
        }
        dedup.sort_by(|a, b| a.name.cmp(&b.name));
        OracleEngine {
            rules: dedup,
            active: BTreeMap::new(),
            resolved: VecDeque::new(),
            last_values: BTreeMap::new(),
            transitions_total: 0,
            tick: 0,
        }
    }

    fn count(&self, state: AlertState) -> usize {
        self.active.values().filter(|a| a.state == state).count()
    }

    pub fn evaluate(&mut self, ctx: &AlertContext) -> Vec<AlertTransition> {
        self.tick = ctx.tick;
        let mut true_now: BTreeMap<String, (usize, usize, f64)> = BTreeMap::new();
        for (ri, rule) in self.rules.iter().enumerate() {
            for (si, scope) in ctx.scopes.iter().enumerate() {
                let Some(&current) = scope.signals.get(&rule.signal) else {
                    continue;
                };
                let value = if rule.delta {
                    match self
                        .last_values
                        .get(&delta_key(&scope.labels, &rule.signal))
                    {
                        Some(prev) => current - prev,
                        None => continue,
                    }
                } else {
                    current
                };
                if rule.op.holds(value, rule.threshold) {
                    true_now
                        .entry(fingerprint(&rule.name, &scope.labels))
                        .or_insert((ri, si, value));
                }
            }
        }

        let mut transitions = Vec::new();
        for (fp, &(ri, si, value)) in &true_now {
            let rule = &self.rules[ri];
            let scope = &ctx.scopes[si];
            let alert = self
                .active
                .entry(fp.clone())
                .or_insert_with(|| ActiveAlert {
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    for_ticks: rule.for_ticks.max(1),
                    labels: scope.labels.clone(),
                    state: AlertState::Pending,
                    started_tick: ctx.tick,
                    since_tick: ctx.tick,
                    consecutive: 0,
                    value,
                    annotations: scope.annotations.clone(),
                });
            let fresh = alert.consecutive == 0;
            alert.consecutive += 1;
            alert.value = value;
            alert.annotations = scope.annotations.clone();
            if alert.state == AlertState::Pending && alert.consecutive >= alert.for_ticks {
                let from = if fresh { "inactive" } else { "pending" };
                alert.state = AlertState::Firing;
                alert.since_tick = ctx.tick;
                transitions.push(make_transition(fp, alert, from, "firing", ctx.tick));
            } else if fresh {
                transitions.push(make_transition(fp, alert, "inactive", "pending", ctx.tick));
            }
        }

        let stale: Vec<String> = self
            .active
            .keys()
            .filter(|fp| !true_now.contains_key(*fp))
            .cloned()
            .collect();
        for fp in stale {
            let Some(alert) = self.active.remove(&fp) else {
                continue;
            };
            if alert.state == AlertState::Firing {
                transitions.push(make_transition(&fp, &alert, "firing", "resolved", ctx.tick));
                self.resolved.push_back(ResolvedAlert {
                    rule: alert.rule,
                    fingerprint: fp,
                    severity: alert.severity,
                    labels: alert.labels,
                    started_tick: alert.started_tick,
                    resolved_tick: ctx.tick,
                    value: alert.value,
                });
                while self.resolved.len() > RESOLVED_HISTORY {
                    self.resolved.pop_front();
                }
            }
        }

        for scope in &ctx.scopes {
            for (signal, &value) in &scope.signals {
                self.last_values
                    .insert(delta_key(&scope.labels, signal), value);
            }
        }

        self.transitions_total += transitions.len() as u64;
        transitions
    }

    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"tick\":{},\"rules\":{},\"pending\":{},\"firing\":{},\"transitions_total\":{}",
            self.tick,
            self.rules.len(),
            self.count(AlertState::Pending),
            self.count(AlertState::Firing),
            self.transitions_total,
        );
        out.push_str(",\"alerts\":[");
        for (i, (fp, a)) in self.active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            push_json_str(&mut out, &a.rule);
            out.push_str(",\"fingerprint\":");
            push_json_str(&mut out, fp);
            let _ = write!(
                out,
                ",\"state\":\"{}\",\"severity\":\"{}\",\"started_tick\":{},\
                 \"since_tick\":{},\"for\":{},\"consecutive\":{},\"value\":",
                a.state.as_str(),
                a.severity,
                a.started_tick,
                a.since_tick,
                a.for_ticks,
                a.consecutive,
            );
            push_json_f64(&mut out, a.value);
            out.push_str(",\"labels\":");
            push_json_map(&mut out, &a.labels);
            out.push_str(",\"annotations\":");
            push_json_map(&mut out, &a.annotations);
            out.push('}');
        }
        out.push_str("],\"resolved\":[");
        for (i, r) in self.resolved.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            push_json_str(&mut out, &r.rule);
            out.push_str(",\"fingerprint\":");
            push_json_str(&mut out, &r.fingerprint);
            let _ = write!(
                out,
                ",\"severity\":\"{}\",\"started_tick\":{},\"resolved_tick\":{},\"value\":",
                r.severity, r.started_tick, r.resolved_tick,
            );
            push_json_f64(&mut out, r.value);
            out.push_str(",\"labels\":");
            push_json_map(&mut out, &r.labels);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn make_transition(
    fp: &str,
    alert: &ActiveAlert,
    from: &'static str,
    to: &'static str,
    tick: u64,
) -> AlertTransition {
    AlertTransition {
        rule: alert.rule.clone(),
        fingerprint: fp.to_string(),
        labels: alert.labels.clone(),
        from,
        to,
        tick,
        value: alert.value,
        severity: alert.severity,
        annotations: alert.annotations.clone(),
    }
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_json_map(out: &mut String, map: &BTreeMap<String, String>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_str(out, v);
    }
    out.push('}');
}
