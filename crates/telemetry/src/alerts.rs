//! Stateful QoS alerting: Prometheus-style rules over live signals.
//!
//! Raw series and per-tick violation flags are not actionable on their
//! own — an operator (or the paper's resource manager) wants
//! deduplicated alerts with a lifecycle and a named culprit. The
//! [`AlertEngine`] is evaluated once per tick against an
//! [`AlertContext`]: a set of labelled scopes (one global scope fed from
//! the metrics [`Registry`], one scope per qospath) carrying numeric
//! signals and diagnostic annotations. Rules are threshold or delta
//! (per-tick rate) predicates with Prometheus-style `for` hysteresis:
//!
//! ```text
//! inactive --cond true--> pending --cond true for N ticks--> firing
//!     ^                      |                                  |
//!     +----cond false--------+             cond false (resolved)+
//! ```
//!
//! Alerts are deduplicated by `(rule, labelset)` fingerprint, so a rule
//! matching three paths maintains three independent state machines.
//! Every state change is reported as an [`AlertTransition`] — the hook
//! for flight-recorder events, transition counters, and webhook
//! delivery ([`transitions_to_json`] bodies queued on a
//! [`crate::push::OtlpPusher`], the bounded-queue push worker).

use crate::events::push_json_str;
use crate::{push_label_value, Registry};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;

/// How loudly a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Informational — worth a log line, not a page.
    Info,
    /// Degraded but operating.
    Warning,
    /// Service-level impact.
    Critical,
}

impl AlertSeverity {
    /// The lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertSeverity::Info => "info",
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }

    /// Parses a lowercase severity name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(AlertSeverity::Info),
            "warning" => Some(AlertSeverity::Warning),
            "critical" => Some(AlertSeverity::Critical),
            _ => None,
        }
    }
}

impl fmt::Display for AlertSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Threshold comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether `value op threshold` holds.
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            CmpOp::Lt => value < threshold,
            CmpOp::Le => value <= threshold,
            CmpOp::Gt => value > threshold,
            CmpOp::Ge => value >= threshold,
        }
    }

    /// The operator's source form.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Parses an operator token.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "<" => Some(CmpOp::Lt),
            "<=" => Some(CmpOp::Le),
            ">" => Some(CmpOp::Gt),
            ">=" => Some(CmpOp::Ge),
            _ => None,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One alert rule: a predicate over a named signal plus `for`
/// hysteresis. `delta` rules compare the signal's change since the
/// previous tick (a per-tick rate) rather than its level.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (alphanumeric and `_`); part of every fingerprint.
    pub name: String,
    /// The signal the predicate reads.
    pub signal: String,
    /// Compare the per-tick change instead of the level.
    pub delta: bool,
    /// Comparison operator.
    pub op: CmpOp,
    /// Threshold the signal (or its delta) is compared against.
    pub threshold: f64,
    /// Consecutive true ticks required before the alert fires.
    pub for_ticks: u64,
    /// Severity stamped on transitions and active alerts.
    pub severity: AlertSeverity,
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alert {} if {}{} {} {} for {} severity {}",
            self.name,
            if self.delta { "delta " } else { "" },
            self.signal,
            self.op,
            self.threshold,
            self.for_ticks.max(1),
            self.severity,
        )
    }
}

/// The default rule set: path QoS violations, a stalled poll loop, and
/// counter-wrap storms (a device rebooting or lying about its counters).
pub fn builtin_alert_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "path_qos_violation".into(),
            signal: "path_violated".into(),
            delta: false,
            op: CmpOp::Gt,
            threshold: 0.5,
            for_ticks: 2,
            severity: AlertSeverity::Critical,
        },
        AlertRule {
            name: "poll_stall".into(),
            signal: "netqos_monitor_polls_total".into(),
            delta: true,
            op: CmpOp::Lt,
            threshold: 0.5,
            for_ticks: 3,
            severity: AlertSeverity::Critical,
        },
        AlertRule {
            name: "counter_wrap_storm".into(),
            signal: "netqos_monitor_counter_wraps_total".into(),
            delta: true,
            op: CmpOp::Gt,
            threshold: 4.0,
            for_ticks: 2,
            severity: AlertSeverity::Warning,
        },
    ]
}

/// Parses a rules file: one rule per line,
/// `alert <name> if [delta] <signal> <op> <value> for <ticks>
/// [severity <level>]`, `#` comments, blank lines ignored. Duplicate
/// rule names are rejected.
pub fn parse_alert_rules(src: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules: Vec<AlertRule> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let rule = parse_rule_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if rules.iter().any(|r| r.name == rule.name) {
            return Err(format!(
                "line {}: duplicate rule name {:?}",
                idx + 1,
                rule.name
            ));
        }
        rules.push(rule);
    }
    Ok(rules)
}

fn next_tok<'a>(toks: &[&'a str], i: &mut usize, what: &str) -> Result<&'a str, String> {
    let t = toks
        .get(*i)
        .copied()
        .ok_or_else(|| format!("expected {what}, found end of line"))?;
    *i += 1;
    Ok(t)
}

fn parse_rule_line(line: &str) -> Result<AlertRule, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let mut i = 0usize;
    let kw = next_tok(&toks, &mut i, "`alert`")?;
    if kw != "alert" {
        return Err(format!("expected `alert`, found {kw:?}"));
    }
    let name = next_tok(&toks, &mut i, "a rule name")?;
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!(
            "rule name {name:?} must be alphanumeric/underscore"
        ));
    }
    let kw = next_tok(&toks, &mut i, "`if`")?;
    if kw != "if" {
        return Err(format!("expected `if`, found {kw:?}"));
    }
    let mut signal = next_tok(&toks, &mut i, "a signal name")?;
    let delta = signal == "delta";
    if delta {
        signal = next_tok(&toks, &mut i, "a signal name after `delta`")?;
    }
    let op_tok = next_tok(&toks, &mut i, "an operator (< <= > >=)")?;
    let op = CmpOp::parse(op_tok).ok_or_else(|| format!("bad operator {op_tok:?}"))?;
    let thr_tok = next_tok(&toks, &mut i, "a threshold value")?;
    let threshold: f64 = thr_tok
        .parse()
        .map_err(|_| format!("bad threshold {thr_tok:?}"))?;
    if !threshold.is_finite() {
        return Err(format!("threshold {thr_tok:?} must be finite"));
    }
    let kw = next_tok(&toks, &mut i, "`for`")?;
    if kw != "for" {
        return Err(format!("expected `for`, found {kw:?}"));
    }
    let for_tok = next_tok(&toks, &mut i, "a tick count")?;
    let for_ticks: u64 = for_tok
        .parse()
        .map_err(|_| format!("bad `for` tick count {for_tok:?}"))?;
    if for_ticks == 0 {
        return Err("`for` needs at least 1 tick".into());
    }
    let severity = if i < toks.len() {
        let kw = next_tok(&toks, &mut i, "`severity`")?;
        if kw != "severity" {
            return Err(format!("expected `severity`, found {kw:?}"));
        }
        let sev_tok = next_tok(&toks, &mut i, "a severity (info|warning|critical)")?;
        AlertSeverity::parse(sev_tok).ok_or_else(|| format!("bad severity {sev_tok:?}"))?
    } else {
        AlertSeverity::Warning
    };
    if i < toks.len() {
        return Err(format!("unexpected trailing token {:?}", toks[i]));
    }
    Ok(AlertRule {
        name: name.to_string(),
        signal: signal.to_string(),
        delta,
        op,
        threshold,
        for_ticks,
        severity,
    })
}

/// One labelled evaluation scope: signals a rule can test and
/// annotations (diagnosis) attached to any alert that fires in it.
///
/// A scope can be kept from one tick to the next and refreshed in place:
/// [`AlertScope::set`] and [`AlertScope::annotate`] overwrite a key that
/// is already there without allocating, and
/// [`AlertScope::set_from_registry`] rewrites the global scope. A refresh
/// must leave the scope equal to the one a fresh build would make, so
/// whoever refreshes also removes what a fresh build would not hold.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertScope {
    /// Identity labels (part of the alert fingerprint). Empty for the
    /// global scope.
    pub labels: BTreeMap<String, String>,
    /// Signal values visible to rules in this scope.
    pub signals: BTreeMap<String, f64>,
    /// Diagnosis strings copied onto alerts raised in this scope.
    pub annotations: BTreeMap<String, String>,
}

impl AlertScope {
    /// The unlabelled global scope.
    pub fn global() -> Self {
        AlertScope::default()
    }

    /// A scope with a single identity label.
    pub fn labelled(key: &str, value: &str) -> Self {
        let mut scope = AlertScope::default();
        scope.labels.insert(key.to_string(), value.to_string());
        scope
    }

    /// Sets a signal value, in place when the signal is already there.
    pub fn set(&mut self, signal: &str, value: f64) {
        match self.signals.get_mut(signal) {
            Some(slot) => *slot = value,
            None => {
                self.signals.insert(signal.to_string(), value);
            }
        }
    }

    /// Attaches a diagnosis annotation: `value` as it displays, written
    /// over the previous value of `key` in place.
    pub fn annotate(&mut self, key: &str, value: impl fmt::Display) {
        let slot = match self.annotations.get_mut(key) {
            Some(slot) => {
                slot.clear();
                slot
            }
            None => self.annotations.entry(key.to_string()).or_default(),
        };
        let _ = write!(slot, "{value}");
    }

    /// Makes this the global scope of `registry`: unlabelled, with every
    /// counter and gauge as a signal under its metric name (a gauge wins
    /// over a counter of the same name). Signals already present are
    /// overwritten in place, so refreshing a scope from the same
    /// registry tick after tick allocates only for metrics registered
    /// since.
    pub fn set_from_registry(&mut self, registry: &Registry) {
        self.labels.clear();
        self.annotations.clear();
        // Every counter and gauge reads as an integer, never NaN: a
        // signal still NaN after the visit is one the registry lacks.
        self.signals.values_mut().for_each(|v| *v = f64::NAN);
        registry.visit_counters(|name, c| self.set(name, c.get() as f64));
        registry.visit_gauges(|name, g| self.set(name, g.get() as f64));
        self.signals.retain(|_, v| !v.is_nan());
    }
}

/// Everything one evaluation sees: the tick number and the scopes.
///
/// A caller evaluating every tick can keep one context: set `tick`,
/// resize `scopes` to this tick's count and refresh each scope in place
/// (see [`AlertScope`]). [`AlertEngine::evaluate`] reads only what the
/// context holds, so a context refreshed in place and one built fresh
/// that compare equal give the same transitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertContext {
    /// Monotonic tick counter (timestamps on transitions).
    pub tick: u64,
    /// Evaluation scopes; a rule is tested in every scope that carries
    /// its signal.
    pub scopes: Vec<AlertScope>,
}

impl AlertContext {
    /// An empty context for `tick`.
    pub fn new(tick: u64) -> Self {
        AlertContext {
            tick,
            scopes: Vec::new(),
        }
    }

    /// Adds the global scope fed from a metrics registry: every counter
    /// and gauge becomes a signal under its metric name.
    pub fn add_registry(&mut self, registry: &Registry) {
        let mut scope = AlertScope::global();
        scope.set_from_registry(registry);
        self.scopes.push(scope);
    }
}

/// Where an active alert is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition true, `for` hysteresis not yet satisfied.
    Pending,
    /// Condition held for `for_ticks` consecutive ticks.
    Firing,
}

impl AlertState {
    /// The lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One live `(rule, labelset)` state machine.
#[derive(Debug, Clone)]
pub struct ActiveAlert {
    /// The rule that raised it.
    pub rule: String,
    /// Rule severity.
    pub severity: AlertSeverity,
    /// The rule's hysteresis requirement.
    pub for_ticks: u64,
    /// Identity labels from the matching scope.
    pub labels: BTreeMap<String, String>,
    /// Lifecycle state.
    pub state: AlertState,
    /// Tick this episode entered pending.
    pub started_tick: u64,
    /// Tick the current state was entered.
    pub since_tick: u64,
    /// Consecutive ticks the condition has held.
    pub consecutive: u64,
    /// Most recent evaluated value (level or delta).
    pub value: f64,
    /// Most recent diagnosis annotations from the matching scope.
    pub annotations: BTreeMap<String, String>,
}

/// A finished firing episode, kept in a bounded history.
#[derive(Debug, Clone)]
pub struct ResolvedAlert {
    /// The rule that fired.
    pub rule: String,
    /// The `(rule, labelset)` fingerprint.
    pub fingerprint: String,
    /// Rule severity.
    pub severity: AlertSeverity,
    /// Identity labels.
    pub labels: BTreeMap<String, String>,
    /// Tick the episode entered pending.
    pub started_tick: u64,
    /// Tick it resolved.
    pub resolved_tick: u64,
    /// Last evaluated value while firing.
    pub value: f64,
}

/// One lifecycle edge, reported by [`AlertEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// The rule.
    pub rule: String,
    /// The `(rule, labelset)` fingerprint.
    pub fingerprint: String,
    /// Identity labels.
    pub labels: BTreeMap<String, String>,
    /// State left (`inactive`, `pending`, or `firing`).
    pub from: &'static str,
    /// State entered (`pending`, `firing`, or `resolved`).
    pub to: &'static str,
    /// Tick of the transition.
    pub tick: u64,
    /// Evaluated value at the transition.
    pub value: f64,
    /// Rule severity.
    pub severity: AlertSeverity,
    /// Diagnosis annotations at the transition.
    pub annotations: BTreeMap<String, String>,
}

/// The `(rule, labelset)` dedup key: `rule{k="v",...}`, bare `rule` for
/// the empty labelset. Labels render in sorted order, so the same
/// labelset always produces the same fingerprint.
pub fn fingerprint(rule: &str, labels: &BTreeMap<String, String>) -> String {
    let mut out = String::new();
    push_fingerprint(&mut out, rule, labels);
    out
}

/// Appends [`fingerprint`]`(rule, labels)` to `out`.
fn push_fingerprint(out: &mut String, rule: &str, labels: &BTreeMap<String, String>) {
    out.push_str(rule);
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_label_value(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Writes into `key` the key of the previous-value store backing `delta`
/// rules: one slot per `(labelset, signal)`.
fn set_delta_key(key: &mut String, labels: &BTreeMap<String, String>, signal: &str) {
    key.clear();
    push_fingerprint(key, "", labels);
    key.push('\u{1}');
    key.push_str(signal);
}

/// Makes `dst` equal to `src`, overwriting the values in place when both
/// hold the same keys.
fn copy_map(dst: &mut BTreeMap<String, String>, src: &BTreeMap<String, String>) {
    if dst.len() == src.len() && dst.keys().eq(src.keys()) {
        for (d, s) in dst.values_mut().zip(src.values()) {
            d.clone_from(s);
        }
    } else {
        *dst = src.clone();
    }
}

/// Resolved episodes kept for `/alerts` history.
const RESOLVED_HISTORY: usize = 32;

/// A condition that holds this tick: its fingerprint, the first
/// `(rule, scope)` that raised it and the value it held at.
#[derive(Default)]
struct Held {
    fingerprint: String,
    rule: usize,
    scope: usize,
    value: f64,
}

/// The rule-evaluation engine: feed it one [`AlertContext`] per tick.
///
/// An evaluation in which no alert changes state allocates nothing once
/// the engine has seen the context's shape: fingerprints and delta keys
/// are written into buffers the engine keeps.
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    /// The signals some `delta` rule reads, sorted and deduplicated: the
    /// only ones whose last level is kept.
    delta_signals: Vec<String>,
    active: BTreeMap<String, ActiveAlert>,
    resolved: VecDeque<ResolvedAlert>,
    last_values: BTreeMap<String, f64>,
    transitions_total: u64,
    tick: u64,
    /// The delta key being looked up or stored.
    key: String,
    /// This tick's holding conditions; slots past the tick's count are
    /// spare, their fingerprint buffers kept for the next tick.
    held: Vec<Held>,
}

impl AlertEngine {
    /// An engine over `rules`. The last definition of a name wins (so
    /// user rules appended after [`builtin_alert_rules`] override them),
    /// and rules are sorted by name — evaluation order, and therefore
    /// every transition sequence, is independent of input order.
    pub fn new(mut rules: Vec<AlertRule>) -> Self {
        let mut seen = BTreeSet::new();
        let mut dedup: Vec<AlertRule> = Vec::new();
        for rule in rules.drain(..).rev() {
            if seen.insert(rule.name.clone()) {
                dedup.push(rule);
            }
        }
        dedup.sort_by(|a, b| a.name.cmp(&b.name));
        let mut delta_signals: Vec<String> = (dedup.iter())
            .filter(|r| r.delta)
            .map(|r| r.signal.clone())
            .collect();
        delta_signals.sort();
        delta_signals.dedup();
        AlertEngine {
            rules: dedup,
            delta_signals,
            active: BTreeMap::new(),
            resolved: VecDeque::new(),
            last_values: BTreeMap::new(),
            transitions_total: 0,
            tick: 0,
            key: String::new(),
            held: Vec::new(),
        }
    }

    /// The effective rule set (deduplicated, sorted by name).
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Currently pending alerts.
    pub fn pending_count(&self) -> u64 {
        self.active
            .values()
            .filter(|a| a.state == AlertState::Pending)
            .count() as u64
    }

    /// Currently firing alerts.
    pub fn firing_count(&self) -> u64 {
        self.active
            .values()
            .filter(|a| a.state == AlertState::Firing)
            .count() as u64
    }

    /// Every live state machine, in fingerprint order.
    pub fn active(&self) -> impl Iterator<Item = (&str, &ActiveAlert)> {
        self.active.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Recent resolved episodes, oldest first.
    pub fn resolved(&self) -> impl Iterator<Item = &ResolvedAlert> {
        self.resolved.iter()
    }

    /// Lifecycle edges reported over the engine's lifetime.
    pub fn transitions_total(&self) -> u64 {
        self.transitions_total
    }

    /// Runs every rule against every scope carrying its signal and
    /// advances the per-fingerprint state machines. Returns the
    /// transitions of this tick, in fingerprint order (true conditions
    /// first, then resolutions).
    pub fn evaluate(&mut self, ctx: &AlertContext) -> Vec<AlertTransition> {
        self.tick = ctx.tick;
        // Pass 1: which fingerprints hold this tick, and at what value.
        let mut count = 0;
        for (ri, rule) in self.rules.iter().enumerate() {
            for (si, scope) in ctx.scopes.iter().enumerate() {
                let Some(&current) = scope.signals.get(&rule.signal) else {
                    continue;
                };
                let value = if rule.delta {
                    set_delta_key(&mut self.key, &scope.labels, &rule.signal);
                    match self.last_values.get(&self.key) {
                        Some(prev) => current - prev,
                        // No previous observation: a delta is undefined,
                        // so the condition cannot hold yet.
                        None => continue,
                    }
                } else {
                    current
                };
                if rule.op.holds(value, rule.threshold) {
                    if count == self.held.len() {
                        self.held.push(Held::default());
                    }
                    let held = &mut self.held[count];
                    held.fingerprint.clear();
                    push_fingerprint(&mut held.fingerprint, &rule.name, &scope.labels);
                    (held.rule, held.scope, held.value) = (ri, si, value);
                    count += 1;
                }
            }
        }
        // In fingerprint order, one entry per fingerprint: the first
        // `(rule, scope)` that raised it. Rules are name-sorted and a
        // fingerprint embeds its rule name, so this list is independent
        // of caller-supplied rule order.
        let held = &mut self.held[..count];
        held.sort_unstable_by(|a, b| {
            (a.fingerprint.cmp(&b.fingerprint))
                .then(a.rule.cmp(&b.rule))
                .then(a.scope.cmp(&b.scope))
        });
        let mut unique = 0;
        for i in 0..held.len() {
            if unique == 0 || held[i].fingerprint != held[unique - 1].fingerprint {
                // Swapped, not overwritten: the duplicate's buffer stays
                // behind as a spare.
                held.swap(unique, i);
                unique += 1;
            }
        }
        let held = &self.held[..unique];

        // Pass 2: advance state machines for true conditions.
        let mut transitions = Vec::new();
        for h in held {
            let rule = &self.rules[h.rule];
            let scope = &ctx.scopes[h.scope];
            let fp = h.fingerprint.as_str();
            if !self.active.contains_key(fp) {
                let fresh = ActiveAlert {
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    for_ticks: rule.for_ticks.max(1),
                    labels: scope.labels.clone(),
                    state: AlertState::Pending,
                    started_tick: ctx.tick,
                    since_tick: ctx.tick,
                    consecutive: 0,
                    value: h.value,
                    annotations: BTreeMap::new(),
                };
                self.active.insert(fp.to_string(), fresh);
            }
            let alert = self.active.get_mut(fp).expect("just inserted");
            let fresh = alert.consecutive == 0;
            alert.consecutive += 1;
            alert.value = h.value;
            copy_map(&mut alert.annotations, &scope.annotations);
            if alert.state == AlertState::Pending && alert.consecutive >= alert.for_ticks {
                let from = if fresh { "inactive" } else { "pending" };
                alert.state = AlertState::Firing;
                alert.since_tick = ctx.tick;
                transitions.push(make_transition(fp, alert, from, "firing", ctx.tick));
            } else if fresh {
                transitions.push(make_transition(fp, alert, "inactive", "pending", ctx.tick));
            }
        }

        // Pass 3: conditions that stopped holding. Firing alerts resolve
        // (and join the history); pending ones return to inactive
        // silently, Prometheus-style.
        let holds = |fp: &str| {
            held.binary_search_by(|h| h.fingerprint.as_str().cmp(fp))
                .is_ok()
        };
        let stale: Vec<String> = (self.active.keys())
            .filter(|fp| !holds(fp))
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

        // Pass 4: remember the level of every signal a delta rule reads,
        // for next tick's deltas.
        for scope in &ctx.scopes {
            for signal in &self.delta_signals {
                let Some(&value) = scope.signals.get(signal) else {
                    continue;
                };
                set_delta_key(&mut self.key, &scope.labels, signal);
                match self.last_values.get_mut(&self.key) {
                    Some(last) => *last = value,
                    None => {
                        self.last_values.insert(self.key.clone(), value);
                    }
                }
            }
        }

        self.transitions_total += transitions.len() as u64;
        transitions
    }

    /// The `/alerts` JSON document: summary counts, every active alert
    /// with its diagnosis annotations, and the resolved history.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.render_json_into(&mut out);
        out
    }

    /// Appends [`AlertEngine::render_json`]'s document to `out`.
    pub fn render_json_into(&self, out: &mut String) {
        out.push('{');
        let _ = write!(
            out,
            "\"tick\":{},\"rules\":{},\"pending\":{},\"firing\":{},\"transitions_total\":{}",
            self.tick,
            self.rules.len(),
            self.pending_count(),
            self.firing_count(),
            self.transitions_total,
        );
        out.push_str(",\"alerts\":[");
        for (i, (fp, a)) in self.active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            push_json_str(out, &a.rule);
            out.push_str(",\"fingerprint\":");
            push_json_str(out, fp);
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
            push_json_f64(out, a.value);
            out.push_str(",\"labels\":");
            push_json_map(out, &a.labels);
            out.push_str(",\"annotations\":");
            push_json_map(out, &a.annotations);
            out.push('}');
        }
        out.push_str("],\"resolved\":[");
        for (i, r) in self.resolved.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            push_json_str(out, &r.rule);
            out.push_str(",\"fingerprint\":");
            push_json_str(out, &r.fingerprint);
            let _ = write!(
                out,
                ",\"severity\":\"{}\",\"started_tick\":{},\"resolved_tick\":{},\"value\":",
                r.severity, r.started_tick, r.resolved_tick,
            );
            push_json_f64(out, r.value);
            out.push_str(",\"labels\":");
            push_json_map(out, &r.labels);
            out.push('}');
        }
        out.push_str("]}");
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

/// Renders one tick's transitions as the webhook batch document.
pub fn transitions_to_json(source: &str, tick: u64, transitions: &[AlertTransition]) -> String {
    let mut out = String::from("{\"source\":");
    push_json_str(&mut out, source);
    let _ = write!(out, ",\"tick\":{tick},\"transitions\":[");
    for (i, t) in transitions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        push_json_str(&mut out, &t.rule);
        out.push_str(",\"fingerprint\":");
        push_json_str(&mut out, &t.fingerprint);
        let _ = write!(
            out,
            ",\"from\":\"{}\",\"to\":\"{}\",\"severity\":\"{}\",\"tick\":{},\"value\":",
            t.from, t.to, t.severity, t.tick,
        );
        push_json_f64(&mut out, t.value);
        out.push_str(",\"labels\":");
        push_json_map(&mut out, &t.labels);
        out.push_str(",\"annotations\":");
        push_json_map(&mut out, &t.annotations);
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    fn rule(name: &str, signal: &str, op: CmpOp, threshold: f64, for_ticks: u64) -> AlertRule {
        AlertRule {
            name: name.into(),
            signal: signal.into(),
            delta: false,
            op,
            threshold,
            for_ticks,
            severity: AlertSeverity::Warning,
        }
    }

    fn ctx_with(tick: u64, signal: &str, value: f64) -> AlertContext {
        let mut ctx = AlertContext::new(tick);
        let mut scope = AlertScope::global();
        scope.set(signal, value);
        ctx.scopes.push(scope);
        ctx
    }

    #[test]
    fn pending_then_firing_then_resolved() {
        let mut engine = AlertEngine::new(vec![rule("hot", "temp", CmpOp::Gt, 10.0, 3)]);
        // Tick 1: condition true -> pending.
        let t = engine.evaluate(&ctx_with(1, "temp", 15.0));
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), ("inactive", "pending"));
        assert_eq!(engine.pending_count(), 1);
        // Tick 2: still true, hysteresis not met -> no transition.
        assert!(engine.evaluate(&ctx_with(2, "temp", 16.0)).is_empty());
        // Tick 3: third consecutive true tick -> firing.
        let t = engine.evaluate(&ctx_with(3, "temp", 17.0));
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), ("pending", "firing"));
        assert_eq!(engine.firing_count(), 1);
        assert_eq!(t[0].value, 17.0);
        // Tick 4: stays true -> silent.
        assert!(engine.evaluate(&ctx_with(4, "temp", 18.0)).is_empty());
        // Tick 5: condition clears -> resolved, into history.
        let t = engine.evaluate(&ctx_with(5, "temp", 3.0));
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), ("firing", "resolved"));
        assert_eq!(engine.firing_count(), 0);
        let resolved: Vec<_> = engine.resolved().collect();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].started_tick, 1);
        assert_eq!(resolved[0].resolved_tick, 5);
        assert_eq!(engine.transitions_total(), 3);
    }

    #[test]
    fn for_one_fires_immediately() {
        let mut engine = AlertEngine::new(vec![rule("hot", "temp", CmpOp::Ge, 10.0, 1)]);
        let t = engine.evaluate(&ctx_with(1, "temp", 10.0));
        assert_eq!(t.len(), 1, "for=1 must skip pending");
        assert_eq!((t[0].from, t[0].to), ("inactive", "firing"));
    }

    #[test]
    fn flapping_every_other_tick_never_fires_with_hysteresis() {
        // Satellite requirement: a rule that flaps true/false each tick
        // must never reach firing when `for >= 2`.
        let mut engine = AlertEngine::new(vec![rule("flappy", "sig", CmpOp::Gt, 0.5, 2)]);
        for tick in 1..=40u64 {
            let value = if tick % 2 == 1 { 1.0 } else { 0.0 };
            let transitions = engine.evaluate(&ctx_with(tick, "sig", value));
            assert!(
                transitions.iter().all(|t| t.to != "firing"),
                "flapping rule fired at tick {tick}"
            );
        }
        assert_eq!(engine.firing_count(), 0);
        assert_eq!(engine.resolved().count(), 0);
    }

    #[test]
    fn refire_opens_a_fresh_episode() {
        // Satellite requirement: a resolved alert that re-fires carries a
        // fresh fingerprint timestamp (started_tick), not the old one.
        let mut engine = AlertEngine::new(vec![rule("hot", "temp", CmpOp::Gt, 10.0, 2)]);
        engine.evaluate(&ctx_with(1, "temp", 20.0));
        engine.evaluate(&ctx_with(2, "temp", 20.0)); // firing
        engine.evaluate(&ctx_with(3, "temp", 0.0)); // resolved
        engine.evaluate(&ctx_with(7, "temp", 20.0));
        let t = engine.evaluate(&ctx_with(8, "temp", 20.0));
        assert_eq!((t[0].from, t[0].to), ("pending", "firing"));
        let (_, alert) = engine.active().next().unwrap();
        assert_eq!(alert.started_tick, 7, "episode restarts at re-entry");
        assert_eq!(alert.since_tick, 8);
        // Both episodes share one fingerprint; only the first resolved.
        assert_eq!(engine.resolved().count(), 1);
        assert_eq!(engine.resolved().next().unwrap().started_tick, 1);
    }

    #[test]
    fn labelled_scopes_are_independent_machines() {
        let mut engine = AlertEngine::new(vec![rule("slow", "bw", CmpOp::Lt, 100.0, 2)]);
        let mk = |tick: u64, a: f64, b: f64| {
            let mut ctx = AlertContext::new(tick);
            let mut sa = AlertScope::labelled("path", "feed1");
            sa.set("bw", a);
            sa.annotate("bottleneck", "link-a");
            let mut sb = AlertScope::labelled("path", "feed2");
            sb.set("bw", b);
            ctx.scopes.push(sa);
            ctx.scopes.push(sb);
            ctx
        };
        engine.evaluate(&mk(1, 50.0, 500.0));
        let t = engine.evaluate(&mk(2, 50.0, 500.0));
        assert_eq!(t.len(), 1, "only feed1 fires");
        assert_eq!(t[0].fingerprint, "slow{path=\"feed1\"}");
        assert_eq!(
            t[0].annotations.get("bottleneck").map(String::as_str),
            Some("link-a")
        );
        assert_eq!(engine.firing_count(), 1);
        // feed2 dips below too: its machine starts independently.
        let t = engine.evaluate(&mk(3, 50.0, 50.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].fingerprint, "slow{path=\"feed2\"}");
        assert_eq!(t[0].to, "pending");
    }

    #[test]
    fn delta_rules_compare_per_tick_change() {
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "stall".into(),
            signal: "polls".into(),
            delta: true,
            op: CmpOp::Lt,
            threshold: 0.5,
            for_ticks: 2,
            severity: AlertSeverity::Critical,
        }]);
        // First observation: delta undefined, nothing happens.
        assert!(engine.evaluate(&ctx_with(1, "polls", 10.0)).is_empty());
        // Counter advances: delta = 5, condition false.
        assert!(engine.evaluate(&ctx_with(2, "polls", 15.0)).is_empty());
        // Counter freezes twice: pending, then firing.
        let t = engine.evaluate(&ctx_with(3, "polls", 15.0));
        assert_eq!((t[0].from, t[0].to), ("inactive", "pending"));
        let t = engine.evaluate(&ctx_with(4, "polls", 15.0));
        assert_eq!((t[0].from, t[0].to), ("pending", "firing"));
        assert_eq!(t[0].value, 0.0);
        // Counter moves again: resolved.
        let t = engine.evaluate(&ctx_with(5, "polls", 25.0));
        assert_eq!((t[0].from, t[0].to), ("firing", "resolved"));
    }

    #[test]
    fn missing_signal_resolves_a_firing_alert() {
        let mut engine = AlertEngine::new(vec![rule("hot", "temp", CmpOp::Gt, 1.0, 1)]);
        engine.evaluate(&ctx_with(1, "temp", 5.0));
        assert_eq!(engine.firing_count(), 1);
        // The scope disappears entirely (path removed): firing -> resolved.
        let t = engine.evaluate(&AlertContext::new(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, "resolved");
    }

    #[test]
    fn last_rule_with_a_name_wins_and_order_is_sorted() {
        let weak = rule("dup", "x", CmpOp::Gt, 100.0, 5);
        let strong = rule("dup", "x", CmpOp::Gt, 1.0, 1);
        let engine = AlertEngine::new(vec![
            rule("zz", "x", CmpOp::Gt, 0.0, 1),
            weak,
            strong.clone(),
            rule("aa", "x", CmpOp::Gt, 0.0, 1),
        ]);
        let names: Vec<&str> = engine.rules().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["aa", "dup", "zz"]);
        assert_eq!(
            engine.rules().iter().find(|r| r.name == "dup"),
            Some(&strong),
            "the later definition overrides"
        );
    }

    #[test]
    fn parse_rules_round_trip() {
        let src = "\
# QoS alerting rules
alert path_starved if path_available_bps < 2000000 for 3 severity critical
alert rank_high if path_rank >= 0.99 for 5
alert poll_stall if delta netqos_monitor_polls_total < 0.5 for 3 severity critical
";
        let rules = parse_alert_rules(src).unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].name, "path_starved");
        assert_eq!(rules[0].op, CmpOp::Lt);
        assert_eq!(rules[0].threshold, 2_000_000.0);
        assert_eq!(rules[0].for_ticks, 3);
        assert_eq!(rules[0].severity, AlertSeverity::Critical);
        assert_eq!(
            rules[1].severity,
            AlertSeverity::Warning,
            "default severity"
        );
        assert!(rules[2].delta);
        // Display form re-parses to the same rule.
        for r in &rules {
            let reparsed = parse_alert_rules(&r.to_string()).unwrap();
            assert_eq!(&reparsed[0], r);
        }
    }

    #[test]
    fn parse_rules_rejects_malformed_lines() {
        for (src, needle) in [
            ("alarm x if y > 1 for 2", "expected `alert`"),
            ("alert bad-name if y > 1 for 2", "alphanumeric"),
            ("alert x when y > 1 for 2", "expected `if`"),
            ("alert x if y ~ 1 for 2", "bad operator"),
            ("alert x if y > up for 2", "bad threshold"),
            ("alert x if y > 1", "expected `for`"),
            ("alert x if y > 1 for 0", "at least 1"),
            ("alert x if y > 1 for 2 severity loud", "bad severity"),
            ("alert x if y > 1 for 2 extra", "expected `severity`"),
            (
                "alert x if y > 1 for 1\nalert x if z > 2 for 1",
                "duplicate rule name",
            ),
        ] {
            let err = parse_alert_rules(src).unwrap_err();
            assert!(err.contains(needle), "{src:?}: {err}");
        }
        // Errors carry line numbers.
        let err = parse_alert_rules("# fine\n\nalert ! if y > 1 for 2").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn registry_scope_feeds_counters_and_gauges() {
        let registry = Registry::new();
        registry.counter("polls_total").add(7);
        registry.gauge("depth").set(-3);
        let mut ctx = AlertContext::new(1);
        ctx.add_registry(&registry);
        let scope = &ctx.scopes[0];
        assert!(scope.labels.is_empty());
        assert_eq!(scope.signals.get("polls_total"), Some(&7.0));
        assert_eq!(scope.signals.get("depth"), Some(&-3.0));
    }

    #[test]
    fn render_json_is_valid_and_complete() {
        let mut engine = AlertEngine::new(vec![rule("hot", "temp", CmpOp::Gt, 10.0, 2)]);
        let mut ctx = AlertContext::new(1);
        let mut scope = AlertScope::labelled("path", "feed1");
        scope.set("temp", 20.0);
        scope.annotate("bottleneck", "sw.p1 <-> host.eth0");
        ctx.scopes.push(scope.clone());
        engine.evaluate(&ctx);
        let mut ctx2 = AlertContext::new(2);
        ctx2.scopes.push(scope);
        engine.evaluate(&ctx2);
        let doc = parse_json(&engine.render_json()).unwrap();
        assert_eq!(doc.get("firing").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("pending").and_then(|v| v.as_u64()), Some(0));
        let alerts = doc.get("alerts").and_then(|v| v.as_array()).unwrap();
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!(a.get("rule").and_then(|v| v.as_str()), Some("hot"));
        assert_eq!(a.get("state").and_then(|v| v.as_str()), Some("firing"));
        assert_eq!(
            a.get("fingerprint").and_then(|v| v.as_str()),
            Some("hot{path=\"feed1\"}")
        );
        assert_eq!(
            a.get("annotations")
                .and_then(|v| v.get("bottleneck"))
                .and_then(|v| v.as_str()),
            Some("sw.p1 <-> host.eth0")
        );
        // Resolve it; the history shows up in the document.
        engine.evaluate(&AlertContext::new(3));
        let doc = parse_json(&engine.render_json()).unwrap();
        assert_eq!(doc.get("firing").and_then(|v| v.as_u64()), Some(0));
        let resolved = doc.get("resolved").and_then(|v| v.as_array()).unwrap();
        assert_eq!(resolved.len(), 1);
        assert_eq!(
            resolved[0].get("resolved_tick").and_then(|v| v.as_u64()),
            Some(3)
        );
    }

    #[test]
    fn transition_batches_render_as_json() {
        let mut engine = AlertEngine::new(vec![rule("hot", "temp", CmpOp::Gt, 10.0, 1)]);
        let transitions = engine.evaluate(&ctx_with(4, "temp", 42.0));
        let body = transitions_to_json("netqos", 4, &transitions);
        let doc = parse_json(&body).unwrap();
        assert_eq!(doc.get("source").and_then(|v| v.as_str()), Some("netqos"));
        assert_eq!(doc.get("tick").and_then(|v| v.as_u64()), Some(4));
        let ts = doc.get("transitions").and_then(|v| v.as_array()).unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].get("to").and_then(|v| v.as_str()), Some("firing"));
        assert_eq!(ts[0].get("from").and_then(|v| v.as_str()), Some("inactive"));
    }

    #[test]
    fn builtin_rules_parse_from_their_display_form() {
        for r in builtin_alert_rules() {
            let reparsed = parse_alert_rules(&r.to_string()).unwrap();
            assert_eq!(reparsed[0], r);
        }
    }
}
