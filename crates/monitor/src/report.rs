//! The per-path row a service tick builds.

use netqos_telemetry::{push_json_str, AlertScope, SampleAnnotation};
use netqos_topology::bandwidth::{BandwidthRule, ConnectionBandwidth};
use std::fmt::Write as _;

/// Everything one service tick knows about one qospath it could
/// evaluate. `MonitoringService::tick` writes each row exactly once, in
/// its evaluate stage; the alert scope, the trace annotation, the
/// long-term series, `/snapshot` and `netqos monitor`'s CSV all read it.
///
/// The service keeps its rows from tick to tick and rewrites each in
/// place (its strings with `clone_from` and
/// `NetworkTopology::describe_connection_into`), so a row holds exactly
/// what a freshly built one would and a steady tick allocates none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathRow {
    /// The qospath name from the specification.
    pub name: String,
    /// Used bandwidth at the bottleneck, bits/s.
    pub used_bps: u64,
    /// Available bandwidth of the path, bits/s.
    pub available_bps: u64,
    /// Percentile rank of `used_bps` against the path's own baseline,
    /// taken before the sample was folded in.
    pub rank: f64,
    /// Samples in the baseline, this one included.
    pub baseline_count: u64,
    /// Baseline median used bandwidth before this sample, bits/s.
    pub baseline_p50: u64,
    /// Baseline p99 used bandwidth before this sample, bits/s.
    pub baseline_p99: u64,
    /// Highest utilisation of any connection on the path.
    pub utilization: f64,
    /// Whether the path is in QoS violation after this evaluation.
    pub violated: bool,
    /// The bottleneck connection, described (`a.if0 <-> b.if1`).
    pub bottleneck: String,
    /// The bottleneck's own figures: rule, capacity, available and
    /// utilisation. `None` only for a zero-hop path, whose bottleneck
    /// names no connection.
    pub bottleneck_bandwidth: Option<ConnectionBandwidth>,
    /// The spec's `min_available` floor, bits/s.
    pub min_available_bps: Option<u64>,
    /// The spec's `max_utilization` limit, a fraction.
    pub max_utilization: Option<f64>,
}

impl PathRow {
    /// This row as the annotated sample a flight cycle carries.
    pub fn annotation(&self) -> SampleAnnotation {
        SampleAnnotation {
            path: self.name.clone(),
            connection: self.bottleneck.clone(),
            used_bps: self.used_bps,
            available_bps: self.available_bps,
            used_rank: self.rank,
            baseline_p50: self.baseline_p50,
            baseline_p99: self.baseline_p99,
        }
    }

    /// This row as an alert scope: the signals user rules can test, plus
    /// the bottleneck diagnosis (the paper's §3 model names the worst
    /// connection and whether a shared medium or a switched link is the
    /// constraint) carried as annotations onto any alert raised here.
    pub fn alert_scope(&self) -> AlertScope {
        let mut scope = AlertScope::default();
        self.fill_alert_scope(&mut scope);
        scope
    }

    /// Makes `scope` equal to [`PathRow::alert_scope`], whatever it held
    /// before. Keys already there are overwritten in place, so refilling a
    /// scope from the same path tick after tick allocates nothing.
    pub fn fill_alert_scope(&self, scope: &mut AlertScope) {
        let written = self.write_alert_scope(scope);
        if (
            scope.labels.len(),
            scope.signals.len(),
            scope.annotations.len(),
        ) != written
        {
            // The scope also held keys this row does not carry.
            *scope = AlertScope::default();
            self.write_alert_scope(scope);
        }
    }

    /// Writes this row's label, signals and annotations into `scope` over
    /// what is there, and returns how many of each it wrote.
    fn write_alert_scope(&self, scope: &mut AlertScope) -> (usize, usize, usize) {
        match scope.labels.get_mut("path") {
            Some(path) => path.clone_from(&self.name),
            None => {
                scope.labels.insert("path".into(), self.name.clone());
            }
        }
        scope.set("path_used_bps", self.used_bps as f64);
        scope.set("path_available_bps", self.available_bps as f64);
        scope.set("path_rank", self.rank);
        scope.set("path_baseline_p50_bps", self.baseline_p50 as f64);
        scope.set("path_baseline_p99_bps", self.baseline_p99 as f64);
        scope.set("path_utilization", self.utilization);
        scope.set("path_violated", if self.violated { 1.0 } else { 0.0 });
        let mut signals = 7;
        if let Some(min) = self.min_available_bps {
            scope.set("path_min_available_bps", min as f64);
            scope.set("path_headroom_bps", self.available_bps as f64 - min as f64);
            signals += 2;
        }
        if let Some(limit) = self.max_utilization {
            scope.set("path_max_utilization", limit);
            signals += 1;
        }
        let Some(cb) = &self.bottleneck_bandwidth else {
            return (1, signals, 0);
        };
        scope.annotate("bottleneck", &self.bottleneck);
        scope.annotate(
            "bottleneck_kind",
            match cb.rule {
                BandwidthRule::SharedMedium => "shared_medium",
                BandwidthRule::PointToPoint => "point_to_point",
            },
        );
        scope.annotate("bottleneck_available_bps", cb.available_bps);
        scope.annotate("bottleneck_capacity_bps", cb.capacity_bps);
        scope.annotate(
            "bottleneck_utilization",
            format_args!("{:.3}", cb.utilization()),
        );
        (1, signals, 5)
    }

    /// This row's long-term gauges: each `(signal, value)` is one point
    /// of the series `netqos_path_<signal>{path="<name>"}`.
    pub fn gauges(&self) -> [(&'static str, i64); 2] {
        let as_i64 = |v: u64| v.min(i64::MAX as u64) as i64;
        [
            ("used_bps", as_i64(self.used_bps)),
            ("available_bps", as_i64(self.available_bps)),
        ]
    }

    /// Appends this row's object of the `/snapshot` digest's `paths`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        push_json_str(out, &self.name);
        let _ = write!(
            out,
            ",\"used_bps\":{},\"available_bps\":{},\"rank\":{:.4},\
             \"baseline\":{{\"count\":{},\"p50\":{},\"p99\":{}}}}}",
            self.used_bps,
            self.available_bps,
            self.rank,
            self.baseline_count,
            self.baseline_p50,
            self.baseline_p99,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, limits: (Option<u64>, Option<f64>), rule: Option<BandwidthRule>) -> PathRow {
        PathRow {
            name: name.into(),
            used_bps: 1_200,
            available_bps: 98_800,
            rank: 0.25,
            baseline_count: 9,
            baseline_p50: 1_000,
            baseline_p99: 1_500,
            utilization: 0.012,
            violated: rule.is_none(),
            bottleneck: format!("{name}.eth0 <-> sw.p1"),
            bottleneck_bandwidth: rule.map(|rule| ConnectionBandwidth {
                conn: netqos_topology::ConnId(3),
                capacity_bps: 100_000,
                used_bps: 1_200,
                available_bps: 98_800,
                rule,
            }),
            min_available_bps: limits.0,
            max_utilization: limits.1,
        }
    }

    /// A scope refilled from a row equals the one the row builds fresh,
    /// whatever the scope held: another path, other optional signals, no
    /// bottleneck, or labels, signals and annotations no row carries.
    #[test]
    fn a_refilled_alert_scope_equals_a_fresh_one() {
        let rows = [
            row(
                "feed1",
                (Some(16_000), Some(0.7)),
                Some(BandwidthRule::PointToPoint),
            ),
            row(
                "feed2",
                (Some(16_000), None),
                Some(BandwidthRule::SharedMedium),
            ),
            row("archiving", (None, Some(0.5)), None),
            row("a\"b", (None, None), Some(BandwidthRule::PointToPoint)),
        ];
        let mut foreign = AlertScope::labelled("shard", "lirtss");
        foreign.labels.insert("path".into(), "feed1".into());
        foreign.set("netqos_monitor_polls_total", 7.0);
        foreign.set("path_rank", 0.9);
        foreign.annotate("note", "stale");
        let befores = rows.iter().map(PathRow::alert_scope);
        for before in befores.chain([foreign, AlertScope::global()]) {
            for after in &rows {
                let mut scope = before.clone();
                after.fill_alert_scope(&mut scope);
                assert_eq!(
                    scope,
                    after.alert_scope(),
                    "{before:?} refilled as {}",
                    after.name
                );
            }
        }
    }
}
