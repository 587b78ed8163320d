//! Self-monitoring SNMP sub-agent: the monitor's own telemetry, served
//! over the same protocol the monitor uses to watch everything else.
//!
//! The paper's monitor is itself a resource-consuming program in the
//! real-time system; this module closes the loop by exposing the
//! [`Registry`] of pipeline metrics as a private-enterprise MIB subtree,
//! so a management station (or the monitor's own test harness) can poll
//! the monitor exactly like any other agent.
//!
//! ## MIB layout
//!
//! Everything lives under `netqosTelemetry` =
//! [`qos::netqos_enterprise`]`.3` (arcs `1.3.6.1.4.1.99999.3`), three
//! conceptual tables indexed by the metric's 1-based position in the
//! name-sorted registry snapshot:
//!
//! ```text
//! .1.1.<i>  counterName   OctetString
//! .1.2.<i>  counterValue  Counter32 (wraps modulo 2^32)
//! .2.1.<i>  gaugeName     OctetString
//! .2.2.<i>  gaugeValue    Integer
//! .3.1.<i>  histoName     OctetString
//! .3.2.<i>  histoCount    Counter32
//! .3.3.<i>  histoSum      Counter32 (wraps modulo 2^32)
//! .3.4.<i>  histoMin      Gauge32 (clamped)
//! .3.5.<i>  histoMax      Gauge32 (clamped)
//! .3.6.<i>  histoP50      Gauge32 (clamped)
//! .3.7.<i>  histoP90      Gauge32 (clamped)
//! .3.8.<i>  histoP99      Gauge32 (clamped)
//! ```
//!
//! Indices are rebuilt on every [`SelfAgent::refresh`]; they are stable
//! for a fixed set of metric names (snapshots iterate in sorted order)
//! but shift if new metrics register, so walkers should pair each value
//! with the name column rather than hard-coding indices.

use crate::qos;
use netqos_snmp::agent::{AgentStats, SnmpAgent};
use netqos_snmp::mib::ScalarMib;
use netqos_snmp::oid::Oid;
use netqos_snmp::value::SnmpValue;
use netqos_telemetry::Registry;
use std::sync::Arc;

/// Arc appended to the enterprise OID for the telemetry subtree.
pub const TELEMETRY_ARC: u32 = 3;

/// Root of the self-telemetry MIB: `1.3.6.1.4.1.99999.3`.
pub fn telemetry_base() -> Oid {
    qos::netqos_enterprise().child(TELEMETRY_ARC)
}

fn clamp_gauge(v: u64) -> SnmpValue {
    SnmpValue::Gauge32(v.min(u32::MAX as u64) as u32)
}

fn wrap_counter(v: u64) -> SnmpValue {
    SnmpValue::Counter32((v & u64::from(u32::MAX)) as u32)
}

/// An SNMPv1 agent view over a telemetry [`Registry`].
///
/// Transport-free like [`SnmpAgent`]: [`SelfAgent::handle`] maps request
/// bytes to optional response bytes, regenerating the MIB from a fresh
/// registry snapshot first, so every response reflects live values.
pub struct SelfAgent {
    registry: Arc<Registry>,
    agent: SnmpAgent,
    mib: ScalarMib,
}

impl SelfAgent {
    /// Creates a sub-agent serving `registry` to the given community.
    pub fn new(registry: Arc<Registry>, community: &str) -> Self {
        let mut this = SelfAgent {
            registry,
            agent: SnmpAgent::new(community),
            mib: ScalarMib::new(),
        };
        this.refresh();
        this
    }

    /// Rebuilds the MIB from the current registry snapshot.
    pub fn refresh(&mut self) {
        let snap = self.registry.snapshot();
        let base = telemetry_base();
        let mut mib = ScalarMib::new();
        for (i, (name, value)) in snap.counters.iter().enumerate() {
            let idx = i as u32 + 1;
            mib.insert(base.extend(&[1, 1, idx]), SnmpValue::text(name));
            mib.insert(base.extend(&[1, 2, idx]), wrap_counter(*value));
        }
        for (i, (name, value)) in snap.gauges.iter().enumerate() {
            let idx = i as u32 + 1;
            mib.insert(base.extend(&[2, 1, idx]), SnmpValue::text(name));
            mib.insert(base.extend(&[2, 2, idx]), SnmpValue::Integer(*value));
        }
        for (i, (name, s)) in snap.histograms.iter().enumerate() {
            let idx = i as u32 + 1;
            mib.insert(base.extend(&[3, 1, idx]), SnmpValue::text(name));
            mib.insert(base.extend(&[3, 2, idx]), wrap_counter(s.count));
            mib.insert(base.extend(&[3, 3, idx]), wrap_counter(s.sum));
            mib.insert(base.extend(&[3, 4, idx]), clamp_gauge(s.min));
            mib.insert(base.extend(&[3, 5, idx]), clamp_gauge(s.max));
            mib.insert(base.extend(&[3, 6, idx]), clamp_gauge(s.p50));
            mib.insert(base.extend(&[3, 7, idx]), clamp_gauge(s.p90));
            mib.insert(base.extend(&[3, 8, idx]), clamp_gauge(s.p99));
        }
        self.mib = mib;
    }

    /// Handles one request datagram, refreshing the MIB first. Returns
    /// the response datagram, or `None` where SNMPv1 prescribes silence.
    pub fn handle(&mut self, request: &[u8]) -> Option<Vec<u8>> {
        self.refresh();
        self.agent.handle(request, &self.mib)
    }

    /// The instance OID holding the value of the named counter, as of the
    /// last refresh.
    pub fn counter_value_oid(&self, name: &str) -> Option<Oid> {
        self.name_to_value_oid(1, name)
    }

    /// The instance OID holding the value of the named gauge.
    pub fn gauge_value_oid(&self, name: &str) -> Option<Oid> {
        self.name_to_value_oid(2, name)
    }

    fn name_to_value_oid(&self, table: u32, name: &str) -> Option<Oid> {
        let name_col = telemetry_base().extend(&[table, 1]);
        for (oid, value) in self.mib.subtree(&name_col) {
            if let SnmpValue::OctetString(bytes) = value {
                if bytes == name.as_bytes() {
                    let idx = *oid.arcs().last()?;
                    return Some(telemetry_base().extend(&[table, 2, idx]));
                }
            }
        }
        None
    }

    /// The current MIB (as of the last refresh).
    pub fn mib(&self) -> &ScalarMib {
        &self.mib
    }

    /// Underlying agent statistics.
    pub fn stats(&self) -> AgentStats {
        self.agent.stats()
    }

    /// The registry this agent serves.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_snmp::message::{MessageBody, SnmpMessage, SnmpVersion};
    use netqos_snmp::pdu::{ErrorStatus, Pdu, PduType, VarBind};

    fn get_request(oid: Oid) -> Vec<u8> {
        SnmpMessage {
            version: SnmpVersion::V1,
            community: b"public".to_vec(),
            body: MessageBody::Pdu(Pdu {
                pdu_type: PduType::GetRequest,
                request_id: 7,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                bindings: vec![VarBind {
                    oid,
                    value: SnmpValue::Null,
                }],
            }),
        }
        .encode()
        .unwrap()
    }

    fn decode_single(resp: &[u8]) -> SnmpValue {
        let msg = SnmpMessage::decode(resp).unwrap();
        match msg.body {
            MessageBody::Pdu(pdu) => {
                assert_eq!(pdu.error_status, ErrorStatus::NoError);
                pdu.bindings.into_iter().next().unwrap().value
            }
            other => panic!("unexpected body: {other:?}"),
        }
    }

    #[test]
    fn serves_live_counter_values() {
        let registry = Registry::new();
        let c = registry.counter("netqos_monitor_ticks_total");
        c.add(5);
        let mut agent = SelfAgent::new(registry, "public");
        let oid = agent
            .counter_value_oid("netqos_monitor_ticks_total")
            .unwrap();
        let resp = agent.handle(&get_request(oid.clone())).unwrap();
        assert_eq!(decode_single(&resp), SnmpValue::Counter32(5));

        // Values are re-snapshotted per request, not frozen at creation.
        c.add(2);
        let resp = agent.handle(&get_request(oid)).unwrap();
        assert_eq!(decode_single(&resp), SnmpValue::Counter32(7));
    }

    #[test]
    fn walk_visits_whole_subtree_in_order() {
        let registry = Registry::new();
        registry.counter("a_total").inc();
        registry.gauge("depth").set(-3);
        registry.histogram("rtt_us").record(1000);
        let mut agent = SelfAgent::new(registry, "public");
        agent.refresh();

        let base = telemetry_base();
        let mut cur = base.clone();
        let mut seen = Vec::new();
        while let Some((next, _)) = {
            use netqos_snmp::mib::MibView;
            agent.mib().next_after(&cur)
        } {
            if !next.starts_with(&base) {
                break;
            }
            seen.push(next.clone());
            cur = next.clone();
        }
        // 1 counter (name+value) + 1 gauge (name+value) + 1 histogram
        // (name + 7 stats) = 12 instances.
        assert_eq!(seen.len(), 12);
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
    }

    #[test]
    fn gauge_roundtrips_negative_values() {
        let registry = Registry::new();
        registry.gauge("netqos_monitor_trap_outbox_depth").set(-9);
        let mut agent = SelfAgent::new(registry, "public");
        let oid = agent
            .gauge_value_oid("netqos_monitor_trap_outbox_depth")
            .unwrap();
        let resp = agent.handle(&get_request(oid)).unwrap();
        assert_eq!(decode_single(&resp), SnmpValue::Integer(-9));
    }
}
