//! The manager (client) side: request building, response parsing, and a
//! synchronous convenience client over any [`Transport`].
//!
//! The request builders and [`parse_response`] are sans-IO so the monitor
//! can drive them from the event-driven simulator; [`SnmpClient`] wraps
//! them with request-id bookkeeping and retries for blocking transports
//! (UDP and loopback).

use crate::ber::{tag, Reader};
use crate::error::SnmpError;
use crate::message::{self, SnmpVersion};
use crate::oid::Oid;
use crate::pdu::{self, ErrorStatus, Pdu, PduType, VarBind};
use crate::telemetry::ClientTelemetry;
use crate::transport::Transport;
use crate::value::{SnmpValue, ValueRef};
use netqos_telemetry::Tracer;
use std::time::Instant;

/// Encodes a request for `oids` (NULL-valued bindings) into one buffer.
fn build_request(
    version: SnmpVersion,
    community: &str,
    pdu_tag: u8,
    request_id: i32,
    second: i64,
    third: i64,
    oids: &[Oid],
) -> Result<Vec<u8>, SnmpError> {
    // Wrapper and PDU header, then per binding two headers, the NULL and
    // about one octet per arc.
    let names: usize = oids.iter().map(|oid| oid.len() + 6).sum();
    let mut out = Vec::with_capacity(32 + community.len() + names);
    let message = message::open_message(&mut out, version, community.as_bytes());
    let pdu = pdu::open_pdu(&mut out, pdu_tag, request_id, second, third);
    for oid in oids {
        pdu::push_varbind(&mut out, oid, ValueRef::Null)?;
    }
    pdu::close_pdu(&mut out, pdu);
    message::close_message(&mut out, message);
    Ok(out)
}

/// Builds an encoded `GetRequest` message.
pub fn build_get(community: &str, request_id: i32, oids: &[Oid]) -> Result<Vec<u8>, SnmpError> {
    let version = SnmpVersion::V1;
    build_request(version, community, tag::GET_REQUEST, request_id, 0, 0, oids)
}

/// Builds an encoded `GetNextRequest` message.
pub fn build_get_next(
    community: &str,
    request_id: i32,
    oids: &[Oid],
) -> Result<Vec<u8>, SnmpError> {
    let (version, pdu_tag) = (SnmpVersion::V1, tag::GET_NEXT_REQUEST);
    build_request(version, community, pdu_tag, request_id, 0, 0, oids)
}

/// Builds an encoded SNMPv2c `GetBulkRequest` message.
pub fn build_get_bulk(
    community: &str,
    request_id: i32,
    non_repeaters: u32,
    max_repetitions: u32,
    oids: &[Oid],
) -> Result<Vec<u8>, SnmpError> {
    build_request(
        SnmpVersion::V2c,
        community,
        tag::GET_BULK_REQUEST,
        request_id,
        i64::from(non_repeaters),
        i64::from(max_repetitions),
        oids,
    )
}

/// A parsed agent response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub request_id: i32,
    /// Agent-reported status.
    pub error_status: ErrorStatus,
    /// 1-based failing binding index (0 when none).
    pub error_index: u32,
    /// Response bindings.
    pub bindings: Vec<VarBind>,
}

impl Response {
    /// Returns the bindings if the response succeeded, else the agent's
    /// error as [`SnmpError::ErrorStatus`].
    pub fn into_result(self) -> Result<Vec<VarBind>, SnmpError> {
        if self.error_status.is_ok() {
            Ok(self.bindings)
        } else {
            Err(SnmpError::ErrorStatus {
                status: self.error_status,
                index: self.error_index,
            })
        }
    }

    /// The value bound to `oid`, if present.
    pub fn value_of(&self, oid: &Oid) -> Option<&SnmpValue> {
        self.bindings
            .iter()
            .find(|vb| &vb.oid == oid)
            .map(|vb| &vb.value)
    }
}

/// Parses an encoded `GetResponse`.
pub fn parse_response(bytes: &[u8]) -> Result<Response, SnmpError> {
    message::decode_with(bytes, |wrapper| {
        match wrapper.rest.peek_tag()? {
            // Well-formed, but not what a manager waits for.
            tag::TRAP => pdu::TrapPdu::decode(&mut wrapper.rest).map(|_| None),
            tag::GET_BULK_REQUEST => pdu::BulkPdu::decode(&mut wrapper.rest).map(|_| None),
            _ => Pdu::decode(&mut wrapper.rest).map(Some),
        }
    })?
    .filter(|pdu| pdu.pdu_type == PduType::GetResponse)
    .map(|pdu| Response {
        request_id: pdu.request_id,
        error_status: pdu.error_status,
        error_index: pdu.error_index,
        bindings: pdu.bindings,
    })
    .ok_or(SnmpError::NotAResponse)
}

/// The request-id of an encoded request/response message, read off its
/// header without decoding the bindings and without touching the codec
/// counters. `None` when the bytes do not start like an SNMP message; a
/// `Some` does not mean the rest of the message is well-formed.
pub fn peek_request_id(bytes: &[u8]) -> Option<i32> {
    let mut message = Reader::new(bytes).expect_element(tag::SEQUENCE).ok()?;
    message.read_integer().ok()?;
    message.read_octets().ok()?;
    let (_, mut pdu) = message.read_element().ok()?;
    Some(pdu.read_integer().ok()? as i32)
}

/// A synchronous SNMP manager bound to one agent.
pub struct SnmpClient<T: Transport> {
    transport: T,
    community: String,
    next_id: i32,
    /// How many stale (wrong request-id) responses to skip per request
    /// before giving up.
    stale_tolerance: u32,
    telemetry: ClientTelemetry,
    tracer: Tracer,
}

impl<T: Transport> SnmpClient<T> {
    /// Creates a client using the given transport and community string.
    pub fn new(transport: T, community: &str) -> Self {
        SnmpClient {
            transport,
            community: community.to_owned(),
            next_id: 1,
            stale_tolerance: 4,
            telemetry: ClientTelemetry::global(),
            tracer: Tracer::disabled(),
        }
    }

    /// Routes this client's metrics to `telemetry` instead of the
    /// process-wide registry (used by services with their own registry).
    pub fn set_telemetry(&mut self, telemetry: ClientTelemetry) {
        self.telemetry = telemetry;
    }

    /// Routes this client's causal spans into `tracer` (disabled by
    /// default, which costs one atomic load per request).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Access to the underlying transport (e.g. to adjust timeouts).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    fn fresh_id(&mut self) -> i32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }

    fn exchange_checked(&mut self, request: &[u8], id: i32) -> Result<Response, SnmpError> {
        self.telemetry.requests.inc();
        self.telemetry.bytes_sent.add(request.len() as u64);
        let start = Instant::now();
        let mut stale = 0;
        let result = loop {
            let bytes = match self.transport.exchange(request) {
                Ok(b) => b,
                Err(e) => break Err(e),
            };
            self.telemetry.bytes_received.add(bytes.len() as u64);
            let resp = match parse_response(&bytes) {
                Ok(r) => r,
                Err(e) => break Err(e),
            };
            if resp.request_id == id {
                break Ok(resp);
            }
            // A late retransmission answer from an earlier request: skip a
            // bounded number of them.
            self.telemetry.stale_responses.inc();
            stale += 1;
            if stale > self.stale_tolerance {
                break Err(SnmpError::RequestIdMismatch {
                    expected: id,
                    got: resp.request_id,
                });
            }
        };
        match &result {
            Ok(_) => {
                self.telemetry.responses.inc();
                self.telemetry.rtt_ns.record_duration(start.elapsed());
            }
            Err(_) => self.telemetry.errors.inc(),
        }
        result
    }

    /// `GetRequest` for several objects; returns the bound values in
    /// request order.
    pub fn get_many(&mut self, oids: &[Oid]) -> Result<Vec<VarBind>, SnmpError> {
        let id = self.fresh_id();
        let req = {
            let mut span = self.tracer.span("snmp.codec", "encode");
            let req = build_get(&self.community, id, oids)?;
            span.set_attr("bytes", req.len());
            span.set_attr("oids", oids.len());
            req
        };
        let resp = {
            let _span = self.tracer.span("snmp.client", "exchange");
            self.exchange_checked(&req, id)?
        };
        let mut span = self.tracer.span("snmp.codec", "decode");
        let bindings = resp.into_result()?;
        span.set_attr("bindings", bindings.len());
        Ok(bindings)
    }

    /// `GetRequest` for one object.
    pub fn get_one(&mut self, oid: &Oid) -> Result<SnmpValue, SnmpError> {
        let mut vbs = self.get_many(std::slice::from_ref(oid))?;
        if vbs.is_empty() {
            return Err(SnmpError::MissingBinding(oid.to_string()));
        }
        Ok(vbs.swap_remove(0).value)
    }

    /// One `GetNextRequest` step.
    pub fn get_next(&mut self, oids: &[Oid]) -> Result<Vec<VarBind>, SnmpError> {
        let id = self.fresh_id();
        let req = build_get_next(&self.community, id, oids)?;
        self.exchange_checked(&req, id)?.into_result()
    }

    /// Walks a subtree with SNMPv2c `GetBulkRequest`s (`max_repetitions`
    /// successors per round trip), returning all instances under `prefix`
    /// in MIB order. Dramatically fewer messages than [`SnmpClient::walk`]
    /// on large tables — see the `ablation` bench.
    pub fn bulk_walk(
        &mut self,
        prefix: &Oid,
        max_repetitions: u32,
    ) -> Result<Vec<VarBind>, SnmpError> {
        let mut out = Vec::new();
        let mut cur = prefix.clone();
        'outer: loop {
            let id = self.fresh_id();
            let req = build_get_bulk(
                &self.community,
                id,
                0,
                max_repetitions.max(1),
                &[cur.clone()],
            )?;
            let resp = self.exchange_checked(&req, id)?;
            let bindings = resp.into_result()?;
            if bindings.is_empty() {
                break;
            }
            for vb in bindings {
                if vb.value == SnmpValue::EndOfMibView || !vb.oid.starts_with(prefix) {
                    break 'outer;
                }
                if vb.oid == cur {
                    break 'outer; // defensive against broken agents
                }
                cur = vb.oid.clone();
                out.push(vb);
            }
        }
        Ok(out)
    }

    /// Walks an entire subtree with repeated `GetNextRequest`s, returning
    /// all instances under `prefix` in MIB order.
    pub fn walk(&mut self, prefix: &Oid) -> Result<Vec<VarBind>, SnmpError> {
        let mut out = Vec::new();
        let mut cur = prefix.clone();
        loop {
            let step = match self.get_next(std::slice::from_ref(&cur)) {
                Ok(vbs) => vbs,
                // End of MIB within v1 is signalled by noSuchName.
                Err(SnmpError::ErrorStatus {
                    status: ErrorStatus::NoSuchName,
                    ..
                }) => break,
                Err(e) => return Err(e),
            };
            let Some(vb) = step.into_iter().next() else {
                break;
            };
            if !vb.oid.starts_with(prefix) {
                break; // walked past the subtree
            }
            if vb.oid == cur {
                break; // defensive: a broken agent echoing the same OID
            }
            cur = vb.oid.clone();
            out.push(vb);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SnmpAgent;
    use crate::mib::ScalarMib;
    use crate::mib2::{self, interfaces::IfEntry, SystemInfo};
    use crate::transport::LoopbackTransport;

    fn demo_mib() -> ScalarMib {
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &SystemInfo::new("L"), 777);
        mib2::interfaces::install(
            &mut mib,
            &[
                IfEntry::ethernet(1, "eth0", 100_000_000, [2, 0, 0, 0, 0, 1]),
                IfEntry::ethernet(2, "eth1", 10_000_000, [2, 0, 0, 0, 0, 2]),
            ],
        );
        mib
    }

    fn client() -> SnmpClient<LoopbackTransport> {
        let t = LoopbackTransport::new(SnmpAgent::new("public"), demo_mib());
        SnmpClient::new(t, "public")
    }

    #[test]
    fn get_one_uptime() {
        let mut c = client();
        let v = c.get_one(&mib2::system::sys_uptime_instance()).unwrap();
        assert_eq!(v, SnmpValue::TimeTicks(777));
    }

    #[test]
    fn get_many_order_preserved() {
        let mut c = client();
        let oids = vec![
            mib2::interfaces::instance_oid(mib2::interfaces::column::IF_SPEED, 2),
            mib2::system::sys_uptime_instance(),
        ];
        let vbs = c.get_many(&oids).unwrap();
        assert_eq!(vbs[0].value, SnmpValue::Gauge32(10_000_000));
        assert_eq!(vbs[1].value, SnmpValue::TimeTicks(777));
    }

    #[test]
    fn get_missing_maps_to_error_status() {
        let mut c = client();
        let err = c.get_one(&"1.3.9.9".parse().unwrap()).unwrap_err();
        assert!(matches!(
            err,
            SnmpError::ErrorStatus {
                status: ErrorStatus::NoSuchName,
                index: 1
            }
        ));
    }

    #[test]
    fn walk_iftable_octets_column() {
        let mut c = client();
        let col = mib2::interfaces::column_oid(mib2::interfaces::column::IF_IN_OCTETS);
        let vbs = c.walk(&col).unwrap();
        assert_eq!(vbs.len(), 2);
        assert_eq!(
            vbs[0].oid,
            mib2::interfaces::instance_oid(mib2::interfaces::column::IF_IN_OCTETS, 1)
        );
        assert_eq!(
            vbs[1].oid,
            mib2::interfaces::instance_oid(mib2::interfaces::column::IF_IN_OCTETS, 2)
        );
    }

    #[test]
    fn walk_whole_mib() {
        let mut c = client();
        let vbs = c.walk(&Oid::from([1, 3])).unwrap();
        // 7 system + ifNumber + 2 * 21 table cells.
        assert_eq!(vbs.len(), 7 + 1 + 42);
    }

    #[test]
    fn bulk_walk_matches_getnext_walk() {
        let mut c = client();
        let prefix: Oid = "1.3.6.1.2.1.2".parse().unwrap();
        let via_next = c.walk(&prefix).unwrap();
        let mut c = client();
        for reps in [1u32, 5, 10, 100] {
            let via_bulk = c.bulk_walk(&prefix, reps).unwrap();
            assert_eq!(via_bulk, via_next, "max_repetitions={reps}");
        }
    }

    #[test]
    fn bulk_walk_empty_subtree() {
        let mut c = client();
        let vbs = c.bulk_walk(&"1.3.6.1.2.1.99".parse().unwrap(), 10).unwrap();
        assert!(vbs.is_empty());
    }

    #[test]
    fn wrong_community_times_out() {
        let t = LoopbackTransport::new(SnmpAgent::new("secret"), demo_mib());
        let mut c = SnmpClient::new(t, "public");
        let err = c.get_one(&mib2::system::sys_uptime_instance()).unwrap_err();
        assert!(matches!(err, SnmpError::Transport(_)), "{err:?}");
    }

    #[test]
    fn response_value_lookup() {
        let r = Response {
            request_id: 1,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bindings: vec![VarBind::new(
                mib2::system::sys_uptime_instance(),
                SnmpValue::TimeTicks(5),
            )],
        };
        assert_eq!(
            r.value_of(&mib2::system::sys_uptime_instance()),
            Some(&SnmpValue::TimeTicks(5))
        );
        assert_eq!(r.value_of(&Oid::from([1, 2])), None);
    }

    #[test]
    fn request_ids_increment_and_skip_zero() {
        let mut c = client();
        c.next_id = i32::MAX;
        // Must not panic and must keep ids positive.
        let _ = c.get_one(&mib2::system::sys_uptime_instance()).unwrap();
        let _ = c.get_one(&mib2::system::sys_uptime_instance()).unwrap();
        assert!(c.next_id >= 1);
    }
}
