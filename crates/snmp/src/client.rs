//! The manager (client) side: request building, response parsing, and the
//! one synchronous manager every poller in the tree uses.
//!
//! The request builders and [`parse_response`] are sans-IO. [`Session`] is
//! the one implementation of Get, GetNext, the GetNext walk and the
//! GetBulk walk on top of them, over any [`Transport`]: the in-process
//! loopback, or a network's wire to one agent. What a manager keeps from
//! one request to the next — its request-id sequence, telemetry handles,
//! tracer and encode buffer — is a [`Manager`]; it outlives the transports
//! it talks through, so one manager can poll a thousand agents over links
//! that each exist for a single call, and it lends a Get's two halves —
//! [`Manager::encode_get`] and [`Manager::visit_answer`] — to a poller that
//! keeps many requests in flight itself. [`SnmpClient`] is the common case
//! bundled up: a manager that owns the transport to its one agent.
//!
//! A Get's answer is read against the names the Get asked: a correct
//! agent echoes them, so a binding whose name is the asked one, written
//! one octet per subidentifier, is handed on as the asked name and no
//! name is decoded, and only a name that differs — padded, reordered,
//! unexpected, past the asked ones — is decoded. What a caller sees is
//! the same either way. Walks and [`parse_response`] have no names to
//! expect and decode every one.

use crate::ber::{tag, Reader};
use crate::error::{BerError, SnmpError};
use crate::memo::Shapes;
use crate::message::{self, SnmpVersion};
use crate::oid::Oid;
use crate::pdu::{self, ErrorStatus, PduHead, PduType, VarBind};
use crate::telemetry::ClientTelemetry;
use crate::transport::Transport;
use crate::value::{SnmpValue, ValueRef};
use netqos_telemetry::Tracer;
use std::cell::RefCell;
use std::convert::Infallible;

/// The three requests a manager sends.
#[derive(Clone, Copy)]
enum Request {
    Get,
    GetNext,
    /// SNMPv2c only: non-repeaters, max-repetitions.
    GetBulk(u32, u32),
}

thread_local! {
    /// The Get binding lists this thread encoded lately, by their names.
    static GETS_SENT: RefCell<Shapes<Vec<Oid>, Vec<u8>>> = const { RefCell::new(Shapes::new()) };
}

/// Encodes `request` for `oids` (NULL-valued bindings) into `out`, over
/// whatever it held, and hands the buffer back.
///
/// A Get's binding list depends on its names alone, so a list this thread
/// encoded lately is copied, not encoded again; a list that cannot be
/// encoded is never kept.
fn encode_request(
    mut out: Vec<u8>,
    community: &str,
    request: Request,
    request_id: i32,
    oids: &[Oid],
) -> Result<Vec<u8>, SnmpError> {
    let (version, pdu_tag, second, third) = match request {
        Request::Get => (SnmpVersion::V1, tag::GET_REQUEST, 0, 0),
        Request::GetNext => (SnmpVersion::V1, tag::GET_NEXT_REQUEST, 0, 0),
        Request::GetBulk(non_repeaters, max_repetitions) => (
            SnmpVersion::V2c,
            tag::GET_BULK_REQUEST,
            non_repeaters.into(),
            max_repetitions.into(),
        ),
    };
    let is_get = matches!(request, Request::Get);
    // Wrapper and PDU header, then per binding two headers, the NULL and
    // about one octet per arc.
    let names: usize = oids.iter().map(|oid| oid.len() + 6).sum();
    out.clear();
    out.reserve(32 + community.len() + names);
    let message = message::open_message(&mut out, version, community.as_bytes());
    let pdu = pdu::open_pdu(&mut out, pdu_tag, request_id, second, third);
    let list = out.len();
    let known = is_get
        && GETS_SENT.with_borrow(|sent| {
            sent.find(|names| names.as_slice() == oids)
                .map(|bytes| out.extend_from_slice(bytes))
                .is_some()
        });
    if !known {
        for oid in oids {
            pdu::push_varbind(&mut out, oid, ValueRef::Null)?;
        }
        if is_get {
            GETS_SENT.with_borrow_mut(|sent| {
                sent.record(|names, bytes| {
                    names.clear();
                    names.extend_from_slice(oids);
                    bytes.clear();
                    bytes.extend_from_slice(&out[list..]);
                    Ok::<(), Infallible>(())
                })
            });
        }
    }
    pdu::close_pdu(&mut out, pdu);
    message::close_message(&mut out, message);
    Ok(out)
}

/// Builds an encoded `GetRequest` message.
pub fn build_get(community: &str, request_id: i32, oids: &[Oid]) -> Result<Vec<u8>, SnmpError> {
    encode_request(Vec::new(), community, Request::Get, request_id, oids)
}

/// Builds an encoded `GetNextRequest` message.
pub fn build_get_next(
    community: &str,
    request_id: i32,
    oids: &[Oid],
) -> Result<Vec<u8>, SnmpError> {
    encode_request(Vec::new(), community, Request::GetNext, request_id, oids)
}

/// Builds an encoded SNMPv2c `GetBulkRequest` message.
pub fn build_get_bulk(
    community: &str,
    request_id: i32,
    non_repeaters: u32,
    max_repetitions: u32,
    oids: &[Oid],
) -> Result<Vec<u8>, SnmpError> {
    let request = Request::GetBulk(non_repeaters, max_repetitions);
    encode_request(Vec::new(), community, request, request_id, oids)
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
}

/// Parses an encoded `GetResponse`.
pub fn parse_response(bytes: &[u8]) -> Result<Response, SnmpError> {
    message::decode_with(bytes, |wrapper| {
        let Some((head, mut list, content)) = read_answer_head(&mut wrapper.rest)? else {
            return Ok(None);
        };
        let bindings = pdu::decode_varbinds(&mut list, &[])?;
        content.finish()?;
        Ok((head.pdu_type == PduType::GetResponse).then_some(Response {
            request_id: head.request_id,
            error_status: head.error_status,
            error_index: head.error_index,
            bindings,
        }))
    })?
    .ok_or(SnmpError::NotAResponse)
}

/// Reads the PDU at `rest` up to its bindings, as [`PduHead::read`] does,
/// or, for a trap or a GetBulk — well-formed, but not what a manager waits
/// for — decodes all of it and returns `None`.
fn read_answer_head<'a>(
    rest: &mut Reader<'a>,
) -> Result<Option<(PduHead, Reader<'a>, Reader<'a>)>, SnmpError> {
    match rest.peek_tag()? {
        tag::TRAP => pdu::TrapPdu::decode(rest).map(|_| None),
        tag::GET_BULK_REQUEST => pdu::BulkPdu::decode(rest).map(|_| None),
        _ => PduHead::read(rest).map(Some),
    }
}

/// Decodes the answer to the Get sent under request-id `id` and hands its
/// binding list to `read` — but only an answer that passes judgement: a
/// datagram that is not a GetResponse, answers another request or reports
/// an error status is that error, and `read` never sees its bindings.
/// Every binding is checked either way, and a malformed message anywhere
/// outranks the judgement and whatever `read` returned. The outcome is
/// counted once in the codec counters, as for [`parse_response`].
fn decode_answer<T>(
    bytes: &[u8],
    id: i32,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, BerError>,
) -> Result<T, SnmpError> {
    message::decode_with(bytes, |wrapper| {
        let Some((head, mut list, content)) = read_answer_head(&mut wrapper.rest)? else {
            return Ok(Err(SnmpError::NotAResponse));
        };
        let refusal = if head.pdu_type != PduType::GetResponse {
            Some(SnmpError::NotAResponse)
        } else if head.request_id != id {
            Some(SnmpError::RequestIdMismatch {
                expected: id,
                got: head.request_id,
            })
        } else if !head.error_status.is_ok() {
            Some(SnmpError::ErrorStatus {
                status: head.error_status,
                index: head.error_index,
            })
        } else {
            None
        };
        let answer = match refusal {
            Some(refusal) => {
                while !list.is_empty() {
                    pdu::skip_varbind(&mut list)?;
                }
                Err(refusal)
            }
            None => Ok(read(&mut list)?),
        };
        content.finish()?;
        Ok(answer)
    })?
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

/// What a manager keeps from one request to the next, whichever agent and
/// transport the next one goes through: the request-id sequence, where its
/// metrics and spans go, and the buffer requests are encoded into. The
/// default starts at request-id 1, records no metrics and traces nothing.
#[derive(Default)]
pub struct Manager {
    last_id: i32,
    /// `None` for a manager whose owner already counts its polls.
    telemetry: Option<ClientTelemetry>,
    tracer: Tracer,
    /// The request being sent; reused so a steady-state request allocates
    /// nothing on the way out.
    request: Vec<u8>,
}

impl Manager {
    /// Routes this manager's causal spans into `tracer` (disabled by
    /// default, which costs one atomic load per request).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This manager talking to the agent behind `link` under `community`,
    /// for as long as the borrow lasts.
    pub fn session<'a>(
        &'a mut self,
        link: &'a mut dyn Transport,
        community: &'a str,
    ) -> Session<'a> {
        Session {
            manager: self,
            link,
            community,
        }
    }

    /// A request-id no request of this manager carried lately: ids run
    /// 1, 2, … `i32::MAX`, 1, …
    pub fn fresh_id(&mut self) -> i32 {
        self.last_id = self.last_id.wrapping_add(1).max(1);
        self.last_id
    }

    /// Encodes `request` under `id` into the buffer this manager keeps,
    /// and lends it.
    fn encode(
        &mut self,
        community: &str,
        request: Request,
        id: i32,
        oids: &[Oid],
    ) -> Result<&[u8], SnmpError> {
        let mut span = self.tracer.span("snmp.codec", "encode");
        let buffer = std::mem::take(&mut self.request);
        self.request = encode_request(buffer, community, request, id, oids)?;
        span.set_attr("bytes", self.request.len());
        span.set_attr("oids", oids.len());
        Ok(&self.request)
    }

    /// A `GetRequest` for `oids` under `id` (a [`Manager::fresh_id`], or
    /// the same id again to retransmit), encoded into the buffer this
    /// manager keeps, for a caller that carries the request itself. A
    /// steady-state request allocates nothing.
    pub fn encode_get(
        &mut self,
        community: &str,
        id: i32,
        oids: &[Oid],
    ) -> Result<&[u8], SnmpError> {
        self.encode(community, Request::Get, id, oids)
    }

    /// Judges `answer` as the answer to the Get for `asked` sent under
    /// `id` ([`Manager::encode_get`]) and hands each of its bindings to
    /// `visit` in order as it is decoded, its value borrowed from the
    /// datagram, until `visit` first refuses one; the outcome is counted
    /// once in the codec counters. Nothing is copied out of the datagram
    /// and nothing is allocated for the bindings.
    ///
    /// `Err` is what [`Session::get_many`] would fail with for the same
    /// answer: `visit` sees no binding of an answer that is not a
    /// GetResponse, answers another request or reports an error status,
    /// and a malformed binding anywhere outranks what `visit` said.
    /// Otherwise `Ok` holds `visit`'s refusal, or the number of bindings.
    ///
    /// A binding that names `asked`'s name at its position in the usual
    /// encoding — one octet per subidentifier, as every agent echoing a
    /// Table 1 poll writes it — is handed to `visit` as that name, and no
    /// name is decoded; any other is decoded, so `asked` changes how much
    /// work an answer takes and never what `visit` sees.
    pub fn visit_answer<E>(
        &self,
        answer: &[u8],
        id: i32,
        asked: &[Oid],
        visit: impl FnMut(&Oid, ValueRef<'_>) -> Result<(), E>,
    ) -> Result<Result<usize, E>, SnmpError> {
        let mut span = self.tracer.span("snmp.codec", "decode");
        let visited = decode_answer(answer, id, |list| pdu::visit_varbinds(list, asked, visit))?;
        if let Ok(bindings) = visited {
            span.set_attr("bindings", bindings);
        }
        Ok(visited)
    }
}

/// One manager's requests to one agent: the only implementation of Get,
/// GetNext and the two walks.
pub struct Session<'a> {
    manager: &'a mut Manager,
    link: &'a mut dyn Transport,
    community: &'a str,
}

impl Session<'_> {
    /// Encodes `request` under a fresh id and exchanges it: the id and the
    /// datagram that answers it.
    fn exchange(&mut self, request: Request, oids: &[Oid]) -> Result<(i32, Vec<u8>), SnmpError> {
        let id = self.manager.fresh_id();
        self.manager.encode(self.community, request, id, oids)?;
        let _span = self.manager.tracer.span("snmp.client", "exchange");
        let Manager {
            request, telemetry, ..
        } = &*self.manager;
        if let Some(t) = telemetry {
            t.requests.inc();
        }
        Ok((id, self.link.exchange(request)?))
    }

    /// Exchanges `request` and decodes the answer, which must carry its id.
    fn send(&mut self, request: Request, oids: &[Oid]) -> Result<Response, SnmpError> {
        let (id, bytes) = self.exchange(request, oids)?;
        let response = parse_response(&bytes)?;
        if response.request_id != id {
            return Err(SnmpError::RequestIdMismatch {
                expected: id,
                got: response.request_id,
            });
        }
        Ok(response)
    }

    /// `GetRequest` for several objects; returns the bound values in
    /// request order, the answer read against `oids` into one vector
    /// sized for them.
    pub fn get_many(&mut self, oids: &[Oid]) -> Result<Vec<VarBind>, SnmpError> {
        let (id, bytes) = self.exchange(Request::Get, oids)?;
        let mut span = self.manager.tracer.span("snmp.codec", "decode");
        let bindings = decode_answer(&bytes, id, |list| pdu::decode_varbinds(list, oids))?;
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

    /// Walks an entire subtree with repeated `GetNextRequest`s, returning
    /// all instances under `prefix` in MIB order.
    pub fn walk(&mut self, prefix: &Oid) -> Result<Vec<VarBind>, SnmpError> {
        self.walk_by(prefix, Request::GetNext)
    }

    /// Walks a subtree with SNMPv2c `GetBulkRequest`s (`max_repetitions`
    /// successors per round trip), returning all instances under `prefix`
    /// in MIB order. Dramatically fewer messages than [`Session::walk`] on
    /// large tables — see the `ablation` bench.
    pub fn bulk_walk(
        &mut self,
        prefix: &Oid,
        max_repetitions: u32,
    ) -> Result<Vec<VarBind>, SnmpError> {
        self.walk_by(prefix, Request::GetBulk(0, max_repetitions.max(1)))
    }

    /// Collects the instances under `prefix`, asking with `step` for the
    /// successors of the last one collected. The walk ends on `noSuchName`
    /// (how SNMPv1 says "end of MIB"), on an exception value (how SNMPv2c
    /// does), on leaving the subtree, on an empty answer and on an agent
    /// that does not advance; any other error status is an error.
    fn walk_by(&mut self, prefix: &Oid, step: Request) -> Result<Vec<VarBind>, SnmpError> {
        let mut out: Vec<VarBind> = Vec::new();
        loop {
            let last = out.last().map_or(prefix, |vb| &vb.oid);
            let answer = self.send(step, std::slice::from_ref(last));
            let bindings = match answer.and_then(Response::into_result) {
                Ok(bindings) => bindings,
                Err(SnmpError::ErrorStatus {
                    status: ErrorStatus::NoSuchName,
                    ..
                }) => return Ok(out),
                Err(e) => return Err(e),
            };
            if bindings.is_empty() {
                return Ok(out);
            }
            for vb in bindings {
                let last = out.last().map_or(prefix, |vb| &vb.oid);
                if vb.value.is_exception() || !vb.oid.starts_with(prefix) || vb.oid == *last {
                    return Ok(out);
                }
                out.push(vb);
            }
        }
    }
}

/// A synchronous SNMP manager bound to one agent: a [`Manager`] that owns
/// the transport it talks through.
pub struct SnmpClient<T: Transport> {
    transport: T,
    community: String,
    manager: Manager,
}

impl<T: Transport> SnmpClient<T> {
    /// Creates a client using the given transport and community string,
    /// with metrics in the process-wide registry.
    pub fn new(transport: T, community: &str) -> Self {
        SnmpClient {
            transport,
            community: community.to_owned(),
            manager: Manager {
                telemetry: Some(ClientTelemetry::global()),
                ..Manager::default()
            },
        }
    }

    /// Access to the underlying transport (e.g. to change the MIB behind a
    /// loopback between requests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// This client's session with its agent: the way in to every request
    /// and walk.
    pub fn session(&mut self) -> Session<'_> {
        self.manager.session(&mut self.transport, &self.community)
    }

    /// `self.session().get_many(oids)`, kept under its old name for the
    /// benchmark harness, which cannot change.
    pub fn get_many(&mut self, oids: &[Oid]) -> Result<Vec<VarBind>, SnmpError> {
        self.session().get_many(oids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SnmpAgent;
    use crate::message::SnmpMessage;
    use crate::mib::ScalarMib;
    use crate::mib2::{self, interfaces::IfEntry, SystemInfo};
    use crate::pdu::Pdu;
    use crate::transport::{FnTransport, LoopbackTransport};

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
        let v = c
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .unwrap();
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
        let err = c
            .session()
            .get_one(&"1.3.9.9".parse().unwrap())
            .unwrap_err();
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
        let vbs = c.session().walk(&col).unwrap();
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
        let vbs = c.session().walk(&Oid::from([1, 3])).unwrap();
        // 7 system + ifNumber + 2 * 21 table cells.
        assert_eq!(vbs.len(), 7 + 1 + 42);
    }

    #[test]
    fn bulk_walk_matches_getnext_walk() {
        let mut c = client();
        let prefix: Oid = "1.3.6.1.2.1.2".parse().unwrap();
        let via_next = c.session().walk(&prefix).unwrap();
        let mut c = client();
        for reps in [1u32, 5, 10, 100] {
            let via_bulk = c.session().bulk_walk(&prefix, reps).unwrap();
            assert_eq!(via_bulk, via_next, "max_repetitions={reps}");
        }
    }

    #[test]
    fn bulk_walk_empty_subtree() {
        let mut c = client();
        let vbs = c
            .session()
            .bulk_walk(&"1.3.6.1.2.1.99".parse().unwrap(), 10)
            .unwrap();
        assert!(vbs.is_empty());
    }

    /// An agent that answers each request with `answer(&request)`; of the
    /// request only the id is filled in.
    fn scripted(mut answer: impl FnMut(&Pdu) -> Pdu) -> SnmpClient<impl Transport> {
        let transport = FnTransport(move |request: &[u8]| {
            let id = peek_request_id(request).unwrap();
            let request = Pdu::request(PduType::GetRequest, id, &[]);
            Some(
                SnmpMessage::v2c("public", answer(&request))
                    .encode()
                    .unwrap(),
            )
        });
        SnmpClient::new(transport, "public")
    }

    #[test]
    fn walks_report_error_statuses_other_than_no_such_name() {
        let prefix = Oid::from([1, 3, 6]);
        for (status, ends_quietly) in [
            (ErrorStatus::NoSuchName, true),
            (ErrorStatus::GenErr, false),
            (ErrorStatus::TooBig, false),
        ] {
            let mut c = scripted(|request| request.error_response(status, 1));
            for walked in [c.session().walk(&prefix), c.session().bulk_walk(&prefix, 8)] {
                match walked {
                    Ok(vbs) => assert!(ends_quietly && vbs.is_empty(), "{status:?}"),
                    Err(e) => {
                        assert!(!ends_quietly, "{status:?}");
                        assert_eq!(e, SnmpError::ErrorStatus { status, index: 1 });
                    }
                }
            }
        }
    }

    #[test]
    fn walks_end_on_any_exception_value_and_on_a_stuck_agent() {
        let prefix = Oid::from([1, 3, 6]);
        let first = VarBind::new(prefix.child(1), SnmpValue::Integer(1));
        for end in [
            VarBind::new(prefix.child(2), SnmpValue::EndOfMibView),
            VarBind::new(prefix.child(2), SnmpValue::NoSuchObject),
            VarBind::new(prefix.child(2), SnmpValue::NoSuchInstance),
            VarBind::new(Oid::from([1, 4]), SnmpValue::Integer(2)), // past the subtree
            first.clone(),                                          // not advancing
        ] {
            let mut c = scripted(|request| request.response(vec![first.clone(), end.clone()]));
            assert_eq!(
                c.session().bulk_walk(&prefix, 2).unwrap(),
                std::slice::from_ref(&first)
            );
            let mut step = 0;
            let mut c = scripted(|request| {
                step += 1;
                let vb = if step == 1 { &first } else { &end };
                request.response(vec![vb.clone()])
            });
            assert_eq!(
                c.session().walk(&prefix).unwrap(),
                std::slice::from_ref(&first)
            );
        }
    }

    #[test]
    fn an_answer_under_another_request_id_is_an_error() {
        let mut c = scripted(|request| {
            let mut other = request.response(Vec::new());
            other.request_id += 1;
            other
        });
        let err = c
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .unwrap_err();
        assert!(
            matches!(err, SnmpError::RequestIdMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_community_times_out() {
        let t = LoopbackTransport::new(SnmpAgent::new("secret"), demo_mib());
        let mut c = SnmpClient::new(t, "public");
        let err = c
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .unwrap_err();
        assert_eq!(err, SnmpError::Timeout);
    }

    #[test]
    fn request_ids_increment_and_skip_zero() {
        let mut c = client();
        c.manager.last_id = i32::MAX - 1;
        // Must not panic and must keep ids positive.
        let _ = c
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .unwrap();
        let _ = c
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .unwrap();
        assert_eq!(c.manager.last_id, 1);
    }
}
