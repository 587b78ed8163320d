//! The SNMP agent: request handling against a [`MibView`].
//!
//! The agent is transport-free: [`SnmpAgent::handle`] maps request bytes to
//! optional response bytes. SNMPv1 semantics implemented:
//!
//! * community mismatch → silently drop the request (and count it);
//! * `GetRequest` with any unknown name → `noSuchName` with the 1-based
//!   index of the first offender, bindings echoed;
//! * `GetNextRequest` past the end of the MIB → `noSuchName`;
//! * `SetRequest` → `readOnly` (this agent never writes);
//! * responses/traps received by an agent are ignored;
//! * SNMPv2c `GetBulkRequest` → successors, with `endOfMibView` past the
//!   end of the MIB; inside a v1 message it is dropped as malformed. Its
//!   repetitions stop as soon as the answer passes the response limit,
//!   and the agent answers `tooBig`.

use crate::ber::{self, tag, Reader};
use crate::error::{BerError, SnmpError};
use crate::memo::Shapes;
use crate::message::{self, MessageBody, SnmpMessage, SnmpVersion, Wrapper};
use crate::mib::MibView;
use crate::oid::Oid;
use crate::pdu::{self, ErrorStatus, Pdu, PduType, TrapPdu};
use crate::value::ValueRef;
use std::cell::{Cell, RefCell};

/// Counters describing an agent's life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Requests successfully parsed and answered (including error
    /// responses).
    pub answered: u64,
    /// Messages dropped for a community mismatch.
    pub bad_community: u64,
    /// Messages dropped as undecodable.
    pub malformed: u64,
    /// Error responses among `answered`.
    pub error_responses: u64,
}

/// A read-only SNMPv1 agent.
#[derive(Debug, Clone)]
pub struct SnmpAgent {
    community: Vec<u8>,
    stats: AgentStats,
    max_response_bytes: usize,
}

/// What a well-formed message calls for.
enum Reply {
    /// Nothing, and no counter moves: a trap, a response, or an answer
    /// that cannot be encoded.
    Silent,
    /// Nothing: the community does not match.
    BadCommunity,
    /// Nothing: a GetBulk inside a v1 message, which exists only in v2c.
    ProtocolViolation,
    /// The response written to the output buffer.
    Answer {
        request_id: i32,
        status: ErrorStatus,
    },
}

/// Why an answer stopped taking bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// A binding could not be encoded: the reply is silence.
    Unencodable,
    /// The response passed its size limit: the reply is `tooBig`.
    TooBig,
}

/// Writes a complete response message with the bindings `bindings`
/// appends.
fn write_response(
    out: &mut Vec<u8>,
    wrapper: &Wrapper<'_>,
    request_id: i32,
    status: ErrorStatus,
    error_index: u32,
    bindings: impl FnOnce(&mut Vec<u8>) -> Result<(), BerError>,
) -> Result<(), BerError> {
    out.clear();
    let message = message::open_message(out, wrapper.version, wrapper.community);
    let pdu = pdu::open_pdu(
        out,
        tag::GET_RESPONSE,
        request_id,
        status.code(),
        i64::from(error_index),
    );
    bindings(out)?;
    pdu::close_pdu(out, pdu);
    message::close_message(out, message);
    Ok(())
}

impl SnmpAgent {
    /// Creates an agent that accepts the given community string.
    ///
    /// The default maximum response size is 64 KiB (the UDP datagram
    /// limit); use [`SnmpAgent::set_max_response_bytes`] to model agents
    /// with smaller buffers, which answer oversized requests with the
    /// `tooBig` error (RFC 1157 §4.1.2).
    pub fn new(community: &str) -> Self {
        SnmpAgent {
            community: community.as_bytes().to_vec(),
            stats: AgentStats::default(),
            max_response_bytes: 65_507,
        }
    }

    /// Limits the encoded response size; larger replies become `tooBig`
    /// errors.
    pub fn set_max_response_bytes(&mut self, limit: usize) {
        self.max_response_bytes = limit;
    }

    /// The agent's life-time statistics.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Handles one request datagram against `view`. Returns the response
    /// datagram, or `None` when SNMPv1 prescribes silence (bad community,
    /// unparseable message, or a non-request PDU).
    pub fn handle(&mut self, request: &[u8], view: &dyn MibView) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.handle_into(request, view, &mut out).then_some(out)
    }

    /// [`SnmpAgent::handle`] into a buffer the caller keeps: `out` is
    /// overwritten with the response datagram and `true` returned, or
    /// `false` when SNMPv1 prescribes silence (`out` then holds nothing of
    /// use). An agent that answers from one kept buffer allocates nothing
    /// per request once the buffer has grown to its largest answer.
    ///
    /// Get, GetNext and GetBulk are answered in one pass over the request:
    /// each name is decoded, looked up, and the name and value the view
    /// lends are encoded straight into the response. A Get whose binding
    /// list is byte for byte one this thread answered in full lately —
    /// a monitor's poll, every period — is answered from the names that
    /// list decoded to and their encodings, which the thread keeps for a
    /// few such lists.
    pub fn handle_into(&mut self, request: &[u8], view: &dyn MibView, out: &mut Vec<u8>) -> bool {
        out.clear();
        let reply = message::decode_with(request, |wrapper| {
            let reply = self.reply(wrapper, view, out)?;
            // RFC 1157 §4.1.2: if the reply would exceed a local
            // limitation, respond tooBig with no bindings instead.
            match reply {
                Reply::Answer { request_id, .. } if out.len() > self.max_response_bytes => {
                    let status = ErrorStatus::TooBig;
                    write_response(out, wrapper, request_id, status, 0, |_| Ok(()))?;
                    Ok(Reply::Answer { request_id, status })
                }
                reply => Ok(reply),
            }
        });
        match reply {
            Err(_) | Ok(Reply::ProtocolViolation) => {
                self.stats.malformed += 1;
                false
            }
            Ok(Reply::BadCommunity) => {
                self.stats.bad_community += 1;
                false
            }
            Ok(Reply::Silent) => false,
            Ok(Reply::Answer { status, .. }) => {
                self.stats.answered += 1;
                if !status.is_ok() {
                    self.stats.error_responses += 1;
                }
                true
            }
        }
    }

    /// Reads the PDU off `wrapper.rest` and writes the answer to `out`.
    fn reply(
        &self,
        wrapper: &mut Wrapper<'_>,
        view: &dyn MibView,
        out: &mut Vec<u8>,
    ) -> Result<Reply, SnmpError> {
        let community_ok = wrapper.community == self.community;
        match wrapper.rest.peek_tag()? {
            tag::GET_REQUEST | tag::GET_NEXT_REQUEST | tag::GET_BULK_REQUEST => {}
            tag::TRAP => {
                TrapPdu::decode(&mut wrapper.rest)?;
                if !community_ok {
                    return Ok(Reply::BadCommunity);
                }
                return Ok(Reply::Silent); // agents do not answer traps
            }
            _ => {
                // A Set, a response, or a tag `Pdu::decode` rejects.
                let pdu = Pdu::decode(&mut wrapper.rest)?;
                if !community_ok {
                    return Ok(Reply::BadCommunity);
                }
                if pdu.pdu_type != PduType::SetRequest {
                    return Ok(Reply::Silent); // agents do not answer responses
                }
                // This agent never writes. SNMPv1 echoes the bindings of
                // a failed request.
                let status = ErrorStatus::ReadOnly;
                let echoed = write_response(out, wrapper, pdu.request_id, status, 1, |out| {
                    pdu::push_varbinds(out, &pdu.bindings)
                });
                return Ok(match echoed {
                    Ok(()) => Reply::Answer {
                        request_id: pdu.request_id,
                        status,
                    },
                    Err(_) => Reply::Silent,
                });
            }
        }

        let (pdu_tag, mut body) = wrapper.rest.read_element()?;
        let request_id = body.read_integer()? as i32;
        // Error status and index in Get/GetNext (ignored in a request);
        // non-repeaters and max-repetitions in GetBulk.
        let second = body.read_integer()?.max(0) as u32;
        let third = body.read_integer()?.max(0) as u32;
        let mut list = body.expect_element(tag::SEQUENCE)?;
        body.finish()?;
        let bindings = list.clone();

        let is_bulk = pdu_tag == tag::GET_BULK_REQUEST;
        let refused = if !community_ok {
            Some(Reply::BadCommunity)
        } else if is_bulk && wrapper.version != SnmpVersion::V2c {
            Some(Reply::ProtocolViolation)
        } else {
            None
        };
        if let Some(reply) = refused {
            // Only a message that decodes gets this far.
            while !list.is_empty() {
                pdu::skip_varbind(&mut list)?;
            }
            return Ok(reply);
        }
        // A Get whose list this thread answered in full lately skips the
        // names' decoding; everything above still ran.
        let is_get = pdu_tag == tag::GET_REQUEST;
        if is_get {
            let known = GETS_SEEN.with_borrow(|seen| {
                let names = seen.find(|key| key.as_slice() == bindings.rest())?;
                Some(self.answer_known(wrapper, view, out, request_id, &bindings, names))
            });
            if let Some(reply) = known {
                return Ok(reply);
            }
        }

        // A lookup that fails turns the whole reply into an error, and a
        // value that cannot be encoded silences it; in either case the
        // rest of the request is still read, since a malformed binding
        // further on outranks both. A GetBulk answer stops growing at its
        // first binding that cannot be encoded (silence) or that takes it
        // past the response limit (`tooBig`), whichever comes first: its
        // repetitions are the one part of a reply the request does not
        // bound.
        let mut failed_at = None;
        let halted = Cell::new(None);
        let mut cursors: Vec<(Oid, bool)> = Vec::new();
        let mut position = 0u32;

        // Room for the request's own bytes again plus the values.
        out.reserve(bindings.remaining() * 3 / 2 + 64);
        let message = message::open_message(out, wrapper.version, wrapper.community);
        let pdu = pdu::open_pdu(out, tag::GET_RESPONSE, request_id, 0, 0);
        let limit = self.max_response_bytes;
        let answer = |out: &mut Vec<u8>, name: &Oid, value: ValueRef<'_>| {
            if halted.get().is_none() {
                halted.set(match pdu::push_varbind(out, name, value) {
                    Err(_) => Some(Halt::Unencodable),
                    Ok(()) if is_bulk && pdu.closed_len(out, message) > limit => Some(Halt::TooBig),
                    Ok(()) => None,
                });
            }
        };
        while !list.is_empty() {
            position += 1;
            let name = pdu::skip_varbind(&mut list)?;
            if failed_at.is_some() {
                continue;
            }
            if !is_bulk {
                let answered = match pdu_tag {
                    tag::GET_REQUEST => view.get(&name).map(|value| answer(out, &name, value)),
                    _ => view
                        .next_after(&name)
                        .map(|(oid, value)| answer(out, &oid, value)),
                };
                if answered.is_none() {
                    failed_at = Some(position);
                }
            } else if position <= second {
                // RFC 1905 §4.2.3: the leading non-repeaters get one
                // successor each; walking past the MIB yields
                // `endOfMibView`, never an error.
                match view.next_after(&name) {
                    Some((oid, value)) => answer(out, &oid, value),
                    None => answer(out, &name, ValueRef::EndOfMibView),
                }
            } else {
                cursors.push((name, false));
            }
        }
        if let Some(position) = failed_at {
            return Ok(no_such_name(out, wrapper, request_id, position, bindings));
        }
        // Every remaining name is stepped up to max-repetitions times.
        for _ in 0..third {
            if halted.get().is_some() || cursors.iter().all(|(_, done)| *done) {
                break;
            }
            for (cursor, done) in cursors.iter_mut().filter(|(_, done)| !done) {
                match view.next_after(cursor) {
                    Some((oid, value)) => {
                        answer(out, &oid, value);
                        *cursor = oid.into_owned();
                    }
                    None => {
                        *done = true;
                        answer(out, cursor, ValueRef::EndOfMibView);
                    }
                }
            }
        }
        if halted.get() == Some(Halt::Unencodable) {
            return Ok(Reply::Silent);
        }
        // An answer halted past the limit is closed as it stands, and
        // `handle` replaces it with `tooBig`.
        pdu::close_pdu(out, pdu);
        message::close_message(out, message);
        if is_get {
            remember(&bindings);
        }
        Ok(Reply::Answer {
            request_id,
            status: ErrorStatus::NoError,
        })
    }

    /// Answers a Get whose binding list is byte for byte one this thread
    /// answered in full lately, from the names it decoded to: each is
    /// looked up, and its canonical encoding copied into the answer. A
    /// list that decoded whole once decodes whole again, so nothing is
    /// left to check but the lookups; a failed one takes the `noSuchName`
    /// echo every Get takes.
    fn answer_known(
        &self,
        wrapper: &Wrapper<'_>,
        view: &dyn MibView,
        out: &mut Vec<u8>,
        request_id: i32,
        bindings: &Reader<'_>,
        known: &KnownNames,
    ) -> Reply {
        out.reserve(bindings.remaining() * 3 / 2 + 64);
        let message = message::open_message(out, wrapper.version, wrapper.community);
        let pdu = pdu::open_pdu(out, tag::GET_RESPONSE, request_id, 0, 0);
        let mut unencodable = false;
        let mut start = 0;
        for (position, (name, end)) in (1..).zip(&known.names) {
            let Some(value) = view.get(name) else {
                return no_such_name(out, wrapper, request_id, position, bindings.clone());
            };
            if !unencodable {
                let mark = ber::open(out, tag::SEQUENCE);
                out.extend_from_slice(&known.encoded[start..*end]);
                unencodable = ber::push_value(out, value).is_err();
                ber::close(out, mark);
            }
            start = *end;
        }
        if unencodable {
            return Reply::Silent;
        }
        pdu::close_pdu(out, pdu);
        message::close_message(out, message);
        Reply::Answer {
            request_id,
            status: ErrorStatus::NoError,
        }
    }
}

/// The `noSuchName` answer to a request whose `position`th name (from 1)
/// failed: SNMPv1 echoes the request's bindings, read off `bindings`.
fn no_such_name(
    out: &mut Vec<u8>,
    wrapper: &Wrapper<'_>,
    request_id: i32,
    position: u32,
    mut bindings: Reader<'_>,
) -> Reply {
    let status = ErrorStatus::NoSuchName;
    let echoed = write_response(out, wrapper, request_id, status, position, |out| {
        pdu::visit_varbinds(&mut bindings, &[], |oid, value| {
            pdu::push_varbind(out, oid, value)
        })?
        .map(drop)
    });
    match echoed {
        Ok(()) => Reply::Answer { request_id, status },
        Err(_) => Reply::Silent,
    }
}

/// What a Get's binding list decoded to: its names, each with the end of
/// its canonical encoding in `encoded`, where the encodings lie back to
/// back.
#[derive(Default)]
struct KnownNames {
    names: Vec<(Oid, usize)>,
    encoded: Vec<u8>,
}

thread_local! {
    /// The Get binding lists this thread answered in full lately, by their
    /// exact bytes, and the names they decoded to.
    static GETS_SEEN: RefCell<Shapes<Vec<u8>, KnownNames>> = const { RefCell::new(Shapes::new()) };
}

/// Records what the binding list at `bindings` — a Get's that decoded
/// whole and whose every name the view held — decodes to.
fn remember(bindings: &Reader<'_>) {
    GETS_SEEN.with_borrow_mut(|seen| {
        seen.record(|key, known| {
            key.clear();
            key.extend_from_slice(bindings.rest());
            known.names.clear();
            known.encoded.clear();
            // One allocation each: the bindings are counted first, and
            // canonical names take no more octets than the list.
            let mut scan = bindings.clone();
            let mut count = 0;
            while scan.read_element().is_ok() {
                count += 1;
            }
            known.names.reserve(count);
            known.encoded.reserve(bindings.remaining());
            let mut list = bindings.clone();
            while !list.is_empty() {
                let name = pdu::skip_varbind(&mut list)?;
                ber::push_oid(&mut known.encoded, &name)?;
                known.names.push((name, known.encoded.len()));
            }
            Ok::<(), BerError>(())
        })
    });
}

thread_local! {
    static ANSWER_BUFFER: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Lends `f` this thread's answer buffer, for [`SnmpAgent::handle_into`]:
/// agents that copy each answer out before they return can share it, so a
/// process holding a thousand in-process agents keeps one buffer, not a
/// thousand. `f` must not call this again.
pub fn with_answer_buffer<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    ANSWER_BUFFER.with_borrow_mut(f)
}

/// Convenience for tests and simple deployments: decode a response message
/// and extract its PDU, verifying it is a `GetResponse`.
pub fn decode_response(bytes: &[u8]) -> Result<Pdu, SnmpError> {
    let msg = SnmpMessage::decode(bytes)?;
    match msg.body {
        MessageBody::Pdu(p) if p.pdu_type == PduType::GetResponse => Ok(p),
        _ => Err(SnmpError::NotAResponse),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mib::ScalarMib;
    use crate::mib2::{self, interfaces::IfEntry, SystemInfo};
    use crate::oid::Oid;
    use crate::pdu::VarBind;
    use crate::value::SnmpValue;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    fn demo_mib() -> ScalarMib {
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &SystemInfo::new("L"), 1000);
        mib2::interfaces::install(
            &mut mib,
            &[IfEntry::ethernet(
                1,
                "eth0",
                100_000_000,
                [2, 0, 0, 0, 0, 1],
            )],
        );
        mib
    }

    fn get_req(community: &str, id: i32, oids: &[Oid]) -> Vec<u8> {
        SnmpMessage::v1(community, Pdu::request(PduType::GetRequest, id, oids))
            .encode()
            .unwrap()
    }

    #[test]
    fn get_returns_values() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        let req = get_req(
            "public",
            5,
            &[
                mib2::system::sys_uptime_instance(),
                mib2::interfaces::instance_oid(mib2::interfaces::column::IF_SPEED, 1),
            ],
        );
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert_eq!(pdu.request_id, 5);
        assert!(pdu.error_status.is_ok());
        assert_eq!(pdu.bindings[0].value, SnmpValue::TimeTicks(1000));
        assert_eq!(pdu.bindings[1].value, SnmpValue::Gauge32(100_000_000));
        assert_eq!(agent.stats().answered, 1);
    }

    #[test]
    fn get_unknown_name_errors_with_index() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        let req = get_req(
            "public",
            6,
            &[mib2::system::sys_uptime_instance(), oid("1.3.9.9.9.0")],
        );
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert_eq!(pdu.error_status, ErrorStatus::NoSuchName);
        assert_eq!(pdu.error_index, 2);
        // v1 echoes the request bindings.
        assert_eq!(pdu.bindings[1].value, SnmpValue::Null);
        assert_eq!(agent.stats().error_responses, 1);
    }

    #[test]
    fn get_next_walks() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        // Start a walk at the interfaces table root.
        let req = SnmpMessage::v1(
            "public",
            Pdu::request(PduType::GetNextRequest, 7, &[oid("1.3.6.1.2.1.2")]),
        )
        .encode()
        .unwrap();
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert_eq!(pdu.bindings[0].oid, mib2::interfaces::if_number_instance());
        assert_eq!(pdu.bindings[0].value, SnmpValue::Integer(1));
    }

    #[test]
    fn get_next_at_end_of_mib_errors() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        let req = SnmpMessage::v1(
            "public",
            Pdu::request(PduType::GetNextRequest, 8, &[oid("2.99.9")]),
        )
        .encode()
        .unwrap();
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert_eq!(pdu.error_status, ErrorStatus::NoSuchName);
    }

    #[test]
    fn bad_community_dropped_silently() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("secret");
        let req = get_req("public", 9, &[mib2::system::sys_uptime_instance()]);
        assert!(agent.handle(&req, &mib).is_none());
        assert_eq!(agent.stats().bad_community, 1);
        assert_eq!(agent.stats().answered, 0);
    }

    #[test]
    fn malformed_dropped_silently() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        assert!(agent.handle(&[0x30, 0x05, 0x01], &mib).is_none());
        assert_eq!(agent.stats().malformed, 1);
    }

    #[test]
    fn set_rejected_read_only() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        let req = SnmpMessage::v1(
            "public",
            Pdu {
                pdu_type: PduType::SetRequest,
                request_id: 10,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                bindings: vec![VarBind::new(
                    mib2::system::sys_name_instance(),
                    SnmpValue::text("evil"),
                )],
            },
        )
        .encode()
        .unwrap();
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert_eq!(pdu.error_status, ErrorStatus::ReadOnly);
    }

    #[test]
    fn response_pdu_ignored() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        let req = SnmpMessage::v1(
            "public",
            Pdu::request(PduType::GetRequest, 1, &[]).response(vec![]),
        )
        .encode()
        .unwrap();
        assert!(agent.handle(&req, &mib).is_none());
    }

    #[test]
    fn get_bulk_semantics() {
        use crate::pdu::BulkPdu;
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        // One non-repeater (sysUpTime area) + one repeater over the
        // interfaces table, 3 repetitions.
        let bulk = BulkPdu::request(
            77,
            1,
            3,
            &[oid("1.3.6.1.2.1.1.3"), oid("1.3.6.1.2.1.2.2.1.10")],
        );
        let req = SnmpMessage::v2c_bulk("public", bulk).encode().unwrap();
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert!(pdu.error_status.is_ok());
        // 1 non-repeater + 3 repetitions of the single repeater.
        assert_eq!(pdu.bindings.len(), 4);
        assert_eq!(pdu.bindings[0].oid, mib2::system::sys_uptime_instance());
        assert_eq!(
            pdu.bindings[1].oid,
            mib2::interfaces::instance_oid(mib2::interfaces::column::IF_IN_OCTETS, 1)
        );
    }

    #[test]
    fn get_bulk_reports_end_of_mib_view() {
        use crate::pdu::BulkPdu;
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        // Start past everything.
        let bulk = BulkPdu::request(78, 0, 5, &[oid("2.99")]);
        let req = SnmpMessage::v2c_bulk("public", bulk).encode().unwrap();
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert!(pdu.error_status.is_ok());
        assert_eq!(pdu.bindings.len(), 1);
        assert_eq!(pdu.bindings[0].value, SnmpValue::EndOfMibView);
    }

    #[test]
    fn get_bulk_in_v1_message_dropped() {
        use crate::message::{MessageBody, SnmpVersion};
        use crate::pdu::BulkPdu;
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        let msg = SnmpMessage {
            version: SnmpVersion::V1,
            community: b"public".to_vec(),
            body: MessageBody::Bulk(BulkPdu::request(1, 0, 5, &[oid("1.3")])),
        };
        assert!(agent.handle(&msg.encode().unwrap(), &mib).is_none());
        assert_eq!(agent.stats().malformed, 1);
    }

    #[test]
    fn oversized_response_becomes_too_big() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        agent.set_max_response_bytes(64);
        // Request enough objects that the reply cannot fit 64 bytes.
        let req = get_req(
            "public",
            11,
            &[
                mib2::system::sys_descr_instance(),
                mib2::system::sys_contact_instance(),
                mib2::system::sys_location_instance(),
            ],
        );
        let resp = agent.handle(&req, &mib).unwrap();
        assert!(resp.len() <= 64, "tooBig reply must itself be small");
        let pdu = decode_response(&resp).unwrap();
        assert_eq!(pdu.error_status, ErrorStatus::TooBig);
        assert!(pdu.bindings.is_empty());
        assert_eq!(agent.stats().error_responses, 1);

        // A small request still succeeds under the same limit.
        let req = get_req("public", 12, &[mib2::system::sys_uptime_instance()]);
        let resp = agent.handle(&req, &mib).unwrap();
        let pdu = decode_response(&resp).unwrap();
        assert!(pdu.error_status.is_ok());
    }

    #[test]
    fn full_walk_terminates_and_covers_mib() {
        let mib = demo_mib();
        let mut agent = SnmpAgent::new("public");
        let mut cur = Oid::from([0, 0]);
        let mut count = 0;
        loop {
            let req = SnmpMessage::v1(
                "public",
                Pdu::request(PduType::GetNextRequest, count, &[cur.clone()]),
            )
            .encode()
            .unwrap();
            let resp = agent.handle(&req, &mib).unwrap();
            let pdu = decode_response(&resp).unwrap();
            if !pdu.error_status.is_ok() {
                break;
            }
            cur = pdu.bindings[0].oid.clone();
            count += 1;
            assert!(count < 1000, "walk did not terminate");
        }
        // 7 system scalars + ifNumber + 21 table cells.
        assert_eq!(count, 29);
    }
}
