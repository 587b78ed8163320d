//! Reference oracle: the encoder and the agent the library used before
//! it encoded into one buffer and answered in one pass.
//!
//! The encoder builds every TLV in a `Vec` of its own and concatenates
//! them outward; the agent decodes the whole request into an
//! [`SnmpMessage`], builds the response as a [`Pdu`] of cloned names and
//! values, and encodes that. Both are slow and obviously right; the
//! differential tests (`crates/snmp/tests/differential.rs`) require the
//! library's bytes, its silences and its [`AgentStats`] to equal these.
//!
//! Three defects of the removed code are fixed here as in the library, so
//! that the comparison can cover the inputs that reach them: the first
//! OID subidentifier `40 * 2 + second` is refused when it overflows 32
//! bits (through [`Oid::is_encodable`]); a GetBulk whose answer cannot be
//! encoded no longer counts as `answered`; and a GetBulk answer stops at
//! its first binding that cannot be encoded (silence) or that takes the
//! response past the limit (`tooBig`), instead of being built whole and
//! judged afterwards.
//!
//! [`mib::OracleMib`] is the MIB the library kept before its flat table.

use netqos_snmp::agent::AgentStats;
use netqos_snmp::ber::tag;
use netqos_snmp::error::BerError;
use netqos_snmp::message::{MessageBody, SnmpMessage, SnmpVersion};
use netqos_snmp::mib::MibView;
use netqos_snmp::pdu::{BulkPdu, ErrorStatus, Pdu, PduType, TrapPdu, VarBind};
use netqos_snmp::{Oid, SnmpValue};

pub mod answer;
pub mod mib;

// ---------------------------------------------------------------------------
// Encoder: one `Vec` per element
// ---------------------------------------------------------------------------

fn push_length(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let bytes = len.to_be_bytes();
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        let sig = &bytes[skip..];
        out.push(0x80 | sig.len() as u8);
        out.extend_from_slice(sig);
    }
}

fn push_tlv(out: &mut Vec<u8>, tag_byte: u8, content: &[u8]) {
    out.push(tag_byte);
    push_length(out, content.len());
    out.extend_from_slice(content);
}

fn tlv(tag_byte: u8, content: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(content.len() + 4);
    push_tlv(&mut out, tag_byte, content);
    out
}

fn encode_integer(value: i64) -> Vec<u8> {
    let mut content = value.to_be_bytes().to_vec();
    // Strip redundant leading bytes while the sign is preserved.
    while content.len() > 1 {
        let first = content[0];
        let second_msb = content[1] & 0x80;
        if (first == 0x00 && second_msb == 0) || (first == 0xFF && second_msb != 0) {
            content.remove(0);
        } else {
            break;
        }
    }
    tlv(tag::INTEGER, &content)
}

fn encode_unsigned(tag_byte: u8, value: u32) -> Vec<u8> {
    let mut content = value.to_be_bytes().to_vec();
    while content.len() > 1 && content[0] == 0 && content[1] & 0x80 == 0 {
        content.remove(0);
    }
    if content[0] & 0x80 != 0 {
        content.insert(0, 0);
    }
    tlv(tag_byte, &content)
}

fn push_base128(out: &mut Vec<u8>, mut v: u32) {
    let mut stack = [0u8; 5];
    let mut n = 0;
    loop {
        stack[n] = (v & 0x7F) as u8;
        n += 1;
        v >>= 7;
        if v == 0 {
            break;
        }
    }
    for i in (0..n).rev() {
        out.push(stack[i] | if i > 0 { 0x80 } else { 0 });
    }
}

fn encode_oid(oid: &Oid) -> Result<Vec<u8>, BerError> {
    if !oid.is_encodable() {
        return Err(BerError::UnencodableOid);
    }
    let arcs = oid.arcs();
    let mut content = Vec::with_capacity(arcs.len() + 1);
    push_base128(&mut content, arcs[0] * 40 + arcs[1]);
    for &arc in &arcs[2..] {
        push_base128(&mut content, arc);
    }
    Ok(tlv(tag::OID, &content))
}

fn encode_value(value: &SnmpValue) -> Result<Vec<u8>, BerError> {
    Ok(match value {
        SnmpValue::Integer(v) => encode_integer(*v),
        SnmpValue::OctetString(b) => tlv(tag::OCTET_STRING, b),
        SnmpValue::Null => vec![tag::NULL, 0x00],
        SnmpValue::Oid(oid) => encode_oid(oid)?,
        SnmpValue::IpAddress(a) => tlv(tag::IP_ADDRESS, a),
        SnmpValue::Counter32(v) => encode_unsigned(tag::COUNTER32, *v),
        SnmpValue::Gauge32(v) => encode_unsigned(tag::GAUGE32, *v),
        SnmpValue::TimeTicks(v) => encode_unsigned(tag::TIME_TICKS, *v),
        SnmpValue::Opaque(b) => tlv(tag::OPAQUE, b),
        SnmpValue::NoSuchObject => vec![tag::NO_SUCH_OBJECT, 0x00],
        SnmpValue::NoSuchInstance => vec![tag::NO_SUCH_INSTANCE, 0x00],
        SnmpValue::EndOfMibView => vec![tag::END_OF_MIB_VIEW, 0x00],
    })
}

/// Wraps already-encoded elements under a constructed tag.
fn encode_constructed(tag_byte: u8, parts: &[&[u8]]) -> Vec<u8> {
    let content_len: usize = parts.iter().map(|p| p.len()).sum();
    let mut content = Vec::with_capacity(content_len);
    for p in parts {
        content.extend_from_slice(p);
    }
    tlv(tag_byte, &content)
}

fn encode_sequence(parts: &[&[u8]]) -> Vec<u8> {
    encode_constructed(tag::SEQUENCE, parts)
}

fn encode_varbinds(bindings: &[VarBind]) -> Result<Vec<u8>, BerError> {
    let mut binds = Vec::new();
    for b in bindings {
        let name = encode_oid(&b.oid)?;
        let value = encode_value(&b.value)?;
        binds.push(encode_sequence(&[&name, &value]));
    }
    let bind_refs: Vec<&[u8]> = binds.iter().map(|v| v.as_slice()).collect();
    Ok(encode_sequence(&bind_refs))
}

fn encode_pdu(pdu: &Pdu) -> Result<Vec<u8>, BerError> {
    let rid = encode_integer(i64::from(pdu.request_id));
    let status = encode_integer(pdu.error_status.code());
    let index = encode_integer(i64::from(pdu.error_index));
    let bindings = encode_varbinds(&pdu.bindings)?;
    Ok(encode_constructed(
        pdu.pdu_type.tag(),
        &[&rid, &status, &index, &bindings],
    ))
}

fn encode_bulk(bulk: &BulkPdu) -> Result<Vec<u8>, BerError> {
    let rid = encode_integer(i64::from(bulk.request_id));
    let nr = encode_integer(i64::from(bulk.non_repeaters));
    let mr = encode_integer(i64::from(bulk.max_repetitions));
    let bindings = encode_varbinds(&bulk.bindings)?;
    Ok(encode_constructed(
        tag::GET_BULK_REQUEST,
        &[&rid, &nr, &mr, &bindings],
    ))
}

fn encode_trap(trap: &TrapPdu) -> Result<Vec<u8>, BerError> {
    let enterprise = encode_oid(&trap.enterprise)?;
    let addr = encode_value(&SnmpValue::IpAddress(trap.agent_addr))?;
    let generic = encode_integer(i64::from(trap.generic_trap));
    let specific = encode_integer(i64::from(trap.specific_trap));
    let stamp = encode_unsigned(tag::TIME_TICKS, trap.time_stamp);
    let bindings = encode_varbinds(&trap.bindings)?;
    Ok(encode_constructed(
        tag::TRAP,
        &[&enterprise, &addr, &generic, &specific, &stamp, &bindings],
    ))
}

/// Serializes a message to wire bytes.
pub fn encode_message(msg: &SnmpMessage) -> Result<Vec<u8>, BerError> {
    let version = encode_integer(msg.version.code());
    let community = tlv(tag::OCTET_STRING, &msg.community);
    let pdu = match &msg.body {
        MessageBody::Pdu(p) => encode_pdu(p)?,
        MessageBody::Trap(t) => encode_trap(t)?,
        MessageBody::Bulk(b) => encode_bulk(b)?,
    };
    Ok(encode_sequence(&[&version, &community, &pdu]))
}

// ---------------------------------------------------------------------------
// Agent: decode everything, build the response PDU, encode it
// ---------------------------------------------------------------------------

fn get(view: &dyn MibView, oid: &Oid) -> Option<SnmpValue> {
    view.get(oid).map(|v| v.to_value())
}

fn next_after(view: &dyn MibView, oid: &Oid) -> Option<(Oid, SnmpValue)> {
    view.next_after(oid)
        .map(|(k, v)| (k.into_owned(), v.to_value()))
}

fn error_response(pdu: &Pdu, status: ErrorStatus, index: u32) -> Pdu {
    Pdu {
        pdu_type: PduType::GetResponse,
        request_id: pdu.request_id,
        error_status: status,
        error_index: index,
        bindings: pdu.bindings.clone(),
    }
}

fn success(request_id: i32, bindings: Vec<VarBind>) -> Pdu {
    Pdu {
        pdu_type: PduType::GetResponse,
        request_id,
        error_status: ErrorStatus::NoError,
        error_index: 0,
        bindings,
    }
}

/// The read-only agent as it was: materialises request and response.
pub struct OracleAgent {
    community: Vec<u8>,
    max_response_bytes: usize,
    pub stats: AgentStats,
}

impl OracleAgent {
    pub fn new(community: &str, max_response_bytes: usize) -> Self {
        OracleAgent {
            community: community.as_bytes().to_vec(),
            max_response_bytes,
            stats: AgentStats::default(),
        }
    }

    pub fn handle(&mut self, request: &[u8], view: &dyn MibView) -> Option<Vec<u8>> {
        let msg = match SnmpMessage::decode(request) {
            Ok(m) => m,
            Err(_) => {
                self.stats.malformed += 1;
                return None;
            }
        };
        if msg.community != self.community {
            self.stats.bad_community += 1;
            return None;
        }
        let pdu = match msg.body {
            MessageBody::Pdu(p) => p,
            MessageBody::Bulk(bulk) => {
                // GetBulk exists only in v2c; a v1 message carrying it is
                // a protocol violation and is dropped.
                if msg.version != SnmpVersion::V2c {
                    self.stats.malformed += 1;
                    return None;
                }
                let encode = |bindings: &[VarBind]| {
                    encode_message(&SnmpMessage {
                        version: msg.version,
                        community: msg.community.clone(),
                        body: MessageBody::Pdu(success(bulk.request_id, bindings.to_vec())),
                    })
                };
                let limit = self.max_response_bytes;
                let fits = |bindings: &[VarBind]| match encode(bindings) {
                    Err(_) => Err(Halt::Unencodable),
                    Ok(bytes) if bytes.len() > limit => Err(Halt::TooBig),
                    Ok(_) => Ok(()),
                };
                let encoded = match do_get_bulk(&bulk, view, fits) {
                    Err(Halt::Unencodable) => return None,
                    Err(Halt::TooBig) => None,
                    Ok(bindings) => Some(encode(&bindings).ok()?),
                };
                self.stats.answered += 1;
                if let Some(encoded) = encoded.filter(|e| e.len() <= limit) {
                    return Some(encoded);
                }
                let too_big = Pdu {
                    pdu_type: PduType::GetResponse,
                    request_id: bulk.request_id,
                    error_status: ErrorStatus::TooBig,
                    error_index: 0,
                    bindings: Vec::new(),
                };
                self.stats.error_responses += 1;
                return encode_message(&SnmpMessage {
                    version: SnmpVersion::V2c,
                    community: self.community.clone(),
                    body: MessageBody::Pdu(too_big),
                })
                .ok();
            }
            MessageBody::Trap(_) => return None,
        };
        let mut response = match pdu.pdu_type {
            PduType::GetRequest => do_get(&pdu, view),
            PduType::GetNextRequest => do_get_next(&pdu, view),
            PduType::SetRequest => error_response(&pdu, ErrorStatus::ReadOnly, 1),
            PduType::GetResponse => return None, // agents do not answer responses
        };
        let mut out = SnmpMessage {
            version: msg.version,
            community: msg.community,
            body: MessageBody::Pdu(response.clone()),
        };
        // RFC 1157 §4.1.2: if the reply would exceed a local limitation,
        // respond tooBig with empty bindings instead.
        let mut encoded = encode_message(&out).ok()?;
        if encoded.len() > self.max_response_bytes {
            response = error_response(&pdu, ErrorStatus::TooBig, 0);
            response.bindings.clear();
            out.body = MessageBody::Pdu(response.clone());
            encoded = encode_message(&out).ok()?;
        }
        self.stats.answered += 1;
        if !response.error_status.is_ok() {
            self.stats.error_responses += 1;
        }
        Some(encoded)
    }
}

fn do_get(pdu: &Pdu, view: &dyn MibView) -> Pdu {
    let mut bindings = Vec::with_capacity(pdu.bindings.len());
    for (i, vb) in pdu.bindings.iter().enumerate() {
        match get(view, &vb.oid) {
            Some(value) => bindings.push(VarBind::new(vb.oid.clone(), value)),
            None => return error_response(pdu, ErrorStatus::NoSuchName, (i + 1) as u32),
        }
    }
    success(pdu.request_id, bindings)
}

fn do_get_next(pdu: &Pdu, view: &dyn MibView) -> Pdu {
    let mut bindings = Vec::with_capacity(pdu.bindings.len());
    for (i, vb) in pdu.bindings.iter().enumerate() {
        match next_after(view, &vb.oid) {
            Some((oid, value)) => bindings.push(VarBind::new(oid, value)),
            None => return error_response(pdu, ErrorStatus::NoSuchName, (i + 1) as u32),
        }
    }
    success(pdu.request_id, bindings)
}

/// Why a GetBulk answer stopped taking bindings.
enum Halt {
    Unencodable,
    TooBig,
}

/// RFC 1905 §4.2.3 GetBulk semantics: `non_repeaters` leading names get
/// one successor each; every remaining name is stepped up to
/// `max_repetitions` times; walks past the MIB yield `endOfMibView`
/// values (never an error). After each binding, `fits` judges the
/// response with the bindings so far, and the first verdict against it
/// ends the walk.
fn do_get_bulk(
    bulk: &BulkPdu,
    view: &dyn MibView,
    fits: impl Fn(&[VarBind]) -> Result<(), Halt>,
) -> Result<Vec<VarBind>, Halt> {
    let mut bindings = Vec::new();
    let mut push = |binding: VarBind| {
        bindings.push(binding);
        fits(&bindings)
    };
    let nr = (bulk.non_repeaters as usize).min(bulk.bindings.len());
    for vb in &bulk.bindings[..nr] {
        match next_after(view, &vb.oid) {
            Some((oid, value)) => push(VarBind::new(oid, value))?,
            None => push(VarBind::new(vb.oid.clone(), SnmpValue::EndOfMibView))?,
        }
    }
    let mut cursors: Vec<Oid> = bulk.bindings[nr..]
        .iter()
        .map(|vb| vb.oid.clone())
        .collect();
    let mut done: Vec<bool> = vec![false; cursors.len()];
    for _ in 0..bulk.max_repetitions {
        if done.iter().all(|&d| d) {
            break;
        }
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            match next_after(view, cursor) {
                Some((oid, value)) => {
                    *cursor = oid.clone();
                    push(VarBind::new(oid, value))?;
                }
                None => {
                    done[i] = true;
                    push(VarBind::new(cursor.clone(), SnmpValue::EndOfMibView))?;
                }
            }
        }
    }
    Ok(bindings)
}
