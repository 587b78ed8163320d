//! SNMPv1 protocol data units (RFC 1157 §4.1).
//!
//! The four request/response PDUs share one layout:
//!
//! ```text
//! PDU ::= [context N] IMPLICIT SEQUENCE {
//!     request-id   INTEGER,
//!     error-status INTEGER,
//!     error-index  INTEGER,
//!     variable-bindings SEQUENCE OF SEQUENCE { name OID, value ANY }
//! }
//! ```
//!
//! The Trap-PDU (context 4) has its own layout and is modelled separately
//! as [`TrapPdu`].

use crate::ber::{self, tag, Reader};
use crate::error::{BerError, SnmpError};
use crate::oid::Oid;
use crate::value::{SnmpValue, ValueRef};
use std::fmt;

/// The request/response PDU kinds of SNMPv1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PduType {
    /// Retrieve exact variables.
    GetRequest,
    /// Retrieve the lexicographic successors of variables.
    GetNextRequest,
    /// Agent's reply to any request.
    GetResponse,
    /// Write variables (this implementation's agents are read-only).
    SetRequest,
}

impl PduType {
    /// The BER context tag of this PDU type.
    pub fn tag(self) -> u8 {
        match self {
            PduType::GetRequest => tag::GET_REQUEST,
            PduType::GetNextRequest => tag::GET_NEXT_REQUEST,
            PduType::GetResponse => tag::GET_RESPONSE,
            PduType::SetRequest => tag::SET_REQUEST,
        }
    }

    /// Maps a BER context tag back to a PDU type.
    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            tag::GET_REQUEST => Some(PduType::GetRequest),
            tag::GET_NEXT_REQUEST => Some(PduType::GetNextRequest),
            tag::GET_RESPONSE => Some(PduType::GetResponse),
            tag::SET_REQUEST => Some(PduType::SetRequest),
            _ => None,
        }
    }
}

/// SNMPv1 error-status codes (RFC 1157 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorStatus {
    /// No error.
    NoError,
    /// The reply would not fit in a single message.
    TooBig,
    /// A named variable does not exist (also: end of MIB on GetNext).
    NoSuchName,
    /// A Set value was of the wrong type/range.
    BadValue,
    /// A Set targeted a read-only variable.
    ReadOnly,
    /// Any other failure.
    GenErr,
}

impl ErrorStatus {
    /// Wire code.
    pub fn code(self) -> i64 {
        match self {
            ErrorStatus::NoError => 0,
            ErrorStatus::TooBig => 1,
            ErrorStatus::NoSuchName => 2,
            ErrorStatus::BadValue => 3,
            ErrorStatus::ReadOnly => 4,
            ErrorStatus::GenErr => 5,
        }
    }

    /// Parses a wire code; unknown codes map to `GenErr` (liberal, since
    /// SNMPv2 agents can reply with richer codes).
    pub fn from_code(code: i64) -> Self {
        match code {
            0 => ErrorStatus::NoError,
            1 => ErrorStatus::TooBig,
            2 => ErrorStatus::NoSuchName,
            3 => ErrorStatus::BadValue,
            4 => ErrorStatus::ReadOnly,
            _ => ErrorStatus::GenErr,
        }
    }

    /// True when the status signals success.
    pub fn is_ok(self) -> bool {
        matches!(self, ErrorStatus::NoError)
    }
}

impl fmt::Display for ErrorStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorStatus::NoError => "noError",
            ErrorStatus::TooBig => "tooBig",
            ErrorStatus::NoSuchName => "noSuchName",
            ErrorStatus::BadValue => "badValue",
            ErrorStatus::ReadOnly => "readOnly",
            ErrorStatus::GenErr => "genErr",
        };
        f.write_str(s)
    }
}

/// One variable binding: a name and its value (NULL in requests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarBind {
    /// Object instance name.
    pub oid: Oid,
    /// Bound value.
    pub value: SnmpValue,
}

impl VarBind {
    /// A request-side binding (`value = NULL`).
    pub fn null(oid: Oid) -> Self {
        VarBind {
            oid,
            value: SnmpValue::Null,
        }
    }

    /// A response-side binding.
    pub fn new(oid: Oid, value: SnmpValue) -> Self {
        VarBind { oid, value }
    }
}

/// Appends one variable binding.
pub(crate) fn push_varbind(
    out: &mut Vec<u8>,
    name: &Oid,
    value: ValueRef<'_>,
) -> Result<(), BerError> {
    let mark = ber::open(out, tag::SEQUENCE);
    ber::push_oid(out, name)?;
    ber::push_value(out, value)?;
    ber::close(out, mark);
    Ok(())
}

/// Appends each of `bindings` in turn.
pub(crate) fn push_varbinds(out: &mut Vec<u8>, bindings: &[VarBind]) -> Result<(), BerError> {
    bindings
        .iter()
        .try_for_each(|b| push_varbind(out, &b.oid, (&b.value).into()))
}

/// The open elements of a PDU whose bindings are being appended.
pub(crate) struct OpenPdu {
    pdu: usize,
    bindings: usize,
}

/// Starts a PDU of the common layout — the request-id, two more integers,
/// then the binding list — leaving the list open for [`push_varbind`].
pub(crate) fn open_pdu(
    out: &mut Vec<u8>,
    tag_byte: u8,
    request_id: i32,
    second: i64,
    third: i64,
) -> OpenPdu {
    let pdu = ber::open(out, tag_byte);
    ber::push_integer(out, i64::from(request_id));
    ber::push_integer(out, second);
    ber::push_integer(out, third);
    let bindings = ber::open(out, tag::SEQUENCE);
    OpenPdu { pdu, bindings }
}

impl OpenPdu {
    /// The length of the message `out` holds once this PDU and the
    /// message opened at `message` around it are closed.
    pub(crate) fn closed_len(&self, out: &[u8], message: usize) -> usize {
        ber::closed_len(out, &[message, self.pdu, self.bindings])
    }
}

/// Closes the binding list and the PDU.
pub(crate) fn close_pdu(out: &mut Vec<u8>, open: OpenPdu) {
    ber::close(out, open.bindings);
    ber::close(out, open.pdu);
}

/// Reads one variable binding off `list`, checking all of it, and returns
/// its name.
pub(crate) fn skip_varbind(list: &mut Reader<'_>) -> Result<Oid, BerError> {
    let mut binding = list.expect_element(tag::SEQUENCE)?;
    let name = binding.read_oid()?;
    binding.skip_value()?;
    binding.finish()?;
    Ok(name)
}

/// The one binding-list decoder: reads `list` to its end, handing each
/// binding to `visit` in order — its name, and its value borrowed from the
/// datagram — until `visit` first refuses one. Every binding is checked
/// whether or not it was visited, so a malformed binding anywhere is the
/// error (`Err`), and only a list that decodes whole reports what `visit`
/// said (`Ok`): its refusal, or how many bindings it took.
///
/// `asked` is the names the request carried, `&[]` where there were none
/// to expect. A correct agent's answer to a Get echoes them, so binding
/// *i*'s name is first compared in place with `asked[i]`; where it is
/// that name's one-octet-per-subidentifier encoding
/// ([`Reader::skip_oid_if`]), which decodes to exactly that name, `visit`
/// is handed `&asked[i]` and no name is built. Any other name — padded,
/// long, reordered, unexpected, past the end of `asked` — is decoded.
/// Either way `visit` sees the name the bytes hold, and the outcome is
/// what `asked = &[]` gives.
pub(crate) fn visit_varbinds<E>(
    list: &mut Reader<'_>,
    asked: &[Oid],
    mut visit: impl FnMut(&Oid, ValueRef<'_>) -> Result<(), E>,
) -> Result<Result<usize, E>, BerError> {
    let mut verdict = Ok(0);
    let mut asked = asked.iter();
    let mut decoded: Oid;
    let mut oid_value = Oid::empty();
    while !list.is_empty() {
        let mut binding = list.expect_element(tag::SEQUENCE)?;
        let name = match asked.next() {
            Some(asked) if binding.skip_oid_if(asked) => asked,
            _ => {
                decoded = binding.read_oid()?;
                &decoded
            }
        };
        if let Ok(visited) = verdict {
            let value = binding.read_value_ref(&mut oid_value)?;
            binding.finish()?;
            verdict = visit(name, value).map(|()| visited + 1);
        } else {
            binding.skip_value()?;
            binding.finish()?;
        }
    }
    Ok(verdict)
}

/// Collects the bindings of `list`, read against the names `asked` as
/// [`visit_varbinds`] reads them. The vector is allocated once for the
/// asked count, which an answer longer than the request grows; where
/// nothing was asked, the elements are counted first, a count bounded by
/// the datagram, every element taking two octets or more.
pub(crate) fn decode_varbinds(
    list: &mut Reader<'_>,
    asked: &[Oid],
) -> Result<Vec<VarBind>, BerError> {
    let count = if asked.is_empty() {
        let mut scan = list.clone();
        std::iter::from_fn(|| scan.read_element().ok()).count()
    } else {
        asked.len()
    };
    let mut bindings = Vec::with_capacity(count);
    let Ok(_) = visit_varbinds(list, asked, |oid, value| {
        bindings.push(VarBind::new(oid.clone(), value.to_value()));
        Ok::<(), std::convert::Infallible>(())
    })?;
    Ok(bindings)
}

/// A request/response PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pdu {
    /// Which PDU this is.
    pub pdu_type: PduType,
    /// Correlates responses with requests.
    pub request_id: i32,
    /// Result of the operation (responses only; zero in requests).
    pub error_status: ErrorStatus,
    /// 1-based index of the failing binding, 0 when none.
    pub error_index: u32,
    /// The variable bindings.
    pub bindings: Vec<VarBind>,
}

impl Pdu {
    /// Builds a request PDU with NULL-valued bindings.
    pub fn request(pdu_type: PduType, request_id: i32, oids: &[Oid]) -> Self {
        Pdu {
            pdu_type,
            request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bindings: oids.iter().cloned().map(VarBind::null).collect(),
        }
    }

    /// Builds the success response to `self` with the given bindings.
    pub fn response(&self, bindings: Vec<VarBind>) -> Pdu {
        Pdu {
            pdu_type: PduType::GetResponse,
            request_id: self.request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bindings,
        }
    }

    /// Builds the error response to `self`: SNMPv1 echoes the original
    /// bindings and flags the failing index (RFC 1157 §4.1.2).
    pub fn error_response(&self, status: ErrorStatus, index: u32) -> Pdu {
        Pdu {
            pdu_type: PduType::GetResponse,
            request_id: self.request_id,
            error_status: status,
            error_index: index,
            bindings: self.bindings.clone(),
        }
    }

    /// Encodes the PDU (without the message wrapper).
    pub fn encode(&self) -> Result<Vec<u8>, BerError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the encoded PDU to `out`; on error `out` ends in a partial
    /// element.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), BerError> {
        let open = open_pdu(
            out,
            self.pdu_type.tag(),
            self.request_id,
            self.error_status.code(),
            i64::from(self.error_index),
        );
        push_varbinds(out, &self.bindings)?;
        close_pdu(out, open);
        Ok(())
    }

    /// Decodes a PDU from a reader positioned at the PDU tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, SnmpError> {
        let (head, mut list, content) = PduHead::read(r)?;
        let bindings = decode_varbinds(&mut list, &[])?;
        content.finish()?;
        Ok(Pdu {
            pdu_type: head.pdu_type,
            request_id: head.request_id,
            error_status: head.error_status,
            error_index: head.error_index,
            bindings,
        })
    }
}

/// What a request/response PDU says before its bindings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PduHead {
    pub pdu_type: PduType,
    pub request_id: i32,
    pub error_status: ErrorStatus,
    pub error_index: u32,
}

impl PduHead {
    /// Reads the PDU at `r` up to its binding list. Returns the header, a
    /// reader over the list, and the PDU's content past the list, which
    /// the caller must [`Reader::finish`] once the list is read.
    pub(crate) fn read<'a>(
        r: &mut Reader<'a>,
    ) -> Result<(Self, Reader<'a>, Reader<'a>), SnmpError> {
        let (t, mut content) = r.read_element().map_err(SnmpError::from)?;
        let pdu_type = PduType::from_tag(t).ok_or(SnmpError::UnknownPduType(t))?;
        let request_id = content.read_integer()? as i32;
        let error_status = ErrorStatus::from_code(content.read_integer()?);
        let error_index = content.read_integer()?.max(0) as u32;
        let list = content.expect_element(tag::SEQUENCE)?;
        let head = PduHead {
            pdu_type,
            request_id,
            error_status,
            error_index,
        };
        Ok((head, list, content))
    }
}

/// An SNMPv2c GetBulkRequest-PDU (RFC 1905 §4.2.3).
///
/// Same wire layout as the other request PDUs, but the two integers after
/// the request-id are `non-repeaters` and `max-repetitions` instead of an
/// error status/index: the first `non_repeaters` bindings receive one
/// GetNext step each; every remaining binding is stepped up to
/// `max_repetitions` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkPdu {
    /// Correlates the response.
    pub request_id: i32,
    /// Leading bindings answered with a single successor.
    pub non_repeaters: u32,
    /// Successor count for each remaining binding.
    pub max_repetitions: u32,
    /// The starting names.
    pub bindings: Vec<VarBind>,
}

impl BulkPdu {
    /// Builds a bulk request with NULL-valued bindings.
    pub fn request(
        request_id: i32,
        non_repeaters: u32,
        max_repetitions: u32,
        oids: &[Oid],
    ) -> Self {
        BulkPdu {
            request_id,
            non_repeaters,
            max_repetitions,
            bindings: oids.iter().cloned().map(VarBind::null).collect(),
        }
    }

    /// Encodes the PDU (without the message wrapper).
    pub fn encode(&self) -> Result<Vec<u8>, BerError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the encoded PDU to `out`; on error `out` ends in a partial
    /// element.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), BerError> {
        let open = open_pdu(
            out,
            tag::GET_BULK_REQUEST,
            self.request_id,
            i64::from(self.non_repeaters),
            i64::from(self.max_repetitions),
        );
        push_varbinds(out, &self.bindings)?;
        close_pdu(out, open);
        Ok(())
    }

    /// Decodes a GetBulk PDU from a reader positioned at its tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, SnmpError> {
        let mut content = r
            .expect_element(tag::GET_BULK_REQUEST)
            .map_err(SnmpError::from)?;
        let request_id = content.read_integer()? as i32;
        let non_repeaters = content.read_integer()?.max(0) as u32;
        let max_repetitions = content.read_integer()?.max(0) as u32;
        let bindings = decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?, &[])?;
        content.finish()?;
        Ok(BulkPdu {
            request_id,
            non_repeaters,
            max_repetitions,
            bindings,
        })
    }
}

/// Generic trap codes (RFC 1157 §4.1.6).
pub mod generic_trap {
    /// coldStart(0)
    pub const COLD_START: i32 = 0;
    /// warmStart(1)
    pub const WARM_START: i32 = 1;
    /// linkDown(2)
    pub const LINK_DOWN: i32 = 2;
    /// linkUp(3)
    pub const LINK_UP: i32 = 3;
    /// authenticationFailure(4)
    pub const AUTHENTICATION_FAILURE: i32 = 4;
    /// egpNeighborLoss(5)
    pub const EGP_NEIGHBOR_LOSS: i32 = 5;
    /// enterpriseSpecific(6)
    pub const ENTERPRISE_SPECIFIC: i32 = 6;
}

/// An SNMPv1 Trap-PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapPdu {
    /// Object identifying the trap's origin subsystem.
    pub enterprise: Oid,
    /// Address of the emitting agent.
    pub agent_addr: [u8; 4],
    /// Generic trap code (see [`generic_trap`]).
    pub generic_trap: i32,
    /// Enterprise-specific trap code.
    pub specific_trap: i32,
    /// `sysUpTime` at emission.
    pub time_stamp: u32,
    /// Interesting variables.
    pub bindings: Vec<VarBind>,
}

impl TrapPdu {
    /// Encodes the Trap-PDU (without the message wrapper).
    pub fn encode(&self) -> Result<Vec<u8>, BerError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the encoded Trap-PDU to `out`; on error `out` ends in a
    /// partial element.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), BerError> {
        let pdu = ber::open(out, tag::TRAP);
        ber::push_oid(out, &self.enterprise)?;
        ber::push_tlv(out, tag::IP_ADDRESS, &self.agent_addr);
        ber::push_integer(out, i64::from(self.generic_trap));
        ber::push_integer(out, i64::from(self.specific_trap));
        ber::push_unsigned(out, tag::TIME_TICKS, self.time_stamp);
        let bindings = ber::open(out, tag::SEQUENCE);
        push_varbinds(out, &self.bindings)?;
        ber::close(out, bindings);
        ber::close(out, pdu);
        Ok(())
    }

    /// Decodes a Trap-PDU from a reader positioned at the trap tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, SnmpError> {
        let mut content = r.expect_element(tag::TRAP).map_err(SnmpError::from)?;
        let enterprise = content.read_oid()?;
        let addr_val = content.read_value()?;
        let agent_addr = match addr_val {
            SnmpValue::IpAddress(a) => a,
            _ => return Err(SnmpError::Ber(BerError::BadIpAddress)),
        };
        let generic_trap = content.read_integer()? as i32;
        let specific_trap = content.read_integer()? as i32;
        let time_stamp = content.read_unsigned(tag::TIME_TICKS)?;
        let bindings = decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?, &[])?;
        content.finish()?;
        Ok(TrapPdu {
            enterprise,
            agent_addr,
            generic_trap,
            specific_trap,
            time_stamp,
            bindings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    #[test]
    fn pdu_round_trip() {
        let pdu = Pdu {
            pdu_type: PduType::GetRequest,
            request_id: 0x0102_0304,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bindings: vec![
                VarBind::null(oid("1.3.6.1.2.1.1.3.0")),
                VarBind::null(oid("1.3.6.1.2.1.2.2.1.10.1")),
            ],
        };
        let enc = pdu.encode().unwrap();
        let mut r = Reader::new(&enc);
        let back = Pdu::decode(&mut r).unwrap();
        assert_eq!(back, pdu);
        r.finish().unwrap();
    }

    #[test]
    fn response_round_trip_with_values() {
        let pdu = Pdu {
            pdu_type: PduType::GetResponse,
            request_id: -7,
            error_status: ErrorStatus::NoSuchName,
            error_index: 2,
            bindings: vec![
                VarBind::new(oid("1.3.6.1.2.1.1.3.0"), SnmpValue::TimeTicks(123)),
                VarBind::new(oid("1.3.6.1.2.1.1.5.0"), SnmpValue::text("S1")),
            ],
        };
        let enc = pdu.encode().unwrap();
        let back = Pdu::decode(&mut Reader::new(&enc)).unwrap();
        assert_eq!(back, pdu);
    }

    #[test]
    fn error_response_echoes_bindings() {
        let req = Pdu::request(PduType::GetRequest, 9, &[oid("1.3.6.1.9.9")]);
        let resp = req.error_response(ErrorStatus::NoSuchName, 1);
        assert_eq!(resp.pdu_type, PduType::GetResponse);
        assert_eq!(resp.request_id, 9);
        assert_eq!(resp.error_status, ErrorStatus::NoSuchName);
        assert_eq!(resp.error_index, 1);
        assert_eq!(resp.bindings, req.bindings);
    }

    #[test]
    fn empty_bindings_ok() {
        let pdu = Pdu::request(PduType::GetNextRequest, 1, &[]);
        let enc = pdu.encode().unwrap();
        let back = Pdu::decode(&mut Reader::new(&enc)).unwrap();
        assert!(back.bindings.is_empty());
    }

    #[test]
    fn unknown_pdu_tag_rejected() {
        // Tag 0xA7 is not a v1 PDU.
        let body = [0xA7, 0x00];
        let err = Pdu::decode(&mut Reader::new(&body)).unwrap_err();
        assert_eq!(err, SnmpError::UnknownPduType(0xA7));
    }

    #[test]
    fn error_status_codes_round_trip() {
        for s in [
            ErrorStatus::NoError,
            ErrorStatus::TooBig,
            ErrorStatus::NoSuchName,
            ErrorStatus::BadValue,
            ErrorStatus::ReadOnly,
            ErrorStatus::GenErr,
        ] {
            assert_eq!(ErrorStatus::from_code(s.code()), s);
        }
        // Unknown codes degrade to genErr.
        assert_eq!(ErrorStatus::from_code(17), ErrorStatus::GenErr);
    }

    #[test]
    fn bulk_round_trip() {
        let bulk = BulkPdu::request(
            123,
            1,
            20,
            &[oid("1.3.6.1.2.1.1.3.0"), oid("1.3.6.1.2.1.2.2.1.10")],
        );
        let enc = bulk.encode().unwrap();
        assert_eq!(enc[0], 0xA5);
        let back = BulkPdu::decode(&mut Reader::new(&enc)).unwrap();
        assert_eq!(back, bulk);
    }

    #[test]
    fn bulk_negative_fields_clamp_to_zero() {
        // Hand-encode a bulk PDU with negative non-repeaters.
        let mut enc = Vec::new();
        let open = open_pdu(&mut enc, tag::GET_BULK_REQUEST, 1, -5, -1);
        close_pdu(&mut enc, open);
        let back = BulkPdu::decode(&mut Reader::new(&enc)).unwrap();
        assert_eq!(back.non_repeaters, 0);
        assert_eq!(back.max_repetitions, 0);
    }

    #[test]
    fn trap_round_trip() {
        let trap = TrapPdu {
            enterprise: oid("1.3.6.1.4.1.9999"),
            agent_addr: [10, 0, 0, 7],
            generic_trap: generic_trap::ENTERPRISE_SPECIFIC,
            specific_trap: 42,
            time_stamp: 555,
            bindings: vec![VarBind::new(
                oid("1.3.6.1.4.1.9999.1"),
                SnmpValue::Gauge32(12),
            )],
        };
        let enc = trap.encode().unwrap();
        let back = TrapPdu::decode(&mut Reader::new(&enc)).unwrap();
        assert_eq!(back, trap);
    }

    #[test]
    fn pdu_type_tags_round_trip() {
        for t in [
            PduType::GetRequest,
            PduType::GetNextRequest,
            PduType::GetResponse,
            PduType::SetRequest,
        ] {
            assert_eq!(PduType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(PduType::from_tag(0xA4), None); // Trap has its own struct
    }
}
