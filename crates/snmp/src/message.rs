//! The SNMPv1 message wrapper (RFC 1157 §4):
//!
//! ```text
//! Message ::= SEQUENCE {
//!     version   INTEGER { version-1(0) },
//!     community OCTET STRING,
//!     data      ANY   -- one of the PDUs
//! }
//! ```

use crate::ber::{self, tag, Reader};
use crate::error::{BerError, SnmpError};
use crate::pdu::{BulkPdu, Pdu, TrapPdu};

/// Protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnmpVersion {
    /// SNMPv1 (wire value 0).
    V1,
    /// SNMPv2c (wire value 1) — community-based v2: adds GetBulk and the
    /// per-binding exception values.
    V2c,
}

impl SnmpVersion {
    /// Wire value of the version field.
    pub fn code(self) -> i64 {
        match self {
            SnmpVersion::V1 => 0,
            SnmpVersion::V2c => 1,
        }
    }

    /// Parses the wire value.
    pub fn from_code(code: i64) -> Result<Self, SnmpError> {
        match code {
            0 => Ok(SnmpVersion::V1),
            1 => Ok(SnmpVersion::V2c),
            other => Err(SnmpError::UnsupportedVersion(other)),
        }
    }
}

/// The PDU payload of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageBody {
    /// A request or response PDU.
    Pdu(Pdu),
    /// A Trap-PDU.
    Trap(TrapPdu),
    /// A GetBulkRequest-PDU (SNMPv2c only).
    Bulk(BulkPdu),
}

/// A complete SNMPv1 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnmpMessage {
    /// Protocol version (always V1 here).
    pub version: SnmpVersion,
    /// Community string (plaintext "authentication").
    pub community: Vec<u8>,
    /// The PDU.
    pub body: MessageBody,
}

/// Starts a message: the outer SEQUENCE, version and community. The PDU is
/// appended next, then [`close_message`] with the returned mark.
pub(crate) fn open_message(out: &mut Vec<u8>, version: SnmpVersion, community: &[u8]) -> usize {
    let mark = ber::open(out, tag::SEQUENCE);
    ber::push_integer(out, version.code());
    ber::push_tlv(out, tag::OCTET_STRING, community);
    mark
}

/// Finishes the message started at `mark`, which must be the only content
/// of `out`.
pub(crate) fn close_message(out: &mut Vec<u8>, mark: usize) {
    ber::close(out, mark);
}

/// The message wrapper decoded in place: the community borrows from the
/// datagram and `rest` is positioned at the PDU.
pub(crate) struct Wrapper<'a> {
    pub version: SnmpVersion,
    pub community: &'a [u8],
    /// The wrapper's content from the PDU on.
    pub rest: Reader<'a>,
}

/// Decodes one message: opens the wrapper, hands it to `pdu` to read the
/// PDU off `rest`, then rejects trailing bytes. The outcome lands in the
/// codec counters, so every decoder built on this counts alike.
pub(crate) fn decode_with<'a, T>(
    data: &'a [u8],
    pdu: impl FnOnce(&mut Wrapper<'a>) -> Result<T, SnmpError>,
) -> Result<T, SnmpError> {
    let decode = || {
        let mut outer = Reader::new(data);
        let mut rest = outer.expect_element(tag::SEQUENCE)?;
        let version = SnmpVersion::from_code(rest.read_integer()?)?;
        let community = rest.read_octets()?;
        let mut wrapper = Wrapper {
            version,
            community,
            rest,
        };
        let decoded = pdu(&mut wrapper)?;
        wrapper.rest.finish()?;
        outer.finish()?;
        Ok(decoded)
    };
    let result = decode();
    let codec = crate::telemetry::codec();
    match &result {
        Ok(_) => codec.decodes.inc(),
        Err(_) => codec.decode_errors.inc(),
    }
    result
}

impl SnmpMessage {
    /// Wraps a request/response PDU in a v1 message.
    pub fn v1(community: &str, pdu: Pdu) -> Self {
        SnmpMessage {
            version: SnmpVersion::V1,
            community: community.as_bytes().to_vec(),
            body: MessageBody::Pdu(pdu),
        }
    }

    /// Wraps a trap in a v1 message.
    pub fn v1_trap(community: &str, trap: TrapPdu) -> Self {
        SnmpMessage {
            version: SnmpVersion::V1,
            community: community.as_bytes().to_vec(),
            body: MessageBody::Trap(trap),
        }
    }

    /// Wraps a request/response PDU in a v2c message.
    pub fn v2c(community: &str, pdu: Pdu) -> Self {
        SnmpMessage {
            version: SnmpVersion::V2c,
            community: community.as_bytes().to_vec(),
            body: MessageBody::Pdu(pdu),
        }
    }

    /// Wraps a GetBulk request in a v2c message.
    pub fn v2c_bulk(community: &str, bulk: BulkPdu) -> Self {
        SnmpMessage {
            version: SnmpVersion::V2c,
            community: community.as_bytes().to_vec(),
            body: MessageBody::Bulk(bulk),
        }
    }

    /// Serializes the message to wire bytes.
    pub fn encode(&self) -> Result<Vec<u8>, BerError> {
        let mut wire = Vec::with_capacity(64);
        let mark = open_message(&mut wire, self.version, &self.community);
        match &self.body {
            MessageBody::Pdu(p) => p.encode_into(&mut wire)?,
            MessageBody::Trap(t) => t.encode_into(&mut wire)?,
            MessageBody::Bulk(b) => b.encode_into(&mut wire)?,
        }
        close_message(&mut wire, mark);
        Ok(wire)
    }

    /// Parses a message from wire bytes, rejecting trailing garbage.
    pub fn decode(data: &[u8]) -> Result<Self, SnmpError> {
        decode_with(data, |wrapper| {
            let body = match wrapper.rest.peek_tag()? {
                tag::TRAP => MessageBody::Trap(TrapPdu::decode(&mut wrapper.rest)?),
                tag::GET_BULK_REQUEST => MessageBody::Bulk(BulkPdu::decode(&mut wrapper.rest)?),
                _ => MessageBody::Pdu(Pdu::decode(&mut wrapper.rest)?),
            };
            Ok(SnmpMessage {
                version: wrapper.version,
                community: wrapper.community.to_vec(),
                body,
            })
        })
    }

    /// Convenience: the inner request/response PDU, if this is not a trap.
    pub fn pdu(&self) -> Option<&Pdu> {
        match &self.body {
            MessageBody::Pdu(p) => Some(p),
            MessageBody::Trap(_) | MessageBody::Bulk(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;
    use crate::pdu::{generic_trap, PduType, VarBind};
    use crate::value::SnmpValue;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    #[test]
    fn message_round_trip() {
        let pdu = Pdu::request(PduType::GetRequest, 77, &[oid("1.3.6.1.2.1.1.3.0")]);
        let msg = SnmpMessage::v1("public", pdu);
        let enc = msg.encode().unwrap();
        let back = SnmpMessage::decode(&enc).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn known_wire_encoding() {
        // GetRequest sysUpTime.0 community "public", request-id 1 —
        // cross-checked against a net-snmp `snmpget -d` hex dump layout.
        let pdu = Pdu::request(PduType::GetRequest, 1, &[oid("1.3.6.1.2.1.1.3.0")]);
        let msg = SnmpMessage::v1("public", pdu);
        let enc = msg.encode().unwrap();
        let expected: Vec<u8> = vec![
            0x30, 0x26, // SEQUENCE, 38 bytes
            0x02, 0x01, 0x00, // version 0
            0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c', // community
            0xA0, 0x19, // GetRequest, 25 bytes
            0x02, 0x01, 0x01, // request-id 1
            0x02, 0x01, 0x00, // error-status 0
            0x02, 0x01, 0x00, // error-index 0
            0x30, 0x0E, // varbind list, 14 bytes
            0x30, 0x0C, // varbind, 12 bytes
            0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x03, 0x00, // OID
            0x05, 0x00, // NULL
        ];
        assert_eq!(enc, expected);
    }

    #[test]
    fn trap_message_round_trip() {
        let trap = TrapPdu {
            enterprise: oid("1.3.6.1.4.1.9999"),
            agent_addr: [10, 1, 2, 3],
            generic_trap: generic_trap::LINK_DOWN,
            specific_trap: 0,
            time_stamp: 1000,
            bindings: vec![VarBind::new(
                oid("1.3.6.1.2.1.2.2.1.1.3"),
                SnmpValue::Integer(3),
            )],
        };
        let msg = SnmpMessage::v1_trap("traps", trap);
        let enc = msg.encode().unwrap();
        let back = SnmpMessage::decode(&enc).unwrap();
        assert_eq!(back, msg);
        assert!(back.pdu().is_none());
    }

    #[test]
    fn unknown_version_rejected_v2c_accepted() {
        let build = |code: i64| {
            let mut wire = Vec::new();
            let mark = ber::open(&mut wire, tag::SEQUENCE);
            ber::push_integer(&mut wire, code);
            ber::push_tlv(&mut wire, tag::OCTET_STRING, b"public");
            Pdu::request(PduType::GetRequest, 1, &[])
                .encode_into(&mut wire)
                .unwrap();
            ber::close(&mut wire, mark);
            wire
        };
        // SNMPv3 (and garbage) rejected; v2c accepted.
        assert_eq!(
            SnmpMessage::decode(&build(3)),
            Err(SnmpError::UnsupportedVersion(3))
        );
        let v2 = SnmpMessage::decode(&build(1)).unwrap();
        assert_eq!(v2.version, SnmpVersion::V2c);
    }

    #[test]
    fn v2c_bulk_round_trip() {
        let bulk = BulkPdu {
            request_id: 9,
            non_repeaters: 1,
            max_repetitions: 10,
            bindings: vec![
                VarBind::null(oid("1.3.6.1.2.1.1.3.0")),
                VarBind::null(oid("1.3.6.1.2.1.2.2")),
            ],
        };
        let msg = SnmpMessage::v2c_bulk("public", bulk);
        let enc = msg.encode().unwrap();
        let back = SnmpMessage::decode(&enc).unwrap();
        assert_eq!(back, msg);
        assert!(back.pdu().is_none());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let pdu = Pdu::request(PduType::GetRequest, 1, &[]);
        let mut enc = SnmpMessage::v1("public", pdu).encode().unwrap();
        enc.push(0x00);
        assert!(SnmpMessage::decode(&enc).is_err());
    }

    #[test]
    fn binary_community_allowed() {
        let pdu = Pdu::request(PduType::GetRequest, 1, &[]);
        let mut msg = SnmpMessage::v1("x", pdu);
        msg.community = vec![0xff, 0x00, 0x7f];
        let enc = msg.encode().unwrap();
        let back = SnmpMessage::decode(&enc).unwrap();
        assert_eq!(back.community, vec![0xff, 0x00, 0x7f]);
    }
}
