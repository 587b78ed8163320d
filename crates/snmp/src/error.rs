//! Error types shared across the SNMP crate.

use crate::pdu::ErrorStatus;
use std::fmt;

/// Errors produced by BER encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BerError {
    /// Input ended before the announced length.
    Truncated,
    /// A length octet sequence is malformed or unreasonably large.
    BadLength,
    /// Indefinite lengths are forbidden in SNMP.
    IndefiniteLength,
    /// An INTEGER had zero or too many content octets.
    BadInteger,
    /// An unsigned 32-bit quantity overflowed.
    UnsignedOverflow,
    /// An OBJECT IDENTIFIER was malformed (empty, unterminated subid, or
    /// arc overflow).
    BadOid,
    /// An IpAddress did not contain exactly 4 octets.
    BadIpAddress,
    /// A different tag was expected.
    UnexpectedTag { expected: u8, got: u8 },
    /// An unknown/unsupported tag was found where a value was expected.
    UnknownTag(u8),
    /// Bytes remained after the outermost element.
    TrailingBytes(usize),
    /// Attempted to encode an OID with fewer than two arcs or invalid
    /// leading arcs.
    UnencodableOid,
}

impl fmt::Display for BerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BerError::Truncated => f.write_str("truncated BER input"),
            BerError::BadLength => f.write_str("malformed BER length"),
            BerError::IndefiniteLength => f.write_str("indefinite BER length not allowed in SNMP"),
            BerError::BadInteger => f.write_str("malformed BER integer"),
            BerError::UnsignedOverflow => f.write_str("unsigned value exceeds 32 bits"),
            BerError::BadOid => f.write_str("malformed BER object identifier"),
            BerError::BadIpAddress => f.write_str("IpAddress must be exactly 4 octets"),
            BerError::UnexpectedTag { expected, got } => {
                write!(f, "expected tag 0x{expected:02x}, got 0x{got:02x}")
            }
            BerError::UnknownTag(t) => write!(f, "unknown BER tag 0x{t:02x}"),
            BerError::TrailingBytes(n) => write!(f, "{n} trailing bytes after BER element"),
            BerError::UnencodableOid => f.write_str("OID cannot be BER-encoded"),
        }
    }
}

impl std::error::Error for BerError {}

/// Errors produced by the SNMP message/PDU layer and the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnmpError {
    /// BER-level failure.
    Ber(BerError),
    /// Unsupported protocol version field.
    UnsupportedVersion(i64),
    /// The PDU tag was not one recognized by SNMPv1.
    UnknownPduType(u8),
    /// A response carried an SNMP error-status.
    ErrorStatus {
        /// The error reported by the agent.
        status: ErrorStatus,
        /// 1-based index of the offending variable binding (0 if none).
        index: u32,
    },
    /// A response's request-id did not match the request.
    RequestIdMismatch { expected: i32, got: i32 },
    /// A response was expected but a non-response PDU arrived.
    NotAResponse,
    /// The agent did not answer: every transmission the transport makes
    /// went unanswered, or the agent ignored the request.
    Timeout,
    /// The transport failed for a reason other than silence (I/O failure).
    Transport(String),
    /// A varbind was missing from a response that should contain it.
    MissingBinding(String),
    /// A varbind carried a different type than required.
    WrongType {
        /// What the caller needed.
        expected: &'static str,
        /// What the agent returned.
        got: &'static str,
    },
}

impl fmt::Display for SnmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnmpError::Ber(e) => write!(f, "BER error: {e}"),
            SnmpError::UnsupportedVersion(v) => write!(f, "unsupported SNMP version {v}"),
            SnmpError::UnknownPduType(t) => write!(f, "unknown PDU type 0x{t:02x}"),
            SnmpError::ErrorStatus { status, index } => {
                write!(f, "agent returned {status} at index {index}")
            }
            SnmpError::RequestIdMismatch { expected, got } => {
                write!(f, "request-id mismatch: expected {expected}, got {got}")
            }
            SnmpError::NotAResponse => f.write_str("received PDU is not a GetResponse"),
            SnmpError::Timeout => f.write_str("no response from the agent"),
            SnmpError::Transport(msg) => write!(f, "transport failure: {msg}"),
            SnmpError::MissingBinding(oid) => write!(f, "response missing binding for {oid}"),
            SnmpError::WrongType { expected, got } => {
                write!(f, "wrong value type: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SnmpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnmpError::Ber(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BerError> for SnmpError {
    fn from(e: BerError) -> Self {
        SnmpError::Ber(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(BerError::Truncated.to_string().contains("truncated"));
        assert!(BerError::UnexpectedTag {
            expected: 0x30,
            got: 0x02
        }
        .to_string()
        .contains("0x30"));
        let e = SnmpError::from(BerError::BadOid);
        assert!(e.to_string().contains("BER"));
        let e = SnmpError::ErrorStatus {
            status: ErrorStatus::NoSuchName,
            index: 2,
        };
        assert!(e.to_string().contains("index 2"));
    }

    #[test]
    fn source_chains_ber() {
        use std::error::Error;
        let e = SnmpError::from(BerError::Truncated);
        assert!(e.source().is_some());
        assert!(SnmpError::NotAResponse.source().is_none());
    }
}
