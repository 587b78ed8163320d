//! ASN.1 Basic Encoding Rules — the subset used by SNMPv1 (RFC 1157 §3.2.2
//! restricts SNMP to definite-length, primitive-where-possible BER).
//!
//! The encoder produces canonical encodings (minimal-length integers and
//! lengths); the decoder is liberal within the SNMP subset but rejects
//! indefinite lengths, truncated elements, and oversized quantities.
//!
//! ## Wire vectors
//!
//! A few worked examples, verifiable by hand against RFC 1157 appendix
//! examples (also asserted in the tests below):
//!
//! ```text
//! INTEGER 5          => 02 01 05
//! INTEGER -1         => 02 01 FF
//! INTEGER 256        => 02 02 01 00
//! OCTET STRING "ab"  => 04 02 61 62
//! NULL               => 05 00
//! OID 1.3.6.1.2.1    => 06 05 2B 06 01 02 01
//! Counter32 0xFFFFFFFF => 41 05 00 FF FF FF FF
//! ```

use crate::error::BerError;
use crate::oid::{Oid, INLINE_ARCS};
use crate::value::{SnmpValue, ValueRef};

/// BER tag constants used by SNMPv1.
pub mod tag {
    /// Universal INTEGER.
    pub const INTEGER: u8 = 0x02;
    /// Universal OCTET STRING.
    pub const OCTET_STRING: u8 = 0x04;
    /// Universal NULL.
    pub const NULL: u8 = 0x05;
    /// Universal OBJECT IDENTIFIER.
    pub const OID: u8 = 0x06;
    /// Universal constructed SEQUENCE (OF).
    pub const SEQUENCE: u8 = 0x30;
    /// Application 0: IpAddress.
    pub const IP_ADDRESS: u8 = 0x40;
    /// Application 1: Counter.
    pub const COUNTER32: u8 = 0x41;
    /// Application 2: Gauge.
    pub const GAUGE32: u8 = 0x42;
    /// Application 3: TimeTicks.
    pub const TIME_TICKS: u8 = 0x43;
    /// Application 4: Opaque.
    pub const OPAQUE: u8 = 0x44;
    /// Context-constructed 0: GetRequest-PDU.
    pub const GET_REQUEST: u8 = 0xA0;
    /// Context-constructed 1: GetNextRequest-PDU.
    pub const GET_NEXT_REQUEST: u8 = 0xA1;
    /// Context-constructed 2: GetResponse-PDU.
    pub const GET_RESPONSE: u8 = 0xA2;
    /// Context-constructed 3: SetRequest-PDU.
    pub const SET_REQUEST: u8 = 0xA3;
    /// Context-constructed 4: Trap-PDU.
    pub const TRAP: u8 = 0xA4;
    /// Context-constructed 5: GetBulkRequest-PDU (SNMPv2c).
    pub const GET_BULK_REQUEST: u8 = 0xA5;
    /// Context primitive 0 inside a varbind value: noSuchObject (v2c).
    pub const NO_SUCH_OBJECT: u8 = 0x80;
    /// Context primitive 1 inside a varbind value: noSuchInstance (v2c).
    pub const NO_SUCH_INSTANCE: u8 = 0x81;
    /// Context primitive 2 inside a varbind value: endOfMibView (v2c).
    pub const END_OF_MIB_VIEW: u8 = 0x82;
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------
//
// Every encoder appends to one caller-owned buffer, front to back. A
// constructed element is bracketed by `open`/`close`: `open` writes the
// tag and a one-octet length, `close` patches it once the content length
// is known, moving the content only when it needs the long form (128
// octets or more).

/// The octets of a long-form length after its first: `len` big-endian
/// without leading zeros, as the tail of the returned array.
fn long_form(len: usize) -> ([u8; std::mem::size_of::<usize>()], usize) {
    let bytes = len.to_be_bytes();
    let skip = bytes.iter().take_while(|&&b| b == 0).count();
    (bytes, skip)
}

/// Appends a BER definite length to `out`.
pub fn push_length(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let (bytes, skip) = long_form(len);
        out.push(0x80 | (bytes.len() - skip) as u8);
        out.extend_from_slice(&bytes[skip..]);
    }
}

/// Appends a complete TLV element to `out`.
pub fn push_tlv(out: &mut Vec<u8>, tag_byte: u8, content: &[u8]) {
    out.push(tag_byte);
    push_length(out, content.len());
    out.extend_from_slice(content);
}

/// Starts an element whose content length is not known yet. Returns the
/// mark to hand to [`close`] after the content has been appended.
pub fn open(out: &mut Vec<u8>, tag_byte: u8) -> usize {
    out.push(tag_byte);
    out.push(0);
    out.len()
}

/// Finishes the element started by the [`open`] call that returned `mark`:
/// everything appended since is its content.
pub fn close(out: &mut Vec<u8>, mark: usize) {
    let end = out.len();
    let len = end - mark;
    if len < 0x80 {
        out[mark - 1] = len as u8;
        return;
    }
    let (bytes, skip) = long_form(len);
    let sig = &bytes[skip..];
    out[mark - 1] = 0x80 | sig.len() as u8;
    out.resize(end + sig.len(), 0);
    out.copy_within(mark..end, mark + sig.len());
    out[mark..mark + sig.len()].copy_from_slice(sig);
}

/// The length `out` will have once the elements [`open`] returned `marks`
/// for, outermost first, are closed: each content of 128 octets or more
/// takes the long form's octets on top of its one placeholder.
pub(crate) fn closed_len(out: &[u8], marks: &[usize]) -> usize {
    marks.iter().rev().fold(out.len(), |len, &mark| {
        let content = len - mark;
        if content < 0x80 {
            len
        } else {
            len + std::mem::size_of::<usize>() - long_form(content).1
        }
    })
}

/// Appends `value` as minimal two's complement content under `tag_byte`.
fn push_twos_complement(out: &mut Vec<u8>, tag_byte: u8, value: i64) {
    // Bits that are not copies of the sign bit, plus the sign bit itself.
    let bits = 65 - (value ^ (value >> 63)).leading_zeros() as usize;
    let octets = bits.div_ceil(8);
    out.extend_from_slice(&[tag_byte, octets as u8]);
    // All eight octets with the significant ones first, then drop the
    // rest: two fixed-size writes instead of a variable-length copy.
    let spare = 8 - octets;
    out.extend_from_slice(&((value as u64) << (8 * spare)).to_be_bytes());
    out.truncate(out.len() - spare);
}

/// Appends a signed INTEGER (minimal two's complement content).
pub fn push_integer(out: &mut Vec<u8>, value: i64) {
    push_twos_complement(out, tag::INTEGER, value);
}

/// Appends an unsigned 32-bit quantity under an application tag
/// (Counter32 / Gauge32 / TimeTicks). Values with the high bit set gain a
/// leading zero octet so they are not read back as negative.
pub fn push_unsigned(out: &mut Vec<u8>, tag_byte: u8, value: u32) {
    push_twos_complement(out, tag_byte, i64::from(value));
}

/// Appends an OBJECT IDENTIFIER.
pub fn push_oid(out: &mut Vec<u8>, oid: &Oid) -> Result<(), BerError> {
    if !oid.is_encodable() {
        return Err(BerError::UnencodableOid);
    }
    let arcs = oid.arcs();
    // First two arcs combine into one subidentifier: X*40 + Y
    // (`is_encodable` has checked that it fits).
    let first = arcs[0] * 40 + arcs[1];
    // The usual name — few arcs, each below 128 — is one octet per
    // subidentifier under a one-octet length.
    if arcs.len() <= 0x80 && first < 0x80 && arcs[2..].iter().all(|&arc| arc < 0x80) {
        out.extend_from_slice(&[tag::OID, arcs.len() as u8 - 1, first as u8]);
        out.extend(arcs[2..].iter().map(|&arc| arc as u8));
        return Ok(());
    }
    let mark = open(out, tag::OID);
    push_base128(out, first);
    for &arc in &arcs[2..] {
        push_base128(out, arc);
    }
    close(out, mark);
    Ok(())
}

fn push_base128(out: &mut Vec<u8>, v: u32) {
    let groups = (32 - v.leading_zeros()).div_ceil(7).max(1);
    for i in (1..groups).rev() {
        out.push(0x80 | (v >> (7 * i)) as u8 & 0x7F);
    }
    out.push(v as u8 & 0x7F);
}

/// Appends any SNMP value.
pub fn push_value(out: &mut Vec<u8>, value: ValueRef<'_>) -> Result<(), BerError> {
    match value {
        ValueRef::Integer(v) => push_integer(out, v),
        ValueRef::OctetString(b) => push_tlv(out, tag::OCTET_STRING, b),
        ValueRef::Null => out.extend_from_slice(&[tag::NULL, 0]),
        ValueRef::Oid(oid) => push_oid(out, oid)?,
        ValueRef::IpAddress(a) => push_tlv(out, tag::IP_ADDRESS, &a),
        ValueRef::Counter32(v) => push_unsigned(out, tag::COUNTER32, v),
        ValueRef::Gauge32(v) => push_unsigned(out, tag::GAUGE32, v),
        ValueRef::TimeTicks(v) => push_unsigned(out, tag::TIME_TICKS, v),
        ValueRef::Opaque(b) => push_tlv(out, tag::OPAQUE, b),
        ValueRef::NoSuchObject => out.extend_from_slice(&[tag::NO_SUCH_OBJECT, 0]),
        ValueRef::NoSuchInstance => out.extend_from_slice(&[tag::NO_SUCH_INSTANCE, 0]),
        ValueRef::EndOfMibView => out.extend_from_slice(&[tag::END_OF_MIB_VIEW, 0]),
    }
    Ok(())
}

/// One INTEGER element on its own.
pub fn encode_integer(value: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    push_integer(&mut out, value);
    out
}

/// One unsigned element on its own (see [`push_unsigned`]).
pub fn encode_unsigned(tag_byte: u8, value: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(7);
    push_unsigned(&mut out, tag_byte, value);
    out
}

/// One OBJECT IDENTIFIER element on its own.
pub fn encode_oid(oid: &Oid) -> Result<Vec<u8>, BerError> {
    let mut out = Vec::with_capacity(oid.len() + 2);
    push_oid(&mut out, oid)?;
    Ok(out)
}

/// One value element on its own.
pub fn encode_value(value: &SnmpValue) -> Result<Vec<u8>, BerError> {
    let mut out = Vec::new();
    push_value(&mut out, value.into())?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over BER input.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The input not yet consumed.
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// True when all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BerError> {
        if self.data.len() < n {
            return Err(BerError::Truncated);
        }
        let (taken, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(taken)
    }

    fn byte(&mut self) -> Result<u8, BerError> {
        Ok(self.take(1)?[0])
    }

    /// Peeks at the next tag without consuming it.
    pub fn peek_tag(&self) -> Result<u8, BerError> {
        self.data.first().copied().ok_or(BerError::Truncated)
    }

    /// Reads a tag byte and definite length.
    pub fn read_header(&mut self) -> Result<(u8, usize), BerError> {
        // Nearly every element is shorter than 128 octets.
        if let [t, len @ 0..=0x7F, rest @ ..] = self.data {
            self.data = rest;
            return Ok((*t, *len as usize));
        }
        let t = self.byte()?;
        let len = self.read_length()?;
        Ok((t, len))
    }

    fn read_length(&mut self) -> Result<usize, BerError> {
        let first = self.byte()?;
        if first < 0x80 {
            return Ok(first as usize);
        }
        let n = (first & 0x7F) as usize;
        if n == 0 {
            return Err(BerError::IndefiniteLength);
        }
        if n > std::mem::size_of::<usize>() {
            return Err(BerError::BadLength);
        }
        let bytes = self.take(n)?;
        let mut len = 0usize;
        for &b in bytes {
            len = (len << 8) | b as usize;
        }
        Ok(len)
    }

    /// Reads the next element: returns its tag and a sub-reader over its
    /// content.
    pub fn read_element(&mut self) -> Result<(u8, Reader<'a>), BerError> {
        let (t, len) = self.read_header()?;
        let content = self.take(len)?;
        Ok((t, Reader::new(content)))
    }

    /// Reads an element and checks its tag.
    pub fn expect_element(&mut self, expected: u8) -> Result<Reader<'a>, BerError> {
        let (t, r) = self.read_element()?;
        if t != expected {
            return Err(BerError::UnexpectedTag { expected, got: t });
        }
        Ok(r)
    }

    /// Reads a full INTEGER element.
    pub fn read_integer(&mut self) -> Result<i64, BerError> {
        let content = self.expect_element(tag::INTEGER)?;
        decode_integer_content(content.rest())
    }

    /// Reads a full unsigned element under the given application tag.
    pub fn read_unsigned(&mut self, tag_byte: u8) -> Result<u32, BerError> {
        let content = self.expect_element(tag_byte)?;
        decode_unsigned_content(content.rest())
    }

    /// Reads a full OCTET STRING element, borrowing its content.
    pub fn read_octets(&mut self) -> Result<&'a [u8], BerError> {
        Ok(self.expect_element(tag::OCTET_STRING)?.rest())
    }

    /// Reads a full OBJECT IDENTIFIER element.
    pub fn read_oid(&mut self) -> Result<Oid, BerError> {
        let content = self.expect_element(tag::OID)?;
        decode_oid_content(content.rest())
    }

    /// Reads past an OBJECT IDENTIFIER element that is `oid` written one
    /// octet per subidentifier, and returns true: the short-form length
    /// `oid.len() - 1`, then `40 * first + second` and every later arc,
    /// each octet below 128. Such an element decodes to exactly `oid`:
    /// with no continuation bit every octet is one subidentifier, and the
    /// first splits back into `first.second`. Anything else — `oid`
    /// padded, under a long-form length or with an arc of 128 or more,
    /// another name, a cut element — is left unread and returns false,
    /// for [`Reader::read_oid`] to decode.
    pub fn skip_oid_if(&mut self, oid: &Oid) -> bool {
        let [first, second, rest @ ..] = oid.arcs() else {
            return false;
        };
        // The first subidentifier, where one octet splits back into the
        // first two arcs.
        let head = match (*first, *second) {
            (0 | 1, second @ 0..40) => first * 40 + second,
            (2, second @ 0..48) => 80 + second,
            _ => return false,
        };
        let len = rest.len() + 1;
        let Some((element, tail)) = self.data.split_at_checked(len + 2) else {
            return false;
        };
        let [tag::OID, len_octet @ 0..0x80, sub, content @ ..] = element else {
            return false;
        };
        let same = usize::from(*len_octet) == len
            && u32::from(*sub) == head
            && content
                .iter()
                .zip(rest)
                .all(|(&octet, &arc)| octet < 0x80 && u32::from(octet) == arc);
        if same {
            self.data = tail;
        }
        same
    }

    /// Reads any SNMP value element.
    pub fn read_value(&mut self) -> Result<SnmpValue, BerError> {
        let mut oid = Oid::empty();
        Ok(match self.read_value_ref(&mut oid)? {
            ValueRef::Oid(_) => SnmpValue::oid(std::mem::take(&mut oid)),
            value => value.to_value(),
        })
    }

    /// Reads any SNMP value element without copying it: octets are lent
    /// from the input, and an OID value is decoded into `oid` and lent
    /// from there. Checks everything [`Reader::read_value`] checks.
    pub(crate) fn read_value_ref<'o>(&mut self, oid: &'o mut Oid) -> Result<ValueRef<'o>, BerError>
    where
        'a: 'o,
    {
        let (t, content) = self.read_element()?;
        let bytes = content.rest();
        Ok(match t {
            tag::OCTET_STRING => ValueRef::OctetString(bytes),
            tag::OID => {
                *oid = decode_oid_content(bytes)?;
                ValueRef::Oid(oid)
            }
            tag::OPAQUE => ValueRef::Opaque(bytes),
            _ => decode_scalar(t, bytes)?,
        })
    }

    /// Reads past any SNMP value element, checking everything
    /// [`Reader::read_value`] checks without keeping the value.
    pub fn skip_value(&mut self) -> Result<(), BerError> {
        let (t, content) = self.read_element()?;
        match t {
            tag::OCTET_STRING | tag::OPAQUE => Ok(()),
            tag::OID => decode_oid_content(content.rest()).map(drop),
            _ => decode_scalar(t, content.rest()).map(drop),
        }
    }

    /// The unconsumed input.
    pub fn rest(&self) -> &'a [u8] {
        self.data
    }

    /// Fails with [`BerError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), BerError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(BerError::TrailingBytes(self.remaining()))
        }
    }
}

/// Decodes the value kinds that own no memory.
fn decode_scalar(t: u8, bytes: &[u8]) -> Result<ValueRef<'static>, BerError> {
    Ok(match t {
        tag::INTEGER => ValueRef::Integer(decode_integer_content(bytes)?),
        tag::NULL => ValueRef::Null,
        tag::IP_ADDRESS => {
            let arr: [u8; 4] = bytes.try_into().map_err(|_| BerError::BadIpAddress)?;
            ValueRef::IpAddress(arr)
        }
        tag::COUNTER32 => ValueRef::Counter32(decode_unsigned_content(bytes)?),
        tag::GAUGE32 => ValueRef::Gauge32(decode_unsigned_content(bytes)?),
        tag::TIME_TICKS => ValueRef::TimeTicks(decode_unsigned_content(bytes)?),
        tag::NO_SUCH_OBJECT => ValueRef::NoSuchObject,
        tag::NO_SUCH_INSTANCE => ValueRef::NoSuchInstance,
        tag::END_OF_MIB_VIEW => ValueRef::EndOfMibView,
        other => return Err(BerError::UnknownTag(other)),
    })
}

fn decode_integer_content(bytes: &[u8]) -> Result<i64, BerError> {
    if bytes.is_empty() || bytes.len() > 8 {
        return Err(BerError::BadInteger);
    }
    let mut v: i64 = if bytes[0] & 0x80 != 0 { -1 } else { 0 };
    for &b in bytes {
        v = (v << 8) | i64::from(b);
    }
    Ok(v)
}

fn decode_unsigned_content(bytes: &[u8]) -> Result<u32, BerError> {
    if bytes.is_empty() {
        return Err(BerError::BadInteger);
    }
    // A 5-byte encoding is legal only with a leading zero octet.
    let sig = if bytes.len() == 5 {
        if bytes[0] != 0 {
            return Err(BerError::UnsignedOverflow);
        }
        &bytes[1..]
    } else if bytes.len() > 5 {
        return Err(BerError::UnsignedOverflow);
    } else {
        bytes
    };
    let mut v: u32 = 0;
    for &b in sig {
        v = (v << 8) | u32::from(b);
    }
    Ok(v)
}

fn decode_oid_content(bytes: &[u8]) -> Result<Oid, BerError> {
    // Empty content, or a continuation bit on the last octet.
    if bytes.last().is_none_or(|b| b & 0x80 != 0) {
        return Err(BerError::BadOid);
    }
    // Split the combined first subidentifier.
    let split = |v: u32| match v {
        0..=39 => [0, v],
        40..=79 => [1, v - 40],
        _ => [2, v - 80],
    };
    // The usual name — few subidentifiers, each one octet — goes straight
    // into place.
    if bytes.len() < INLINE_ARCS {
        let mut oid = Oid::zeroed(bytes.len() + 1);
        let arcs = oid.inline_arcs_mut();
        let mut seen = bytes[0];
        for (arc, &b) in arcs[2..].iter_mut().zip(&bytes[1..]) {
            *arc = u32::from(b);
            seen |= b;
        }
        if seen & 0x80 == 0 {
            arcs[..2].copy_from_slice(&split(u32::from(bytes[0])));
            return Ok(oid);
        }
    }
    let mut oid = Oid::empty();
    let mut v: u32 = 0;
    let mut first = true;
    for &b in bytes {
        if v > (u32::MAX >> 7) {
            return Err(BerError::BadOid);
        }
        v = (v << 7) | u32::from(b & 0x7F);
        if b & 0x80 != 0 {
            continue;
        }
        if first {
            let [x, y] = split(v);
            oid.push(x);
            oid.push(y);
            first = false;
        } else {
            oid.push(v);
        }
        v = 0;
    }
    Ok(oid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    #[test]
    fn integer_wire_vectors() {
        assert_eq!(encode_integer(5), [0x02, 0x01, 0x05]);
        assert_eq!(encode_integer(0), [0x02, 0x01, 0x00]);
        assert_eq!(encode_integer(-1), [0x02, 0x01, 0xFF]);
        assert_eq!(encode_integer(127), [0x02, 0x01, 0x7F]);
        assert_eq!(encode_integer(128), [0x02, 0x02, 0x00, 0x80]);
        assert_eq!(encode_integer(256), [0x02, 0x02, 0x01, 0x00]);
        assert_eq!(encode_integer(-129), [0x02, 0x02, 0xFF, 0x7F]);
    }

    #[test]
    fn integer_decode_round_trip() {
        for v in [
            0i64,
            1,
            -1,
            127,
            128,
            -128,
            -129,
            255,
            256,
            i64::from(i32::MAX),
            i64::from(i32::MIN),
            i64::MAX,
            i64::MIN,
        ] {
            let enc = encode_integer(v);
            let mut r = Reader::new(&enc);
            assert_eq!(r.read_integer().unwrap(), v, "value {v}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn unsigned_wire_vectors() {
        // High-bit values need a leading zero octet.
        assert_eq!(
            encode_unsigned(tag::COUNTER32, 0xFFFF_FFFF),
            [0x41, 0x05, 0x00, 0xFF, 0xFF, 0xFF, 0xFF]
        );
        assert_eq!(encode_unsigned(tag::GAUGE32, 0), [0x42, 0x01, 0x00]);
        assert_eq!(
            encode_unsigned(tag::TIME_TICKS, 0x80),
            [0x43, 0x02, 0x00, 0x80]
        );
    }

    #[test]
    fn unsigned_round_trip() {
        for v in [
            0u32,
            1,
            127,
            128,
            255,
            256,
            0x7FFF_FFFF,
            0x8000_0000,
            u32::MAX,
        ] {
            let enc = encode_unsigned(tag::COUNTER32, v);
            let mut r = Reader::new(&enc);
            assert_eq!(r.read_unsigned(tag::COUNTER32).unwrap(), v);
        }
    }

    #[test]
    fn unsigned_overflow_rejected() {
        // Six content octets can never be a valid 32-bit unsigned.
        let bad = [0x41, 0x06, 0x01, 0, 0, 0, 0, 0];
        let mut r = Reader::new(&bad);
        assert_eq!(
            r.read_unsigned(tag::COUNTER32),
            Err(BerError::UnsignedOverflow)
        );
        // Five octets with nonzero leading byte overflow too.
        let bad = [0x41, 0x05, 0x01, 0, 0, 0, 0];
        let mut r = Reader::new(&bad);
        assert_eq!(
            r.read_unsigned(tag::COUNTER32),
            Err(BerError::UnsignedOverflow)
        );
    }

    #[test]
    fn oid_wire_vector() {
        let enc = encode_oid(&oid("1.3.6.1.2.1")).unwrap();
        assert_eq!(enc, [0x06, 0x05, 0x2B, 0x06, 0x01, 0x02, 0x01]);
    }

    #[test]
    fn oid_multibyte_arcs() {
        // 1.3.6.1.4.1.311 — 311 needs two base-128 bytes (0x82 0x37).
        let enc = encode_oid(&oid("1.3.6.1.4.1.311")).unwrap();
        assert_eq!(enc, [0x06, 0x07, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x82, 0x37]);
        let mut r = Reader::new(&enc);
        assert_eq!(r.read_oid().unwrap(), oid("1.3.6.1.4.1.311"));
    }

    #[test]
    fn oid_first_arc_two() {
        let o = oid("2.100.3");
        let enc = encode_oid(&o).unwrap();
        let mut r = Reader::new(&enc);
        assert_eq!(r.read_oid().unwrap(), o);
    }

    #[test]
    fn oid_max_arc_round_trip() {
        let o = Oid::new(vec![1, 3, u32::MAX]);
        let enc = encode_oid(&o).unwrap();
        let mut r = Reader::new(&enc);
        assert_eq!(r.read_oid().unwrap(), o);
    }

    #[test]
    fn oid_unencodable_rejected() {
        assert_eq!(encode_oid(&Oid::empty()), Err(BerError::UnencodableOid));
        assert_eq!(encode_oid(&Oid::from([1])), Err(BerError::UnencodableOid));
        assert_eq!(
            encode_oid(&Oid::from([1, 40])),
            Err(BerError::UnencodableOid)
        );
    }

    #[test]
    fn oid_first_subidentifier_overflow_rejected() {
        // 2 * 40 + second must fit the 32-bit subidentifier.
        let fits = Oid::from([2, u32::MAX - 80, 7]);
        let enc = encode_oid(&fits).unwrap();
        assert_eq!(Reader::new(&enc).read_oid().unwrap(), fits);
        for second in [u32::MAX - 79, u32::MAX] {
            assert_eq!(
                encode_oid(&Oid::from([2, second])),
                Err(BerError::UnencodableOid)
            );
        }
        let parsed: Oid = "2.4294967295".parse().unwrap();
        assert!(!parsed.is_encodable());
    }

    #[test]
    fn oid_truncated_continuation_rejected() {
        // Subidentifier with continuation bit set on the final byte.
        let bad = [0x06, 0x02, 0x2B, 0x86];
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_oid(), Err(BerError::BadOid));
    }

    #[test]
    fn skip_oid_if_takes_only_the_one_octet_encoding_of_its_name() {
        let name = oid("1.3.6.1.2.1.2.2.1.10.1");
        let mut bytes = encode_oid(&name).unwrap();
        bytes.extend_from_slice(&[0x41, 0x01, 0x07]);
        let mut r = Reader::new(&bytes);
        assert!(r.skip_oid_if(&name));
        assert_eq!(r.rest(), [0x41, 0x01, 0x07]);

        let padded = [0x06, 0x03, 0x80, 0x2B, 0x06];
        let long_form = [0x06, 0x81, 0x02, 0x2B, 0x06];
        let refused: [(&str, &[u8]); 12] = [
            ("1.3.6", &padded),
            ("1.3.6", &long_form),
            ("1.3.6", &[0x06, 0x02, 0x2B, 0x07]), // another last arc
            ("1.3.6", &[0x06, 0x03, 0x2B, 0x06, 0x01]), // a longer name
            ("1.3.6", &[0x06, 0x01, 0x2B]),       // a shorter one
            ("1.3.6", &[0x06, 0x02, 0x2B]),       // cut
            ("1.3.6", &[0x04, 0x02, 0x2B, 0x06]), // not an OID
            ("1.3.134", &[0x06, 0x03, 0x2B, 0x81, 0x06]), // an arc of 128 or more
            ("1.3.129.6", &[0x06, 0x03, 0x2B, 0x81, 0x06]), // its octets as arcs
            ("0.43.6", &[0x06, 0x02, 0x2B, 0x06]), // 1.3 split another way
            ("2.48", &[0x06, 0x02, 0x81, 0x00]),  // a two-octet first
            ("1", &[0x06, 0x00]),
        ];
        for (name, bytes) in refused {
            let mut r = Reader::new(bytes);
            assert!(!r.skip_oid_if(&oid(name)), "{name} {bytes:02x?}");
            assert_eq!(r.remaining(), bytes.len(), "{name}: nothing read");
        }
        assert!(!Reader::new(&[]).skip_oid_if(&Oid::empty()));

        // 130 arcs, `1.3` then 128 of 0x05: a long-form length octet 0x81
        // read as a short one would be 129, and this element's content
        // octets (0x2B of them) would be taken for the name's.
        let mut arcs = vec![1, 3];
        arcs.extend([5; 128]);
        let long = Oid::new(arcs);
        let mut bytes = vec![0x06, 0x81, 0x2B];
        bytes.extend([5; 128]);
        assert!(!Reader::new(&bytes).skip_oid_if(&long));
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_oid().unwrap().len(), 44);
        // Its one-octet encoding, under a two-octet length, is decoded.
        let encoded = encode_oid(&long).unwrap();
        assert_eq!(encoded[..3], [0x06, 0x81, 0x81]);
        assert!(!Reader::new(&encoded).skip_oid_if(&long));
    }

    #[test]
    fn closed_len_is_the_length_closing_gives() {
        for content in [0, 1, 120, 124, 125, 127, 128, 250, 255, 256, 70_000] {
            let mut out = Vec::new();
            let outer = open(&mut out, tag::SEQUENCE);
            push_integer(&mut out, 7);
            let inner = open(&mut out, tag::SEQUENCE);
            out.resize(out.len() + content, 0xAB);
            let predicted = closed_len(&out, &[outer, inner]);
            close(&mut out, inner);
            close(&mut out, outer);
            assert_eq!(predicted, out.len(), "{content} octets of content");
        }
    }

    #[test]
    fn long_form_length_round_trip() {
        let content = vec![0xAB; 300];
        let mut enc = Vec::new();
        push_tlv(&mut enc, tag::OCTET_STRING, &content);
        // 300 > 255 requires two length octets: 0x82 0x01 0x2C.
        assert_eq!(&enc[..4], &[0x04, 0x82, 0x01, 0x2C]);
        let mut r = Reader::new(&enc);
        assert_eq!(r.read_octets().unwrap(), &content[..]);
    }

    #[test]
    fn indefinite_length_rejected() {
        let bad = [0x30, 0x80, 0x00, 0x00];
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_element().err(), Some(BerError::IndefiniteLength));
    }

    #[test]
    fn truncated_content_rejected() {
        let bad = [0x04, 0x05, 0x61, 0x62]; // claims 5 bytes, has 2
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_octets(), Err(BerError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let enc = [0x05, 0x00, 0xFF];
        let mut r = Reader::new(&enc);
        r.read_value().unwrap();
        assert_eq!(r.finish(), Err(BerError::TrailingBytes(1)));
    }

    #[test]
    fn value_round_trip_all_types() {
        let values = vec![
            SnmpValue::Integer(-42),
            SnmpValue::OctetString(b"hello".to_vec()),
            SnmpValue::Null,
            SnmpValue::oid(oid("1.3.6.1.2.1.1.3.0")),
            SnmpValue::IpAddress([192, 168, 1, 1]),
            SnmpValue::Counter32(3_000_000_000),
            SnmpValue::Gauge32(100_000_000),
            SnmpValue::TimeTicks(8_640_000),
            SnmpValue::Opaque(vec![1, 2, 3]),
        ];
        for v in values {
            let enc = encode_value(&v).unwrap();
            let mut r = Reader::new(&enc);
            assert_eq!(r.read_value().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn sequence_nesting() {
        let mut seq = Vec::new();
        let mark = open(&mut seq, tag::SEQUENCE);
        push_integer(&mut seq, 1);
        push_value(&mut seq, ValueRef::OctetString(b"x")).unwrap();
        close(&mut seq, mark);
        assert_eq!(seq, [0x30, 0x06, 0x02, 0x01, 0x01, 0x04, 0x01, b'x']);
        let mut r = Reader::new(&seq);
        let mut inner = r.expect_element(tag::SEQUENCE).unwrap();
        assert_eq!(inner.read_integer().unwrap(), 1);
        assert_eq!(inner.read_value().unwrap(), SnmpValue::text("x"));
        inner.finish().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn close_moves_content_for_long_form_lengths() {
        // 127 octets of content keep the one-octet length; 128 and 65 536
        // need one and three more, with an outer element closing after an
        // inner one has already grown.
        for n in [0usize, 127, 128, 255, 256, 65_536] {
            let content = vec![0xAB; n];
            let mut nested = vec![0xEE]; // bytes before the element stay put
            let outer = open(&mut nested, tag::SEQUENCE);
            let inner = open(&mut nested, tag::OCTET_STRING);
            nested.extend_from_slice(&content);
            close(&mut nested, inner);
            close(&mut nested, outer);

            let mut element = Vec::new();
            push_tlv(&mut element, tag::OCTET_STRING, &content);
            let mut expected = vec![0xEE];
            push_tlv(&mut expected, tag::SEQUENCE, &element);
            assert_eq!(nested, expected, "content length {n}");
        }
    }

    #[test]
    fn skip_value_checks_what_read_value_checks() {
        let good = [
            encode_value(&SnmpValue::text("abc")).unwrap(),
            encode_value(&SnmpValue::oid(oid("1.3.6.1"))).unwrap(),
            encode_value(&SnmpValue::Counter32(9)).unwrap(),
        ];
        for enc in &good {
            let mut r = Reader::new(enc);
            r.skip_value().unwrap();
            r.finish().unwrap();
        }
        let bad: [&[u8]; 4] = [
            &[0x40, 0x03, 1, 2, 3],    // short IpAddress
            &[0x1F, 0x01, 0x00],       // unknown tag
            &[0x06, 0x02, 0x2B, 0x86], // OID ending in a continuation bit
            &[0x41, 0x06, 1, 0, 0, 0, 0, 0],
        ];
        for enc in bad {
            assert_eq!(
                Reader::new(enc).skip_value().err(),
                Reader::new(enc).read_value().err(),
                "{enc:02x?}"
            );
            assert!(Reader::new(enc).skip_value().is_err());
        }
    }

    #[test]
    fn unexpected_tag_reports_both() {
        let enc = encode_integer(1);
        let mut r = Reader::new(&enc);
        assert_eq!(
            r.expect_element(tag::SEQUENCE).err(),
            Some(BerError::UnexpectedTag {
                expected: 0x30,
                got: 0x02
            })
        );
    }

    #[test]
    fn ip_address_wrong_size_rejected() {
        let bad = [0x40, 0x03, 1, 2, 3];
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_value(), Err(BerError::BadIpAddress));
    }

    #[test]
    fn unknown_tag_rejected() {
        let bad = [0x1F, 0x01, 0x00];
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_value(), Err(BerError::UnknownTag(0x1F)));
    }
}
