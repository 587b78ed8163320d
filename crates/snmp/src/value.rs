//! The SNMP value union.
//!
//! SNMPv1 variable bindings carry one of the ASN.1 universal types
//! (INTEGER, OCTET STRING, NULL, OBJECT IDENTIFIER) or one of the
//! application-wide types defined by RFC 1155 (IpAddress, Counter,
//! Gauge, TimeTicks, Opaque).

use crate::oid::Oid;
use std::fmt;

/// A value carried in a variable binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnmpValue {
    /// ASN.1 INTEGER (signed, up to 64 bits here; SNMPv1 uses 32).
    Integer(i64),
    /// ASN.1 OCTET STRING — arbitrary bytes (often ASCII text).
    OctetString(Vec<u8>),
    /// ASN.1 NULL — the placeholder value in requests.
    Null,
    /// ASN.1 OBJECT IDENTIFIER. Boxed so a value stays 32 bytes: every
    /// MIB entry and every variable binding holds one, while OID-valued
    /// objects (`sysObjectID`) are rare.
    Oid(Box<Oid>),
    /// RFC 1155 IpAddress: 4 octets, network byte order.
    IpAddress([u8; 4]),
    /// RFC 1155 Counter: wraps modulo 2^32 (e.g. `ifInOctets`).
    Counter32(u32),
    /// RFC 1155 Gauge: clamps at 2^32−1 (e.g. `ifSpeed`).
    Gauge32(u32),
    /// RFC 1155 TimeTicks: hundredths of a second (e.g. `sysUpTime`).
    TimeTicks(u32),
    /// RFC 1155 Opaque: uninterpreted BER-wrapped bytes.
    Opaque(Vec<u8>),
    /// SNMPv2c exception: the object does not exist (context tag 0).
    NoSuchObject,
    /// SNMPv2c exception: the instance does not exist (context tag 1).
    NoSuchInstance,
    /// SNMPv2c exception: a GetBulk/GetNext ran past the MIB (context
    /// tag 2).
    EndOfMibView,
}

impl SnmpValue {
    /// Builds an `OctetString` from text.
    pub fn text(s: &str) -> Self {
        SnmpValue::OctetString(s.as_bytes().to_vec())
    }

    /// Builds an `Oid` value.
    pub fn oid(oid: Oid) -> Self {
        SnmpValue::Oid(Box::new(oid))
    }

    /// The value as an unsigned 32-bit quantity, if it is one of the
    /// counter-like types (Counter32 / Gauge32 / TimeTicks) or a
    /// non-negative Integer that fits.
    pub fn as_u32(&self) -> Option<u32> {
        ValueRef::from(self).as_u32()
    }

    /// The value as a signed integer, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            SnmpValue::Integer(v) => Some(*v),
            SnmpValue::Counter32(v) | SnmpValue::Gauge32(v) | SnmpValue::TimeTicks(v) => {
                Some(i64::from(*v))
            }
            _ => None,
        }
    }

    /// The value as UTF-8 text, if it is an octet string holding valid
    /// UTF-8.
    pub fn as_text(&self) -> Option<&str> {
        ValueRef::from(self).as_text()
    }

    /// Short type name, useful in diagnostics.
    pub fn type_name(&self) -> &'static str {
        ValueRef::from(self).type_name()
    }

    /// True for the SNMPv2c exception markers.
    pub fn is_exception(&self) -> bool {
        matches!(
            self,
            SnmpValue::NoSuchObject | SnmpValue::NoSuchInstance | SnmpValue::EndOfMibView
        )
    }
}

/// A borrowed [`SnmpValue`]: scalars by value, octets and OIDs by
/// reference. A [`MibView`](crate::mib::MibView) lends these, so an agent
/// answers from a stored MIB or from live counters without cloning a
/// value it is only going to encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// See [`SnmpValue::Integer`].
    Integer(i64),
    /// See [`SnmpValue::OctetString`].
    OctetString(&'a [u8]),
    /// See [`SnmpValue::Null`].
    Null,
    /// See [`SnmpValue::Oid`].
    Oid(&'a Oid),
    /// See [`SnmpValue::IpAddress`].
    IpAddress([u8; 4]),
    /// See [`SnmpValue::Counter32`].
    Counter32(u32),
    /// See [`SnmpValue::Gauge32`].
    Gauge32(u32),
    /// See [`SnmpValue::TimeTicks`].
    TimeTicks(u32),
    /// See [`SnmpValue::Opaque`].
    Opaque(&'a [u8]),
    /// See [`SnmpValue::NoSuchObject`].
    NoSuchObject,
    /// See [`SnmpValue::NoSuchInstance`].
    NoSuchInstance,
    /// See [`SnmpValue::EndOfMibView`].
    EndOfMibView,
}

impl<'a> From<&'a SnmpValue> for ValueRef<'a> {
    #[inline]
    fn from(value: &'a SnmpValue) -> Self {
        match value {
            SnmpValue::Integer(v) => ValueRef::Integer(*v),
            SnmpValue::OctetString(b) => ValueRef::OctetString(b),
            SnmpValue::Null => ValueRef::Null,
            SnmpValue::Oid(oid) => ValueRef::Oid(oid),
            SnmpValue::IpAddress(a) => ValueRef::IpAddress(*a),
            SnmpValue::Counter32(v) => ValueRef::Counter32(*v),
            SnmpValue::Gauge32(v) => ValueRef::Gauge32(*v),
            SnmpValue::TimeTicks(v) => ValueRef::TimeTicks(*v),
            SnmpValue::Opaque(b) => ValueRef::Opaque(b),
            SnmpValue::NoSuchObject => ValueRef::NoSuchObject,
            SnmpValue::NoSuchInstance => ValueRef::NoSuchInstance,
            SnmpValue::EndOfMibView => ValueRef::EndOfMibView,
        }
    }
}

impl<'a> ValueRef<'a> {
    /// See [`SnmpValue::as_u32`].
    #[inline]
    pub fn as_u32(self) -> Option<u32> {
        match self {
            ValueRef::Counter32(v) | ValueRef::Gauge32(v) | ValueRef::TimeTicks(v) => Some(v),
            ValueRef::Integer(v) => u32::try_from(v).ok(),
            _ => None,
        }
    }

    /// See [`SnmpValue::as_text`].
    #[inline]
    pub fn as_text(self) -> Option<&'a str> {
        match self {
            ValueRef::OctetString(b) => std::str::from_utf8(b).ok(),
            _ => None,
        }
    }

    /// See [`SnmpValue::type_name`].
    pub fn type_name(self) -> &'static str {
        match self {
            ValueRef::Integer(_) => "INTEGER",
            ValueRef::OctetString(_) => "OCTET STRING",
            ValueRef::Null => "NULL",
            ValueRef::Oid(_) => "OBJECT IDENTIFIER",
            ValueRef::IpAddress(_) => "IpAddress",
            ValueRef::Counter32(_) => "Counter32",
            ValueRef::Gauge32(_) => "Gauge32",
            ValueRef::TimeTicks(_) => "TimeTicks",
            ValueRef::Opaque(_) => "Opaque",
            ValueRef::NoSuchObject => "noSuchObject",
            ValueRef::NoSuchInstance => "noSuchInstance",
            ValueRef::EndOfMibView => "endOfMibView",
        }
    }

    /// Copies the borrowed parts into an owned value.
    pub fn to_value(self) -> SnmpValue {
        match self {
            ValueRef::Integer(v) => SnmpValue::Integer(v),
            ValueRef::OctetString(b) => SnmpValue::OctetString(b.to_vec()),
            ValueRef::Null => SnmpValue::Null,
            ValueRef::Oid(oid) => SnmpValue::oid(oid.clone()),
            ValueRef::IpAddress(a) => SnmpValue::IpAddress(a),
            ValueRef::Counter32(v) => SnmpValue::Counter32(v),
            ValueRef::Gauge32(v) => SnmpValue::Gauge32(v),
            ValueRef::TimeTicks(v) => SnmpValue::TimeTicks(v),
            ValueRef::Opaque(b) => SnmpValue::Opaque(b.to_vec()),
            ValueRef::NoSuchObject => SnmpValue::NoSuchObject,
            ValueRef::NoSuchInstance => SnmpValue::NoSuchInstance,
            ValueRef::EndOfMibView => SnmpValue::EndOfMibView,
        }
    }
}

impl fmt::Display for SnmpValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnmpValue::Integer(v) => write!(f, "{v}"),
            SnmpValue::OctetString(b) => match std::str::from_utf8(b) {
                Ok(s) => write!(f, "{s:?}"),
                Err(_) => {
                    write!(f, "0x")?;
                    for byte in b {
                        write!(f, "{byte:02x}")?;
                    }
                    Ok(())
                }
            },
            SnmpValue::Null => f.write_str("NULL"),
            SnmpValue::Oid(oid) => write!(f, "{oid}"),
            SnmpValue::IpAddress(a) => write!(f, "{}.{}.{}.{}", a[0], a[1], a[2], a[3]),
            SnmpValue::Counter32(v) => write!(f, "Counter32({v})"),
            SnmpValue::Gauge32(v) => write!(f, "Gauge32({v})"),
            SnmpValue::TimeTicks(v) => {
                // Render like net-snmp: ticks plus a human duration.
                let total_cs = *v as u64;
                let days = total_cs / (100 * 60 * 60 * 24);
                let hours = (total_cs / (100 * 60 * 60)) % 24;
                let mins = (total_cs / (100 * 60)) % 60;
                let secs = (total_cs / 100) % 60;
                let cs = total_cs % 100;
                write!(
                    f,
                    "TimeTicks({v}) {days}d {hours:02}:{mins:02}:{secs:02}.{cs:02}"
                )
            }
            SnmpValue::Opaque(b) => write!(f, "Opaque[{} bytes]", b.len()),
            SnmpValue::NoSuchObject => f.write_str("noSuchObject"),
            SnmpValue::NoSuchInstance => f.write_str("noSuchInstance"),
            SnmpValue::EndOfMibView => f.write_str("endOfMibView"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_u32_conversions() {
        assert_eq!(SnmpValue::Counter32(7).as_u32(), Some(7));
        assert_eq!(SnmpValue::Gauge32(8).as_u32(), Some(8));
        assert_eq!(SnmpValue::TimeTicks(9).as_u32(), Some(9));
        assert_eq!(SnmpValue::Integer(10).as_u32(), Some(10));
        assert_eq!(SnmpValue::Integer(-1).as_u32(), None);
        assert_eq!(SnmpValue::Integer(1 << 40).as_u32(), None);
        assert_eq!(SnmpValue::Null.as_u32(), None);
    }

    #[test]
    fn as_text() {
        assert_eq!(SnmpValue::text("eth0").as_text(), Some("eth0"));
        assert_eq!(SnmpValue::OctetString(vec![0xff, 0xfe]).as_text(), None);
        assert_eq!(SnmpValue::Integer(1).as_text(), None);
    }

    #[test]
    fn display_time_ticks() {
        // 1 day, 2 hours, 3 minutes, 4.56 seconds.
        let ticks = ((24 * 3600 + 2 * 3600 + 3 * 60 + 4) * 100 + 56) as u32;
        let s = SnmpValue::TimeTicks(ticks).to_string();
        assert!(s.contains("1d 02:03:04.56"), "{s}");
    }

    #[test]
    fn display_binary_octets_as_hex() {
        let s = SnmpValue::OctetString(vec![0xff, 0xfe]).to_string();
        assert_eq!(s, "0xfffe");
    }

    #[test]
    fn display_ip() {
        assert_eq!(SnmpValue::IpAddress([10, 0, 0, 1]).to_string(), "10.0.0.1");
    }
}
