//! The BRIDGE-MIB transparent-bridging group (RFC 1493): the forwarding
//! database (`dot1dTpFdbTable`, 1.3.6.1.2.1.17.4.3) plus
//! `dot1dBaseNumPorts`.
//!
//! Managed switches expose which MAC address was learned on which port;
//! the monitor's *hybrid topology verification* extension walks this
//! table and cross-checks it against the specification file's connection
//! list (the paper names "dynamic network topology discovery" as future
//! work and suggests "a hybrid approach may be a better solution").
//!
//! Table rows are indexed by the MAC address itself, one OID arc per
//! octet: `dot1dTpFdbPort` of `aa:bb:cc:dd:ee:ff` lives at
//! `1.3.6.1.2.1.17.4.3.1.2.170.187.204.221.238.255`.

use crate::mib::ScalarMib;
use crate::oid::Oid;
use crate::value::SnmpValue;

/// `dot1dBridge` base: 1.3.6.1.2.1.17
pub fn bridge_base() -> Oid {
    Oid::from([1, 3, 6, 1, 2, 1, 17])
}

/// `dot1dBaseNumPorts.0`
pub fn base_num_ports_instance() -> Oid {
    bridge_base().extend(&[1, 2, 0])
}

/// `dot1dTpFdbEntry` base: 1.3.6.1.2.1.17.4.3.1
pub fn fdb_entry_base() -> Oid {
    bridge_base().extend(&[4, 3, 1])
}

/// Column numbers of `dot1dTpFdbEntry`.
pub mod column {
    /// dot1dTpFdbAddress(1)
    pub const ADDRESS: u32 = 1;
    /// dot1dTpFdbPort(2)
    pub const PORT: u32 = 2;
    /// dot1dTpFdbStatus(3)
    pub const STATUS: u32 = 3;
}

/// `dot1dTpFdbStatus` learned(3).
pub const STATUS_LEARNED: i64 = 3;

/// One learned forwarding-database entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdbEntry {
    /// The learned MAC address.
    pub mac: [u8; 6],
    /// The bridge port (1-based, equals the port's ifIndex here).
    pub port: u32,
}

/// Instance OID for a column of the row indexed by `mac`.
pub fn instance_oid(col: u32, mac: [u8; 6]) -> Oid {
    let mut oid = fdb_entry_base().child(col);
    for b in mac {
        oid.push(b as u32);
    }
    oid
}

/// Decodes an FDB instance OID back into `(column, mac)`.
pub fn parse_instance(oid: &Oid) -> Option<(u32, [u8; 6])> {
    let suffix = oid.suffix_of(&fdb_entry_base())?;
    match suffix {
        [col, a, b, c, d, e, f] => {
            let octets = [*a, *b, *c, *d, *e, *f];
            if octets.iter().any(|&x| x > 255) {
                return None;
            }
            Some((
                *col,
                [
                    octets[0] as u8,
                    octets[1] as u8,
                    octets[2] as u8,
                    octets[3] as u8,
                    octets[4] as u8,
                    octets[5] as u8,
                ],
            ))
        }
        _ => None,
    }
}

/// Installs `dot1dBaseNumPorts` and the FDB table.
pub fn install(mib: &mut ScalarMib, num_ports: u32, entries: &[FdbEntry]) {
    mib.extend(instances(num_ports, entries));
}

/// `dot1dBaseNumPorts` and every FDB cell, column by column (the order a
/// walk visits them, so entries sorted by MAC need no sort).
pub fn instances(
    num_ports: u32,
    entries: &[FdbEntry],
) -> impl Iterator<Item = (Oid, SnmpValue)> + '_ {
    let rows = entries.len();
    let cells = (0..column::STATUS as usize * rows).map(move |k| {
        let (col, e) = (k / rows + 1, entries[k % rows]);
        let value = match col as u32 {
            column::ADDRESS => SnmpValue::OctetString(e.mac.to_vec()),
            column::PORT => SnmpValue::Integer(e.port as i64),
            _ => SnmpValue::Integer(STATUS_LEARNED),
        };
        (instance_oid(col as u32, e.mac), value)
    });
    let num_ports = (
        base_num_ports_instance(),
        SnmpValue::Integer(num_ports as i64),
    );
    std::iter::once(num_ports).chain(cells)
}

/// Extracts FDB entries from a walk of the `dot1dTpFdbPort` column.
pub fn entries_from_port_walk(bindings: &[crate::pdu::VarBind]) -> Vec<FdbEntry> {
    bindings
        .iter()
        .filter_map(|vb| {
            let (col, mac) = parse_instance(&vb.oid)?;
            if col != column::PORT {
                return None;
            }
            let port = vb.value.as_u32()?;
            Some(FdbEntry { mac, port })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mib::MibView;
    use crate::pdu::VarBind;
    use crate::value::ValueRef;

    const MAC: [u8; 6] = [0x02, 0x00, 0x00, 0xAA, 0xBB, 0xCC];

    #[test]
    fn instance_oid_layout() {
        let oid = instance_oid(column::PORT, MAC);
        assert_eq!(oid.to_string(), "1.3.6.1.2.1.17.4.3.1.2.2.0.0.170.187.204");
    }

    #[test]
    fn parse_round_trip() {
        let oid = instance_oid(column::STATUS, MAC);
        assert_eq!(parse_instance(&oid), Some((column::STATUS, MAC)));
        assert_eq!(parse_instance(&fdb_entry_base()), None);
        // Arc > 255 in the MAC index is invalid.
        let bad = fdb_entry_base().extend(&[2, 300, 0, 0, 0, 0, 0]);
        assert_eq!(parse_instance(&bad), None);
    }

    #[test]
    fn install_and_lookup() {
        let mut mib = ScalarMib::new();
        install(
            &mut mib,
            8,
            &[
                FdbEntry { mac: MAC, port: 3 },
                FdbEntry {
                    mac: [2, 0, 0, 0, 0, 1],
                    port: 1,
                },
            ],
        );
        assert_eq!(
            mib.get(&base_num_ports_instance()),
            Some(ValueRef::Integer(8))
        );
        assert_eq!(
            mib.get(&instance_oid(column::PORT, MAC)),
            Some(ValueRef::Integer(3))
        );
        assert_eq!(
            mib.get(&instance_oid(column::STATUS, MAC)),
            Some(ValueRef::Integer(STATUS_LEARNED))
        );
        // 1 scalar + 2 rows × 3 columns.
        assert_eq!(mib.len(), 7);
    }

    #[test]
    fn port_walk_extraction() {
        let bindings = vec![
            VarBind::new(instance_oid(column::PORT, MAC), SnmpValue::Integer(3)),
            VarBind::new(
                instance_oid(column::PORT, [2, 0, 0, 0, 0, 1]),
                SnmpValue::Integer(1),
            ),
            // Noise: an address column binding must be skipped.
            VarBind::new(
                instance_oid(column::ADDRESS, MAC),
                SnmpValue::OctetString(MAC.to_vec()),
            ),
        ];
        let entries = entries_from_port_walk(&bindings);
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&FdbEntry { mac: MAC, port: 3 }));
    }
}
