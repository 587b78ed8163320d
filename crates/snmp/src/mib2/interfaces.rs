//! The MIB-II `interfaces` group (RFC 1213 §3.5): `ifNumber` and the
//! `ifTable` under 1.3.6.1.2.1.2.
//!
//! Instance OIDs have the form `1.3.6.1.2.1.2.2.1.<column>.<ifIndex>`;
//! `ifIndex` is 1-based.

use crate::mib::ScalarMib;
use crate::oid::Oid;
use crate::value::SnmpValue;

/// Column numbers of `ifEntry`.
pub mod column {
    /// ifIndex(1)
    pub const IF_INDEX: u32 = 1;
    /// ifDescr(2)
    pub const IF_DESCR: u32 = 2;
    /// ifType(3)
    pub const IF_TYPE: u32 = 3;
    /// ifMtu(4)
    pub const IF_MTU: u32 = 4;
    /// ifSpeed(5)
    pub const IF_SPEED: u32 = 5;
    /// ifPhysAddress(6)
    pub const IF_PHYS_ADDRESS: u32 = 6;
    /// ifAdminStatus(7)
    pub const IF_ADMIN_STATUS: u32 = 7;
    /// ifOperStatus(8)
    pub const IF_OPER_STATUS: u32 = 8;
    /// ifLastChange(9)
    pub const IF_LAST_CHANGE: u32 = 9;
    /// ifInOctets(10)
    pub const IF_IN_OCTETS: u32 = 10;
    /// ifInUcastPkts(11)
    pub const IF_IN_UCAST_PKTS: u32 = 11;
    /// ifInNUcastPkts(12)
    pub const IF_IN_NUCAST_PKTS: u32 = 12;
    /// ifInDiscards(13)
    pub const IF_IN_DISCARDS: u32 = 13;
    /// ifInErrors(14)
    pub const IF_IN_ERRORS: u32 = 14;
    /// ifInUnknownProtos(15)
    pub const IF_IN_UNKNOWN_PROTOS: u32 = 15;
    /// ifOutOctets(16)
    pub const IF_OUT_OCTETS: u32 = 16;
    /// ifOutUcastPkts(17)
    pub const IF_OUT_UCAST_PKTS: u32 = 17;
    /// ifOutNUcastPkts(18)
    pub const IF_OUT_NUCAST_PKTS: u32 = 18;
    /// ifOutDiscards(19)
    pub const IF_OUT_DISCARDS: u32 = 19;
    /// ifOutErrors(20)
    pub const IF_OUT_ERRORS: u32 = 20;
    /// ifOutQLen(21)
    pub const IF_OUT_QLEN: u32 = 21;
}

/// `interfaces.ifNumber.0`
pub fn if_number_instance() -> Oid {
    Oid::from([1, 3, 6, 1, 2, 1, 2, 1, 0])
}

/// Arcs of `ifEntry` (1.3.6.1.2.1.2.2.1), the prefix of every `ifTable`
/// instance.
pub const IF_ENTRY_ARCS: [u32; 9] = [1, 3, 6, 1, 2, 1, 2, 2, 1];

/// `ifEntry` base: 1.3.6.1.2.1.2.2.1
pub fn if_entry_base() -> Oid {
    Oid::from(IF_ENTRY_ARCS)
}

/// Column OID without instance: `1.3.6.1.2.1.2.2.1.<col>`.
pub fn column_oid(col: u32) -> Oid {
    if_entry_base().child(col)
}

/// Full instance OID: `1.3.6.1.2.1.2.2.1.<col>.<ifIndex>`.
pub fn instance_oid(col: u32, if_index: u32) -> Oid {
    if_entry_base().extend(&[col, if_index])
}

/// Decodes an `ifTable` instance OID back into `(column, ifIndex)`, any
/// two arcs under `ifEntry`. The agent's MIB routes its row cells by it
/// and the simulated agent answers from live counters by it, so it
/// matches the arcs in place.
#[inline]
pub fn parse_instance(oid: &Oid) -> Option<(u32, u32)> {
    match *oid.arcs() {
        [1, 3, 6, 1, 2, 1, 2, 2, 1, col, if_index] => Some((col, if_index)),
        _ => None,
    }
}

/// `ifType` code for ethernet-csmacd, the only medium in the LAN model.
pub const IF_TYPE_ETHERNET: i64 = 6;

/// `ifAdminStatus` / `ifOperStatus` up(1).
pub const STATUS_UP: i64 = 1;

/// One interface's MIB-visible state — the agent-side mirror of a NIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfEntry {
    /// 1-based interface index.
    pub if_index: u32,
    /// Textual name (`ifDescr`), e.g. `eth0`.
    pub descr: String,
    /// Interface type code (`ifType`); ethernet-csmacd(6) here.
    pub if_type: i64,
    /// MTU in octets.
    pub mtu: i64,
    /// Static bandwidth in bits/s (`ifSpeed`).
    pub speed_bps: u32,
    /// MAC address (`ifPhysAddress`).
    pub phys_address: [u8; 6],
    /// up(1) / down(2) administrative status.
    pub admin_status: i64,
    /// up(1) / down(2) operational status.
    pub oper_status: i64,
    /// Accumulated octets received (wraps at 2^32).
    pub in_octets: u32,
    /// Accumulated unicast packets delivered upward.
    pub in_ucast_pkts: u32,
    /// Accumulated non-unicast (broadcast/multicast) packets delivered.
    pub in_nucast_pkts: u32,
    /// Inbound discards (e.g. buffer exhaustion).
    pub in_discards: u32,
    /// Inbound errors.
    pub in_errors: u32,
    /// Accumulated octets transmitted (wraps at 2^32).
    pub out_octets: u32,
    /// Accumulated unicast packets requested to transmit.
    pub out_ucast_pkts: u32,
    /// Accumulated non-unicast packets requested to transmit.
    pub out_nucast_pkts: u32,
    /// Outbound discards (queue overflow).
    pub out_discards: u32,
    /// Outbound errors.
    pub out_errors: u32,
    /// Current output queue length.
    pub out_qlen: u32,
}

impl IfEntry {
    /// An up ethernet interface with zeroed counters.
    pub fn ethernet(if_index: u32, descr: &str, speed_bps: u32, phys_address: [u8; 6]) -> Self {
        IfEntry {
            if_index,
            descr: descr.to_owned(),
            if_type: IF_TYPE_ETHERNET,
            mtu: 1500,
            speed_bps,
            phys_address,
            admin_status: STATUS_UP,
            oper_status: STATUS_UP,
            in_octets: 0,
            in_ucast_pkts: 0,
            in_nucast_pkts: 0,
            in_discards: 0,
            in_errors: 0,
            out_octets: 0,
            out_ucast_pkts: 0,
            out_nucast_pkts: 0,
            out_discards: 0,
            out_errors: 0,
            out_qlen: 0,
        }
    }
}

/// The value `ifEntry` column `col` holds for `e`.
fn cell(e: &IfEntry, col: u32) -> SnmpValue {
    use column::*;
    match col {
        IF_INDEX => SnmpValue::Integer(i64::from(e.if_index)),
        IF_DESCR => SnmpValue::text(&e.descr),
        IF_TYPE => SnmpValue::Integer(e.if_type),
        IF_MTU => SnmpValue::Integer(e.mtu),
        IF_SPEED => SnmpValue::Gauge32(e.speed_bps),
        IF_PHYS_ADDRESS => SnmpValue::OctetString(e.phys_address.to_vec()),
        IF_ADMIN_STATUS => SnmpValue::Integer(e.admin_status),
        IF_OPER_STATUS => SnmpValue::Integer(e.oper_status),
        IF_LAST_CHANGE => SnmpValue::TimeTicks(0),
        IF_IN_OCTETS => SnmpValue::Counter32(e.in_octets),
        IF_IN_UCAST_PKTS => SnmpValue::Counter32(e.in_ucast_pkts),
        IF_IN_NUCAST_PKTS => SnmpValue::Counter32(e.in_nucast_pkts),
        IF_IN_DISCARDS => SnmpValue::Counter32(e.in_discards),
        IF_IN_ERRORS => SnmpValue::Counter32(e.in_errors),
        IF_IN_UNKNOWN_PROTOS => SnmpValue::Counter32(0),
        IF_OUT_OCTETS => SnmpValue::Counter32(e.out_octets),
        IF_OUT_UCAST_PKTS => SnmpValue::Counter32(e.out_ucast_pkts),
        IF_OUT_NUCAST_PKTS => SnmpValue::Counter32(e.out_nucast_pkts),
        IF_OUT_DISCARDS => SnmpValue::Counter32(e.out_discards),
        IF_OUT_ERRORS => SnmpValue::Counter32(e.out_errors),
        IF_OUT_QLEN => SnmpValue::Gauge32(e.out_qlen),
        _ => unreachable!("ifEntry has columns 1 to 21"),
    }
}

/// Installs `ifNumber` and every `ifTable` column for the given entries.
pub fn install(mib: &mut ScalarMib, entries: &[IfEntry]) {
    mib.extend(instances(entries.len(), |col, row| {
        let e = &entries[row];
        (e.if_index, cell(e, col))
    }));
}

/// `ifNumber` and every `ifTable` cell of `rows` interfaces, column by
/// column (the order a walk visits them, so rows in ifIndex order need no
/// sort). `cell(col, row)` gives the row's ifIndex and its value in `col`.
pub fn instances(
    rows: usize,
    cell: impl Fn(u32, usize) -> (u32, SnmpValue),
) -> impl Iterator<Item = (Oid, SnmpValue)> {
    let cells = (0..column::IF_OUT_QLEN as usize * rows).map(move |k| {
        let col = (k / rows + 1) as u32;
        let (if_index, value) = cell(col, k % rows);
        (instance_oid(col, if_index), value)
    });
    let if_number = (if_number_instance(), SnmpValue::Integer(rows as i64));
    std::iter::once(if_number).chain(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mib::MibView;
    use crate::value::ValueRef;

    #[test]
    fn instance_oid_layout() {
        assert_eq!(
            instance_oid(column::IF_IN_OCTETS, 3).to_string(),
            "1.3.6.1.2.1.2.2.1.10.3"
        );
        assert_eq!(if_number_instance().to_string(), "1.3.6.1.2.1.2.1.0");
    }

    #[test]
    fn parse_instance_round_trip() {
        let oid = instance_oid(column::IF_SPEED, 7);
        assert_eq!(parse_instance(&oid), Some((column::IF_SPEED, 7)));
        assert_eq!(parse_instance(&column_oid(column::IF_SPEED)), None);
        assert_eq!(parse_instance(&if_number_instance()), None);
    }

    #[test]
    fn install_covers_all_columns() {
        let mut mib = ScalarMib::new();
        let e = IfEntry::ethernet(1, "eth0", 100_000_000, [2, 0, 0, 0, 0, 1]);
        install(&mut mib, &[e]);
        // ifNumber + 21 columns.
        assert_eq!(mib.len(), 22);
        assert_eq!(
            mib.get(&instance_oid(column::IF_SPEED, 1)),
            Some(ValueRef::Gauge32(100_000_000))
        );
        assert_eq!(
            mib.get(&instance_oid(column::IF_DESCR, 1)),
            Some(ValueRef::OctetString(b"eth0"))
        );
    }

    #[test]
    fn install_two_interfaces_walk_order_is_column_major() {
        let mut mib = ScalarMib::new();
        install(
            &mut mib,
            &[
                IfEntry::ethernet(1, "eth0", 10, [0; 6]),
                IfEntry::ethernet(2, "eth1", 20, [1; 6]),
            ],
        );
        // MIB order within the table: column, then ifIndex — the standard
        // SNMP walk order (all ifDescr before any ifType, etc.).
        let (next, _) = mib.next_after(&instance_oid(column::IF_INDEX, 2)).unwrap();
        assert_eq!(*next, instance_oid(column::IF_DESCR, 1));
    }

    #[test]
    fn counters_reflect_struct_values() {
        let mut e = IfEntry::ethernet(2, "p2", 10_000_000, [0; 6]);
        e.in_octets = u32::MAX; // near wrap
        e.out_octets = 7;
        let mut mib = ScalarMib::new();
        install(&mut mib, &[e]);
        assert_eq!(
            mib.get(&instance_oid(column::IF_IN_OCTETS, 2)),
            Some(ValueRef::Counter32(u32::MAX))
        );
        assert_eq!(
            mib.get(&instance_oid(column::IF_OUT_OCTETS, 2)),
            Some(ValueRef::Counter32(7))
        );
    }
}
