//! Poll construction and response parsing.
//!
//! A poll of one device requests `sysUpTime.0` plus, for every interface,
//! the Table-1 column set (`ifDescr` is added for interface correlation
//! with the specification file):
//!
//! | object | use |
//! |---|---|
//! | `sysUpTime` | poll interval measurement |
//! | `ifDescr` | match MIB rows to spec interface names |
//! | `ifSpeed` | static bandwidth `m_i` |
//! | `ifInOctets` / `ifOutOctets` | used bandwidth `u_i` |
//! | `ifInUcastPkts` / `ifOutNUcastPkts` | packet-rate statistics |
//!
//! The monitor keeps only the octet counters and `sysUpTime` of each
//! reading; the packet counters are parsed and checked, and nothing
//! reads them yet.

use crate::error::MonitorError;
use netqos_snmp::client::Manager;
use netqos_snmp::mib2::{interfaces as ifc, system};
use netqos_snmp::oid::Oid;
use netqos_snmp::pdu::VarBind;
use netqos_snmp::value::ValueRef;

/// Counter sample of one interface at one poll.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IfSample {
    /// 1-based MIB ifIndex.
    pub if_index: u32,
    /// `ifDescr` text.
    pub descr: String,
    /// `ifSpeed` in bits/s.
    pub speed_bps: u64,
    /// `ifInOctets` cumulative.
    pub in_octets: u32,
    /// `ifOutOctets` cumulative.
    pub out_octets: u32,
    /// `ifInUcastPkts` cumulative.
    pub in_ucast_pkts: u32,
    /// `ifOutNUcastPkts` cumulative.
    pub out_nucast_pkts: u32,
}

/// Everything one poll of one device returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    /// `sysUpTime.0` in TimeTicks.
    pub uptime_ticks: u32,
    /// Interface samples in ifIndex order.
    pub interfaces: Vec<IfSample>,
}

/// The per-interface columns the monitor polls, in request order.
const COLUMNS: [u32; 6] = [
    ifc::column::IF_DESCR,
    ifc::column::IF_SPEED,
    ifc::column::IF_IN_OCTETS,
    ifc::column::IF_OUT_OCTETS,
    ifc::column::IF_IN_UCAST_PKTS,
    ifc::column::IF_OUT_NUCAST_PKTS,
];

/// Builds the OID list for a poll of a device with `if_count` interfaces.
pub fn poll_oids(if_count: u32) -> Vec<Oid> {
    let mut oids = Vec::with_capacity(1 + COLUMNS.len() * if_count as usize);
    oids.push(system::sys_uptime_instance());
    for ifindex in 1..=if_count {
        for col in COLUMNS {
            oids.push(ifc::instance_oid(col, ifindex));
        }
    }
    oids
}

/// What every poll of a device with a given number of interfaces has in
/// common. Pollers keep one plan per interface count — a thousand
/// single-NIC hosts share one — and build nothing per poll.
#[derive(Debug)]
pub struct PollPlan {
    if_count: u32,
    oids: Vec<Oid>,
}

impl PollPlan {
    /// The plan for devices with `if_count` interfaces.
    pub fn new(if_count: u32) -> Self {
        PollPlan {
            if_count,
            oids: poll_oids(if_count),
        }
    }

    /// The names to request, as [`poll_oids`] lists them.
    pub fn oids(&self) -> &[Oid] {
        &self.oids
    }

    /// Reads `answer`, the agent's answer to this plan's Get sent under
    /// `id` (encoded by `manager`'s [`Manager::encode_get`]), binding by
    /// binding straight into `snapshot`, whose vectors and strings are
    /// reused. With a snapshot of this plan's shape — the one a previous
    /// poll of such a device left — the read allocates nothing. On `Err`,
    /// what `snapshot` holds is unspecified.
    pub fn read_answer(
        &self,
        manager: &Manager,
        answer: &[u8],
        id: i32,
        node: &str,
        snapshot: &mut DeviceSnapshot,
    ) -> Result<(), MonitorError> {
        let mut parse = Parse::begin(snapshot, self.if_count);
        manager
            .visit_answer(answer, id, &self.oids, |oid, value| {
                parse.binding(oid, value)
            })
            .map_err(|e| MonitorError::from_snmp(e, node))??;
        parse.finish()
    }
}

/// Parses a poll response (in any binding order) into a snapshot.
pub fn parse_snapshot(bindings: &[VarBind], if_count: u32) -> Result<DeviceSnapshot, MonitorError> {
    let mut snapshot = DeviceSnapshot::default();
    let mut parse = Parse::begin(&mut snapshot, if_count);
    for vb in bindings {
        parse.binding(&vb.oid, (&vb.value).into())?;
    }
    parse.finish()?;
    Ok(snapshot)
}

/// Devices with up to this many interfaces track a response's columns on
/// the stack; every device of `specs/` and of the generator has at most 26.
const STACK_ROWS: usize = 64;

/// The one poll-response parser, fed one binding at a time: what it has
/// written into the snapshot so far, and which columns of which rows it
/// has seen.
struct Parse<'s> {
    snapshot: &'s mut DeviceSnapshot,
    uptime_ticks: Option<u32>,
    /// One bit per column of [`COLUMNS`], per row.
    seen_on_stack: [u8; STACK_ROWS],
    seen_on_heap: Vec<u8>,
}

impl<'s> Parse<'s> {
    /// Starts a parse into `snapshot`, reshaped in place to `if_count`
    /// zeroed rows: the vector and each row's `descr` keep their memory.
    fn begin(snapshot: &'s mut DeviceSnapshot, if_count: u32) -> Self {
        let rows = if_count as usize;
        let interfaces = &mut snapshot.interfaces;
        interfaces.truncate(rows);
        for (sample, if_index) in interfaces.iter_mut().zip(1..) {
            let mut descr = std::mem::take(&mut sample.descr);
            descr.clear();
            *sample = IfSample {
                if_index,
                descr,
                ..IfSample::default()
            };
        }
        // Exactly the rows asked for: a fresh snapshot is sized as the
        // parse always sized it.
        let kept = interfaces.len() as u32;
        interfaces.reserve_exact((if_count - kept) as usize);
        interfaces.extend((kept + 1..=if_count).map(|if_index| IfSample {
            if_index,
            ..IfSample::default()
        }));
        Parse {
            snapshot,
            uptime_ticks: None,
            seen_on_stack: [0; STACK_ROWS],
            seen_on_heap: if rows > STACK_ROWS {
                vec![0; rows]
            } else {
                Vec::new()
            },
        }
    }

    fn seen(&mut self) -> &mut [u8] {
        let rows = self.snapshot.interfaces.len();
        if rows > STACK_ROWS {
            &mut self.seen_on_heap
        } else {
            &mut self.seen_on_stack[..rows]
        }
    }

    /// Takes one binding of the response.
    fn binding(&mut self, oid: &Oid, value: ValueRef<'_>) -> Result<(), MonitorError> {
        let if_count = self.snapshot.interfaces.len() as u32;
        let (col, ifindex) = match *oid.arcs() {
            // sysUpTime.0
            [1, 3, 6, 1, 2, 1, 1, 3, 0] => {
                self.uptime_ticks = Some(need_u32(oid, value)?);
                return Ok(());
            }
            // ifEntry.<column>.<ifIndex>
            [1, 3, 6, 1, 2, 1, 2, 2, 1, col, ifindex] if (1..=if_count).contains(&ifindex) => {
                (col, ifindex)
            }
            _ => return Ok(()), // tolerate extra objects
        };
        let row = (ifindex - 1) as usize;
        let s = &mut self.snapshot.interfaces[row];
        // The column's bit is its place in `COLUMNS`.
        let bit = match col {
            ifc::column::IF_DESCR => {
                let text = value.as_text().ok_or_else(|| wrong_type(oid, value))?;
                // Refilled in place when it fits; otherwise replaced by a
                // copy of exactly its size, as a fresh parse makes it.
                if s.descr.capacity() < text.len() {
                    s.descr = text.to_owned();
                } else {
                    s.descr.clear();
                    s.descr.push_str(text);
                }
                0
            }
            ifc::column::IF_SPEED => {
                s.speed_bps = u64::from(need_u32(oid, value)?);
                1
            }
            ifc::column::IF_IN_OCTETS => {
                s.in_octets = need_u32(oid, value)?;
                2
            }
            ifc::column::IF_OUT_OCTETS => {
                s.out_octets = need_u32(oid, value)?;
                3
            }
            ifc::column::IF_IN_UCAST_PKTS => {
                s.in_ucast_pkts = need_u32(oid, value)?;
                4
            }
            ifc::column::IF_OUT_NUCAST_PKTS => {
                s.out_nucast_pkts = need_u32(oid, value)?;
                5
            }
            _ => return Ok(()), // a column the poll did not ask for
        };
        self.seen()[row] |= 1 << bit;
        Ok(())
    }

    /// Checks that every object was there.
    fn finish(mut self) -> Result<(), MonitorError> {
        self.snapshot.uptime_ticks = self.uptime_ticks.ok_or_else(|| {
            MonitorError::MissingObject(system::sys_uptime_instance().to_string())
        })?;
        let all = (1u8 << COLUMNS.len()) - 1;
        if let Some(row) = self.seen().iter().position(|&seen| seen != all) {
            return Err(MonitorError::MissingObject(format!(
                "ifTable row {} incomplete ({}/{} columns)",
                row + 1,
                self.seen()[row].count_ones(),
                COLUMNS.len()
            )));
        }
        Ok(())
    }
}

fn wrong_type(oid: &Oid, value: ValueRef<'_>) -> MonitorError {
    MonitorError::WrongType {
        oid: oid.to_string(),
        got: value.type_name(),
    }
}

fn need_u32(oid: &Oid, value: ValueRef<'_>) -> Result<u32, MonitorError> {
    value.as_u32().ok_or_else(|| wrong_type(oid, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_snmp::agent::SnmpAgent;
    use netqos_snmp::client;
    use netqos_snmp::mib::ScalarMib;
    use netqos_snmp::mib2::{self, IfEntry, SystemInfo};
    use netqos_snmp::value::SnmpValue;

    /// A poll requests what Table 1 lists: `sysUpTime.0` and, for every
    /// interface, the table's five `ifEntry` columns, plus `ifDescr` to
    /// match rows to the spec's interface names.
    #[test]
    fn a_poll_requests_the_objects_of_table_1() {
        use std::collections::BTreeSet;
        let table1 = mib2::paper_table1();
        let (columns, scalars): (Vec<_>, Vec<_>) = (table1.iter())
            .map(|row| row.oid.clone())
            .partition(|oid| oid.starts_with(&ifc::if_entry_base()));
        assert_eq!(scalars, [Oid::from(system::SYS_UPTIME_ARCS)]);
        assert_eq!(columns.len(), 5);
        for n in [1, 2, 26] {
            let polled = poll_oids(n);
            let mut want = BTreeSet::from([scalars[0].child(0)]);
            for i in 1..=n {
                want.insert(ifc::instance_oid(ifc::column::IF_DESCR, i));
                want.extend(columns.iter().map(|column| column.child(i)));
            }
            assert_eq!(polled.iter().cloned().collect::<BTreeSet<_>>(), want);
            assert_eq!(polled.len(), want.len(), "{n} interfaces: a name twice");
        }
    }

    fn agent_mib() -> ScalarMib {
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &SystemInfo::new("L"), 12_345);
        let mut e1 = IfEntry::ethernet(1, "eth0", 100_000_000, [2, 0, 0, 0, 0, 1]);
        e1.in_octets = 1000;
        e1.out_octets = 2000;
        e1.in_ucast_pkts = 10;
        e1.out_nucast_pkts = 3;
        let mut e2 = IfEntry::ethernet(2, "eth1", 10_000_000, [2, 0, 0, 0, 0, 2]);
        e2.in_octets = 500;
        mib2::interfaces::install(&mut mib, &[e1, e2]);
        mib
    }

    #[test]
    fn poll_oids_cover_table1() {
        let oids = poll_oids(2);
        assert_eq!(oids.len(), 1 + 6 * 2);
        assert_eq!(oids[0].to_string(), "1.3.6.1.2.1.1.3.0");
        // Row-major: all columns of if 1 before if 2.
        assert_eq!(oids[1].to_string(), "1.3.6.1.2.1.2.2.1.2.1"); // ifDescr.1
        assert_eq!(oids[7].to_string(), "1.3.6.1.2.1.2.2.1.2.2"); // ifDescr.2
    }

    #[test]
    fn end_to_end_against_agent() {
        let mib = agent_mib();
        let mut agent = SnmpAgent::new("public");
        let req = client::build_get("public", 1, &poll_oids(2)).unwrap();
        let resp = agent.handle(&req, &mib).unwrap();
        let parsed = client::parse_response(&resp).unwrap();
        let snap = parse_snapshot(&parsed.bindings, 2).unwrap();
        assert_eq!(snap.uptime_ticks, 12_345);
        assert_eq!(snap.interfaces.len(), 2);
        let s1 = &snap.interfaces[0];
        assert_eq!(s1.descr, "eth0");
        assert_eq!(s1.speed_bps, 100_000_000);
        assert_eq!(s1.in_octets, 1000);
        assert_eq!(s1.out_octets, 2000);
        assert_eq!(s1.in_ucast_pkts, 10);
        assert_eq!(s1.out_nucast_pkts, 3);
        assert_eq!(snap.interfaces[1].in_octets, 500);
    }

    #[test]
    fn missing_uptime_rejected() {
        let bindings = vec![];
        assert!(matches!(
            parse_snapshot(&bindings, 0),
            Err(MonitorError::MissingObject(_))
        ));
    }

    #[test]
    fn incomplete_row_rejected() {
        let mut bindings = vec![VarBind::new(
            system::sys_uptime_instance(),
            SnmpValue::TimeTicks(1),
        )];
        bindings.push(VarBind::new(
            ifc::instance_oid(ifc::column::IF_DESCR, 1),
            SnmpValue::text("eth0"),
        ));
        assert!(matches!(
            parse_snapshot(&bindings, 1),
            Err(MonitorError::MissingObject(_))
        ));
    }

    /// A row is complete when it has every column, not as many bindings:
    /// `ifDescr.1` twice does not stand in for a missing
    /// `ifOutNUcastPkts.1`, whose counter would read 0.
    #[test]
    fn a_repeated_column_does_not_complete_a_row() {
        let mut bindings = vec![VarBind::new(
            system::sys_uptime_instance(),
            SnmpValue::TimeTicks(1),
        )];
        for col in COLUMNS {
            let value = match col {
                ifc::column::IF_DESCR => SnmpValue::text("eth0"),
                _ => SnmpValue::Counter32(7),
            };
            bindings.push(VarBind::new(ifc::instance_oid(col, 1), value));
        }
        let descr = bindings[1].clone();
        bindings.push(descr);
        assert!(parse_snapshot(&bindings, 1).is_ok());
        bindings.remove(COLUMNS.len()); // ifOutNUcastPkts.1
        assert_eq!(
            parse_snapshot(&bindings, 1),
            Err(MonitorError::MissingObject(
                "ifTable row 1 incomplete (5/6 columns)".into()
            ))
        );
    }

    #[test]
    fn wrong_type_rejected() {
        let bindings = vec![VarBind::new(
            system::sys_uptime_instance(),
            SnmpValue::text("not a time"),
        )];
        assert!(matches!(
            parse_snapshot(&bindings, 0),
            Err(MonitorError::WrongType { .. })
        ));
    }

    /// A device past `STACK_ROWS` interfaces counts its columns on the
    /// heap, and is held to every row as one below it is.
    #[test]
    fn rows_are_checked_on_both_sides_of_the_stack_bound() {
        let bindings = |if_count: u32, columns_of_last: usize| {
            let mut bindings = vec![VarBind::new(
                system::sys_uptime_instance(),
                SnmpValue::TimeTicks(7),
            )];
            for ifindex in 1..=if_count {
                let columns = if ifindex == if_count {
                    columns_of_last
                } else {
                    COLUMNS.len()
                };
                for &col in &COLUMNS[..columns] {
                    let value = match col {
                        ifc::column::IF_DESCR => SnmpValue::text("p"),
                        _ => SnmpValue::Counter32(ifindex),
                    };
                    bindings.push(VarBind::new(ifc::instance_oid(col, ifindex), value));
                }
            }
            bindings
        };
        for if_count in [STACK_ROWS as u32, STACK_ROWS as u32 + 1] {
            let snap = parse_snapshot(&bindings(if_count, COLUMNS.len()), if_count).unwrap();
            assert_eq!(snap.interfaces.len(), if_count as usize);
            assert_eq!(snap.interfaces.last().unwrap().in_octets, if_count);
            assert!(matches!(
                parse_snapshot(&bindings(if_count, COLUMNS.len() - 1), if_count),
                Err(MonitorError::MissingObject(_))
            ));
        }
    }

    #[test]
    fn extra_objects_tolerated() {
        let mut bindings = vec![VarBind::new(
            system::sys_uptime_instance(),
            SnmpValue::TimeTicks(5),
        )];
        bindings.push(VarBind::new(
            "1.3.6.1.2.1.1.5.0".parse().unwrap(),
            SnmpValue::text("sysName sneaks in"),
        ));
        let snap = parse_snapshot(&bindings, 0).unwrap();
        assert_eq!(snap.uptime_ticks, 5);
    }
}
