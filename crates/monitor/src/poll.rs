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

use crate::error::MonitorError;
use netqos_snmp::client::Session;
use netqos_snmp::mib2::{interfaces as ifc, system};
use netqos_snmp::oid::Oid;
use netqos_snmp::pdu::VarBind;

/// Counter sample of one interface at one poll.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Parses the response to this plan's request.
    pub fn parse(&self, bindings: &[VarBind]) -> Result<DeviceSnapshot, MonitorError> {
        parse_snapshot(bindings, self.if_count)
    }
}

/// One poll of the device `node`: a Get of `plan`'s names through
/// `client`, parsed into a snapshot. The one device poll — over the
/// simulator, a UDP socket or the loopback alike.
pub fn poll_once(
    client: &mut Session<'_>,
    node: &str,
    plan: &PollPlan,
) -> Result<DeviceSnapshot, MonitorError> {
    let bindings = client
        .get_many(plan.oids())
        .map_err(|e| MonitorError::from_snmp(e, node))?;
    plan.parse(&bindings)
}

fn wrong_type(vb: &VarBind) -> MonitorError {
    MonitorError::WrongType {
        oid: vb.oid.to_string(),
        got: vb.value.type_name(),
    }
}

fn need_u32(vb: &VarBind) -> Result<u32, MonitorError> {
    vb.value.as_u32().ok_or_else(|| wrong_type(vb))
}

/// Devices with up to this many interfaces count a response's columns on
/// the stack; every device of `specs/` and of the generator has at most 26.
const STACK_ROWS: usize = 64;

/// Parses a poll response (in any binding order) into a snapshot.
pub fn parse_snapshot(bindings: &[VarBind], if_count: u32) -> Result<DeviceSnapshot, MonitorError> {
    let mut uptime_ticks = None;
    let mut samples: Vec<IfSample> = (1..=if_count)
        .map(|i| IfSample {
            if_index: i,
            descr: String::new(),
            speed_bps: 0,
            in_octets: 0,
            out_octets: 0,
            in_ucast_pkts: 0,
            out_nucast_pkts: 0,
        })
        .collect();
    let mut on_stack = [0u32; STACK_ROWS];
    let mut on_heap;
    let seen: &mut [u32] = if if_count as usize <= STACK_ROWS {
        &mut on_stack[..if_count as usize]
    } else {
        on_heap = vec![0u32; if_count as usize];
        &mut on_heap
    };

    for vb in bindings {
        let (col, ifindex) = match *vb.oid.arcs() {
            // sysUpTime.0
            [1, 3, 6, 1, 2, 1, 1, 3, 0] => {
                uptime_ticks = Some(need_u32(vb)?);
                continue;
            }
            // ifEntry.<column>.<ifIndex>
            [1, 3, 6, 1, 2, 1, 2, 2, 1, col, ifindex] if (1..=if_count).contains(&ifindex) => {
                (col, ifindex)
            }
            _ => continue, // tolerate extra objects
        };
        let s = &mut samples[(ifindex - 1) as usize];
        match col {
            ifc::column::IF_DESCR => {
                s.descr = vb.value.as_text().ok_or_else(|| wrong_type(vb))?.to_owned();
            }
            ifc::column::IF_SPEED => s.speed_bps = need_u32(vb)? as u64,
            ifc::column::IF_IN_OCTETS => s.in_octets = need_u32(vb)?,
            ifc::column::IF_OUT_OCTETS => s.out_octets = need_u32(vb)?,
            ifc::column::IF_IN_UCAST_PKTS => s.in_ucast_pkts = need_u32(vb)?,
            ifc::column::IF_OUT_NUCAST_PKTS => s.out_nucast_pkts = need_u32(vb)?,
            _ => continue,
        }
        seen[(ifindex - 1) as usize] += 1;
    }

    let uptime_ticks = uptime_ticks
        .ok_or_else(|| MonitorError::MissingObject(system::sys_uptime_instance().to_string()))?;
    for (i, &count) in seen.iter().enumerate() {
        if count < COLUMNS.len() as u32 {
            return Err(MonitorError::MissingObject(format!(
                "ifTable row {} incomplete ({count}/{} columns)",
                i + 1,
                COLUMNS.len()
            )));
        }
    }
    Ok(DeviceSnapshot {
        uptime_ticks,
        interfaces: samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_snmp::agent::SnmpAgent;
    use netqos_snmp::client;
    use netqos_snmp::mib::ScalarMib;
    use netqos_snmp::mib2::{self, IfEntry, SystemInfo};
    use netqos_snmp::value::SnmpValue;

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
