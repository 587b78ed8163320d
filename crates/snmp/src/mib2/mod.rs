//! MIB-II (RFC 1213) — the `system` and `interfaces` groups.
//!
//! These are the only groups the paper's monitor needs: Table 1 of the
//! paper lists `sysUpTime` plus five `ifTable` columns. This module builds
//! agent-side MIB content from plain Rust structs and provides the OID
//! constants and instance helpers the manager side uses to poll.

pub mod bridge;
pub mod interfaces;
pub mod system;

pub use bridge::FdbEntry;
pub use interfaces::IfEntry;
pub use system::SystemInfo;

use crate::oid::Oid;

/// One row of the paper's Table 1: an object the monitor polls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Object name as printed in the paper.
    pub name: &'static str,
    /// Numeric OID (without instance suffix).
    pub oid: Oid,
    /// The paper's description.
    pub description: &'static str,
}

/// The six MIB-II objects of the paper's Table 1, in paper order.
///
/// Read only by tests: `netqos-monitor`'s poll tests assert that a poll
/// requests exactly these objects, plus `ifDescr`, for every interface.
pub fn paper_table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            name: "system.sysUpTime",
            oid: system::SYS_UPTIME_ARCS.into(),
            description: "The time (in hundredths of a second) since the network \
                          management portion of the system was last re-initialized.",
        },
        Table1Row {
            name: "interfaces.ifTable.ifEntry.ifSpeed",
            oid: interfaces::column_oid(interfaces::column::IF_SPEED),
            description: "An estimate of the interface's current bandwidth in bits per \
                          second (static bandwidth).",
        },
        Table1Row {
            name: "interfaces.ifTable.ifEntry.ifInOctets",
            oid: interfaces::column_oid(interfaces::column::IF_IN_OCTETS),
            description: "Accumulated number of octets received on the interface.",
        },
        Table1Row {
            name: "interfaces.ifTable.ifEntry.ifInUcastPkts",
            oid: interfaces::column_oid(interfaces::column::IF_IN_UCAST_PKTS),
            description: "Accumulated number of subnetwork-unicast packets delivered to \
                          a higher-layer protocol.",
        },
        Table1Row {
            name: "interfaces.ifTable.ifEntry.ifOutOctets",
            oid: interfaces::column_oid(interfaces::column::IF_OUT_OCTETS),
            description: "Accumulated number of octets transmitted out of the interface.",
        },
        Table1Row {
            name: "interfaces.ifTable.ifEntry.ifOutNUcastPkts",
            oid: interfaces::column_oid(interfaces::column::IF_OUT_NUCAST_PKTS),
            description: "The total number of packets that higher-level protocols \
                          requested to be transmitted to a subnetwork-unicast address.",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_oids() {
        let rows = paper_table1();
        assert_eq!(rows.len(), 6);
        let by_name: Vec<(&str, String)> =
            rows.iter().map(|r| (r.name, r.oid.to_string())).collect();
        // Numeric OIDs exactly as printed in the paper's Table 1.
        assert_eq!(by_name[0], ("system.sysUpTime", "1.3.6.1.2.1.1.3".into()));
        assert_eq!(
            by_name[1],
            (
                "interfaces.ifTable.ifEntry.ifSpeed",
                "1.3.6.1.2.1.2.2.1.5".into()
            )
        );
        assert_eq!(
            by_name[2],
            (
                "interfaces.ifTable.ifEntry.ifInOctets",
                "1.3.6.1.2.1.2.2.1.10".into()
            )
        );
        assert_eq!(
            by_name[3],
            (
                "interfaces.ifTable.ifEntry.ifInUcastPkts",
                "1.3.6.1.2.1.2.2.1.11".into()
            )
        );
        assert_eq!(
            by_name[4],
            (
                "interfaces.ifTable.ifEntry.ifOutOctets",
                "1.3.6.1.2.1.2.2.1.16".into()
            )
        );
        assert_eq!(
            by_name[5],
            (
                "interfaces.ifTable.ifEntry.ifOutNUcastPkts",
                "1.3.6.1.2.1.2.2.1.18".into()
            )
        );
    }
}
