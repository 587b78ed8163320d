//! Hybrid topology verification — the paper's "dynamic network topology
//! discovery" future-work item, in the hybrid form its §2.3 suggests:
//!
//! > "Pure network discovery is not feasible in the DeSiDeRaTa
//! > environment because the resource management middleware has to know
//! > exactly what resources are under its control […] A hybrid approach
//! > may be a better solution in the future."
//!
//! The specification stays authoritative; this module *verifies* it
//! against live forwarding evidence: each managed switch's BRIDGE-MIB
//! forwarding database says on which port every MAC address was learned,
//! and each host agent's `ifPhysAddress` says which MAC belongs to which
//! specified interface. A specified connection `host.if <-> switch.pN`
//! is **confirmed** when the host's MAC is learned on port N, flagged as
//! **mismatched** (miscabled or mis-specified) when learned elsewhere,
//! and **unverified** when no evidence exists yet (the host has not
//! transmitted, or runs no agent).

use crate::error::MonitorError;
use crate::network::Network;
use netqos_snmp::mib2::bridge::FdbEntry;
use netqos_topology::{ConnId, NetworkTopology, NodeId};
use std::collections::HashMap;

/// Verification verdict for one specified connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forwarding evidence agrees with the specification.
    Confirmed,
    /// The MAC was learned on a different switch port than specified —
    /// a cabling or specification error the RM must flag.
    Mismatch {
        /// Port the specification implies (ifIndex on the switch).
        specified_port: u32,
        /// Port the switch actually learned the MAC on.
        learned_port: u32,
    },
    /// No evidence either way (host silent so far, or unmonitorable).
    Unverified,
}

/// The verification result for one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The specified connection.
    pub conn: ConnId,
    /// Human-readable connection description.
    pub description: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// Pure verification logic: given the spec topology, per-switch FDBs, and
/// per-node interface MACs, produce a finding for every host↔switch
/// connection of each audited switch.
pub fn verify_connections(
    topo: &NetworkTopology,
    switch: NodeId,
    fdb: &[FdbEntry],
    macs: &HashMap<(NodeId, u32), [u8; 6]>,
) -> Result<Vec<Finding>, MonitorError> {
    let fdb_by_mac: HashMap<[u8; 6], u32> = fdb.iter().map(|e| (e.mac, e.port)).collect();
    let mut findings = Vec::new();
    for conn_id in topo.connections_of(switch) {
        let conn = topo.connection(conn_id)?;
        let switch_end = conn
            .endpoint_on(switch)
            .expect("connection touches the switch");
        let far = conn.other_end(switch).expect("connection touches switch");
        let far_node = topo.node(far.node)?;
        if !far_node.kind.is_host() {
            continue; // trunks to other devices: not host evidence
        }
        let description = topo.describe_connection(conn_id);
        let specified_port = switch_end.ifix.if_index();
        let verdict = match macs.get(&(far.node, far.ifix.if_index())) {
            Some(mac) => match fdb_by_mac.get(mac) {
                Some(&learned_port) if learned_port == specified_port => Verdict::Confirmed,
                Some(&learned_port) => Verdict::Mismatch {
                    specified_port,
                    learned_port,
                },
                None => Verdict::Unverified,
            },
            None => Verdict::Unverified,
        };
        findings.push(Finding {
            conn: conn_id,
            description,
            verdict,
        });
    }
    Ok(findings)
}

/// Full audit against a live network, simulated or real agents over UDP:
/// walks every managed switch's FDB, collects host MACs from their
/// agents, and verifies every host↔switch connection.
pub fn audit<N: Network>(net: &mut N) -> Result<Vec<Finding>, MonitorError> {
    // Evidence 1: host interface MACs from ifPhysAddress (switches after).
    let mut macs: HashMap<(NodeId, u32), [u8; 6]> = HashMap::new();
    let mut switches = Vec::new();
    for node in net.agents().pollable().to_vec() {
        let kind = net.model().topology.node(node)?.kind;
        if kind.forwards_selectively() {
            switches.push(node);
        } else if kind.is_host() {
            for (ifindex, mac) in net.poll_phys_addresses(node)? {
                macs.insert((node, ifindex), mac);
            }
        }
    }

    // Evidence 2: each managed switch's forwarding database.
    let mut findings = Vec::new();
    for switch in switches {
        let fdb = net.poll_fdb(switch)?;
        let topology = &net.model().topology;
        findings.extend(verify_connections(topology, switch, &fdb, &macs)?);
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_topology::{IfIx, NodeKind};

    fn topo() -> (NetworkTopology, NodeId, NodeId, NodeId) {
        let mut t = NetworkTopology::new();
        let sw = t.add_node("sw", NodeKind::Switch).unwrap();
        for p in 0..3 {
            t.add_interface(sw, &format!("p{p}"), 100).unwrap();
        }
        let a = t.add_node("A", NodeKind::Host).unwrap();
        t.add_interface(a, "eth0", 100).unwrap();
        let b = t.add_node("B", NodeKind::Host).unwrap();
        t.add_interface(b, "eth0", 100).unwrap();
        t.connect((a, IfIx(0)), (sw, IfIx(0))).unwrap();
        t.connect((b, IfIx(0)), (sw, IfIx(1))).unwrap();
        (t, sw, a, b)
    }

    const MAC_A: [u8; 6] = [2, 0, 0, 0, 0, 1];
    const MAC_B: [u8; 6] = [2, 0, 0, 0, 0, 2];

    #[test]
    fn confirmed_when_fdb_matches_spec() {
        let (t, sw, a, b) = topo();
        let fdb = vec![
            FdbEntry {
                mac: MAC_A,
                port: 1,
            },
            FdbEntry {
                mac: MAC_B,
                port: 2,
            },
        ];
        let mut macs = HashMap::new();
        macs.insert((a, 1), MAC_A);
        macs.insert((b, 1), MAC_B);
        let findings = verify_connections(&t, sw, &fdb, &macs).unwrap();
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.verdict == Verdict::Confirmed));
    }

    #[test]
    fn mismatch_when_learned_on_wrong_port() {
        let (t, sw, a, b) = topo();
        // A's MAC shows up on port 2 — the cables were swapped.
        let fdb = vec![
            FdbEntry {
                mac: MAC_A,
                port: 2,
            },
            FdbEntry {
                mac: MAC_B,
                port: 1,
            },
        ];
        let mut macs = HashMap::new();
        macs.insert((a, 1), MAC_A);
        macs.insert((b, 1), MAC_B);
        let findings = verify_connections(&t, sw, &fdb, &macs).unwrap();
        assert!(findings
            .iter()
            .all(|f| matches!(f.verdict, Verdict::Mismatch { .. })));
        match &findings[0].verdict {
            Verdict::Mismatch {
                specified_port,
                learned_port,
            } => {
                assert_ne!(specified_port, learned_port);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unverified_without_evidence() {
        let (t, sw, a, _) = topo();
        // No FDB entries at all, and only A's MAC known.
        let mut macs = HashMap::new();
        macs.insert((a, 1), MAC_A);
        let findings = verify_connections(&t, sw, &[], &macs).unwrap();
        assert!(findings.iter().all(|f| f.verdict == Verdict::Unverified));
    }

    #[test]
    fn trunk_connections_skipped() {
        let (mut t, sw, _, _) = topo();
        let hub = t.add_node("hub", NodeKind::Hub).unwrap();
        t.add_interface(hub, "h1", 100).unwrap();
        t.connect((sw, IfIx(2)), (hub, IfIx(0))).unwrap();
        let findings = verify_connections(&t, sw, &[], &HashMap::new()).unwrap();
        // Only the two host connections are audited.
        assert_eq!(findings.len(), 2);
    }
}
