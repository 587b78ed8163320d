//! Generated inputs the SNMP and topology workloads share: the access
//! network specification and the seeded per-interface traffic rates.

use crate::harness::{Digest, Rng};
use netqos_monitor::poll::{DeviceSnapshot, IfSample};
use netqos_monitor::QosMonitor;
use netqos_spec::{generate_spec, parse_and_validate, GenParams, SpecModel};
use netqos_topology::{NodeId, NodeKind};

/// `spec::gen` access-network source for `hosts` hosts (25 per access
/// point, every 4th access point a 10 Mb/s hub, 8 access points per
/// site) with the site switches made SNMP-capable.
///
/// As generated, only hosts run agents, so no trunk has a rate at either
/// end and `path_bandwidth` fails with `MissingRate` on every cross-AP
/// qospath: nothing would be evaluated. The site switches see every
/// AP uplink and every core trunk, which makes all qospaths evaluable.
/// They have at most 9 ports, so their poll fits one 1472-byte datagram
/// (the simulator does not reassemble; the 26-port AP switches' would
/// not fit).
pub fn access_spec(hosts: usize, qos_paths: usize) -> String {
    let src = generate_spec(&GenParams {
        hosts,
        qos_paths,
        ..GenParams::default()
    });
    let mut out = String::with_capacity(src.len() + 1024);
    for line in src.lines() {
        out.push_str(line);
        out.push('\n');
        let site = line
            .strip_prefix("device site")
            .and_then(|rest| rest.strip_suffix(" switch {"))
            .and_then(|n| n.parse::<u32>().ok());
        if let Some(n) = site {
            out.push_str(&format!(
                "    address 10.240.0.{};\n    snmp community \"public\";\n",
                n + 1
            ));
        }
    }
    out
}

/// Parses generated source; a failure is a bug in the generator above.
pub fn model_of(spec: &str) -> SpecModel {
    parse_and_validate(spec).expect("generated spec validates")
}

/// One polled device of the synthetic (simulator-free) workloads.
pub struct SynthDevice {
    pub node: NodeId,
    pub name: String,
    pub ifaces: Vec<SynthIface>,
    pub uptime_ticks: u32,
}

/// One interface with its seeded constant traffic.
pub struct SynthIface {
    pub descr: String,
    pub speed_bps: u64,
    /// Bytes added to the counters per one-second tick.
    pub in_rate: u32,
    pub out_rate: u32,
    pub in_octets: u32,
    pub out_octets: u32,
}

/// Every SNMP node with seeded rates. The seed picks values only, inside
/// ranges that keep every path within its QoS limits: hub stations stay
/// under 100 kb/s each (25 of them share 10 Mb/s), switch-attached hosts
/// under 3.2 Mb/s, site ports under 32 Mb/s.
pub fn synth_devices(model: &SpecModel, seed: u64) -> Vec<SynthDevice> {
    let topo = &model.topology;
    let mut rng = Rng::new(seed ^ 0x5eed_0001);
    let mut out = Vec::new();
    for node in model.snmp_nodes() {
        let n = topo.node(node).expect("snmp node exists");
        let on_hub = n.kind == NodeKind::Host
            && topo.neighbors(node).iter().any(|(peer, _)| {
                topo.node(*peer)
                    .map(|p| p.kind == NodeKind::Hub)
                    .unwrap_or(false)
            });
        let (lo, hi) = match (n.kind, on_hub) {
            (NodeKind::Host, true) => (2_000, 6_000),
            (NodeKind::Host, false) => (10_000, 200_000),
            _ => (100_000, 2_000_000),
        };
        let ifaces = n
            .interfaces
            .iter()
            .map(|i| SynthIface {
                descr: i.local_name.clone(),
                speed_bps: i.speed_bps,
                in_rate: rng.range(lo, hi) as u32,
                out_rate: rng.range(lo, hi) as u32,
                // Start high enough that every counter keeps the same
                // BER length (4 bytes) for the whole run.
                in_octets: rng.range(1 << 24, 1 << 25) as u32,
                out_octets: rng.range(1 << 24, 1 << 25) as u32,
            })
            .collect();
        out.push(SynthDevice {
            node,
            name: n.name.clone(),
            ifaces,
            uptime_ticks: 1_000_000,
        });
    }
    out
}

impl SynthDevice {
    /// Advances the device by one second of its seeded traffic.
    pub fn advance(&mut self) {
        self.uptime_ticks = self.uptime_ticks.wrapping_add(100);
        for i in &mut self.ifaces {
            i.in_octets = i.in_octets.wrapping_add(i.in_rate);
            i.out_octets = i.out_octets.wrapping_add(i.out_rate);
        }
    }

    /// What a poll of the device would parse to right now.
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            uptime_ticks: self.uptime_ticks,
            interfaces: self
                .ifaces
                .iter()
                .enumerate()
                .map(|(ix, i)| IfSample {
                    if_index: ix as u32 + 1,
                    descr: i.descr.clone(),
                    speed_bps: i.speed_bps,
                    in_octets: i.in_octets,
                    out_octets: i.out_octets,
                    in_ucast_pkts: 0,
                    out_nucast_pkts: 0,
                })
                .collect(),
        }
    }
}

/// Digest of every qospath's latest (available, used, bottleneck), in
/// spec order. The inputs are synthetic integers, so it is bit-stable.
pub fn path_digest(qos: &QosMonitor, names: &[String]) -> String {
    let mut d = Digest::new();
    for name in names {
        match qos.last_bandwidth(name) {
            Some(bw) => {
                d.feed(bw.available_bps);
                d.feed(bw.used_bps);
                d.feed(bw.bottleneck.0 as u64);
            }
            None => d.feed(u64::MAX),
        }
    }
    d.hex()
}
