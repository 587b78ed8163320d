//! The LIRTSS testbed (paper Figure 3), materialized from the checked-in
//! specification file with load generators and realistic noise.

use netqos_loadgen::{LoadProfile, ProfiledSource};
use netqos_monitor::simnet::SimNetworkOptions;
use netqos_monitor::{MonitorError, MonitoringService, ServiceConfig};
use netqos_sim::builder::LanBuilder;
use netqos_sim::time::SimDuration;
use netqos_sim::{DeviceId, Ipv4Addr};
use netqos_spec::SpecModel;
use netqos_topology::NodeId;
use std::collections::HashMap;

/// The specification of the paper's Figure 3 testbed.
pub const LIRTSS_SPEC: &str = include_str!("../../../specs/lirtss.spec");

/// One load-generator placement: `from` sends `profile` to `to`'s DISCARD
/// port, exactly like the paper's generator.
#[derive(Debug, Clone)]
pub struct Load {
    /// Sending host name.
    pub from: String,
    /// Receiving host name.
    pub to: String,
    /// The rate schedule.
    pub profile: LoadProfile,
}

impl Load {
    /// Convenience constructor.
    pub fn new(from: &str, to: &str, profile: LoadProfile) -> Self {
        Load {
            from: from.to_owned(),
            to: to.to_owned(),
            profile,
        }
    }
}

/// Seed of every testbed's noise and agent jitter.
const SEED: u64 = 42;

/// Payload bytes per generated datagram: the paper used MTU-sized
/// packets, 1472 payload + 28 header = 1500-byte IP packets.
const CHUNK_BYTES: usize = 1472;

/// Environmental knobs for experiments.
#[derive(Debug, Clone)]
pub struct TestbedOptions {
    /// Mean interval of per-host background broadcasts (None = silent).
    pub noise_mean: Option<SimDuration>,
    /// Mean SNMP agent response jitter (None = instant agents).
    pub agent_jitter_mean: Option<SimDuration>,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        TestbedOptions {
            // ≈0.6 KB/s of broadcast chatter visible on every segment —
            // the "background traffic" the paper measures and subtracts.
            noise_mean: Some(SimDuration::from_millis(2000)),
            // Occasional delayed agent responses: the source of the
            // paper's isolated large single-sample errors.
            agent_jitter_mean: Some(SimDuration::from_millis(15)),
        }
    }
}

/// The monitoring service over the LIRTSS testbed with the given loads
/// installed: the system that ships, on the testbed's network.
pub fn build_service(
    loads: &[Load],
    options: &TestbedOptions,
    config: ServiceConfig,
) -> Result<MonitoringService, MonitorError> {
    let model = netqos_spec::parse_and_validate(LIRTSS_SPEC).expect("specification must be valid");
    MonitoringService::from_model_with(model, net_options(options), config, install_loads(loads))
}

fn net_options(options: &TestbedOptions) -> SimNetworkOptions {
    SimNetworkOptions {
        monitor_host: "L".to_owned(),
        noise_mean: options.noise_mean,
        seed: SEED,
        agent_jitter_mean: options.agent_jitter_mean,
        poll_timeout: SimDuration::from_millis(800),
        registry: None,
    }
}

/// The hook that installs each load's generator on its sending host.
fn install_loads(
    loads: &[Load],
) -> impl FnOnce(&mut LanBuilder, &HashMap<NodeId, DeviceId>, &SpecModel) {
    let loads = loads.to_vec();
    move |builder, node_to_dev, m| {
        for load in &loads {
            let from = m
                .topology
                .node_by_name(&load.from)
                .expect("load source exists");
            let to = m.topology.node_by_name(&load.to).expect("load sink exists");
            let dst_ip: Ipv4Addr = m.addresses[&to].parse().expect("sink has an address");
            let mut src = ProfiledSource::new(dst_ip, load.profile.clone());
            src.chunk_bytes = CHUNK_BYTES;
            builder
                .install_app(node_to_dev[&from], Box::new(src), None)
                .expect("install generator");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_monitor::{Network, NetworkMonitor};

    #[test]
    fn lirtss_spec_is_valid_and_matches_figure3() {
        let model = netqos_spec::parse_and_validate(LIRTSS_SPEC).unwrap();
        // 9 hosts + switch + hub.
        assert_eq!(model.topology.node_count(), 11);
        // 7 switch hosts + uplink + 2 hub hosts.
        assert_eq!(model.topology.connection_count(), 10);
        // SNMP demons: L, N1, N2, S1, S2, switch (paper §4.1).
        assert_eq!(model.snmp_nodes().len(), 6);
        // The monitored qospaths of the experiments.
        assert_eq!(model.qos_paths.len(), 4);
    }

    fn idle() -> MonitoringService {
        build_service(&[], &TestbedOptions::default(), ServiceConfig::default()).unwrap()
    }

    #[test]
    fn testbed_builds_and_polls() {
        let mut svc = idle();
        let net = svc.net_mut();
        let mut monitor = NetworkMonitor::new(net.model().topology.clone());
        let every = net.pollable_nodes();
        assert_eq!(net.poll_nodes(&every, &mut monitor).unwrap(), 6);
    }

    #[test]
    fn path_s1_n1_crosses_hub() {
        let svc = idle();
        let topo = svc.monitor().topology();
        let s1 = topo.node_by_name("S1").unwrap();
        let n1 = topo.node_by_name("N1").unwrap();
        let p = svc.monitor().path(s1, n1).unwrap();
        let names: Vec<String> = p
            .nodes
            .iter()
            .map(|n| topo.node(*n).unwrap().name.clone())
            .collect();
        assert_eq!(names, ["S1", "switch1", "hub1", "N1"]);
    }
}
