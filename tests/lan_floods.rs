//! A monitored LAN floods nothing but broadcasts: on a generated
//! 1 000-host access network whose site switches run agents, neither the
//! first poll of any device, nor a poll of a switch's management address,
//! nor a constant load to a DISCARD sink that never answers makes a bridge
//! flood — each resolves its destination first, as the ARP exchange
//! before a real unicast would have taught it.

mod common;

use common::managed_access_network;
use netqos::loadgen::{LoadProfile, ProfiledSource};
use netqos::monitor::service::{MonitoringService, ServiceConfig};
use netqos::monitor::simnet::SimNetworkOptions;
use netqos::spec::SpecModel;
use netqos::topology::NodeId;
use netqos_sim::builder::LanBuilder;
use netqos_sim::time::SimDuration;
use netqos_sim::DeviceId;
use std::collections::HashMap;

#[test]
fn a_managed_1k_network_under_load_floods_nothing_from_the_first_tick() {
    let model = managed_access_network(1_000, 8);
    // `p1` runs from one site to another, to a host that never sends.
    let load = |b: &mut LanBuilder, devs: &HashMap<NodeId, DeviceId>, m: &SpecModel| {
        let q = m.qos_paths.iter().find(|q| q.name == "p1").unwrap();
        let dst = m.addresses[&q.to].parse().unwrap();
        let src = ProfiledSource::new(dst, LoadProfile::constant(200_000));
        b.install_app(devs[&q.from], Box::new(src), None).unwrap();
    };
    let options = SimNetworkOptions {
        monitor_host: "h0-0".into(),
        // Background noise is broadcasts, which flood on a real LAN too.
        noise_mean: None,
        agent_jitter_mean: Some(SimDuration::from_millis(1)),
        ..SimNetworkOptions::default()
    };
    let mut svc =
        MonitoringService::from_model_with(model, options, ServiceConfig::default(), load).unwrap();
    let (mut carried, mut datagrams) = (0, 0);
    for tick in 1..=40 {
        svc.tick().unwrap();
        let stats = svc.net_mut().lan.stats();
        assert_eq!(stats.frames_flooded, 0, "tick {tick}: {stats:?}");
        assert!(stats.frames_delivered > carried, "tick {tick}");
        assert!(stats.datagrams_delivered > datagrams, "tick {tick}");
        (carried, datagrams) = (stats.frames_delivered, stats.datagrams_delivered);
    }
    assert_eq!(svc.net_mut().lan.stats().arp_failures, 0);
}
