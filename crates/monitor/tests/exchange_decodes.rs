//! One poll through the simulator costs exactly two SNMP decodes — the
//! agent's of the request and the manager's of the response — whatever
//! else sits in the manager's mailbox; and the manager's decode is
//! counted once, whether the poll's parse accepts the answer or not.
//!
//! The codec counters are process-wide, so this file holds a single test:
//! nothing else in its process decodes anything.

use bytes::Bytes;
use netqos_monitor::poll::{poll_oids, DeviceSnapshot, PollPlan};
use netqos_monitor::simnet::{SimNetwork, SimNetworkOptions, MANAGER_PORT};
use netqos_sim::packet::{ECHO_PORT, SNMP_PORT};
use netqos_sim::time::SimDuration;
use netqos_sim::Ipv4Addr;
use netqos_snmp::client::{self, Manager};
use netqos_snmp::mib2::{interfaces as ifc, system, IfEntry, SystemInfo};
use netqos_snmp::{telemetry, ScalarMib, SnmpAgent, SnmpValue};

const SPEC: &str = r#"
    host L  { address 10.0.0.1;  snmp community "public"; interface eth0 { speed 100Mbps; } }
    host S1 { address 10.0.0.11; snmp community "public"; interface hme0 { speed 100Mbps; } }
    device sw switch { address 10.0.0.100; snmp community "public"; speed 100Mbps;
                       interface p1; interface p2; }
    connection L.eth0 <-> sw.p1;
    connection S1.hme0 <-> sw.p2;
"#;

#[test]
fn late_duplicate_and_foreign_datagram_are_never_decoded() {
    let model = netqos_spec::parse_and_validate(SPEC).unwrap();
    let mut net = SimNetwork::from_model(model, SimNetworkOptions::default()).unwrap();
    let s1 = net.model().topology.node_by_name("S1").unwrap();
    let s1_ip = Ipv4Addr::new(10, 0, 0, 11);
    let manager = net.device_of(net.monitor_node()).unwrap();

    // An answer nobody is waiting for (what a retransmitted poll leaves
    // behind when both answers arrive) and an ECHO reply (what a latency
    // probe that timed out leaves behind) land in the manager's mailbox.
    let stale = client::build_get("public", 9_999, &poll_oids(1)).unwrap();
    net.lan
        .post_udp(manager, MANAGER_PORT, s1_ip, SNMP_PORT, Bytes::from(stale))
        .unwrap();
    let echo = Bytes::from_static(b"not SNMP at all");
    net.lan
        .post_udp(manager, MANAGER_PORT, s1_ip, ECHO_PORT, echo)
        .unwrap();
    let later = net.lan.now() + SimDuration::from_millis(50);
    net.run_until(later);

    let codec = telemetry::codec();
    for _ in 0..2 {
        let (decodes, errors) = (codec.decodes.get(), codec.decode_errors.get());
        let snapshot = net.poll_device(s1).unwrap();
        assert_eq!(snapshot.interfaces[0].descr, "hme0");
        assert_eq!(codec.decodes.get() - decodes, 2);
        assert_eq!(codec.decode_errors.get(), errors);
    }
    assert_eq!(net.telemetry().poll_timeouts.get(), 0);

    // The manager decodes each answer once, however the poll ends: an
    // answer the parse refuses is one decode, a cut one one decode error.
    let mut mib = ScalarMib::new();
    system::install(&mut mib, &SystemInfo::new("dev"), 7);
    ifc::install(
        &mut mib,
        &[IfEntry::ethernet(1, "eth0", 1, [2, 0, 0, 0, 0, 1])],
    );
    mib.insert(ifc::instance_oid(ifc::column::IF_SPEED, 1), SnmpValue::Null);
    let mut agent = SnmpAgent::new("public");
    let (plan, mut manager) = (PollPlan::new(1), Manager::default());
    let mut snapshot = DeviceSnapshot::default();
    for (cut, refused) in [(0, "WrongType"), (1, "Snmp")] {
        let (decodes, errors) = (codec.decodes.get(), codec.decode_errors.get());
        let id = manager.fresh_id();
        let request = manager.encode_get("public", id, plan.oids()).unwrap();
        let answer = agent.handle(request, &mib).unwrap();
        let answer = &answer[..answer.len() - cut];
        let polled = plan.read_answer(&manager, answer, id, "dev", &mut snapshot);
        assert!(format!("{polled:?}").contains(refused), "{polled:?}");
        // The agent's decode of the request, then the manager's.
        assert_eq!(codec.decodes.get() - decodes, 2 - cut as u64);
        assert_eq!(codec.decode_errors.get() - errors, cut as u64);
    }
}
