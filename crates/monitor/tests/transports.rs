//! One manager, three transports: whatever carries the datagrams — the
//! in-process loopback, `UdpNetwork`'s socket to a `UdpAgentServer` on
//! 127.0.0.1, or the simulated LAN — the same MIB polls to the same
//! snapshot, walks to the same bindings and is asked for with the same
//! bytes. Over the simulator, silence is a typed timeout; `udp_service.rs`
//! holds it to the same over UDP.

use netqos_monitor::poll::{parse_snapshot, DeviceSnapshot, PollPlan};
use netqos_monitor::service::{MonitoringService, ServiceConfig};
use netqos_monitor::simnet::{SimNetwork, SimNetworkOptions};
use netqos_monitor::udpnet::UdpNetwork;
use netqos_monitor::{MonitorError, Network};
use netqos_sim::PortIx;
use netqos_snmp::client::{self, Manager};
use netqos_snmp::mib2::interfaces::{self as ifc, column, IfEntry};
use netqos_snmp::mib2::{self, SystemInfo};
use netqos_snmp::pdu::VarBind;
use netqos_snmp::transport::{LoopbackTransport, Transport, UdpAgentHandle, UdpAgentServer};
use netqos_snmp::{telemetry, ScalarMib, SnmpAgent, SnmpError, SnmpValue};
use netqos_topology::IfIx;

const SPEC: &str = r#"
    host L  { address 10.0.0.1;  snmp community "public"; interface eth0 { speed 100Mbps; } }
    host S1 { address 10.0.0.11; snmp community "public"; interface hme0 { speed 100Mbps; } }
    device sw switch { address 10.0.0.100; snmp community "public"; speed 100Mbps;
                       interface p1; interface p2; }
    connection L.eth0 <-> sw.p1;
    connection S1.hme0 <-> sw.p2;
"#;

fn sim() -> SimNetwork {
    let model = netqos_spec::parse_and_validate(SPEC).unwrap();
    SimNetwork::from_model(model, SimNetworkOptions::default()).unwrap()
}

/// `SPEC`'s agents over real UDP, every one of them at `server`.
fn udp(server: &UdpAgentHandle) -> UdpNetwork {
    let model = netqos_spec::parse_and_validate(SPEC).unwrap();
    let addrs = (model.topology.nodes())
        .map(|(node, _)| (node, server.local_addr()))
        .collect();
    UdpNetwork::new(model, &addrs).unwrap()
}

/// Keeps every request that goes through.
struct Recording<'a> {
    inner: &'a mut dyn Transport,
    requests: Vec<Vec<u8>>,
}

impl Transport for Recording<'_> {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        self.requests.push(request.to_vec());
        self.inner.exchange(request)
    }
}

/// Answers the first `silent` exchanges with a timeout, without passing
/// them on; then delegates. The template for a fault a test puts between
/// a manager and its agent.
struct Flaky<'a> {
    inner: &'a mut dyn Transport,
    silent: u32,
}

impl Transport for Flaky<'_> {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        if self.silent > 0 {
            self.silent -= 1;
            return Err(SnmpError::Timeout);
        }
        self.inner.exchange(request)
    }
}

/// What a fresh manager gets from a two-interface device behind `link`,
/// and the requests it sent to get it.
#[derive(Debug, PartialEq)]
struct Seen {
    snapshot: DeviceSnapshot,
    descr_walk: Vec<VarBind>,
    phys_bulk_walk: Vec<VarBind>,
    requests: Vec<Vec<u8>>,
}

fn look(link: &mut dyn Transport) -> Seen {
    let mut link = Recording {
        inner: link,
        requests: Vec::new(),
    };
    let mut manager = Manager::default();
    let mut session = manager.session(&mut link, "public");
    let bindings = session.get_many(PollPlan::new(2).oids()).unwrap();
    let snapshot = parse_snapshot(&bindings, 2).unwrap();
    let descr_walk = session.walk(&ifc::column_oid(column::IF_DESCR)).unwrap();
    // One repetition short of the column, so the walk takes two requests.
    let phys = ifc::column_oid(column::IF_PHYS_ADDRESS);
    let phys_bulk_walk = session.bulk_walk(&phys, 1).unwrap();
    Seen {
        snapshot,
        descr_walk,
        phys_bulk_walk,
        requests: link.requests,
    }
}

/// A MIB that polls to `snapshot`: the `system` group of `name` and one
/// 100 Mb/s ethernet row per sample, with `macs[i]` as its address.
fn mib_showing(name: &str, snapshot: &DeviceSnapshot, macs: &[[u8; 6]]) -> ScalarMib {
    let mut mib = ScalarMib::new();
    mib2::system::install(&mut mib, &SystemInfo::new(name), snapshot.uptime_ticks);
    let entries: Vec<IfEntry> = snapshot
        .interfaces
        .iter()
        .zip(macs)
        .map(|(sample, &mac)| {
            let mut e = IfEntry::ethernet(sample.if_index, &sample.descr, 100_000_000, mac);
            e.in_octets = sample.in_octets;
            e.out_octets = sample.out_octets;
            e.in_ucast_pkts = sample.in_ucast_pkts;
            e.out_nucast_pkts = sample.out_nucast_pkts;
            e
        })
        .collect();
    ifc::install(&mut mib, &entries);
    mib
}

#[test]
fn one_mib_reads_alike_over_loopback_udp_and_the_simulator() {
    // The simulated switch first: its MIB is its own (live counters), so
    // what it showed is what the other two transports then serve.
    let mut net = sim();
    let sw = net.model().topology.node_by_name("sw").unwrap();
    let over_sim = look(&mut net.link(sw).unwrap());
    assert_eq!(over_sim.snapshot.interfaces.len(), 2);
    assert_eq!(over_sim.descr_walk.len(), 2);
    assert_eq!(over_sim.phys_bulk_walk.len(), 2);
    // Poll, two GetNext steps and the step that leaves the column, two
    // GetBulk steps and the one that leaves.
    assert_eq!(over_sim.requests.len(), 1 + 3 + 3);

    let macs: Vec<[u8; 6]> = over_sim
        .phys_bulk_walk
        .iter()
        .map(|vb| match &vb.value {
            SnmpValue::OctetString(mac) => mac.as_slice().try_into().unwrap(),
            other => panic!("ifPhysAddress is {other:?}"),
        })
        .collect();
    let mib = mib_showing("sw", &over_sim.snapshot, &macs);
    let over_loopback = look(&mut LoopbackTransport::new(
        SnmpAgent::new("public"),
        mib.clone(),
    ));
    assert_eq!(over_loopback, over_sim);

    let server = UdpAgentServer::spawn("127.0.0.1:0", "public", move || mib.clone()).unwrap();
    let over_udp = look(&mut udp(&server).link(sw).unwrap());
    server.stop();
    assert_eq!(over_udp, over_sim);
}

#[test]
fn a_link_silent_n_times_gives_n_timeouts_then_the_same_snapshot() {
    const SILENT: u32 = 2;
    fn poll_through_flaky(link: &mut dyn Transport) -> DeviceSnapshot {
        let mut link = Flaky {
            inner: link,
            silent: SILENT,
        };
        let mut manager = Manager::default();
        let mut session = manager.session(&mut link, "public");
        let plan = PollPlan::new(1);
        for _ in 0..SILENT {
            assert_eq!(session.get_many(plan.oids()), Err(SnmpError::Timeout));
        }
        parse_snapshot(&session.get_many(plan.oids()).unwrap(), 1).unwrap()
    }

    // Simulator: a twin network polled directly is the reference (the
    // silent exchanges never reach the wire, so no counter moves).
    let (mut net, mut twin) = (sim(), sim());
    let s1 = net.model().topology.node_by_name("S1").unwrap();
    let expected = twin.poll_device(s1).unwrap();
    assert_eq!(expected.interfaces[0].descr, "hme0");
    let got = poll_through_flaky(&mut net.link(s1).unwrap());
    assert_eq!(got, expected);
    let timeouts = net.telemetry().poll_timeouts.get();
    assert_eq!(timeouts, 0, "the link itself never timed out");

    // Loopback and UDP serve what the simulated host showed.
    let mib = mib_showing("S1", &expected, &[[2, 0, 0, 0, 0, 1]]);
    let mut loopback = LoopbackTransport::new(SnmpAgent::new("public"), mib.clone());
    assert_eq!(poll_through_flaky(&mut loopback), expected);
    let server = UdpAgentServer::spawn("127.0.0.1:0", "public", move || mib.clone()).unwrap();
    let mut udp = udp(&server);
    assert_eq!(poll_through_flaky(&mut udp.link(s1).unwrap()), expected);
    server.stop();
}

#[test]
fn silence_is_a_typed_timeout_in_the_simulator() {
    // A host whose only link loses every frame.
    let mut net = sim();
    let s1 = net.model().topology.node_by_name("S1").unwrap();
    let s1_dev = net.device_of(s1).unwrap();
    net.lan.set_link_loss(s1_dev, PortIx(0), 1.0).unwrap();
    let timed_out = MonitorError::Timeout { node: "S1".into() };
    assert_eq!(net.poll_device(s1), Err(timed_out));
    // One poll: the request, two retransmissions, one timeout — and the
    // poll is neither a success nor a failure.
    let t = net.telemetry();
    assert_eq!(t.poll_retransmits.get(), 2);
    assert_eq!(t.poll_timeouts.get(), 1);
    assert_eq!((t.polls.get(), t.poll_failures.get()), (0, 0));
}

#[test]
fn a_lossy_link_costs_the_retransmissions_and_timeouts_it_always_did() {
    // 30 % loss on the polled host's link, 60 polls a simulated second
    // apart. The simulator is deterministic, so the counts are those of
    // the poll loop this one replaced (measured at the parent commit).
    let mut net = sim();
    let s1 = net.model().topology.node_by_name("S1").unwrap();
    let s1_dev = net.device_of(s1).unwrap();
    net.lan.set_link_loss(s1_dev, PortIx(0), 0.3).unwrap();
    let mut answered = 0;
    for _ in 0..60 {
        let next = net.lan.now() + netqos_sim::time::SimDuration::from_secs(1);
        net.run_until(next);
        match net.poll_device(s1) {
            Ok(_) => answered += 1,
            Err(MonitorError::Timeout { .. }) => {}
            Err(e) => panic!("{e}"),
        }
    }
    let t = net.telemetry();
    assert_eq!(t.polls.get(), answered);
    assert_eq!(answered + t.poll_timeouts.get(), 60);
    assert_eq!(
        (answered, t.poll_retransmits.get(), t.poll_timeouts.get()),
        (54, 42, 6)
    );
}

#[test]
fn a_poll_too_big_for_one_datagram_times_out_and_the_service_ticks_on() {
    // The simulator fragments UDP above 1 472 bytes and nothing
    // reassembles. For a 26-port switch already the 157-name request is
    // that big; for 12 ports with long names only the response is, and a
    // fragment of it reaches the manager's mailbox.
    let short = |i: u32| format!("p{i}");
    let long = |i: u32| format!("gigabit-ethernet-line-card-0-port-{i:02}");
    for (ports, name, only_the_response) in [
        (26, &short as &dyn Fn(u32) -> String, false),
        (12, &long, true),
    ] {
        let interfaces: String = (1..=ports)
            .map(|i| format!("interface {}; ", name(i)))
            .collect();
        let spec = format!(
            r#"
            host L  {{ address 10.0.0.1;  snmp community "public"; interface eth0 {{ speed 100Mbps; }} }}
            host S1 {{ address 10.0.0.11; snmp community "public"; interface hme0 {{ speed 100Mbps; }} }}
            device big switch {{ address 10.0.0.100; snmp community "public"; speed 100Mbps; {interfaces} }}
            connection L.eth0 <-> big.{};
            connection S1.hme0 <-> big.{};
            qospath ls from L to S1 {{ min_available 1Mbps; }}
            "#,
            name(1),
            name(2),
        );
        let request = client::build_get("public", 1, PollPlan::new(ports).oids()).unwrap();
        assert_eq!(request.len() <= 1472, only_the_response, "{ports} ports");
        // The answer is too big either way, even with every counter at 0.
        let entries: Vec<IfEntry> = (1..=ports)
            .map(|i| IfEntry::ethernet(i, &name(i), 100_000_000, [2, 0, 0, 0, 0, i as u8]))
            .collect();
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &SystemInfo::new("big"), 0);
        ifc::install(&mut mib, &entries);
        let response = SnmpAgent::new("public").handle(&request, &mib).unwrap();
        assert!(response.len() > 1472, "{} bytes", response.len());

        let model = netqos_spec::parse_and_validate(&spec).unwrap();
        let big = model.topology.node_by_name("big").unwrap();
        let s1 = model.topology.node_by_name("S1").unwrap();
        // The qospath reads all three devices, so every tick polls each.
        let (options, config) = (SimNetworkOptions::default(), ServiceConfig::default());
        let mut svc = MonitoringService::from_model(model, options, config).unwrap();
        let decode_errors = telemetry::codec().decode_errors.get();
        for _ in 0..3 {
            svc.tick()
                .expect("a timed-out device must not abort the tick");
        }
        assert_eq!(svc.telemetry().poll_timeouts.get(), 3);
        let polled = svc.net_mut().poll_device(big);
        assert_eq!(polled, Err(MonitorError::Timeout { node: "big".into() }));
        if only_the_response {
            // The agent decoded every request; the manager passed the
            // fragment over by its header and decoded nothing.
            assert_eq!(telemetry::codec().decode_errors.get(), decode_errors);
        }
        // The devices that do answer are monitored all the same.
        assert_eq!(svc.telemetry().polls.get(), 2 * 3);
        assert!(svc.monitor().if_rates(s1, IfIx(0)).is_some());
    }
}
