//! What the engine schedules: a unicast frame's arrival at a host NIC
//! that will filter it is not an event on a loss-free cable, is one on a
//! lossy cable, and either way the frame is carried and counted. The
//! counts here are what `tests/prop.rs`'s differential property cannot
//! see — it holds the two paths equal, not apart.

use netqos_sim::app::DiscardSink;
use netqos_sim::builder::LanBuilder;
use netqos_sim::packet::DISCARD_PORT;
use netqos_sim::time::SimDuration;
use netqos_sim::{DeviceId, Ipv4Addr, Lan, PortIx};

const RATE: u64 = 100_000_000;

fn station_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, i as u8 + 1)
}

/// `stations` hosts, each with a DISCARD sink, cabled to ports
/// `0..stations` of `centre`.
fn add_stations(b: &mut LanBuilder, centre: DeviceId, stations: usize) -> Vec<DeviceId> {
    (0..stations)
        .map(|i| {
            let port = b.add_nic(centre, &format!("p{i}"), RATE).unwrap();
            let host = b.add_host_addr(&format!("s{i}"), station_ip(i)).unwrap();
            b.add_nic(host, "eth0", RATE).unwrap();
            b.connect((host, PortIx(0)), (centre, port)).unwrap();
            b.install_app(host, Box::new(DiscardSink::default()), Some(DISCARD_PORT))
                .unwrap();
            host
        })
        .collect()
}

/// A hub of `stations` stations whose last port is the uplink to a
/// switch.
fn hub_under_a_switch(stations: usize) -> (Lan, Vec<DeviceId>) {
    let mut b = LanBuilder::new();
    let hub = b.add_hub("hub", RATE).unwrap();
    let hosts = add_stations(&mut b, hub, stations);
    let uplink = b.add_nic(hub, "up", RATE).unwrap();
    let sw = b.add_switch("sw", None).unwrap();
    let down = b.add_nic(sw, "down", RATE).unwrap();
    b.connect((hub, uplink), (sw, down)).unwrap();
    (b.build(), hosts)
}

fn send(lan: &mut Lan, from: DeviceId, to: usize) {
    lan.post_udp(
        from,
        5000,
        station_ip(to),
        DISCARD_PORT,
        vec![0u8; 100].into(),
    )
    .unwrap();
}

/// A switch of 100 ports, 99 of them to stations and one to a second
/// switch, floods a unicast to an address whose MAC no NIC owns (a host
/// with an address and no NIC): a MAC a station owns is resolved, not
/// flooded.
#[test]
fn a_unicast_flooded_by_a_100_host_switch_leaves_one_pending_arrival() {
    let mut b = LanBuilder::new();
    let sw = b.add_switch("sw", None).unwrap();
    let hosts = add_stations(&mut b, sw, 99);
    let uplink = b.add_nic(sw, "up", RATE).unwrap();
    let below = b.add_switch("below", None).unwrap();
    let down = b.add_nic(below, "down", RATE).unwrap();
    b.connect((sw, uplink), (below, down)).unwrap();
    let nobody = Ipv4Addr::new(10, 0, 2, 1);
    b.add_host_addr("nobody", nobody).unwrap();
    let mut lan = b.build();

    lan.post_udp(hosts[0], 5000, nobody, DISCARD_PORT, vec![0u8; 100].into())
        .unwrap();
    assert_eq!(lan.pending_events(), 1, "on its way to the switch");
    assert!(lan.step());
    assert_eq!(lan.stats().frames_flooded, 1, "nothing to resolve");
    assert_eq!(lan.pending_events(), 1, "only the second switch takes it");
    // Carried is not stepped: the 98 filtered copies were on the wire —
    // their egress ports counted them — and count as delivered.
    assert_eq!(lan.stats().frames_delivered, 1 + 98);
    for port in 1..100 {
        let egress = lan.nic_counters(sw, PortIx(port)).unwrap();
        assert_eq!(egress.out_ucast_pkts.total(), 1, "port {port}");
    }
    lan.run_for(SimDuration::from_millis(1));
    assert_eq!(lan.stats().frames_delivered, 100);
    assert_eq!(lan.stats().datagrams_delivered, 0);
}

#[test]
fn a_hub_repeat_to_25_stations_schedules_the_addressee_and_the_uplink() {
    let (mut lan, hosts) = hub_under_a_switch(25);
    send(&mut lan, hosts[0], 1);
    assert!(lan.step(), "the frame reaches the hub");
    assert_eq!(lan.pending_events(), 2);
    let hub = lan.device_by_name("hub").unwrap();
    for port in 1..=25 {
        let egress = lan.nic_counters(hub, PortIx(port)).unwrap();
        assert_eq!(
            egress.out_ucast_pkts.total(),
            1,
            "repeated out of port {port}"
        );
    }
    lan.run_for(SimDuration::from_millis(1));
    // Hub, then 24 stations and the switch (which has nowhere to flood).
    assert_eq!(lan.stats().frames_delivered, 1 + 25);
    assert_eq!(lan.stats().datagrams_delivered, 1);
}

#[test]
fn on_lossy_cables_every_arrival_is_scheduled() {
    let (mut lan, hosts) = hub_under_a_switch(25);
    // Three bystanders' cables go bad: their arrivals are events again.
    for &bystander in &hosts[10..13] {
        lan.set_link_loss(bystander, PortIx(0), 0.5).unwrap();
    }
    send(&mut lan, hosts[0], 1);
    assert!(lan.step());
    assert_eq!(lan.pending_events(), 2 + 3);
    lan.run_for(SimDuration::from_millis(1));

    // Every cable but the sender's: the 24 other stations and the uplink.
    for &station in &hosts[1..] {
        lan.set_link_loss(station, PortIx(0), 0.5).unwrap();
    }
    send(&mut lan, hosts[0], 1);
    assert!(lan.step());
    assert_eq!(lan.pending_events(), 24 + 1);
}

/// Of 200 frames at 30 % loss, as the parent commit corrupted them.
const ADDRESSEE_ERRORS: u64 = 64;
const BYSTANDER_ERRORS: u64 = 52;

/// Loss set before traffic starts — what `hub_switch.rs`,
/// `netqos-monitor`'s `transports.rs` and the root `end_to_end.rs` do — is
/// applied to every frame, addressed to the receiving NIC or not, in the
/// order the always-scheduling engine drew them: the figures below were
/// read off the commit before the transmit-time filter existed.
#[test]
fn loss_set_before_traffic_splits_errors_and_deliveries_as_it_always_did() {
    let mut b = LanBuilder::new();
    let hub = b.add_hub("hub", 10_000_000).unwrap();
    let hosts = add_stations(&mut b, hub, 4);
    let mut lan = b.build();
    // The addressee's cable and one bystander's are lossy; the other
    // bystander's is clean.
    lan.set_link_loss(hosts[1], PortIx(0), 0.3).unwrap();
    lan.set_link_loss(hosts[2], PortIx(0), 0.3).unwrap();
    for _ in 0..200 {
        send(&mut lan, hosts[0], 1);
        lan.run_for(SimDuration::from_millis(1));
    }
    lan.run_for(SimDuration::from_millis(50));

    let errors_and_taken = |i: usize| {
        let nic = lan.nic_counters(hosts[i], PortIx(0)).unwrap();
        (nic.in_errors.total(), nic.in_ucast_pkts.total())
    };
    assert_eq!(
        errors_and_taken(1),
        (ADDRESSEE_ERRORS, 200 - ADDRESSEE_ERRORS)
    );
    assert_eq!(errors_and_taken(2), (BYSTANDER_ERRORS, 0));
    assert_eq!(errors_and_taken(3), (0, 0));
    let stats = lan.stats();
    assert_eq!(
        stats.frames_dropped_loss,
        ADDRESSEE_ERRORS + BYSTANDER_ERRORS
    );
    // 200 frames reach the hub and are repeated to three stations.
    assert_eq!(stats.frames_delivered, 200 * 4 - stats.frames_dropped_loss);
    assert_eq!(stats.datagrams_delivered, 200 - ADDRESSEE_ERRORS);
}
