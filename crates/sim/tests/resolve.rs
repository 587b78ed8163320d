//! A bridge resolves before it floods: a unicast to a station it has not
//! heard from teaches it, and every bridge between it and the station, the
//! port toward the station — what the ARP reply that precedes a unicast on
//! a real LAN would have taught them. Broadcasts, MACs no NIC owns and
//! stations no cable reaches still flood.

use netqos_sim::app::{DiscardSink, DiscardStats, EchoResponder, Mailbox};
use netqos_sim::builder::LanBuilder;
use netqos_sim::packet::{DISCARD_PORT, ECHO_PORT};
use netqos_sim::time::SimDuration;
use netqos_sim::{
    AppCtx, AppId, DeviceId, Ipv4Addr, Lan, MacAddr, PortIx, SimTime, UdpApp, UdpDatagram,
};
use std::cell::RefCell;
use std::rc::Rc;

const RATE: u64 = 100_000_000;
const MAILBOX_PORT: u16 = 6000;

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

type Fdb = Rc<RefCell<Option<Vec<(MacAddr, u32)>>>>;

/// What an app does when its timer fires.
enum OnTimer {
    /// Records the device's bridge forwarding database.
    ReadFdb(Fdb),
    Broadcast,
    SendTo(Ipv4Addr),
}

impl UdpApp for OnTimer {
    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _token: u64) {
        match self {
            OnTimer::ReadFdb(fdb) => *fdb.borrow_mut() = ctx.fdb_snapshot(),
            OnTimer::Broadcast => ctx.send_raw_broadcast(60, None),
            OnTimer::SendTo(to) => {
                ctx.send_udp(MAILBOX_PORT, *to, DISCARD_PORT, vec![0u8; 50].into())
            }
        }
    }
}

/// `A — sw1 — sw2 — sw3 — S`, a bystander on each switch, and around
/// them the stations the cases address:
///
/// * `S` (10.0.0.9), silent, with a DISCARD sink;
/// * `M` (10.0.0.8), silent and multi-homed: `eth0`, the NIC its address
///   resolves to, on `sw4` under `sw3`, and `eth1` on `sw1`, next to the
///   sender — through `M` itself, were a host to forward, `sw1` would be
///   two cables from `sw4`, not three;
/// * `ghost` (10.0.0.7), an address with no NIC;
/// * `lone` (10.0.0.6), a NIC with no cable;
/// * `island` (10.0.0.5), cabled to a switch cabled to nothing else.
///
/// `sw3` is managed (10.0.0.100) and answers ECHO on its management
/// address. `A` broadcasts on its timer, `sw3`'s stack sends to `S` on
/// its own.
struct Chain {
    lan: Lan,
    a: DeviceId,
    a_timer: AppId,
    a_inbox: Rc<RefCell<Vec<(SimTime, UdpDatagram)>>>,
    switches: [DeviceId; 3],
    fdb_probes: [(AppId, Fdb); 3],
    stack_timer: AppId,
    /// Each switch's ports: toward `A`'s side, to its bystander, toward
    /// `S`'s side (the station itself on `sw3`).
    ports: [[PortIx; 3]; 3],
    /// `sw1`'s port to `M.eth1`.
    sw1_to_m_eth1: PortIx,
    /// `sw3`'s port to `sw4`, the switch `M.eth0` hangs off.
    sw3_to_sw4: PortIx,
    s: DeviceId,
    s_sink: Rc<RefCell<DiscardStats>>,
    m: DeviceId,
    m_sink: Rc<RefCell<DiscardStats>>,
}

impl Chain {
    fn build() -> Chain {
        let mut b = LanBuilder::new();
        let sw1 = b.add_switch("sw1", None).unwrap();
        let sw2 = b.add_switch("sw2", None).unwrap();
        let sw3 = b.add_switch("sw3", Some("10.0.0.100")).unwrap();
        let switches = [sw1, sw2, sw3];
        let station = |b: &mut LanBuilder, name: &str, addr: &str| {
            let dev = b.add_host(name, addr).unwrap();
            let eth0 = b.add_nic(dev, "eth0", RATE).unwrap();
            (dev, eth0)
        };
        let attach = |b: &mut LanBuilder, end: (DeviceId, PortIx), sw: DeviceId| {
            let port = b.add_nic(sw, "p", RATE).unwrap();
            b.connect(end, (sw, port)).unwrap();
            port
        };

        let a = station(&mut b, "A", "10.0.0.1");
        let (mailbox, a_inbox) = Mailbox::with_handle();
        b.install_app(a.0, Box::new(mailbox), Some(MAILBOX_PORT))
            .unwrap();
        let a_timer = b
            .install_app(a.0, Box::new(OnTimer::Broadcast), None)
            .unwrap();
        let s = station(&mut b, "S", "10.0.0.9");
        let (sink, s_sink) = DiscardSink::with_handle();
        b.install_app(s.0, Box::new(sink), Some(DISCARD_PORT))
            .unwrap();

        let mut ports = [[PortIx(0); 3]; 3];
        ports[0][0] = attach(&mut b, a, sw1);
        for (i, &sw) in switches.iter().enumerate() {
            let bystander = station(&mut b, &format!("by{i}"), &format!("10.0.1.{i}"));
            ports[i][1] = attach(&mut b, bystander, sw);
            if i > 0 {
                let up = b.add_nic(sw, "up", RATE).unwrap();
                let down = b.add_nic(switches[i - 1], "down", RATE).unwrap();
                b.connect((sw, up), (switches[i - 1], down)).unwrap();
                ports[i][0] = up;
                ports[i - 1][2] = down;
            }
        }
        ports[2][2] = attach(&mut b, s, sw3);

        let m = b.add_host("M", "10.0.0.8").unwrap();
        let m_eth0 = b.add_nic(m, "eth0", RATE).unwrap();
        let m_eth1 = b.add_nic(m, "eth1", RATE).unwrap();
        let sw4 = b.add_switch("sw4", None).unwrap();
        let sw4_up = b.add_nic(sw4, "up", RATE).unwrap();
        let sw3_to_sw4 = attach(&mut b, (sw4, sw4_up), sw3);
        attach(&mut b, (m, m_eth0), sw4);
        let sw1_to_m_eth1 = attach(&mut b, (m, m_eth1), sw1);
        let (sink, m_sink) = DiscardSink::with_handle();
        b.install_app(m, Box::new(sink), Some(DISCARD_PORT))
            .unwrap();

        b.add_host("ghost", "10.0.0.7").unwrap();
        station(&mut b, "lone", "10.0.0.6");
        let island = station(&mut b, "island", "10.0.0.5");
        let far = b.add_switch("far", None).unwrap();
        attach(&mut b, island, far);

        b.install_app(sw3, Box::new(EchoResponder), Some(ECHO_PORT))
            .unwrap();
        let stack_timer = b
            .install_app(sw3, Box::new(OnTimer::SendTo(ip("10.0.0.9"))), None)
            .unwrap();
        let fdb_probes = switches.map(|sw| {
            let fdb = Fdb::default();
            let app = b
                .install_app(sw, Box::new(OnTimer::ReadFdb(fdb.clone())), None)
                .unwrap();
            (app, fdb)
        });
        Chain {
            lan: b.build(),
            a: a.0,
            a_timer,
            a_inbox,
            switches,
            fdb_probes,
            stack_timer,
            ports,
            sw1_to_m_eth1,
            sw3_to_sw4,
            s: s.0,
            s_sink,
            m,
            m_sink,
        }
    }

    fn send_from_a(&mut self, to: &str, port: u16) {
        self.lan
            .post_udp(self.a, MAILBOX_PORT, ip(to), port, vec![0u8; 100].into())
            .unwrap();
        self.settle();
    }

    fn settle(&mut self) {
        self.lan.run_for(SimDuration::from_millis(10));
    }

    /// The bridge forwarding database of switch `i`, as its agent would
    /// export it: `(mac, ifIndex)` sorted by MAC.
    fn fdb(&mut self, i: usize) -> Vec<(MacAddr, u32)> {
        let (app, fdb) = &self.fdb_probes[i];
        self.lan
            .post_timer(self.switches[i], *app, SimDuration::ZERO, 0)
            .unwrap();
        self.lan.run_for(SimDuration::from_micros(1));
        let read = fdb.borrow_mut().take();
        read.expect("a switch has a forwarding database")
    }

    /// The port of switch `i` its forwarding database names for `mac`.
    fn learned(&mut self, i: usize, mac: MacAddr) -> Option<u32> {
        let fdb = self.fdb(i);
        fdb.iter().find(|(m, _)| *m == mac).map(|&(_, port)| port)
    }

    fn mac(&self, dev: DeviceId, port: PortIx) -> MacAddr {
        self.lan.nic_snapshots(dev).unwrap()[port.index()].mac
    }

    /// Unicast frames the bystander ports sent: any is a flooded copy.
    fn to_bystanders(&self) -> u64 {
        (0..3)
            .map(|i| {
                let port = self.ports[i][1];
                let egress = self.lan.nic_counters(self.switches[i], port).unwrap();
                egress.out_ucast_pkts.total()
            })
            .sum()
    }

    fn flooded(&self) -> u64 {
        self.lan.stats().frames_flooded
    }
}

#[test]
fn a_datagram_to_a_silent_station_three_switches_away_floods_nothing() {
    let mut chain = Chain::build();
    chain.send_from_a("10.0.0.9", DISCARD_PORT);
    assert_eq!(chain.flooded(), 0);
    assert_eq!(chain.to_bystanders(), 0);
    assert_eq!(chain.s_sink.borrow().datagrams, 1);
    let s_mac = chain.mac(chain.s, PortIx(0));
    for i in 0..3 {
        let toward_s = chain.ports[i][2].if_index();
        assert_eq!(chain.learned(i, s_mac), Some(toward_s), "sw{}", i + 1);
    }
}

#[test]
fn a_poll_of_a_managed_switch_floods_nothing() {
    let mut chain = Chain::build();
    chain.send_from_a("10.0.0.100", ECHO_PORT);
    assert_eq!(chain.a_inbox.borrow().len(), 1, "the echo came back");
    assert_eq!(chain.flooded(), 0);
    // The bridges toward it learned the management MAC, a MAC on no NIC.
    let nic_macs: Vec<MacAddr> = (0..chain.lan.device_count() as u32)
        .flat_map(|dev| chain.lan.nic_snapshots(DeviceId(dev)).unwrap())
        .map(|nic| nic.mac)
        .collect();
    for i in 0..2 {
        let toward_sw3 = chain.ports[i][2].if_index();
        let mgmt: Vec<u32> = (chain.fdb(i).into_iter())
            .filter(|(mac, _)| !nic_macs.contains(mac))
            .map(|(_, port)| port)
            .collect();
        assert_eq!(mgmt, [toward_sw3], "sw{}", i + 1);
    }

    // The switch's own stack resolves a station it has not heard from.
    chain
        .lan
        .post_timer(chain.switches[2], chain.stack_timer, SimDuration::ZERO, 0)
        .unwrap();
    chain.settle();
    assert_eq!(chain.s_sink.borrow().datagrams, 1);
    assert_eq!(chain.flooded(), 0);
    assert_eq!(chain.to_bystanders(), 0);
}

#[test]
fn a_multi_homed_station_is_learned_toward_the_nic_that_owns_its_address() {
    let mut chain = Chain::build();
    chain.send_from_a("10.0.0.8", DISCARD_PORT);
    assert_eq!(chain.m_sink.borrow().datagrams, 1, "delivered to eth0");
    assert_eq!(chain.flooded(), 0);
    // `sw1` is one cable from `M.eth1`, but the address is `eth0`'s.
    let m_eth0 = chain.mac(chain.m, PortIx(0));
    let toward_sw2 = chain.ports[0][2].if_index();
    assert_eq!(chain.learned(0, m_eth0), Some(toward_sw2));
    assert_eq!(chain.learned(2, m_eth0), Some(chain.sw3_to_sw4.if_index()));
    let to_eth1 = chain
        .lan
        .nic_counters(chain.switches[0], chain.sw1_to_m_eth1);
    let to_eth1 = to_eth1.unwrap();
    assert_eq!(to_eth1.out_ucast_pkts.total(), 0);
}

#[test]
fn broadcasts_still_flood() {
    let mut chain = Chain::build();
    chain
        .lan
        .post_timer(chain.a, chain.a_timer, SimDuration::ZERO, 0)
        .unwrap();
    chain.settle();
    assert_eq!(chain.flooded(), 4, "once per switch");
    let s = chain.lan.nic_counters(chain.s, PortIx(0)).unwrap();
    assert_eq!(s.in_nucast_pkts.total(), 1);
}

#[test]
fn an_address_whose_mac_no_station_owns_still_floods() {
    let mut chain = Chain::build();
    chain.send_from_a("10.0.0.7", DISCARD_PORT);
    assert_eq!(chain.flooded(), 4, "once per switch");
    assert_eq!(chain.to_bystanders(), 3);
    for i in 0..3 {
        assert_eq!(chain.fdb(i).len(), 1, "sw{}: only A", i + 1);
    }
}

#[test]
fn a_station_no_cable_reaches_still_floods() {
    let mut chain = Chain::build();
    // `lone`'s NIC has no cable; `island` is cabled, to another LAN.
    for (to, floods) in [("10.0.0.6", 4), ("10.0.0.5", 8)] {
        chain.send_from_a(to, DISCARD_PORT);
        assert_eq!(chain.flooded(), floods, "{to}");
    }
    assert_eq!(chain.to_bystanders(), 6);
}
