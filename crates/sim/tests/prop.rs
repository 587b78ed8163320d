//! Property tests for the simulator: byte conservation, counter
//! consistency, determinism under random workloads, and the engine held
//! against itself — a LAN whose frames the transmit-time NIC filter may
//! drop against the same LAN scheduling every arrival.

use bytes::Bytes;
use netqos_sim::app::{DiscardSink, DiscardStats, EchoResponder, Mailbox};
use netqos_sim::builder::LanBuilder;
use netqos_sim::nic::NicCounters;
use netqos_sim::packet::{DISCARD_PORT, ECHO_PORT};
use netqos_sim::time::{SimDuration, SimTime};
use netqos_sim::world::LanStats;
use netqos_sim::{AppCtx, AppId, DeviceId, Ipv4Addr, Lan, PortIx, UdpApp, UdpDatagram};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn two_hosts() -> (
    Lan,
    DeviceId,
    DeviceId,
    Rc<RefCell<netqos_sim::app::DiscardStats>>,
) {
    let mut b = LanBuilder::new();
    let a = b.add_host("A", "10.0.0.1").unwrap();
    b.add_nic(a, "eth0", 100_000_000).unwrap();
    let d = b.add_host("B", "10.0.0.2").unwrap();
    b.add_nic(d, "eth0", 100_000_000).unwrap();
    b.connect((a, PortIx(0)), (d, PortIx(0))).unwrap();
    let (sink, handle) = DiscardSink::with_handle();
    b.install_app(d, Box::new(sink), Some(DISCARD_PORT))
        .unwrap();
    (b.build(), a, d, handle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a loss-free point-to-point link, every octet transmitted by A
    /// is received by B, and the payload arrives complete.
    #[test]
    fn octet_conservation_on_direct_link(
        sizes in prop::collection::vec(1usize..20_000, 1..20),
    ) {
        let (mut lan, a, d, handle) = two_hosts();
        let total: usize = sizes.iter().sum();
        for size in &sizes {
            lan.post_udp(a, 5000, "10.0.0.2".parse().unwrap(), DISCARD_PORT,
                         Bytes::from(vec![0u8; *size])).unwrap();
        }
        // Enough time for everything to drain (100 Mb/s link).
        lan.run_for(SimDuration::from_secs(60));
        let tx = lan.nic_counters(a, PortIx(0)).unwrap();
        let rx = lan.nic_counters(d, PortIx(0)).unwrap();
        prop_assert_eq!(tx.out_discards.value(), 0, "no drops expected");
        prop_assert_eq!(tx.out_octets.value(), rx.in_octets.value());
        prop_assert_eq!(handle.borrow().payload_bytes as usize, total);
        // Wire octets strictly exceed payload (headers + padding).
        prop_assert!(tx.out_octets.total() as usize > total);
    }

    /// Packet counters match: unicast frames out == unicast frames in.
    #[test]
    fn packet_count_conservation(
        n_datagrams in 1usize..40,
        size in 1usize..1400,
    ) {
        let (mut lan, a, d, _) = two_hosts();
        for _ in 0..n_datagrams {
            lan.post_udp(a, 5000, "10.0.0.2".parse().unwrap(), DISCARD_PORT,
                         Bytes::from(vec![0u8; size])).unwrap();
        }
        lan.run_for(SimDuration::from_secs(10));
        let tx = lan.nic_counters(a, PortIx(0)).unwrap();
        let rx = lan.nic_counters(d, PortIx(0)).unwrap();
        prop_assert_eq!(tx.out_ucast_pkts.value(), n_datagrams as u32);
        prop_assert_eq!(rx.in_ucast_pkts.value(), n_datagrams as u32);
    }

    /// The engine is deterministic: identical stimulus sequences produce
    /// identical counters and statistics.
    #[test]
    fn determinism_under_random_workload(
        sizes in prop::collection::vec(1usize..5_000, 1..15),
    ) {
        let run = |sizes: &[usize]| {
            let (mut lan, a, d, _) = two_hosts();
            for (k, size) in sizes.iter().enumerate() {
                lan.post_udp(a, 5000 + (k as u16 % 100), "10.0.0.2".parse().unwrap(),
                             DISCARD_PORT, Bytes::from(vec![0u8; *size])).unwrap();
            }
            lan.run_for(SimDuration::from_secs(5));
            (
                lan.nic_counters(a, PortIx(0)).unwrap(),
                lan.nic_counters(d, PortIx(0)).unwrap(),
                lan.stats(),
            )
        };
        prop_assert_eq!(run(&sizes), run(&sizes));
    }

    /// Counters wrap like real Counter32s: with a preloaded near-wrap
    /// value, the 32-bit view wraps while the shadow total keeps growing.
    #[test]
    fn preloaded_counters_wrap(extra in 1usize..50_000) {
        let (mut lan, a, _, _) = two_hosts();
        // 40 octets of headroom: even a minimum-size (64-octet) frame
        // crosses the wrap point.
        lan.preload_octet_counters(a, PortIx(0), 0, u32::MAX - 40).unwrap();
        lan.post_udp(a, 5000, "10.0.0.2".parse().unwrap(), DISCARD_PORT,
                     Bytes::from(vec![0u8; extra])).unwrap();
        lan.run_for(SimDuration::from_secs(10));
        let tx = lan.nic_counters(a, PortIx(0)).unwrap();
        prop_assert!(tx.out_octets.total() > u32::MAX as u64);
        prop_assert!(tx.out_octets.value() < u32::MAX - 40);
    }
}

// ----------------------------------------------------------------------
// The engine is its own oracle
// ----------------------------------------------------------------------
//
// On a loss-free cable the engine does not schedule the arrival of a
// unicast frame at a host NIC that will filter it; on a lossy cable it
// schedules every arrival. A cable whose loss is the smallest positive
// `f64` takes the second path and never corrupts a frame (the loss draw
// is a multiple of 2^-53, so only a draw of exactly 0.0 would), and
// nothing but that loss check draws from the engine's RNG. So every plan
// below is built twice — as planned, and with that loss on every cable —
// and driven by the same script: whatever can be observed must be equal.

/// Where every host's [`Mailbox`] listens, and the source port of every
/// datagram sent, so ECHO replies come back to it.
const MAILBOX_PORT: u16 = 6000;
/// A port nothing is bound to.
const UNBOUND_PORT: u16 = 1234;
/// Switch and hub ports, and so the trunks between them.
const INFRA_BPS: u64 = 100_000_000;
/// Host NIC speeds. At 1 Mb/s the 200 ms transmit queue holds 17 full
/// frames, so a burst of 20 or more overflows it; the same goes for a
/// hub's shared medium.
const SPEEDS: [u64; 3] = [1_000_000, 10_000_000, 100_000_000];

#[derive(Debug, Clone)]
enum Infra {
    Switch,
    /// A switch with a management address, ECHO and DISCARD behind it.
    Managed,
    Hub {
        medium_bps: u64,
    },
}

#[derive(Debug, Clone)]
struct HostPlan {
    speed: u64,
    /// Where `eth0` is cabled, modulo the infrastructure count plus one:
    /// the extra value leaves it uncabled.
    attach: usize,
    /// A second NIC: where it is cabled, and the host whose traffic is
    /// routed out of it.
    second: Option<(usize, usize)>,
}

/// Indices are reduced modulo what the plan has.
#[derive(Debug, Clone)]
enum Target {
    Host(usize),
    /// A managed switch's management address (the absent host when the
    /// plan has no managed switch).
    Mgmt(usize),
    /// A host with an address and no NIC: its ARP entry names a MAC that
    /// no NIC has, so frames to it are flooded everywhere and taken
    /// nowhere.
    Absent,
}

#[derive(Debug, Clone)]
enum Act {
    Broadcast { ip_len: usize, second_nic: bool },
    Send { to: Target, port: u16, size: usize },
}

#[derive(Debug, Clone)]
enum Op {
    /// `count` datagrams of `size` bytes posted at one instant.
    Send {
        from: usize,
        to: Target,
        port: u16,
        size: usize,
        count: usize,
    },
    /// Arms a timer of the host's scripted app, which then acts from
    /// inside the simulation.
    Timer {
        host: usize,
        after_us: u64,
        act: Act,
    },
    Advance {
        us: u64,
    },
}

#[derive(Debug, Clone)]
struct Plan {
    /// Every device but the first hangs under an earlier one (its index
    /// modulo its own position): a tree, so nothing loops.
    infra: Vec<(Infra, usize)>,
    hosts: Vec<HostPlan>,
    script: Vec<Op>,
}

/// The addresses a [`Target`] resolves to.
struct Addresses {
    hosts: Vec<Ipv4Addr>,
    mgmt: Vec<Ipv4Addr>,
    absent: Ipv4Addr,
}

impl Addresses {
    fn of(&self, target: &Target) -> Ipv4Addr {
        match *target {
            Target::Host(i) => self.hosts[i % self.hosts.len()],
            Target::Mgmt(i) if !self.mgmt.is_empty() => self.mgmt[i % self.mgmt.len()],
            Target::Mgmt(_) | Target::Absent => self.absent,
        }
    }
}

fn payload(size: usize) -> Bytes {
    Bytes::from(vec![0x5a; size])
}

type Fired = Rc<RefCell<Vec<(SimTime, u64)>>>;

/// Acts on a timer: the token is the index of the [`Op::Timer`] that
/// armed it.
struct Scripted {
    script: Rc<Vec<Op>>,
    addresses: Rc<Addresses>,
    fired: Fired,
}

impl UdpApp for Scripted {
    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, token: u64) {
        self.fired.borrow_mut().push((ctx.now(), token));
        let Op::Timer { act, .. } = &self.script[token as usize] else {
            panic!("token {token} is not a timer");
        };
        match act {
            Act::Broadcast { ip_len, second_nic } => {
                ctx.send_raw_broadcast(*ip_len, second_nic.then_some(PortIx(1)))
            }
            Act::Send { to, port, size } => {
                ctx.send_udp(MAILBOX_PORT, self.addresses.of(to), *port, payload(*size))
            }
        }
    }
}

struct HostEnd {
    dev: DeviceId,
    scripted: AppId,
    sink: Rc<RefCell<DiscardStats>>,
    inbox: Rc<RefCell<Vec<(SimTime, UdpDatagram)>>>,
    fired: Fired,
}

/// Everything observable at an instant that no in-flight frame can make
/// differ: every NIC's counters (their 64-bit totals) and what every app
/// saw, with arrival times.
#[derive(Debug, PartialEq)]
struct Observed {
    nics: Vec<Vec<NicCounters>>,
    sinks: Vec<DiscardStats>,
    inboxes: Vec<Vec<(SimTime, UdpDatagram)>>,
    fired: Vec<Vec<(SimTime, u64)>>,
}

struct World {
    lan: Lan,
    hosts: Vec<HostEnd>,
    mgmt_sinks: Vec<Rc<RefCell<DiscardStats>>>,
    addresses: Rc<Addresses>,
}

impl World {
    /// Builds the plan; with `every_arrival_scheduled`, every cable gets
    /// the loss that never loses.
    fn build(plan: &Plan, every_arrival_scheduled: bool) -> World {
        let mut b = LanBuilder::new();
        let addresses = Rc::new(Addresses {
            hosts: (0..plan.hosts.len())
                .map(|h| Ipv4Addr::new(10, 0, 0, h as u8 + 1))
                .collect(),
            mgmt: (plan.infra.iter().enumerate())
                .filter(|(_, (kind, _))| matches!(kind, Infra::Managed))
                .map(|(i, _)| Ipv4Addr::new(10, 0, 1, i as u8 + 1))
                .collect(),
            absent: Ipv4Addr::new(10, 0, 2, 1),
        });
        let script = Rc::new(plan.script.clone());

        let mut mgmt_sinks = Vec::new();
        let infra: Vec<DeviceId> = (plan.infra.iter().enumerate())
            .map(|(i, (kind, _))| {
                let name = format!("i{i}");
                match kind {
                    Infra::Switch => b.add_switch(&name, None).unwrap(),
                    Infra::Hub { medium_bps } => b.add_hub(&name, *medium_bps).unwrap(),
                    Infra::Managed => {
                        let ip = format!("10.0.1.{}", i + 1);
                        let dev = b.add_switch(&name, Some(&ip)).unwrap();
                        let (sink, stats) = DiscardSink::with_handle();
                        b.install_app(dev, Box::new(sink), Some(DISCARD_PORT))
                            .unwrap();
                        b.install_app(dev, Box::new(EchoResponder), Some(ECHO_PORT))
                            .unwrap();
                        mgmt_sinks.push(stats);
                        dev
                    }
                }
            })
            .collect();

        // One end of every cable, for `set_link_loss`.
        let mut cabled = Vec::new();
        let mut cable = |b: &mut LanBuilder, end: (DeviceId, PortIx), to: usize| {
            let port = b.add_nic(infra[to], "p", INFRA_BPS).unwrap();
            b.connect(end, (infra[to], port)).unwrap();
            cabled.push(end);
        };
        for (i, (_, parent)) in plan.infra.iter().enumerate().skip(1) {
            let uplink = b.add_nic(infra[i], "up", INFRA_BPS).unwrap();
            cable(&mut b, (infra[i], uplink), parent % i);
        }

        let mut hosts = Vec::new();
        for (h, host) in plan.hosts.iter().enumerate() {
            let dev = b
                .add_host_addr(&format!("h{h}"), addresses.hosts[h])
                .unwrap();
            let eth0 = b.add_nic(dev, "eth0", host.speed).unwrap();
            let at = host.attach % (infra.len() + 1);
            if at < infra.len() {
                cable(&mut b, (dev, eth0), at);
            }
            if let Some((at, via)) = host.second {
                let eth1 = b.add_nic(dev, "eth1", host.speed).unwrap();
                cable(&mut b, (dev, eth1), at % infra.len());
                let routed = addresses.hosts[via % plan.hosts.len()];
                b.add_route(dev, &routed.to_string(), eth1).unwrap();
            }
            let (sink, sink_stats) = DiscardSink::with_handle();
            let (mailbox, inbox) = Mailbox::with_handle();
            let fired = Fired::default();
            let scripted = Scripted {
                script: script.clone(),
                addresses: addresses.clone(),
                fired: fired.clone(),
            };
            b.install_app(dev, Box::new(sink), Some(DISCARD_PORT))
                .unwrap();
            b.install_app(dev, Box::new(EchoResponder), Some(ECHO_PORT))
                .unwrap();
            b.install_app(dev, Box::new(mailbox), Some(MAILBOX_PORT))
                .unwrap();
            let scripted = b.install_app(dev, Box::new(scripted), None).unwrap();
            hosts.push(HostEnd {
                dev,
                scripted,
                sink: sink_stats,
                inbox,
                fired,
            });
        }
        b.add_host_addr("absent", addresses.absent).unwrap();

        let mut lan = b.build();
        if every_arrival_scheduled {
            for (dev, port) in cabled {
                lan.set_link_loss(dev, port, f64::MIN_POSITIVE).unwrap();
            }
        }
        World {
            lan,
            hosts,
            mgmt_sinks,
            addresses,
        }
    }

    fn apply(&mut self, at: usize, op: &Op) {
        match op {
            Op::Send {
                from,
                to,
                port,
                size,
                count,
            } => {
                let from = self.hosts[from % self.hosts.len()].dev;
                let to = self.addresses.of(to);
                for _ in 0..*count {
                    self.lan
                        .post_udp(from, MAILBOX_PORT, to, *port, payload(*size))
                        .unwrap();
                }
            }
            Op::Timer { host, after_us, .. } => {
                let host = &self.hosts[host % self.hosts.len()];
                let after = SimDuration::from_micros(*after_us);
                self.lan
                    .post_timer(host.dev, host.scripted, after, at as u64)
                    .unwrap();
            }
            Op::Advance { us } => self.lan.run_for(SimDuration::from_micros(*us)),
        }
    }

    fn observed(&self) -> Observed {
        let lan = &self.lan;
        Observed {
            nics: (0..lan.device_count() as u32)
                .map(|dev| {
                    let nics = lan.nic_snapshots(DeviceId(dev)).unwrap();
                    nics.into_iter().map(|nic| nic.counters).collect()
                })
                .collect(),
            sinks: (self.hosts.iter().map(|h| &h.sink))
                .chain(&self.mgmt_sinks)
                .map(|s| *s.borrow())
                .collect(),
            inboxes: self
                .hosts
                .iter()
                .map(|h| h.inbox.borrow().clone())
                .collect(),
            fired: self
                .hosts
                .iter()
                .map(|h| h.fired.borrow().clone())
                .collect(),
        }
    }
}

/// Runs the plan on both engines and holds them equal: what can be
/// observed after every `Advance`, and once nothing is pending also
/// `LanStats` and the clock. Returns the filtering engine's final state.
fn both_engines_agree(plan: &Plan) -> (Observed, LanStats) {
    let mut filtering = World::build(plan, false);
    let mut scheduling = World::build(plan, true);
    for (at, op) in plan.script.iter().enumerate() {
        filtering.apply(at, op);
        scheduling.apply(at, op);
        if matches!(op, Op::Advance { .. }) {
            assert_eq!(
                filtering.observed(),
                scheduling.observed(),
                "after step {at} of {plan:#?}"
            );
        }
    }
    // Queues hold 200 ms each and the deepest plan chains a handful.
    for world in [&mut filtering, &mut scheduling] {
        world.lan.run_for(SimDuration::from_secs(10));
        assert_eq!(world.lan.pending_events(), 0);
    }
    let observed = filtering.observed();
    assert_eq!(observed, scheduling.observed(), "at the end of {plan:#?}");
    assert_eq!(
        filtering.lan.stats(),
        scheduling.lan.stats(),
        "at the end of {plan:#?}"
    );
    assert_eq!(scheduling.lan.stats().frames_dropped_loss, 0);
    assert_eq!(filtering.lan.now(), scheduling.lan.now());
    (observed, filtering.lan.stats())
}

fn target() -> impl Strategy<Value = Target> {
    prop_oneof![
        (0usize..64).prop_map(Target::Host),
        (0usize..64).prop_map(Target::Host),
        (0usize..64).prop_map(Target::Mgmt),
        Just(Target::Absent),
    ]
}

fn dst_port() -> impl Strategy<Value = u16> {
    prop::sample::select(vec![DISCARD_PORT, ECHO_PORT, MAILBOX_PORT, UNBOUND_PORT])
}

fn act() -> impl Strategy<Value = Act> {
    prop_oneof![
        (28usize..1500, any::<bool>())
            .prop_map(|(ip_len, second_nic)| Act::Broadcast { ip_len, second_nic }),
        (target(), dst_port(), 0usize..2000).prop_map(|(to, port, size)| Act::Send {
            to,
            port,
            size
        }),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let send = |size, count| {
        (0usize..64, target(), dst_port(), size, count).prop_map(|(from, to, port, size, count)| {
            Op::Send {
                from,
                to,
                port,
                size,
                count,
            }
        })
    };
    let advance = || (1u64..30_000).prop_map(|us| Op::Advance { us });
    prop_oneof![
        // Up to three fragments.
        send(0usize..3000, 1usize..2),
        send(0usize..3000, 1usize..2),
        // A burst past a 1 Mb/s queue limit.
        send(1000usize..1473, 20usize..40),
        (0usize..64, 0u64..5_000, act()).prop_map(|(host, after_us, act)| Op::Timer {
            host,
            after_us,
            act
        }),
        advance(),
        advance(),
    ]
}

fn plan() -> impl Strategy<Value = Plan> {
    let infra = prop_oneof![
        Just(Infra::Switch),
        Just(Infra::Managed),
        prop::sample::select(vec![1_000_000, 10_000_000])
            .prop_map(|medium_bps| Infra::Hub { medium_bps }),
    ];
    let host = (
        prop::sample::select(SPEEDS.to_vec()),
        0usize..64,
        prop::option::of((0usize..64, 0usize..64)),
        any::<bool>(),
    )
        .prop_map(|(speed, attach, second, multi_homed)| HostPlan {
            speed,
            attach,
            second: second.filter(|_| multi_homed),
        });
    (
        prop::collection::vec((infra, 0usize..64), 1..6),
        prop::collection::vec(host, 2..8),
        prop::collection::vec(op(), 1..14),
    )
        .prop_map(|(infra, hosts, script)| Plan {
            infra,
            hosts,
            script,
        })
}

proptest! {
    /// No frame the transmit-time filter drops would have changed a
    /// counter, a statistic, the clock or what an app sees.
    #[test]
    fn the_filtering_engine_equals_the_one_that_schedules_every_arrival(plan in plan()) {
        both_engines_agree(&plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The same property over enough plans to be CI's release-mode gate
    /// (`cargo test --release -p netqos-sim --test prop -- --ignored`).
    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn the_filtering_engine_equals_the_one_that_schedules_every_arrival_at_length(
        plan in plan(),
    ) {
        both_engines_agree(&plan);
    }
}

/// The cases the property must cover, each made to happen: a hub under a
/// switch, cascaded hubs, two stations of one hub talking, a multi-homed
/// host (the filter is per receiving NIC), a managed switch answering on
/// its management address, a unicast to a station no bridge has heard
/// from (resolved, not flooded), a MAC nobody has and a station no cable
/// reaches (both flooded), broadcasts, bursts past a queue and a medium
/// limit, and an app sending to its own host (dispatch re-entered while
/// actions are being applied).
#[test]
fn both_engines_agree_on_a_tour_of_the_named_cases() {
    let host = |speed, attach| HostPlan {
        speed,
        attach,
        second: None,
    };
    let send = |from, to, port| Op::Send {
        from,
        to,
        port,
        size: 600,
        count: 1,
    };
    let burst = |from, to| Op::Send {
        from,
        to: Target::Host(to),
        port: DISCARD_PORT,
        size: 1400,
        count: 40,
    };
    let timer = |host, act| Op::Timer {
        host,
        after_us: 100,
        act,
    };
    let settle = || Op::Advance { us: 20_000 };
    let plan = Plan {
        infra: vec![
            (Infra::Managed, 0),
            (
                Infra::Hub {
                    medium_bps: 10_000_000,
                },
                0,
            ), // i1: a hub under the switch
            (
                Infra::Hub {
                    medium_bps: 1_000_000,
                },
                1,
            ), // i2: a hub under that hub
            (Infra::Switch, 0), // i3
        ],
        hosts: vec![
            host(100_000_000, 0), // h0 on the managed switch
            host(10_000_000, 1),  // h1, h2: two stations of hub i1
            host(10_000_000, 1),
            host(10_000_000, 2),  // h3 on the cascaded hub
            host(100_000_000, 3), // h4 on the second switch
            HostPlan {
                // h5: eth0 on switch i3, eth1 on hub i1, h1 routed via eth1
                speed: 10_000_000,
                attach: 3,
                second: Some((1, 1)),
            },
            host(1_000_000, 3),  // h6: a 1 Mb/s NIC
            host(10_000_000, 4), // h7: uncabled
        ],
        script: vec![
            send(1, Target::Host(2), DISCARD_PORT), // same hub, nothing learned yet
            settle(),
            send(1, Target::Host(6), DISCARD_PORT), // never heard: crosses i0 and i3 unflooded
            settle(),
            send(2, Target::Host(1), ECHO_PORT), // the switch above has learned h1
            settle(),
            send(0, Target::Host(3), DISCARD_PORT), // unknown to the switch: resolved
            settle(),
            send(3, Target::Host(0), ECHO_PORT), // known: forwarded
            settle(),
            send(0, Target::Mgmt(0), ECHO_PORT), // the managed switch answers
            send(4, Target::Mgmt(0), DISCARD_PORT),
            settle(),
            send(4, Target::Absent, DISCARD_PORT),
            send(0, Target::Host(5), DISCARD_PORT), // resolved toward eth0, h5's ARP MAC
            send(5, Target::Host(1), UNBOUND_PORT), // leaves h5 by eth1
            send(0, Target::Host(7), DISCARD_PORT), // flooded toward nobody
            send(7, Target::Host(0), DISCARD_PORT), // leaves by no cable
            settle(),
            timer(
                3,
                Act::Broadcast {
                    ip_len: 60,
                    second_nic: false,
                },
            ),
            timer(
                5,
                Act::Broadcast {
                    ip_len: 300,
                    second_nic: true,
                },
            ),
            timer(
                1,
                Act::Send {
                    to: Target::Host(1), // its own host, echoed to its own mailbox
                    port: ECHO_PORT,
                    size: 10,
                },
            ),
            timer(
                2,
                Act::Send {
                    to: Target::Host(4),
                    port: ECHO_PORT,
                    size: 2_000, // two fragments
                },
            ),
            settle(),
            burst(6, 0), // past h6's 1 Mb/s transmit queue
            burst(0, 3), // past hub i2's 1 Mb/s medium
            Op::Advance { us: 50_000 },
            send(1, Target::Host(2), DISCARD_PORT), // into the backlog
        ],
    };
    let (observed, stats) = both_engines_agree(&plan);
    // Each of i0 and i3 floods the two broadcasts and the two unicasts
    // nothing resolves (the absent host, h7's uncabled NIC); every other
    // unicast, to a station heard from or not, is forwarded.
    assert_eq!(stats.frames_flooded, 2 * 4);
    assert!(stats.frames_forwarded > 0);
    assert!(stats.frames_dropped_queue > 0, "{stats:?}");
    assert!(stats.frames_dropped_medium > 0, "{stats:?}");
    assert_eq!(stats.datagrams_unbound, 1);
    assert_eq!(stats.timers_fired, 4);
    // Echoes: the managed switch to h0, h1 to itself, h1 and (in two
    // fragments) h4 to h2, h0 to h3.
    let heard: Vec<usize> = observed.inboxes.iter().map(Vec::len).collect();
    assert_eq!(heard, [1, 1, 3, 1, 0, 0, 0, 0]);
    assert_eq!(
        observed.sinks.last().unwrap().datagrams,
        1,
        "managed switch"
    );
    // h5's second NIC was offered the frames addressed to its first and
    // took none of them. Hosts come after the infrastructure, in order.
    let h5_eth1 = &observed.nics[plan.infra.len() + 5][1];
    assert_eq!(h5_eth1.in_ucast_pkts.total(), 0);
    assert!(h5_eth1.in_nucast_pkts.total() > 0);
    assert_eq!(h5_eth1.out_ucast_pkts.total(), 1);
}
