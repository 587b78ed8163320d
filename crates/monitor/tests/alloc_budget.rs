//! Allocation budget of one steady-state poll. Through the simulator,
//! `SimNetwork::poll_nodes` decodes each answer into a reused snapshot
//! and allocates only the datagrams it carries, whatever the device's
//! interface count; `poll_device` adds the owned snapshot it returns. The
//! codec and agent alone, through the public owned-value path, allocate
//! what its signatures force (the request buffer, the response buffer,
//! the vector of bindings, the `ifDescr` strings, the snapshot's vectors)
//! and nothing per name, per value or per TLV. A steady service tick
//! allocates what its polls carry and nothing after them; traced, it adds
//! its trace and nothing to profile it.

use netqos_monitor::poll::{parse_snapshot, poll_oids};
use netqos_monitor::service::{MonitoringService, ServiceConfig, SURVEY_TICKS};
use netqos_monitor::simnet::{SimNetwork, SimNetworkOptions};
use netqos_monitor::{Network, NetworkMonitor};
use netqos_sim::time::SimDuration;
use netqos_snmp::mib2::{interfaces, system, IfEntry, SystemInfo};
use netqos_snmp::{client, ScalarMib, SnmpAgent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while `Some`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` of a `Copy` type, so touching it neither allocates
// nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// Allocations of one poll of a device with `if_count` interfaces, after
/// a warm-up poll.
fn poll_cycle_allocations(if_count: u32) -> u64 {
    let mut mib = ScalarMib::new();
    system::install(&mut mib, &SystemInfo::new("device"), 4_242);
    let entries: Vec<IfEntry> = (1..=if_count)
        .map(|i| {
            IfEntry::ethernet(
                i,
                &format!("port{i}"),
                100_000_000,
                [2, 0, 0, 0, 0, i as u8],
            )
        })
        .collect();
    interfaces::install(&mut mib, &entries);
    let oids = poll_oids(if_count);
    let mut agent = SnmpAgent::new("public");

    let mut cycle = |request_id| {
        let request = client::build_get("public", request_id, &oids).unwrap();
        let response = agent.handle(&request, &mib).unwrap();
        let parsed = client::parse_response(&response).unwrap();
        assert_eq!(parsed.request_id, request_id);
        let snapshot = parse_snapshot(&parsed.bindings, if_count).unwrap();
        assert_eq!(snapshot.interfaces.len(), if_count as usize);
    };
    cycle(1);
    allocations_in(|| cycle(2))
}

#[test]
fn a_poll_allocates_what_its_signatures_force() {
    // Request, response, bindings, samples, and per interface the
    // `ifDescr` octets and the string made of them; the column counts of
    // up to 64 interfaces are on the stack.
    let forced = |if_count: u64| 4 + 2 * if_count;
    let host = poll_cycle_allocations(1);
    assert!(
        (forced(1)..=9).contains(&host),
        "1 interface: {host} allocations"
    );
    let switch = poll_cycle_allocations(9);
    assert!(
        (forced(9)..=35).contains(&switch),
        "9 interfaces: {switch} allocations"
    );
    println!("allocations per poll: {host} (1 interface), {switch} (9 interfaces)");
}

/// A monitor host `L` and two single-NIC hosts `S1` and `S2` on a switch
/// of `ports` ports, with or without agent jitter. With
/// `agent_jitter_mean` each agent parks its answer and sends it from a
/// timer (`on_datagram` → `pending` → `on_timer`), as every agent of
/// `qosbench`'s `lan-wide` does.
fn network(ports: u32, agent_jitter_mean: Option<SimDuration>) -> (SimNetwork, NetworkMonitor) {
    let interfaces: String = (1..=ports).map(|i| format!("interface p{i}; ")).collect();
    let spec = format!(
        r#"
        host L  {{ address 10.0.0.1;  snmp community "public"; interface eth0 {{ speed 100Mbps; }} }}
        host S1 {{ address 10.0.0.11; snmp community "public"; interface hme0 {{ speed 100Mbps; }} }}
        host S2 {{ address 10.0.0.12; snmp community "public"; interface hme0 {{ speed 100Mbps; }} }}
        device sw switch {{ address 10.0.0.100; snmp community "public"; speed 100Mbps; {interfaces} }}
        connection L.eth0 <-> sw.p1;
        connection S1.hme0 <-> sw.p2;
        connection S2.hme0 <-> sw.p3;
        "#
    );
    let model = netqos_spec::parse_and_validate(&spec).unwrap();
    let monitor = NetworkMonitor::new(model.topology.clone());
    let options = SimNetworkOptions {
        agent_jitter_mean,
        ..SimNetworkOptions::default()
    };
    (SimNetwork::from_model(model, options).unwrap(), monitor)
}

/// Allocations of one steady-state `SimNetwork::poll_nodes` of the node
/// `name`, its snapshot ingested: eight warm-up rounds a simulated second
/// apart (the switch learns both addresses, queues and the RTT baseline
/// reach their steady size, and the poll's snapshot has its shape), then
/// the counted one.
fn steady_poll_allocations(name: &str, ports: u32, jitter: Option<SimDuration>) -> u64 {
    let (mut net, mut monitor) = network(ports, jitter);
    let node = net.model().topology.node_by_name(name).unwrap();
    let mut round = || {
        let next = net.lan.now() + SimDuration::from_secs(1);
        net.run_until(next);
        allocations_in(|| {
            assert_eq!(net.poll_nodes(&[node], &mut monitor).unwrap(), 1);
        })
    };
    for _ in 0..8 {
        round();
    }
    let polled = round();
    assert_eq!(monitor.polls_ingested(), 9);
    polled
}

/// What a steady-state poll of any device costs: the datagrams it carries
/// and nothing else — the request copied once into the `Bytes` that
/// travels (`Transport::exchange` lends a slice, and the manager keeps its
/// encode buffer), the agent's answer copied once from the buffer it keeps
/// into the `Bytes` that travels back, and the `Vec` `exchange` must
/// return. The answer is decoded straight into the poll plan's snapshot,
/// which the ingest swaps with the device's previous one, so neither the
/// bindings nor the `ifDescr` strings nor the snapshot are allocated, and
/// the count does not grow with the device's interfaces. Nothing per hop,
/// per event or per app callback either: frames share their payload, a
/// payload that fits one packet is not copied to be "fragmented", and
/// callbacks push into a buffer the engine lends them. (It was 8 for a
/// host and 24 for a 9-port switch while each poll decoded into a vector
/// of bindings and a fresh snapshot; 13, and 14 with a jittered agent,
/// before the engine stopped allocating per callback.)
const SIM_POLL_BUDGET: u64 = 3;

#[test]
fn a_steady_poll_through_the_simulator_allocates_only_its_datagrams() {
    for jitter in [None, Some(SimDuration::from_millis(1))] {
        for (name, ports) in [("S1", 3), ("sw", 9)] {
            let polled = steady_poll_allocations(name, ports, jitter);
            println!("allocations per steady poll of {name}, jitter {jitter:?}: {polled}");
            assert_eq!(polled, SIM_POLL_BUDGET, "{name}, jitter {jitter:?}");
        }
    }
}

/// `poll_device` hands back an owned snapshot: the datagrams, then the
/// snapshot's vector and the one `ifDescr` string of a host.
#[test]
fn an_owned_poll_allocates_its_datagrams_and_its_snapshot() {
    let (mut net, _) = network(3, None);
    let s1 = net.model().topology.node_by_name("S1").unwrap();
    for _ in 0..8 {
        net.poll_device(s1).unwrap();
    }
    let polled = allocations_in(|| {
        net.poll_device(s1).unwrap();
    });
    assert_eq!(polled, SIM_POLL_BUDGET + 2);
}

/// A device's first poll keeps its snapshot as the device's baseline:
/// the poll itself costs its datagrams, and the next poll of that shape
/// parses into a fresh snapshot — the host's vector and string — so a
/// first poll costs 5 all told, as `poll_device` does. (The device is
/// known to the simulator beforehand: the switch has learned it and its
/// RTT baseline exists, which a first contact pays for on its own.)
#[test]
fn a_devices_first_poll_costs_the_snapshot_it_keeps() {
    let (mut net, mut monitor) = network(3, None);
    let s1 = net.model().topology.node_by_name("S1").unwrap();
    let s2 = net.model().topology.node_by_name("S2").unwrap();
    net.poll_device(s2).unwrap();
    let mut poll = |node| {
        let next = net.lan.now() + SimDuration::from_secs(1);
        net.run_until(next);
        allocations_in(|| {
            assert_eq!(net.poll_nodes(&[node], &mut monitor).unwrap(), 1);
        })
    };
    for _ in 0..8 {
        poll(s1);
    }
    let first = poll(s2);
    let next = poll(s1);
    assert_eq!((first, next), (SIM_POLL_BUDGET, SIM_POLL_BUDGET + 2));
    assert_eq!(poll(s2), SIM_POLL_BUDGET);
}

/// Storing a device's first snapshot, the counter baseline, takes no
/// allocation: the previous-poll table has a slot for every node from
/// the start. (As a `HashMap` it grew, and rehashed, as devices were
/// first seen.)
#[test]
fn ingesting_a_devices_first_snapshot_allocates_nothing() {
    use netqos_monitor::poll::{DeviceSnapshot, IfSample};
    use netqos_topology::{NetworkTopology, NodeKind};

    let mut topology = NetworkTopology::new();
    let nodes: Vec<_> = (0..64)
        .map(|i| {
            let node = topology.add_node(&format!("h{i}"), NodeKind::Host).unwrap();
            topology.add_interface(node, "eth0", 100_000_000).unwrap();
            node
        })
        .collect();
    let mut monitor = NetworkMonitor::new(topology);
    for node in nodes {
        let snapshot = DeviceSnapshot {
            uptime_ticks: 100,
            interfaces: vec![IfSample {
                if_index: 1,
                descr: "eth0".into(),
                speed_bps: 100_000_000,
                in_octets: 0,
                out_octets: 0,
                in_ucast_pkts: 0,
                out_nucast_pkts: 0,
            }],
        };
        let ingested = allocations_in(|| {
            assert!(!monitor.ingest(node, snapshot).unwrap());
        });
        assert_eq!(ingested, 0, "first snapshot of {node:?}");
    }
}

const TWO_SWITCH: &str = include_str!("../../../specs/two-switch.spec");

/// The two-switch testbed's service, monitored from `console`, after a
/// warm-up long enough for every device to have been polled twice: every
/// poll of a counted tick is a repeat poll (and, traced, every phase has
/// been seen and the flight ring has wrapped).
fn steady_two_switch_service(config: ServiceConfig, tracing: bool) -> MonitoringService {
    let options = SimNetworkOptions {
        monitor_host: "console".into(),
        ..SimNetworkOptions::default()
    };
    let mut svc = MonitoringService::from_spec(TWO_SWITCH, options, config).unwrap();
    svc.set_tracing(tracing);
    svc.run_ticks(2 * SURVEY_TICKS + 2).unwrap();
    svc
}

/// One tick's allocations and the polls it made.
fn counted_tick(svc: &mut MonitoringService) -> (u64, u64) {
    let polls = svc.telemetry().polls.clone();
    let before = polls.get();
    let allocated = allocations_in(|| {
        assert!(
            svc.tick().unwrap().is_empty(),
            "a steady tick has no QoS events"
        );
    });
    (allocated, polls.get() - before)
}

/// After the poll, a steady tick allocates nothing: the rows, the alert
/// context and the `/snapshot` and `/alerts` documents are rewritten in
/// place, the alert engine keys its state in buffers it keeps, and the
/// tick event the default sink filters is never built. (It was 3 per
/// poll plus ≈ 700 on `lan-wide`'s eight paths, ≈ 14 a row in evaluate
/// and ≈ 75 a scope in detect.)
#[test]
fn a_steady_service_tick_allocates_only_what_its_polls_carry() {
    let mut svc = steady_two_switch_service(ServiceConfig::default(), false);
    for _ in 0..12 {
        let (allocated, polls) = counted_tick(&mut svc);
        assert_eq!(polls, 7, "every device, every tick");
        assert_eq!(allocated, SIM_POLL_BUDGET * polls);
    }
    // The tick did its observing: a row per qospath with its bottleneck
    // and its truth, published, and an alert document.
    let rows = svc.rows();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.bottleneck.contains(" <-> ")));
    assert!(rows.iter().all(|r| r.truth_used_bps.is_some()), "{rows:?}");
    let snapshot = svc.live().snapshot_json();
    assert!(snapshot.contains("\"name\":\"archiving\""), "{snapshot}");
    assert!(svc.live().alerts_json().starts_with("{\"tick\":"));
}

/// Allocations a steady traced two-switch tick adds to its polls: the
/// spans' attributes, the cycle's event lines and samples, and the flight
/// cycle that files them.
const TRACE_BUDGET: u64 = 138;

/// A steady traced tick allocates its trace and nothing to profile it:
/// the phase histograms' handles are cached and `/profile` folds the ring
/// when asked.
#[test]
fn a_steady_traced_tick_allocates_its_trace_and_nothing_for_the_profile() {
    let mut svc = steady_two_switch_service(ServiceConfig::default(), true);
    for _ in 0..12 {
        let (allocated, polls) = counted_tick(&mut svc);
        assert_eq!(polls, 7, "every device, every tick");
        assert_eq!(allocated, SIM_POLL_BUDGET * polls + TRACE_BUDGET);
    }
    assert_eq!(svc.flight().len(), svc.flight().capacity());
}

/// Histograms in `registry` and their counts.
fn histogram_counts(registry: &netqos_telemetry::Registry) -> Vec<(String, u64)> {
    let mut counts = Vec::new();
    registry.visit_histograms(|name, h| counts.push((name.to_string(), h.count())));
    counts
}

/// With a long-term store, a steady tick that does not flush adds to its
/// polls one block per histogram that moved — the delta point the store
/// keeps — and nothing for the rows' series, whose names are built once,
/// nor for the counters' and gauges' samples.
#[test]
fn with_a_store_a_steady_tick_adds_only_its_histogram_points() {
    const SAVE_EVERY: u64 = 8;
    let dir = std::env::temp_dir().join(format!("netqos-alloc-lts-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig {
        lts_dir: Some(dir.clone()),
        baseline_save_ticks: SAVE_EVERY,
        ..ServiceConfig::default()
    };
    let mut svc = steady_two_switch_service(config, false);
    assert!(svc.lts_enabled(), "{:?}", svc.lts_open_warning());
    let mut counted = 0;
    while counted < 12 {
        let before = histogram_counts(svc.registry());
        let (allocated, polls) = counted_tick(&mut svc);
        if svc.telemetry().ticks.get().is_multiple_of(SAVE_EVERY) {
            continue; // a flush writes files
        }
        let after = histogram_counts(svc.registry());
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
        assert_eq!(moved, 2, "poll round trips and tick durations: {after:?}");
        assert_eq!(allocated, SIM_POLL_BUDGET * polls + moved);
        counted += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
}
