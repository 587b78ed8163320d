//! Allocation budget of one steady-state poll: what the public
//! signatures force (the request buffer, the response buffer, the vector
//! of bindings, the `ifDescr` strings, the snapshot's vectors) and
//! nothing per name, per value or per TLV — for the codec and agent
//! alone, and for a whole `SimNetwork::poll_device`.

use netqos_monitor::poll::{parse_snapshot, poll_oids};
use netqos_monitor::simnet::{SimNetwork, SimNetworkOptions};
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

/// Allocations of one steady-state `SimNetwork::poll_device` of a
/// 1-interface host: the poll above plus what carrying two datagrams
/// through the simulator costs. With `agent_jitter_mean` the agent parks
/// its answer and sends it from a timer (`on_datagram` → `pending` →
/// `on_timer`), as every agent of `qosbench`'s `lan-wide` does.
fn sim_poll_allocations(agent_jitter_mean: Option<SimDuration>) -> u64 {
    const SPEC: &str = r#"
        host L  { address 10.0.0.1;  snmp community "public"; interface eth0 { speed 100Mbps; } }
        host S1 { address 10.0.0.11; snmp community "public"; interface hme0 { speed 100Mbps; } }
        device sw switch { address 10.0.0.100; snmp community "public"; speed 100Mbps;
                           interface p1; interface p2; }
        connection L.eth0 <-> sw.p1;
        connection S1.hme0 <-> sw.p2;
    "#;
    let model = netqos_spec::parse_and_validate(SPEC).unwrap();
    let options = SimNetworkOptions {
        agent_jitter_mean,
        ..SimNetworkOptions::default()
    };
    let mut net = SimNetwork::from_model(model, options).unwrap();
    let s1 = net.model().topology.node_by_name("S1").unwrap();
    // Warm up: the switch learns both addresses, queues and the RTT
    // baseline reach their steady size.
    for _ in 0..8 {
        net.poll_device(s1).unwrap();
    }
    allocations_in(|| {
        net.poll_device(s1).unwrap();
    })
}

#[test]
fn a_poll_through_the_simulator_stays_within_the_parent_commits_count() {
    let polled = sim_poll_allocations(None);
    println!("allocations per simulated poll: {polled}");
    assert!(
        polled <= SIM_POLL_BUDGET,
        "{polled} allocations, budget {SIM_POLL_BUDGET}"
    );
}

#[test]
fn a_poll_answered_from_the_agents_timer_stays_within_the_same_count() {
    let polled = sim_poll_allocations(Some(SimDuration::from_millis(1)));
    println!("allocations per simulated poll, jittered agent: {polled}");
    assert!(
        polled <= SIM_POLL_BUDGET,
        "{polled} allocations, budget {SIM_POLL_BUDGET}"
    );
}

/// What one such poll measures, with and without jitter: the four of the
/// parse (bindings, samples, the `ifDescr` octets and the string made of
/// them) and four for carrying the exchange — the request
/// copied once into the `Bytes` that travels (`Transport::exchange` lends
/// a slice, and the manager keeps its encode buffer), the `Vec` the agent
/// answers with, the `Bytes` made of it, and the `Vec` `exchange` must
/// return. Nothing per hop, per event or per app callback: frames share
/// their payload, a payload that fits one packet is not copied to be
/// "fragmented", and callbacks push into a buffer the engine lends them.
/// (It was 13, and 14 with a jittered agent, before the engine stopped
/// allocating per callback and the `bytes` shim per `slice` and `from`;
/// 14 before the simulator was a `Transport`, and 9 before the parse
/// counted columns on the stack.)
const SIM_POLL_BUDGET: u64 = 8;

/// Storing a device's first snapshot, the counter baseline, takes no
/// allocation: the previous-poll table has a slot for every node from
/// the start. (As a `HashMap` it grew, and rehashed, as devices were
/// first seen.)
#[test]
fn ingesting_a_devices_first_snapshot_allocates_nothing() {
    use netqos_monitor::poll::{DeviceSnapshot, IfSample};
    use netqos_monitor::NetworkMonitor;
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
