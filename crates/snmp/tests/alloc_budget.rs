//! What an agent's MIB holds, and what answering from it may take: a
//! one-interface host's MIB and a 9-port switch's stay within byte
//! budgets, a GetBulk walk of a switch with 10 000 learned stations stops
//! at the response limit instead of building the whole answer, a
//! repeated Get allocates nothing on either side and `get_many` only
//! what it hands back, and (`#[ignore]`d, release mode) that switch's
//! MIB builds in well under a second.

use netqos_snmp::agent::decode_response;
use netqos_snmp::client::SnmpClient;
use netqos_snmp::mib2::{bridge, interfaces, system, FdbEntry, IfEntry, SystemInfo};
use netqos_snmp::transport::{FnTransport, LoopbackTransport};
use netqos_snmp::value::ValueRef;
use netqos_snmp::{client, ErrorStatus, MibView, Oid, ScalarMib, SnmpAgent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Bytes this thread holds (allocated less freed) and the most it
    /// held, while `Some`.
    static HEAP: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
    /// Allocations and reallocations this thread made, while `Some`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

fn track(delta: isize) {
    HEAP.with(|h| {
        if let Some((live, peak)) = h.get() {
            h.set(Some((live + delta, peak.max(live + delta))));
        }
    });
}

struct Tracking;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally is a `const`-initialised
// thread-local `Cell` of a `Copy` type, so touching it neither allocates
// nor runs a destructor.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // A moving realloc holds both blocks for a moment.
        track(new_size as isize);
        track(-(layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// What `f` returns, the bytes of it still live afterwards, and the most
/// `f` held at once.
fn heap_of<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    HEAP.with(|h| h.set(Some((0, 0))));
    let out = f();
    let (live, peak) = HEAP.with(|h| h.replace(None)).expect("tracking was on");
    (out, live, peak)
}

/// How many allocations `f` makes.
fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// The MIB of a host with one interface, as `qosbench`'s `agents-direct`
/// builds each of its 1 005 agents.
fn host_mib() -> ScalarMib {
    let mut mib = ScalarMib::new();
    system::install(&mut mib, &SystemInfo::new("h1-1"), 4_242);
    let eth0 = IfEntry::ethernet(1, "eth0", 100_000_000, [2, 0, 0, 0, 0, 0]);
    interfaces::install(&mut mib, &[eth0]);
    mib
}

/// A switch with `ports` ports that has learned `stations` MAC addresses,
/// handed to `bridge::install` out of MIB order.
fn switch_mib(ports: u32, stations: u32) -> ScalarMib {
    let mut mib = ScalarMib::new();
    system::install(&mut mib, &SystemInfo::new("core"), 4_242);
    let ifaces: Vec<IfEntry> = (1..=ports)
        .map(|i| IfEntry::ethernet(i, &format!("p{i}"), 100_000_000, [2, 0, 0, 1, 0, i as u8]))
        .collect();
    interfaces::install(&mut mib, &ifaces);
    let fdb: Vec<FdbEntry> = (0..stations)
        .map(|i| {
            let scrambled = i.wrapping_mul(0x9E37_79B9).to_be_bytes();
            FdbEntry {
                mac: [2, 0, scrambled[0], scrambled[1], scrambled[2], scrambled[3]],
                port: 1 + i % ports,
            }
        })
        .collect();
    bridge::install(&mut mib, ports, &fdb);
    mib
}

#[test]
fn a_hosts_mib_holds_little_more_than_its_entries() {
    let (mib, live, peak) = heap_of(host_mib);
    assert_eq!(mib.len(), 29);
    println!(
        "one-interface host: {} entries, {live} B live, {peak} B peak",
        mib.len()
    );
    assert!(
        live <= HOST_MIB_BUDGET,
        "{live} B live, budget {HOST_MIB_BUDGET} B"
    );
}

/// The 8 names no row holds are 704 B (88 B each: a 56-byte name and a
/// 32-byte value), the interface's row of 21 cells 672 B (32 B each),
/// and the strings and the boxed `sysObjectID` the values own 124 B:
/// 1 500 B. With every cell under its own name the MIB held 2 676 B, and
/// as a `BTreeMap` 5 140 B.
const HOST_MIB_BUDGET: isize = 1_700;

#[test]
fn a_switchs_mib_holds_its_rows_not_a_name_per_cell() {
    let (mib, live, _) = heap_of(|| switch_mib(9, 0));
    assert_eq!(mib.len(), 7 + 1 + 21 * 9 + 1);
    println!("9-port switch: {} entries, {live} B live", mib.len());
    assert!(
        live <= SWITCH_MIB_BUDGET,
        "{live} B live, budget {SWITCH_MIB_BUDGET} B"
    );
}

/// A switch with 9 ports and no learned station, the size of
/// `agents-direct`'s site switches: 9 names no row holds (792 B), 9 rows
/// (6 048 B) and the strings (186 B), 7 026 B. With every cell under its
/// own name the MIB held 17 610 B.
const SWITCH_MIB_BUDGET: isize = 8_000;

#[test]
fn a_get_bulk_walk_of_a_large_bridge_stops_at_the_response_limit() {
    let mib = switch_mib(26, 10_000);
    let mut agent = SnmpAgent::new("public");
    // Sixty names to step from, each as often as it takes.
    let names = vec![Oid::from([1, 3]); 60];
    let request = client::build_get_bulk("public", 7, 0, i32::MAX as u32, &names).unwrap();
    assert_eq!(request.len(), 455);
    let view = Stepped {
        mib: &mib,
        steps: Cell::new(0),
    };
    let (response, _, peak) = heap_of(|| agent.handle(&request, &view));
    let response = response.expect("an answer");
    let pdu = decode_response(&response).unwrap();
    assert_eq!(pdu.error_status, ErrorStatus::TooBig);
    assert_eq!(pdu.request_id, 7);
    assert!(pdu.bindings.is_empty());
    let steps = view.steps.get();
    println!(
        "GetBulk of 60 x 1.3 against {} entries: {} B reply, {peak} B peak, {steps} steps",
        mib.len(),
        response.len()
    );
    assert!(
        peak < BULK_PEAK_BUDGET,
        "{peak} B peak, budget {BULK_PEAK_BUDGET} B"
    );
    // A step past the limit cannot change the reply; walking every cursor
    // to the end of the MIB would take 60 x 30 555.
    assert!(steps < 10_000, "{steps} steps");
}

/// A MIB that counts the `next_after` steps taken through it.
struct Stepped<'a> {
    mib: &'a ScalarMib,
    steps: Cell<usize>,
}

impl MibView for Stepped<'_> {
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>> {
        self.mib.get(oid)
    }

    fn next_after(&self, oid: &Oid) -> Option<(Cow<'_, Oid>, ValueRef<'_>)> {
        self.steps.set(self.steps.get() + 1);
        self.mib.next_after(oid)
    }
}

/// The answer grows to just past the 65 507-byte limit, and its buffer
/// moves once more while it does (measured: 137 344 B). An agent that
/// builds the whole answer before it compares peaks at 136 MB here.
const BULK_PEAK_BUDGET: isize = 256 * 1024;

/// The names a monitor polls a one-interface host for: `sysUpTime`, then
/// six `ifTable` columns of interface 1.
fn host_poll() -> Vec<Oid> {
    let mut names = vec![system::sys_uptime_instance()];
    for column in [2, 5, 10, 16, 11, 18] {
        names.push(interfaces::instance_oid(column, 1));
    }
    names
}

/// A Get's names are worked out once per shape and thread: the manager
/// keeps the binding list it encoded, the agent the names it decoded.
/// A shape's first sighting allocates those; a repeat allocates nothing,
/// and neither does a new shape once the memos are full: it is passed
/// over, or replaces the oldest one in that one's buffers, which hold it
/// when it is no larger.
#[test]
fn a_repeated_get_allocates_nothing_and_a_new_shape_a_stated_few() {
    // The process-wide codec counters are resolved on a first decode.
    netqos_snmp::telemetry::codec();
    // A thread of its own, so that both memos start empty.
    std::thread::spawn(|| {
        let mib = host_mib();
        let names = host_poll();
        let mut manager = client::Manager::default();
        let mut agent = SnmpAgent::new("public");
        let mut answer = Vec::with_capacity(1024);
        let mut poll = |id, names: &[Oid]| {
            allocations_in(|| {
                let request = manager.encode_get("public", id, names).unwrap();
                assert!(agent.handle_into(request, &mib, &mut answer));
            })
        };
        assert_eq!(poll(1, &names), FIRST_SIGHTING_ON_A_THREAD);
        assert_eq!(poll(2, &names), 0, "a repeat");
        for (id, shorter) in (3..).zip([6, 5, 4]) {
            assert_eq!(poll(id, &names[..shorter]), NEW_SHAPE, "{shorter} names");
            assert_eq!(poll(id + 10, &names[..shorter]), 0, "a repeat");
        }
        assert_eq!(poll(20, &names), 0, "four shapes held: the first is");
        // A fifth shape is passed over, and then replaces the first in its
        // buffers.
        for id in 21..26 {
            assert_eq!(poll(id, &names[..3]), 0, "a fifth shape");
        }
        let decoded = decode_response(&answer).unwrap();
        assert_eq!(decoded.request_id, 25);
        assert_eq!(decoded.bindings.len(), 3);
    })
    .join()
    .unwrap();
}

/// A thread's first Get: the manager's request buffer; the manager's memo
/// (its four entries, then the shape's names and binding list); the
/// agent's memo (its four entries, then the shape's list bytes, names and
/// name encodings).
const FIRST_SIGHTING_ON_A_THREAD: u64 = 1 + 3 + 4;

/// A new shape while the memos have room: its names and binding list on
/// the manager's side, its list bytes, names and name encodings on the
/// agent's.
const NEW_SHAPE: u64 = 2 + 3;

/// A repeated `get_many` reads its answer against the names it asked:
/// it allocates the answer the transport hands back, the bindings vector
/// once, for as many bindings as it asked, and the one value that owns
/// its bytes, `ifDescr`. Names the answer echoes are copied from those
/// asked, so no name is built; an answer longer than the request grows
/// the vector, and reads whole.
#[test]
fn a_repeated_get_many_allocates_the_answer_the_bindings_and_the_descr() {
    netqos_snmp::telemetry::codec();
    std::thread::spawn(|| {
        let names = host_poll();
        let loopback = LoopbackTransport::new(SnmpAgent::new("public"), host_mib());
        let mut client = SnmpClient::new(loopback, "public");
        client.get_many(&names).unwrap();
        let mut bindings = Vec::new();
        let allocations = allocations_in(|| bindings = client.get_many(&names).unwrap());
        assert_eq!(allocations, GET_MANY_ALLOCATIONS);
        assert_eq!(bindings.capacity(), names.len());
        let echoed: Vec<&Oid> = bindings.iter().map(|vb| &vb.oid).collect();
        assert_eq!(echoed, names.iter().collect::<Vec<_>>());

        // An agent that answers every Get with all seven names.
        let mib = host_mib();
        let mut agent = SnmpAgent::new("public");
        let all = names.clone();
        let longer = FnTransport(move |request: &[u8]| {
            let id = client::peek_request_id(request)?;
            agent.handle(&client::build_get("public", id, &all).ok()?, &mib)
        });
        let mut client = SnmpClient::new(longer, "public");
        let bindings = client.get_many(&names[..3]).unwrap();
        assert_eq!(bindings.len(), names.len());
        assert!(bindings.iter().map(|vb| &vb.oid).eq(&names));
    })
    .join()
    .unwrap();
}

/// The answer, the bindings vector and the `ifDescr` value.
const GET_MANY_ALLOCATIONS: u64 = 3;

#[test]
#[ignore = "a 30 000-entry MIB: run in release mode"]
fn a_switch_with_ten_thousand_stations_builds_its_mib_in_under_a_second() {
    let started = Instant::now();
    let mib = switch_mib(26, 10_000);
    let took = started.elapsed();
    assert_eq!(mib.len(), 7 + 1 + 21 * 26 + 1 + 3 * 10_000);
    println!("{} entries built in {took:?}", mib.len());
    assert!(took < Duration::from_secs(1), "took {took:?}");
}
