//! What finding a path costs on generated access networks: with the
//! topology's spanning forest built, one `find_path` allocates exactly the
//! two vectors of the `CommPath` it returns, and returns the path the
//! depth-first search finds; and (`#[ignore]`d, release) 512 discoveries
//! on 10 000 hosts take under 2 ms.

use netqos::spec::{generate_spec, parse_and_validate, GenParams, SpecModel};
use netqos::topology::path::{enumerate_paths, find_path};
use netqos::topology::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

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

fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (
        out,
        COUNT.with(|c| c.replace(None)).expect("counting was on"),
    )
}

fn access_network(hosts: usize, qos_paths: usize) -> SpecModel {
    let src = generate_spec(&GenParams {
        hosts,
        qos_paths,
        ..GenParams::default()
    });
    parse_and_validate(&src).expect("generated spec validates")
}

fn qos_pairs(model: &SpecModel) -> Vec<(NodeId, NodeId)> {
    model.qos_paths.iter().map(|q| (q.from, q.to)).collect()
}

/// The depth-first search allocated 9 blocks for the same call: the
/// visited set, two stacks (and their growth), the result list and the
/// two clones of the stacks that became the path.
#[test]
fn a_discovery_allocates_the_two_vectors_of_its_path() {
    let model = access_network(3_000, 64);
    let topo = &model.topology;
    let pairs = qos_pairs(&model);
    assert_eq!(pairs.len(), 64);
    // The first query builds the forest.
    find_path(topo, pairs[0].0, pairs[0].1).unwrap();
    for &(from, to) in &pairs {
        let (path, allocations) = allocations_in(|| find_path(topo, from, to).unwrap());
        assert_eq!(allocations, 2, "{from:?} -> {to:?}");
        assert_eq!(path.connections.capacity(), path.connections.len());
        assert_eq!(path.nodes.capacity(), path.nodes.len());
        let searched = enumerate_paths(topo, from, to, 1).unwrap().pop();
        assert_eq!(Some(path), searched);
    }
}

/// `QosMonitor::new`'s discoveries on a 10 000-host network: about 40 ms
/// as a depth-first search, whose cost is the target's depth-first rank;
/// under 0.1 ms up the forest's parent chains.
#[test]
#[ignore = "a timing bound: run in release mode"]
fn five_hundred_discoveries_on_ten_thousand_hosts_take_under_two_ms() {
    let model = access_network(10_000, 512);
    let topo = &model.topology;
    let pairs = qos_pairs(&model);
    assert_eq!(pairs.len(), 512);
    find_path(topo, pairs[0].0, pairs[0].1).unwrap();
    let best = (0..5)
        .map(|_| {
            let start = Instant::now();
            for &(from, to) in &pairs {
                std::hint::black_box(find_path(topo, from, to).unwrap());
            }
            start.elapsed()
        })
        .min()
        .unwrap();
    println!("512 discoveries on 10 000 hosts: {best:?}");
    assert!(best < Duration::from_millis(2), "took {best:?}");
}
