//! Differential test: the monitor's slot store — each interface's last
//! reading, paired with the interface's own next one — against the
//! snapshot-pairing ingest it replaced (`oracle/ingest.rs`). Over
//! generated nodes and generated poll sequences, every ingest must return
//! the same `Result` on both sides and leave the same rate on every
//! interface and the same reboot and wrap counts.
//!
//! Generated agents keep each `ifIndex` on one interface and list only
//! interfaces the topology has, where both sides are defined; they may
//! number their interfaces apart from the spec's order and list their
//! rows in any order. The `#[ignore]`d twin runs CI's length:
//! `cargo test --release -p netqos-monitor --test ingest_differential --
//! --ignored`.

#[path = "oracle/ingest.rs"]
mod oracle;

use netqos_monitor::monitor::IntervalStrategy;
use netqos_monitor::poll::{DeviceSnapshot, IfSample};
use netqos_monitor::NetworkMonitor;
use netqos_topology::{IfIx, NetworkTopology, NodeId, NodeKind};
use proptest::TestRng;

/// Past this many ticks a falling `sysUpTime` is a reboot.
const REBOOT_GAP: u32 = 360_000;

/// One generated agent: its interfaces' names and speeds in spec order,
/// the `ifIndex` it gives each, and its clock and counters.
struct Agent {
    node: NodeId,
    names: Vec<String>,
    speeds: Vec<u64>,
    /// `if_index[i]` is the `ifIndex` of spec interface `i`.
    if_index: Vec<u32>,
    uptime: u32,
    /// `(ifInOctets, ifOutOctets)` per spec interface.
    octets: Vec<(u32, u32)>,
}

/// A counter's starting value: anywhere, or just short of its wrap.
fn counter(rng: &mut TestRng) -> u32 {
    match rng.index(3) {
        0 => rng.range(0..1_000u32),
        1 => u32::MAX - rng.range(0..20_000_000u32),
        _ => rng.next_u64() as u32,
    }
}

/// A topology of 1–3 switches of 1–26 interfaces each, some at 10 Gb/s,
/// and an agent for each.
fn network(rng: &mut TestRng) -> (NetworkTopology, Vec<Agent>) {
    let mut topology = NetworkTopology::new();
    let agents = (0..rng.range(1..=3))
        .map(|n| {
            let node = topology
                .add_node(&format!("d{n}"), NodeKind::Switch)
                .unwrap();
            let count = rng.range(1..=26usize);
            let names: Vec<String> = (0..count).map(|i| format!("p{i}")).collect();
            let speeds: Vec<u64> = (0..count)
                .map(|_| [10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000][rng.index(4)])
                .collect();
            for (name, &speed) in names.iter().zip(&speeds) {
                topology.add_interface(node, name, speed).unwrap();
            }
            // Numbered in spec order, or stably in some other order.
            let mut if_index: Vec<u32> = (1..=count as u32).collect();
            if rng.index(3) == 0 {
                shuffle(rng, &mut if_index);
            }
            let uptime = match rng.index(3) {
                0 => rng.range(0..10_000),
                1 => u32::MAX - rng.range(0..5_000u32),
                _ => rng.range(REBOOT_GAP..u32::MAX),
            };
            let octets = (0..count).map(|_| (counter(rng), counter(rng))).collect();
            Agent {
                node,
                names,
                speeds,
                if_index,
                uptime,
                octets,
            }
        })
        .collect();
    (topology, agents)
}

fn shuffle<T>(rng: &mut TestRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Moves `agent` on to its next poll — a regular step, a gap long enough
/// for a fast port to wrap twice, a re-poll in the same tick or a reboot
/// — and returns the snapshot that poll reads, its rows in any order.
fn next_snapshot(rng: &mut TestRng, agent: &mut Agent) -> DeviceSnapshot {
    let interval = match rng.index(8) {
        0 => 0,
        1 => rng.range(300..40_000),
        2 => {
            // Reboot: the clock and every counter restart.
            agent.uptime = rng.range(0..1_000);
            for octets in &mut agent.octets {
                *octets = (rng.range(0..100_000), rng.range(0..100_000));
            }
            0
        }
        _ => rng.range(1..3_000),
    };
    agent.uptime = agent.uptime.wrapping_add(interval);
    for (octets, &speed) in agent.octets.iter_mut().zip(&agent.speeds) {
        // Up to line rate over the interval, counted modulo 2^32.
        let most = speed / 8 * u64::from(interval) / 100;
        let mut step = || (rng.next_u64() % (most + 1)) as u32;
        *octets = (octets.0.wrapping_add(step()), octets.1.wrapping_add(step()));
    }
    let mut interfaces: Vec<IfSample> = (0..agent.names.len())
        .map(|i| IfSample {
            if_index: agent.if_index[i],
            descr: agent.names[i].clone(),
            speed_bps: agent.speeds[i],
            in_octets: agent.octets[i].0,
            out_octets: agent.octets[i].1,
            in_ucast_pkts: rng.next_u64() as u32,
            out_nucast_pkts: rng.next_u64() as u32,
        })
        .collect();
    // Listed in ifIndex order, as an agent does, or in any order.
    interfaces.sort_by_key(|row| row.if_index);
    if rng.index(4) == 0 {
        shuffle(rng, &mut interfaces);
    }
    DeviceSnapshot {
        uptime_ticks: agent.uptime,
        interfaces,
    }
}

/// What the generated cases exercised, to check they reached every branch.
#[derive(Debug, Default)]
struct Seen {
    rates: u64,
    withdrawn: u64,
    wraps: u64,
    resets: u64,
    refused: u64,
}

/// One case: a generated network polled by both ingests, compared after
/// every ingest.
fn one_case(rng: &mut TestRng, seen: &mut Seen) {
    let (topology, mut agents) = network(rng);
    let strategy = match rng.index(4) {
        0 => IntervalStrategy::NominalPeriod(rng.range(0..500)),
        _ => IntervalStrategy::SysUpTime,
    };
    let mut monitor = NetworkMonitor::new(topology.clone());
    monitor.set_interval_strategy(strategy);
    let mut oracle = oracle::SnapshotIngest::new(topology.clone(), strategy);
    for step in 0..rng.range(2..40) {
        // Now and then a node the topology lacks.
        if rng.index(50) == 0 {
            let ghost = NodeId(topology.node_count() as u32 + rng.range(0..3u32));
            let snapshot = next_snapshot(rng, &mut agents[0]);
            let got = monitor.ingest(ghost, &snapshot);
            assert_eq!(got, oracle.ingest(ghost, &snapshot), "step {step}, ghost");
            seen.refused += 1;
            continue;
        }
        let a = rng.index(agents.len());
        let snapshot = next_snapshot(rng, &mut agents[a]);
        let node = agents[a].node;
        let got = monitor.ingest(node, &snapshot);
        let want = oracle.ingest(node, &snapshot);
        // Formatted only on a failure.
        let case = format_args!("step {step}, {strategy:?}, {node:?}, {snapshot:?}");
        assert_eq!(got, want, "{case}");
        for agent in &agents {
            for i in 0..agent.names.len() {
                let ifix = IfIx(i as u32);
                let rates = monitor.if_rates(agent.node, ifix);
                assert_eq!(rates, oracle.if_rates(agent.node, ifix), "{case}, {ifix:?}");
                seen.rates += u64::from(rates.is_some());
                seen.withdrawn +=
                    u64::from(rates.is_none() && agent.node == node && got == Ok(true));
            }
        }
        assert_eq!(monitor.uptime_resets(), oracle.uptime_resets, "{case}");
        assert_eq!(monitor.counter_wraps(), oracle.counter_wraps, "{case}");
    }
    seen.wraps += oracle.counter_wraps;
    seen.resets += oracle.uptime_resets;
}

fn slot_store_ingests_as_the_snapshot_pairing_did(rng: &mut TestRng, cases: u32) {
    let mut seen = Seen::default();
    for _ in 0..cases {
        one_case(rng, &mut seen);
    }
    println!("{seen:?}");
    // Every branch is exercised in earnest.
    assert!(
        [
            seen.rates,
            seen.withdrawn,
            seen.wraps,
            seen.resets,
            seen.refused
        ]
        .iter()
        .all(|&n| n > u64::from(cases) / 20),
        "{seen:?}"
    );
}

#[test]
fn the_slot_store_ingests_as_the_snapshot_pairing_did() {
    slot_store_ingests_as_the_snapshot_pairing_did(
        &mut TestRng::deterministic("ingest-differential"),
        300,
    );
}

#[test]
#[ignore = "20 000 cases: run in release mode"]
fn the_slot_store_ingests_as_the_snapshot_pairing_did_at_length() {
    slot_store_ingests_as_the_snapshot_pairing_did(
        &mut TestRng::deterministic("ingest-differential-long"),
        20_000,
    );
}
