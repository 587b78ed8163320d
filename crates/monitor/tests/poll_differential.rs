//! Differential and never-panic tests: the decoder every poll runs —
//! `PollPlan::read_answer`, each binding decoded from the datagram
//! straight into a reused snapshot — against the decode-to-vector poll it
//! replaced (`oracle/`). Each request is encoded with
//! `Manager::encode_get`, as the round encodes it, and its answer is read
//! twice: into a fresh snapshot and into one left by earlier reads. Both
//! must return what the oracle returns: the same snapshot, or the same
//! `MonitorError`. The last test holds the round itself — its posts, its
//! matching of answers to requests and its ingest — to the oracle over
//! the simulator.
//!
//! The `#[ignore]`d twin runs the generated answers at CI's release-mode
//! length: `cargo test --release -p netqos-monitor --test poll_differential
//! -- --ignored`.

mod oracle;

use netqos_monitor::network::POLL_WINDOW;
use netqos_monitor::poll::{poll_oids, DeviceSnapshot, PollPlan};
use netqos_monitor::simnet::{SimNetwork, SimNetworkOptions};
use netqos_monitor::{MonitorError, Network, NetworkMonitor};
use netqos_sim::app::Mailbox;
use netqos_sim::packet::SNMP_PORT;
use netqos_sim::time::{SimDuration, SimTime};
use netqos_snmp::client::{self, Manager};
use netqos_snmp::message::{SnmpMessage, SnmpVersion};
use netqos_snmp::mib2::{interfaces as ifc, system, IfEntry, SystemInfo};
use netqos_snmp::pdu::{BulkPdu, ErrorStatus, Pdu, PduType, TrapPdu, VarBind};
use netqos_snmp::{Oid, ScalarMib, SnmpAgent, SnmpValue};
use proptest::TestRng;

/// The request-id a fresh manager sends its first request under.
const FIRST_ID: i32 = 1;

/// Encodes `plan`'s Get under [`FIRST_ID`], answers it with
/// `answer_for(request)`, and reads the answer with `read_answer` into a
/// fresh snapshot and into `kept`, checking each against the oracle
/// decoding the same datagram.
fn check_with(
    plan: &PollPlan,
    if_count: u32,
    kept: &mut DeviceSnapshot,
    answer_for: impl FnOnce(&[u8]) -> Vec<u8>,
) -> Result<DeviceSnapshot, MonitorError> {
    let mut manager = Manager::default();
    let answer = answer_for(manager.encode_get("public", FIRST_ID, plan.oids()).unwrap());
    let read = |into: &mut DeviceSnapshot| {
        (plan.read_answer(&manager, &answer, FIRST_ID, "dev", into)).map(|()| into.clone())
    };
    let fresh = read(&mut DeviceSnapshot::default());
    let reused = read(kept);
    let expected = oracle::poll(&answer, FIRST_ID, "dev", if_count);
    assert_eq!(fresh, expected, "a fresh snapshot, answer {answer:02x?}");
    assert_eq!(reused, expected, "a kept snapshot, answer {answer:02x?}");
    expected
}

/// [`check_with`] for one fixed datagram.
fn check(
    plan: &PollPlan,
    if_count: u32,
    kept: &mut DeviceSnapshot,
    answer: &[u8],
) -> Result<DeviceSnapshot, MonitorError> {
    check_with(plan, if_count, kept, |_| answer.to_vec())
}

/// A response of `pdu_type` under `id` carrying `bindings`.
fn response(
    version: SnmpVersion,
    pdu_type: PduType,
    id: i32,
    status: ErrorStatus,
    bindings: Vec<VarBind>,
) -> Vec<u8> {
    let pdu = Pdu {
        pdu_type,
        request_id: id,
        error_status: status,
        error_index: if status.is_ok() { 0 } else { 1 },
        bindings,
    };
    let msg = match version {
        SnmpVersion::V1 => SnmpMessage::v1("public", pdu),
        SnmpVersion::V2c => SnmpMessage::v2c("public", pdu),
    };
    msg.encode().unwrap()
}

/// The bindings a well-behaved agent answers a poll of `if_count`
/// interfaces with.
fn good_bindings(rng: &mut TestRng, if_count: u32) -> Vec<VarBind> {
    poll_oids(if_count)
        .into_iter()
        .map(|oid| {
            let value = match ifc::parse_instance(&oid) {
                None => SnmpValue::TimeTicks(rng.next_u64() as u32),
                Some((ifc::column::IF_DESCR, i)) => SnmpValue::text(&"port".repeat(i as usize)),
                Some((ifc::column::IF_SPEED, _)) => SnmpValue::Gauge32(rng.next_u64() as u32),
                Some(_) => SnmpValue::Counter32(rng.next_u64() as u32),
            };
            VarBind::new(oid, value)
        })
        .collect()
}

/// Any value, of every kind the codec knows, the polled types included.
fn any_value(rng: &mut TestRng) -> SnmpValue {
    match rng.index(13) {
        0 => SnmpValue::Integer(rng.range(-5i64..5)),
        1 => SnmpValue::Integer(rng.next_u64() as i64),
        2 => SnmpValue::text("eth0"),
        3 => SnmpValue::OctetString(vec![0xff, 0xfe, b'x']),
        4 => SnmpValue::Null,
        5 => SnmpValue::oid(Oid::from([1, 3, 6, 1, rng.range(0u32..1000)])),
        6 => SnmpValue::IpAddress([10, 0, 0, rng.range(0u8..255)]),
        7 => SnmpValue::Counter32(rng.next_u64() as u32),
        8 => SnmpValue::Gauge32(rng.next_u64() as u32),
        9 => SnmpValue::TimeTicks(rng.next_u64() as u32),
        10 => SnmpValue::Opaque(vec![1, 2, 3]),
        11 => SnmpValue::NoSuchInstance,
        _ => SnmpValue::EndOfMibView,
    }
}

/// A name a poll answer might carry besides the ones asked for.
fn any_name(rng: &mut TestRng, if_count: u32) -> Oid {
    match rng.index(5) {
        0 => system::sys_name_instance(),
        1 => ifc::instance_oid(ifc::column::IF_TYPE, rng.range(1..=if_count.max(1))),
        2 => ifc::instance_oid(ifc::column::IF_IN_OCTETS, if_count + 1 + rng.range(0u32..3)),
        3 => ifc::instance_oid(ifc::column::IF_DESCR, 0),
        _ => Oid::from([1, 3, 6, 1, 4, 1, rng.range(0u32..100), 7, 7, 7, 7, 7, 7, 7]),
    }
}

/// Marks a value whose encoding [`damage_marked`] can find and break.
const MARK: [u8; 3] = [0xA5, 0x5A, 0xA5];

/// Breaks the one `Opaque(MARK)` value in `wire` while keeping every
/// length right: its tag becomes an unknown tag, an IpAddress of three
/// octets or an OID ending in a continuation octet.
fn damage_marked(rng: &mut TestRng, wire: &mut [u8]) {
    let marked = [0x44, 3, MARK[0], MARK[1], MARK[2]];
    let at = wire
        .windows(marked.len())
        .position(|w| w == marked)
        .expect("the marked value is encoded");
    wire[at] = [0x1F, 0x40, 0x06][rng.index(3)];
}

/// One generated answer to a poll of `if_count` interfaces: a good answer
/// with its bindings and message reshaped, then perhaps its bytes damaged.
fn generated_answer(rng: &mut TestRng, if_count: u32) -> Vec<u8> {
    let mut bindings = good_bindings(rng, if_count);
    // Binding-level: wrong value types, missing and repeated objects,
    // extra objects, any order.
    if rng.index(3) == 0 {
        for _ in 0..rng.range(1..3) {
            if !bindings.is_empty() {
                let k = rng.index(bindings.len());
                bindings[k].value = any_value(rng);
            }
        }
    }
    if rng.index(4) == 0 && !bindings.is_empty() {
        let k = rng.index(bindings.len());
        bindings.remove(k);
    }
    if rng.index(4) == 0 && !bindings.is_empty() {
        let k = rng.index(bindings.len());
        bindings.push(bindings[k].clone());
    }
    if rng.index(4) == 0 {
        for _ in 0..rng.range(1..4) {
            let name = any_name(rng, if_count);
            let at = rng.index(bindings.len() + 1);
            bindings.insert(at, VarBind::new(name, any_value(rng)));
        }
    }
    if rng.index(4) == 0 {
        for i in (1..bindings.len()).rev() {
            bindings.swap(i, rng.index(i + 1));
        }
    }
    let marked = rng.index(4) == 0 && !bindings.is_empty();
    if marked {
        let k = rng.index(bindings.len());
        bindings[k].value = SnmpValue::Opaque(MARK.to_vec());
    }

    // Message-level: what kind of PDU, under which id, with what status.
    let version = [SnmpVersion::V1, SnmpVersion::V2c][rng.index(2)];
    let id = if rng.index(6) == 0 {
        FIRST_ID + 1
    } else {
        FIRST_ID
    };
    let status = if rng.index(4) == 0 {
        ErrorStatus::from_code(rng.range(1i64..7))
    } else {
        ErrorStatus::NoError
    };
    let mut wire = match rng.index(12) {
        0 => SnmpMessage::v1_trap(
            "public",
            TrapPdu {
                enterprise: Oid::from([1, 3, 6, 1, 4, 1, 9]),
                agent_addr: [10, 0, 0, 1],
                generic_trap: 6,
                specific_trap: 1,
                time_stamp: 5,
                bindings,
            },
        )
        .encode()
        .unwrap(),
        1 => SnmpMessage::v2c_bulk(
            "public",
            BulkPdu {
                request_id: id,
                non_repeaters: 0,
                max_repetitions: 3,
                bindings,
            },
        )
        .encode()
        .unwrap(),
        2 => {
            let pdu_type = [
                PduType::GetRequest,
                PduType::GetNextRequest,
                PduType::SetRequest,
            ][rng.index(3)];
            response(version, pdu_type, id, status, bindings)
        }
        _ => response(version, PduType::GetResponse, id, status, bindings),
    };
    if marked {
        damage_marked(rng, &mut wire);
    }

    // Byte-level: cut, flipped or inserted bytes.
    match rng.index(8) {
        0 => wire.truncate(rng.index(wire.len() + 1)),
        1 => {
            let at = rng.index(wire.len());
            wire[at] ^= 1 << rng.index(8);
        }
        2 => {
            let at = rng.index(wire.len());
            wire[at] = rng.next_u64() as u8;
        }
        3 => {
            let at = rng.index(wire.len() + 1);
            wire.insert(at, rng.next_u64() as u8);
        }
        _ => {}
    }
    wire
}

/// A device's MIB as an agent holds it: the `system` group and
/// `mib_rows` interfaces, some cells replaced by values of any type.
fn random_mib(rng: &mut TestRng, mib_rows: u32) -> ScalarMib {
    let mut mib = ScalarMib::new();
    system::install(&mut mib, &SystemInfo::new("dev"), rng.next_u64() as u32);
    let entries: Vec<IfEntry> = (1..=mib_rows)
        .map(|i| {
            let mut e = IfEntry::ethernet(
                i,
                &"eth".repeat(rng.range(1..4)),
                rng.next_u64() as u32,
                [2, 0, 0, 0, 0, i as u8],
            );
            e.in_octets = rng.next_u64() as u32;
            e.out_nucast_pkts = rng.next_u64() as u32;
            e
        })
        .collect();
    ifc::install(&mut mib, &entries);
    if rng.index(3) == 0 {
        let oids = poll_oids(mib_rows);
        let oid = oids[rng.index(oids.len())].clone();
        mib.insert(oid, any_value(rng));
    }
    mib
}

/// Runs `cases` of each generated kind through [`check_with`], each plan
/// reusing one snapshot across all its cases as `poll_nodes` does.
fn generated_answers_agree(rng: &mut TestRng, cases: u32) {
    let mut plans: Vec<(u32, PollPlan, DeviceSnapshot)> = (0..5)
        .map(|n| (n, PollPlan::new(n), DeviceSnapshot::default()))
        .collect();
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..cases {
        let (if_count, plan, kept) = &mut plans[rng.index(5)];
        let if_count = *if_count;
        // An agent over a random MIB, its rows not always the plan's.
        let mib_rows = if rng.index(4) == 0 {
            rng.range(0..5)
        } else {
            if_count
        };
        let mib = random_mib(rng, mib_rows);
        let mut agent = SnmpAgent::new("public");
        let answered = check_with(plan, if_count, kept, |request| {
            agent.handle(request, &mib).expect("a poll is answered")
        });
        // Generated answers.
        let answer = generated_answer(rng, if_count);
        let generated = check(plan, if_count, kept, &answer);
        for result in [answered, generated] {
            match result {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
    }
    // Both outcomes are exercised in earnest.
    assert!(
        ok > cases / 4 && failed > cases / 4,
        "{ok} ok, {failed} failed"
    );
}

#[test]
fn generated_answers_poll_as_the_oracle_polls() {
    generated_answers_agree(&mut TestRng::deterministic("poll-differential"), 256);
}

#[test]
#[ignore = "20 000 cases: run in release mode"]
fn generated_answers_poll_as_the_oracle_polls_at_length() {
    generated_answers_agree(
        &mut TestRng::deterministic("poll-differential-long"),
        20_000,
    );
}

/// A good answer of two interfaces, cut at every byte, each byte flipped
/// in every bit, and a byte inserted at every position.
#[test]
fn every_cut_flip_and_insertion_polls_as_the_oracle_polls() {
    let mut rng = TestRng::deterministic("damage");
    let plan = PollPlan::new(2);
    let mut kept = DeviceSnapshot::default();
    let good = response(
        SnmpVersion::V1,
        PduType::GetResponse,
        FIRST_ID,
        ErrorStatus::NoError,
        good_bindings(&mut rng, 2),
    );
    assert!(check(&plan, 2, &mut kept, &good).is_ok());
    for cut in 0..good.len() {
        assert!(check(&plan, 2, &mut kept, &good[..cut]).is_err());
    }
    for at in 0..good.len() {
        for bit in 0..8 {
            let mut flipped = good.clone();
            flipped[at] ^= 1 << bit;
            let _ = check(&plan, 2, &mut kept, &flipped);
        }
        for byte in [0x00, 0x05, 0x30, 0x80, 0xFF] {
            let mut inserted = good.clone();
            inserted.insert(at, byte);
            let _ = check(&plan, 2, &mut kept, &inserted);
        }
    }
}

/// Every error status, another request's id, a trap and a GetBulk in
/// place of the response, and a request PDU: each is the same error, and
/// a malformed binding further on outranks all of them.
#[test]
fn judgements_of_the_answer_are_the_oracles() {
    let mut rng = TestRng::deterministic("judgements");
    let plan = PollPlan::new(1);
    let mut kept = DeviceSnapshot::default();
    let mut bindings = good_bindings(&mut rng, 1);
    // A value the parse refuses, so an answer visited too early shows.
    bindings[1].value = SnmpValue::Null;
    let mut answers = Vec::new();
    for code in 1..=5 {
        let status = ErrorStatus::from_code(code);
        answers.push(response(
            SnmpVersion::V1,
            PduType::GetResponse,
            FIRST_ID,
            status,
            bindings.clone(),
        ));
    }
    let ok = ErrorStatus::NoError;
    answers.push(response(
        SnmpVersion::V2c,
        PduType::GetResponse,
        FIRST_ID + 7,
        ok,
        bindings.clone(),
    ));
    answers.push(response(
        SnmpVersion::V1,
        PduType::GetRequest,
        FIRST_ID,
        ok,
        bindings.clone(),
    ));
    answers.push(
        SnmpMessage::v2c_bulk("public", BulkPdu::request(FIRST_ID, 0, 1, &poll_oids(1)))
            .encode()
            .unwrap(),
    );
    let trap = TrapPdu {
        enterprise: Oid::from([1, 3, 6, 1, 4, 1, 9]),
        agent_addr: [10, 0, 0, 1],
        generic_trap: 0,
        specific_trap: 0,
        time_stamp: 0,
        bindings: bindings.clone(),
    };
    answers.push(SnmpMessage::v1_trap("public", trap).encode().unwrap());
    let visited_early = response(
        SnmpVersion::V1,
        PduType::GetResponse,
        FIRST_ID,
        ok,
        bindings.clone(),
    );
    for answer in &answers {
        let judged = check(&plan, 1, &mut kept, answer);
        assert!(matches!(judged, Err(MonitorError::Snmp(_))), "{judged:?}");
    }
    assert!(matches!(
        check(&plan, 1, &mut kept, &visited_early),
        Err(MonitorError::WrongType { .. })
    ));
    // The same answers with their last binding malformed.
    let mut marked = bindings.clone();
    marked.last_mut().unwrap().value = SnmpValue::Opaque(MARK.to_vec());
    for (status, id) in [
        (ErrorStatus::GenErr, FIRST_ID),
        (ok, FIRST_ID + 1),
        (ok, FIRST_ID),
    ] {
        let mut wire = response(
            SnmpVersion::V1,
            PduType::GetResponse,
            id,
            status,
            marked.clone(),
        );
        damage_marked(&mut rng, &mut wire);
        let judged = check(&plan, 1, &mut kept, &wire);
        assert!(matches!(judged, Err(MonitorError::Snmp(_))), "{judged:?}");
    }
}

/// A row that repeats one column and lacks another is incomplete, as is
/// one that lacks a column outright; a repeated column alone is not.
#[test]
fn a_repeated_column_does_not_stand_in_for_a_missing_one() {
    let mut rng = TestRng::deterministic("duplicates");
    let plan = PollPlan::new(1);
    let mut kept = DeviceSnapshot::default();
    let mut bindings = good_bindings(&mut rng, 1);
    let descr = bindings[1].clone();
    bindings.push(descr);
    let repeated = response(
        SnmpVersion::V1,
        PduType::GetResponse,
        FIRST_ID,
        ErrorStatus::NoError,
        bindings.clone(),
    );
    assert!(check(&plan, 1, &mut kept, &repeated).is_ok());
    bindings.remove(6); // ifOutNUcastPkts.1, leaving ifDescr.1 twice
    let missing = response(
        SnmpVersion::V1,
        PduType::GetResponse,
        FIRST_ID,
        ErrorStatus::NoError,
        bindings,
    );
    assert_eq!(
        check(&plan, 1, &mut kept, &missing),
        Err(MonitorError::MissingObject(
            "ifTable row 1 incomplete (5/6 columns)".into()
        ))
    );
}

/// Over the simulator, `poll_nodes` ingests what the oracle decodes from
/// the same datagrams: a twin network, sent the same requests at the same
/// instants — a round no wider than the poll window goes out at once — from
/// a mailbox of the test's own, its answers decoded by the oracle, ends
/// each round with the same rates.
#[test]
fn poll_nodes_ingests_what_the_oracle_decodes() {
    const SPEC: &str = r#"
        host L  { address 10.0.0.1;  snmp community "public"; interface eth0 { speed 100Mbps; } }
        host S1 { address 10.0.0.11; snmp community "public"; interface hme0 { speed 100Mbps; } }
        host S2 { address 10.0.0.12; snmp community "public"; interface hme0 { speed 10Mbps; } }
        device sw switch { address 10.0.0.100; snmp community "public"; speed 100Mbps;
                           interface p1; interface p2; interface p3; interface p4; }
        connection L.eth0 <-> sw.p1;
        connection S1.hme0 <-> sw.p2;
        connection S2.hme0 <-> sw.p3;
    "#;
    const TWIN_PORT: u16 = 16_200;
    let build = || {
        let model = netqos_spec::parse_and_validate(SPEC).unwrap();
        let options = SimNetworkOptions {
            noise_mean: Some(SimDuration::from_millis(30)),
            agent_jitter_mean: Some(SimDuration::from_millis(2)),
            ..SimNetworkOptions::default()
        };
        let monitor = NetworkMonitor::new(model.topology.clone());
        let (mailbox, inbox) = Mailbox::with_handle();
        let l = model.topology.node_by_name("L").unwrap();
        let net = SimNetwork::from_model_with(model, options, |b, devs, _| {
            b.install_app(devs[&l], Box::new(mailbox), Some(TWIN_PORT))
                .unwrap();
        });
        (net.unwrap(), monitor, inbox)
    };
    let (mut net, mut monitor, _) = build();
    let (mut twin, mut twin_monitor, inbox) = build();
    let nodes = net.pollable_nodes();
    assert!(nodes.len() <= POLL_WINDOW, "the round goes out at once");
    let manager = twin.device_of(twin.monitor_node()).unwrap();
    for round in 0..12 {
        for n in [&mut net, &mut twin] {
            let next = n.lan.now() + SimDuration::from_secs(1);
            n.run_until(next);
        }
        // Alternate whole rounds with single devices, so snapshots of a
        // shape pass between devices.
        let order: Vec<_> = if round % 2 == 0 {
            nodes.clone()
        } else {
            nodes.iter().rev().copied().collect()
        };
        assert_eq!(net.poll_nodes(&order, &mut monitor).unwrap(), nodes.len());
        let topology = twin.model().topology.clone();
        let mut sent = Vec::new();
        for (position, &node) in order.iter().enumerate() {
            let n = topology.node(node).unwrap();
            let ip = twin.model().addresses[&node].parse().unwrap();
            let id = (round * nodes.len() + 1 + position) as i32;
            let if_count = n.interfaces.len() as u32;
            let request = client::build_get("public", id, &poll_oids(if_count)).unwrap();
            (twin.lan)
                .post_udp(manager, TWIN_PORT, ip, SNMP_PORT, request.into())
                .unwrap();
            sent.push((id, node, n.name.clone(), if_count));
        }
        // The round ends on the step that lands its last answer.
        while inbox.borrow().len() < sent.len() {
            assert!(twin.lan.step_before(SimTime::from_micros(u64::MAX)));
        }
        for (_, answer) in inbox.borrow_mut().drain(..) {
            let id = client::peek_request_id(&answer.payload).unwrap();
            let (_, node, name, if_count) = sent.iter().find(|s| s.0 == id).unwrap();
            let snapshot = oracle::poll(&answer.payload, id, name, *if_count).unwrap();
            twin_monitor.ingest(*node, snapshot).unwrap();
        }
        assert_eq!(net.lan.now(), twin.lan.now(), "round {round}");
        for &node in &nodes {
            let count = net.model().topology.node(node).unwrap().interfaces.len();
            for ifix in 0..count {
                let ifix = netqos_topology::IfIx(ifix as u32);
                assert_eq!(
                    monitor.if_rates(node, ifix),
                    twin_monitor.if_rates(node, ifix),
                    "round {round}, {node:?} {ifix:?}"
                );
            }
        }
    }
}
