//! Differential tests: the single-buffer encoder, the one-pass agent and
//! the flat MIB against the reference oracle (the encoder, agent and
//! B-tree MIB they replaced). Repeated Gets, which the manager and the
//! agent each work out once per shape and per thread, are held to the
//! oracle however their shapes come and go. The manager's read of an
//! answer against the names it asked is held to its read against none
//! and to the oracle's decoder, whatever the answer and the names.
//!
//! The `#[ignore]`d twins run the MIB, agent and answer properties at
//! CI's release-mode length: `cargo test --release -p netqos-snmp --test
//! differential -- --ignored`.

mod oracle;
mod strategies;

use netqos_snmp::agent::{decode_response, SnmpAgent};
use netqos_snmp::ber::{self, tag};
use netqos_snmp::client;
use netqos_snmp::message::{MessageBody, SnmpMessage, SnmpVersion};
use netqos_snmp::mib::MibView;
use netqos_snmp::mib::ScalarMib;
use netqos_snmp::mib2::interfaces;
use netqos_snmp::pdu::{BulkPdu, ErrorStatus, Pdu, PduType, VarBind};
use netqos_snmp::{Oid, SnmpValue};
use oracle::mib::OracleMib;
use oracle::OracleAgent;
use proptest::prelude::*;
use std::borrow::Cow;
use strategies::{arb_any_oid, arb_any_value, arb_message, arb_oid};

const COMMUNITY: &str = "public";

/// The library agent over the flat MIB and the oracle agent over the
/// B-tree, both MIBs holding the same entries, fed the same datagrams.
struct Pair {
    library: SnmpAgent,
    oracle: OracleAgent,
    mib: ScalarMib,
    oracle_mib: OracleMib,
}

impl Pair {
    /// Both MIBs hold `entries`, inserted one by one into the oracle and,
    /// into the library's, one by one or in one bulk build.
    fn new(entries: &[(Oid, SnmpValue)], bulk: bool, max_response_bytes: Option<usize>) -> Self {
        let mut library = SnmpAgent::new(COMMUNITY);
        if let Some(limit) = max_response_bytes {
            library.set_max_response_bytes(limit);
        }
        let mut mib = ScalarMib::new();
        let mut oracle_mib = OracleMib::default();
        if bulk {
            mib.extend(entries.iter().cloned());
        }
        for (oid, value) in entries {
            if !bulk {
                mib.insert(oid.clone(), value.clone());
            }
            oracle_mib.insert(oid.clone(), value.clone());
        }
        Pair {
            library,
            oracle: OracleAgent::new(COMMUNITY, max_response_bytes.unwrap_or(65_507)),
            mib,
            oracle_mib,
        }
    }

    /// Asserts both agents answer `request` alike and returns the answer.
    fn handle(&mut self, request: &[u8]) -> Option<Vec<u8>> {
        let expected = self.oracle.handle(request, &self.oracle_mib);
        let got = self.library.handle(request, &self.mib);
        assert_eq!(got, expected, "request {request:02x?}");
        assert_eq!(self.library.stats(), self.oracle.stats);
        got
    }
}

fn oid(s: &str) -> Oid {
    s.parse().unwrap()
}

fn demo_mib() -> Vec<(Oid, SnmpValue)> {
    vec![
        (oid("1.3.6.1.2.1.1.3.0"), SnmpValue::TimeTicks(4242)),
        (oid("1.3.6.1.2.1.1.5.0"), SnmpValue::text("a host name")),
        (
            oid("1.3.6.1.2.1.2.2.1.10.1"),
            SnmpValue::Counter32(u32::MAX),
        ),
        (
            oid("1.3.6.1.2.1.17.4.3.1.2.2.0.0.170.187.204"),
            SnmpValue::Integer(3),
        ),
    ]
}

fn request(pdu_type: PduType, names: &[&str]) -> Vec<u8> {
    let oids: Vec<Oid> = names.iter().map(|n| oid(n)).collect();
    oracle::encode_message(&SnmpMessage::v1(
        COMMUNITY,
        Pdu::request(pdu_type, 77, &oids),
    ))
    .unwrap()
}

#[test]
fn get_hit_and_get_next_agree() {
    let mut pair = Pair::new(&demo_mib(), false, None);
    let names = ["1.3.6.1.2.1.1.3.0", "1.3.6.1.2.1.2.2.1.10.1"];
    let resp = pair.handle(&request(PduType::GetRequest, &names)).unwrap();
    let pdu = decode_response(&resp).unwrap();
    assert_eq!(pdu.bindings[1].value, SnmpValue::Counter32(u32::MAX));
    // GetNext from a prefix lands on a 17-arc (heap) name.
    let resp = pair
        .handle(&request(PduType::GetNextRequest, &["1.3.6.1.2.1.17"]))
        .unwrap();
    let pdu = decode_response(&resp).unwrap();
    assert_eq!(pdu.bindings[0].oid.len(), 17);
}

#[test]
fn no_such_name_reports_index_and_echoes_bindings() {
    let mut pair = Pair::new(&demo_mib(), false, None);
    // A request whose bindings carry values: the echo must carry them too.
    let msg = SnmpMessage::v1(
        COMMUNITY,
        Pdu {
            pdu_type: PduType::GetRequest,
            request_id: -5,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bindings: vec![
                VarBind::null(oid("1.3.6.1.2.1.1.3.0")),
                VarBind::new(oid("1.3.9.9"), SnmpValue::text("echo me")),
                VarBind::null(oid("1.3.9.10")),
            ],
        },
    );
    let resp = pair.handle(&oracle::encode_message(&msg).unwrap()).unwrap();
    let pdu = decode_response(&resp).unwrap();
    assert_eq!(pdu.error_status, ErrorStatus::NoSuchName);
    assert_eq!(pdu.error_index, 2);
    assert_eq!(pdu.bindings[0].value, SnmpValue::Null);
    assert_eq!(pdu.bindings[1].value, SnmpValue::text("echo me"));
    assert_eq!(pdu.bindings.len(), 3);
    assert_eq!(pair.library.stats().error_responses, 1);
    // GetNext past the end of the MIB errors the same way.
    let resp = pair
        .handle(&request(PduType::GetNextRequest, &["2.99"]))
        .unwrap();
    assert_eq!(
        decode_response(&resp).unwrap().error_status,
        ErrorStatus::NoSuchName
    );
}

#[test]
fn too_big_under_a_response_limit() {
    let mut pair = Pair::new(&demo_mib(), true, Some(48));
    let names = ["1.3.6.1.2.1.1.3.0", "1.3.6.1.2.1.1.5.0"];
    let resp = pair.handle(&request(PduType::GetRequest, &names)).unwrap();
    let pdu = decode_response(&resp).unwrap();
    assert_eq!(pdu.error_status, ErrorStatus::TooBig);
    assert!(pdu.bindings.is_empty());
    // One that fits still gets its answer.
    let resp = pair
        .handle(&request(PduType::GetRequest, &names[..1]))
        .unwrap();
    assert!(decode_response(&resp).unwrap().error_status.is_ok());
}

#[test]
fn silences_agree() {
    let mut pair = Pair::new(&demo_mib(), false, None);
    let get = Pdu::request(PduType::GetRequest, 1, &[oid("1.3.6.1.2.1.1.3.0")]);
    // Bad community.
    let wrong = oracle::encode_message(&SnmpMessage::v1("private", get.clone())).unwrap();
    assert_eq!(pair.handle(&wrong), None);
    assert_eq!(pair.library.stats().bad_community, 1);
    // GetBulk exists only in v2c.
    let bulk = BulkPdu::request(9, 0, 3, &[oid("1.3")]);
    let v1_bulk = SnmpMessage {
        version: SnmpVersion::V1,
        community: COMMUNITY.into(),
        body: MessageBody::Bulk(bulk),
    };
    assert_eq!(
        pair.handle(&oracle::encode_message(&v1_bulk).unwrap()),
        None
    );
    assert_eq!(pair.library.stats().malformed, 1);
    // A response is not a request.
    let response = SnmpMessage::v1(COMMUNITY, get.response(Vec::new()));
    assert_eq!(
        pair.handle(&oracle::encode_message(&response).unwrap()),
        None
    );
    // Garbage, and a valid request with one byte appended.
    assert_eq!(pair.handle(&[0x30, 0x05, 0x01]), None);
    let mut trailing = oracle::encode_message(&SnmpMessage::v1(COMMUNITY, get)).unwrap();
    trailing.push(0);
    assert_eq!(pair.handle(&trailing), None);
    assert_eq!(pair.library.stats().malformed, 3);
    assert_eq!(pair.library.stats().answered, 0);
}

#[test]
fn bulk_runs_into_end_of_mib_view() {
    let mut pair = Pair::new(&demo_mib(), false, None);
    let bulk = BulkPdu::request(3, 1, 4, &[oid("1.3.6.1.2.1.1.3"), oid("1.3.6.1.2.1.2")]);
    let msg = SnmpMessage::v2c_bulk(COMMUNITY, bulk);
    let resp = pair.handle(&oracle::encode_message(&msg).unwrap()).unwrap();
    let pdu = decode_response(&resp).unwrap();
    // One non-repeater, then two instances and the end marker.
    assert_eq!(pdu.bindings.len(), 4);
    assert_eq!(pdu.bindings[3].value, SnmpValue::EndOfMibView);
}

#[test]
fn unencodable_answers_are_silent_unless_a_later_lookup_fails() {
    let mut mib = demo_mib();
    mib.push((oid("1.3.7.0"), SnmpValue::oid(Oid::from([1]))));
    let mut pair = Pair::new(&mib, false, None);
    assert_eq!(
        pair.handle(&request(PduType::GetRequest, &["1.3.7.0"])),
        None
    );
    assert_eq!(pair.library.stats().answered, 0);
    let resp = pair
        .handle(&request(PduType::GetRequest, &["1.3.7.0", "1.3.9"]))
        .unwrap();
    assert_eq!(decode_response(&resp).unwrap().error_index, 2);
}

/// How a generated request names its objects: by entries of the MIB it
/// will be asked of, their prefixes, or arbitrary names.
#[derive(Debug, Clone)]
enum Name {
    Entry(usize),
    PrefixOf(usize),
    Other(Oid),
    PastTheEnd,
}

fn arb_names() -> impl Strategy<Value = Vec<(Name, SnmpValue)>> {
    let name = prop_oneof![
        any::<usize>().prop_map(Name::Entry),
        any::<usize>().prop_map(Name::Entry),
        any::<usize>().prop_map(Name::PrefixOf),
        arb_oid().prop_map(Name::Other),
        Just(Name::PastTheEnd),
    ];
    let value = prop_oneof![Just(SnmpValue::Null), strategies::arb_value()];
    prop::collection::vec((name, value), 0..10)
}

#[derive(Debug, Clone)]
enum Kind {
    Pdu(PduType),
    Bulk {
        version: SnmpVersion,
        non_repeaters: u32,
        max_repetitions: u32,
    },
}

fn arb_kind() -> impl Strategy<Value = Kind> {
    let version = prop_oneof![
        Just(SnmpVersion::V2c),
        Just(SnmpVersion::V2c),
        Just(SnmpVersion::V2c),
        Just(SnmpVersion::V1),
    ];
    prop_oneof![
        Just(Kind::Pdu(PduType::GetRequest)),
        Just(Kind::Pdu(PduType::GetRequest)),
        Just(Kind::Pdu(PduType::GetNextRequest)),
        Just(Kind::Pdu(PduType::GetNextRequest)),
        Just(Kind::Pdu(PduType::SetRequest)),
        Just(Kind::Pdu(PduType::GetResponse)),
        (version, 0u32..4, 0u32..6).prop_map(|(version, non_repeaters, max_repetitions)| {
            Kind::Bulk {
                version,
                non_repeaters,
                max_repetitions,
            }
        }),
    ]
}

/// MIB contents: mostly what an agent would hold, now and then a name or
/// a value the wire cannot carry.
fn arb_mib() -> impl Strategy<Value = Vec<(Oid, SnmpValue)>> {
    let key = prop_oneof![
        arb_oid(),
        arb_oid(),
        arb_oid(),
        arb_oid(),
        arb_any_oid(),
        arb_table_name(),
        arb_table_name(),
    ];
    let value = prop_oneof![
        strategies::arb_value(),
        strategies::arb_value(),
        strategies::arb_value(),
        arb_any_value(),
    ];
    prop::collection::vec((key, value), 0..24)
}

/// A request: its kind, names, id, community (0 is the wrong one), and
/// the byte to corrupt in its copy and how.
type Request = (Kind, Vec<(Name, SnmpValue)>, i32, u8, usize, u8);

fn arb_requests() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            arb_kind(),
            arb_names(),
            any::<i32>(),
            0u8..8,
            any::<usize>(),
            1u8..=255,
        ),
        1..6,
    )
}

fn arb_limit() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (30usize..400).prop_map(Some)]
}

/// Feeds both agents over `entries` each request and its corrupted copy.
fn agents_agree(
    entries: &[(Oid, SnmpValue)],
    requests: &[Request],
    limit: Option<usize>,
    bulk: bool,
) {
    let mut pair = Pair::new(entries, bulk, limit);
    for (kind, names, request_id, community, position, flip) in requests {
        let community = if *community == 0 {
            "private"
        } else {
            COMMUNITY
        };
        let request = build_request(kind, community, *request_id, names, entries);
        pair.handle(&request);
        let mut corrupted = request;
        let position = position % corrupted.len();
        corrupted[position] ^= flip;
        pair.handle(&corrupted);
    }
}

/// The bindings `names` stand for among `entries`.
fn resolve(names: &[(Name, SnmpValue)], entries: &[(Oid, SnmpValue)]) -> Vec<VarBind> {
    let entry = |i: usize| {
        entries
            .get(i % entries.len().max(1))
            .map(|(k, _)| k.clone())
    };
    names
        .iter()
        .map(|(name, value)| {
            let oid = match name {
                Name::Entry(i) => entry(*i).filter(Oid::is_encodable),
                Name::PrefixOf(i) => entry(*i)
                    .map(|k| Oid::from(&k.arcs()[..k.len().saturating_sub(1)]))
                    .filter(Oid::is_encodable),
                Name::Other(oid) => Some(oid.clone()),
                Name::PastTheEnd => None,
            };
            VarBind::new(
                oid.unwrap_or_else(|| Oid::from([2, u32::MAX - 80, u32::MAX])),
                value.clone(),
            )
        })
        .collect()
}

fn build_request(
    kind: &Kind,
    community: &str,
    request_id: i32,
    names: &[(Name, SnmpValue)],
    entries: &[(Oid, SnmpValue)],
) -> Vec<u8> {
    encode_request(kind, community, request_id, resolve(names, entries))
}

fn encode_request(
    kind: &Kind,
    community: &str,
    request_id: i32,
    bindings: Vec<VarBind>,
) -> Vec<u8> {
    let (version, body) = match kind {
        Kind::Pdu(pdu_type) => (
            SnmpVersion::V1,
            MessageBody::Pdu(Pdu {
                pdu_type: *pdu_type,
                request_id,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                bindings,
            }),
        ),
        Kind::Bulk {
            version,
            non_repeaters,
            max_repetitions,
        } => (
            *version,
            MessageBody::Bulk(BulkPdu {
                request_id,
                non_repeaters: *non_repeaters,
                max_repetitions: *max_repetitions,
                bindings,
            }),
        ),
    };
    oracle::encode_message(&SnmpMessage {
        version,
        community: community.into(),
        body,
    })
    .expect("request names and values are encodable")
}

proptest! {
    /// Any message — every PDU kind, traps, bulk, either version — encodes
    /// to the oracle's bytes, or is refused exactly when the oracle
    /// refuses it.
    #[test]
    fn messages_encode_to_identical_bytes(msg in arb_message()) {
        prop_assert_eq!(msg.encode(), oracle::encode_message(&msg));
    }

    /// The request builders write what encoding the equivalent message
    /// writes.
    #[test]
    fn request_builders_encode_to_identical_bytes(
        community in "[a-zA-Z0-9]{0,16}",
        request_id in any::<i32>(),
        non_repeaters in any::<u32>(),
        max_repetitions in any::<u32>(),
        oids in prop::collection::vec(arb_any_oid(), 0..12),
    ) {
        let as_error = |r: Result<Vec<u8>, netqos_snmp::SnmpError>| r.map_err(|e| e.to_string());
        let expect = |msg: SnmpMessage| {
            oracle::encode_message(&msg).map_err(|e| netqos_snmp::SnmpError::from(e).to_string())
        };
        let get = Pdu::request(PduType::GetRequest, request_id, &oids);
        prop_assert_eq!(
            as_error(client::build_get(&community, request_id, &oids)),
            expect(SnmpMessage::v1(&community, get))
        );
        let next = Pdu::request(PduType::GetNextRequest, request_id, &oids);
        prop_assert_eq!(
            as_error(client::build_get_next(&community, request_id, &oids)),
            expect(SnmpMessage::v1(&community, next))
        );
        let bulk = BulkPdu::request(request_id, non_repeaters, max_repetitions, &oids);
        prop_assert_eq!(
            as_error(client::build_get_bulk(
                &community, request_id, non_repeaters, max_repetitions, &oids
            )),
            expect(SnmpMessage::v2c_bulk(&community, bulk))
        );
    }

    /// Any request against any MIB: identical response bytes (or the same
    /// silence) and identical statistics, with and without a response
    /// limit, for the right and the wrong community, and for the same
    /// request with one byte corrupted.
    #[test]
    fn agent_answers_identically(
        entries in arb_mib(),
        requests in arb_requests(),
        limit in arb_limit(),
        bulk in any::<bool>(),
    ) {
        agents_agree(&entries, &requests, limit, bulk);
    }

    /// Gets the agent meets again — interleaved past its memo, under new
    /// ids and the wrong community, one byte changed, names padded, and
    /// after a cell they name went — are answered as the oracle answers
    /// them, every time.
    #[test]
    fn repeated_gets_are_answered_identically(
        entries in arb_mib(),
        shapes in arb_shapes(),
        asks in arb_asks(),
        removed in any::<usize>(),
    ) {
        repeated_gets_agree(&entries, &shapes, &asks, removed);
    }

    /// Gets over name lists repeated and interleaved — more of them than
    /// the manager's memo holds — encode to the oracle's bytes, through
    /// `build_get` and through one `Manager`.
    #[test]
    fn repeated_gets_encode_to_identical_bytes(
        lists in prop::collection::vec(prop::collection::vec(arb_any_oid(), 0..8), 1..9),
        asks in prop::collection::vec((any::<usize>(), any::<i32>(), "[a-z]{0,8}"), 1..32),
    ) {
        let mut manager = client::Manager::default();
        for (list, request_id, community) in asks {
            let oids = &lists[list % lists.len()];
            let get = Pdu::request(PduType::GetRequest, request_id, oids);
            let expected = oracle::encode_message(&SnmpMessage::v1(&community, get))
                .map_err(|e| netqos_snmp::SnmpError::from(e).to_string());
            prop_assert_eq!(
                client::build_get(&community, request_id, oids).map_err(|e| e.to_string()),
                expected.clone()
            );
            let encoded = manager.encode_get(&community, request_id, oids);
            prop_assert_eq!(encoded.map(<[u8]>::to_vec).map_err(|e| e.to_string()), expected);
        }
    }

    /// Arbitrary bytes never panic either agent and are dropped alike.
    #[test]
    fn agents_drop_garbage_alike(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut pair = Pair::new(&demo_mib(), false, None);
        pair.handle(&bytes);
    }

    /// Any well-formed message at all (traps, responses, sets with
    /// arbitrary values) is treated alike.
    #[test]
    fn agents_treat_any_message_alike(msg in arb_message(), limit in 30usize..200) {
        if let Ok(request) = oracle::encode_message(&msg) {
            let mut pair = Pair::new(&demo_mib(), true, Some(limit));
            pair.handle(&request);
            let mut public = msg;
            public.community = COMMUNITY.into();
            pair.handle(&oracle::encode_message(&public).unwrap());
        }
    }
}

/// The names of a Get that the agent's memo meets again: mostly names the
/// MIB holds, so that most lists are answered in full and remembered, now
/// and then a prefix of one or a name it does not hold.
fn arb_get_names() -> impl Strategy<Value = Vec<(Name, SnmpValue)>> {
    let name = prop_oneof![
        any::<usize>().prop_map(Name::Entry),
        any::<usize>().prop_map(Name::Entry),
        any::<usize>().prop_map(Name::Entry),
        any::<usize>().prop_map(Name::Entry),
        any::<usize>().prop_map(Name::PrefixOf),
        arb_oid().prop_map(Name::Other),
    ];
    let value = prop_oneof![
        Just(SnmpValue::Null),
        Just(SnmpValue::Null),
        strategies::arb_value()
    ];
    prop::collection::vec((name, value), 1..8)
}

/// Up to twice as many shapes as the agent's memo holds.
fn arb_shapes() -> impl Strategy<Value = Vec<Vec<(Name, SnmpValue)>>> {
    prop::collection::vec(arb_get_names(), 1..9)
}

/// Which shape is asked next, under which request-id, and with which
/// community (0 is the wrong one).
type Ask = (usize, i32, u8);

fn arb_asks() -> impl Strategy<Value = Vec<Ask>> {
    prop::collection::vec((any::<usize>(), any::<i32>(), 0u8..6), 1..32)
}

/// Hands `request` to both agents twice: a Get the library agent answered
/// in full the first time, it answers from the names it remembered the
/// second. Both times must agree with the oracle, bytes and statistics.
fn twice(pair: &mut Pair, request: &[u8]) -> Option<Vec<u8>> {
    let first = pair.handle(request);
    let again = pair.handle(request);
    assert_eq!(first, again, "request {request:02x?}");
    again
}

/// One element, written by hand.
fn tlv(tag_byte: u8, content: &[u8]) -> Vec<u8> {
    let mut out = vec![tag_byte];
    ber::push_length(&mut out, content.len());
    out.extend_from_slice(content);
    out
}

/// A v1 GetRequest for `list` written by hand, each name's first
/// subidentifier padded with a leading `0x80` octet: names BER allows but
/// no encoder writes, which an answer carries in canonical form.
fn padded_get(community: &str, request_id: i32, list: &[VarBind]) -> Vec<u8> {
    let mut bindings = Vec::new();
    for vb in list {
        let name = ber::encode_oid(&vb.oid).unwrap();
        let canonical = ber::Reader::new(&name).expect_element(tag::OID).unwrap();
        let padded = [&[0x80][..], canonical.rest()].concat();
        let value = ber::encode_value(&vb.value).unwrap();
        bindings.extend(tlv(
            tag::SEQUENCE,
            &[tlv(tag::OID, &padded), value].concat(),
        ));
    }
    let pdu = [
        ber::encode_integer(request_id.into()),
        ber::encode_integer(0),
        ber::encode_integer(0),
        tlv(tag::SEQUENCE, &bindings),
    ]
    .concat();
    let message = [
        ber::encode_integer(0),
        tlv(tag::OCTET_STRING, community.as_bytes()),
        tlv(tag::GET_REQUEST, &pdu),
    ]
    .concat();
    tlv(tag::SEQUENCE, &message)
}

/// Gets over `shapes` of names, asked in the order `asks` gives — more
/// shapes interleaved than the agent's memo holds, under new ids and the
/// wrong community — then each shape again as it is, with one byte of its
/// list changed, and with its names padded; then each once more after the
/// entry `removed` picks left both MIBs. Every answer, each given twice,
/// must be the oracle's.
fn repeated_gets_agree(
    entries: &[(Oid, SnmpValue)],
    shapes: &[Vec<(Name, SnmpValue)>],
    asks: &[Ask],
    removed: usize,
) {
    let mut pair = Pair::new(entries, false, None);
    let get = Kind::Pdu(PduType::GetRequest);
    let lists: Vec<Vec<VarBind>> = shapes.iter().map(|names| resolve(names, entries)).collect();
    for &(shape, request_id, community) in asks {
        let community = if community == 0 { "private" } else { COMMUNITY };
        let list = lists[shape % lists.len()].clone();
        twice(
            &mut pair,
            &encode_request(&get, community, request_id, list),
        );
    }
    for (request_id, list) in (0..).zip(&lists) {
        let request = encode_request(&get, COMMUNITY, request_id, list.clone());
        twice(&mut pair, &request);
        // The low bit of the last name's last arc flipped: the lists
        // differ in that one octet, past the first name when there are
        // two or more.
        let last = &list.last().expect("a name or more").oid;
        if last.len() > 2 {
            let mut arcs = last.arcs().to_vec();
            *arcs.last_mut().unwrap() ^= 1;
            let mut changed = list.clone();
            changed.last_mut().unwrap().oid = Oid::new(arcs);
            let other = encode_request(&get, COMMUNITY, request_id, changed);
            assert_eq!(other.len(), request.len());
            let differing = request.iter().zip(&other).filter(|(a, b)| a != b);
            assert_eq!(differing.count(), 1);
            twice(&mut pair, &other);
        }
        twice(&mut pair, &padded_get(COMMUNITY, request_id, list));
    }
    let Some((gone, _)) = entries.get(removed % entries.len().max(1)) else {
        return;
    };
    pair.mib.remove(gone);
    pair.oracle_mib.remove(gone);
    for (request_id, list) in (0..).zip(&lists) {
        let request = encode_request(&get, COMMUNITY, request_id, list.clone());
        let answer = twice(&mut pair, &request);
        // A list that names a cell no longer held fails at its first such
        // name, and echoes its bindings.
        if let Some(missing) = list
            .iter()
            .position(|vb| pair.oracle_mib.get(&vb.oid).is_none())
        {
            let pdu = decode_response(&answer.expect("an error answer")).unwrap();
            assert_eq!(pdu.error_status, ErrorStatus::NoSuchName);
            assert_eq!(pdu.error_index as usize, missing + 1);
            assert_eq!(pdu.bindings, *list);
        }
    }
}

#[test]
fn a_padded_name_is_answered_and_echoed_in_canonical_form() {
    let mut pair = Pair::new(&demo_mib(), false, None);
    let held = vec![
        VarBind::null(oid("1.3.6.1.2.1.1.3.0")),
        VarBind::null(oid("1.3.6.1.2.1.2.2.1.10.1")),
    ];
    let missing = vec![held[0].clone(), VarBind::null(oid("1.3.9.9"))];
    let get = Kind::Pdu(PduType::GetRequest);
    for list in [held, missing] {
        let canonical = encode_request(&get, COMMUNITY, 4, list.clone());
        let padded = padded_get(COMMUNITY, 4, &list);
        assert_ne!(padded, canonical);
        // Answered once in full, a list is answered from what the agent
        // remembered the next time.
        let first = twice(&mut pair, &padded);
        assert_eq!(first, twice(&mut pair, &canonical));
        assert_eq!(first, twice(&mut pair, &padded));
    }
}

/// How an answer's bindings are changed before the manager reads it.
#[derive(Debug, Clone)]
enum Reshape {
    /// Binding *i*'s name becomes another.
    Rename(usize, Oid),
    /// Binding *i*'s name gains an arc.
    Extend(usize, u32),
    /// Binding *i*'s name loses its last arc, if it has three or more.
    Shorten(usize),
    /// Bindings *i* and *j* trade places.
    Swap(usize, usize),
    /// Binding *i*'s name is written with a leading `0x80` octet.
    Pad(usize),
    /// Binding *i*'s name is written under a long-form length.
    LongLength(usize),
    /// Binding *i* is left out.
    Drop(usize),
    /// A binding is added at the end.
    Append(Oid, SnmpValue),
}

fn arb_reshape() -> impl Strategy<Value = Reshape> {
    prop_oneof![
        (any::<usize>(), arb_oid()).prop_map(|(i, name)| Reshape::Rename(i, name)),
        (any::<usize>(), strategies::arb_arc()).prop_map(|(i, arc)| Reshape::Extend(i, arc)),
        any::<usize>().prop_map(Reshape::Shorten),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Reshape::Swap(i, j)),
        any::<usize>().prop_map(Reshape::Pad),
        any::<usize>().prop_map(Reshape::LongLength),
        any::<usize>().prop_map(Reshape::Drop),
        (arb_oid(), strategies::arb_value()).prop_map(|(name, value)| Reshape::Append(name, value)),
    ]
}

/// Two answers in five as the agent wrote them.
fn arb_reshapes() -> impl Strategy<Value = Vec<Reshape>> {
    let some = || prop::collection::vec(arb_reshape(), 1..4);
    prop_oneof![Just(Vec::new()), Just(Vec::new()), some(), some(), some()]
}

/// What becomes of the whole encoded answer.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// Cut to this many octets (modulo its length).
    Cut(usize),
    /// One octet flipped.
    Flip(usize, u8),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    let flip = || (any::<usize>(), 1u8..=255).prop_map(|(at, flip)| Damage::Flip(at, flip));
    prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::None),
        any::<usize>().prop_map(Damage::Cut),
        flip(),
        flip(),
    ]
}

/// The names the manager reads the answer against.
#[derive(Debug, Clone)]
enum Asked {
    /// The names the Get carried.
    Sent,
    /// Those, with name *i*'s last arc changed.
    LastArc(usize, u32),
    /// Those, with name *i*'s first two arcs split another way: `1.3` as
    /// `0.43`, `2.5` as `1.45`, names no encoder writes whose first
    /// subidentifier is the same octet.
    Aliased(usize),
    /// Those, with name *i* replaced by the arcs its encoding's octets
    /// spell, continuation octets and all.
    RawOctets(usize),
    /// The first few of them.
    Shorter(usize),
    /// All of them and more.
    Longer(Vec<Oid>),
    /// Any names at all, BER-encodable or not.
    Other(Vec<Oid>),
}

fn arb_asked() -> impl Strategy<Value = Asked> {
    let names = || prop::collection::vec(arb_any_oid(), 0..8);
    let last_arc = || {
        (any::<usize>(), prop_oneof![Just(1u32), any::<u32>()])
            .prop_map(|(i, change)| Asked::LastArc(i, change))
    };
    let raw_octets = || any::<usize>().prop_map(Asked::RawOctets);
    prop_oneof![
        Just(Asked::Sent),
        Just(Asked::Sent),
        Just(Asked::Sent),
        Just(Asked::Sent),
        Just(Asked::Sent),
        Just(Asked::Sent),
        last_arc(),
        last_arc(),
        any::<usize>().prop_map(Asked::Aliased),
        raw_octets(),
        raw_octets(),
        any::<usize>().prop_map(Asked::Shorter),
        names().prop_map(Asked::Longer),
        names().prop_map(Asked::Other),
    ]
}

/// Mostly the id a fresh manager's first Get carries, now and then
/// another.
fn arb_request_id() -> impl Strategy<Value = i32> {
    prop_oneof![Just(FIRST_ID), Just(FIRST_ID), Just(FIRST_ID), any::<i32>()]
}

impl Asked {
    fn names(&self, sent: &[Oid]) -> Vec<Oid> {
        let mut names = sent.to_vec();
        let nth = |i: usize| i % sent.len().max(1);
        let mut replace = |i: usize, f: &dyn Fn(&[u32]) -> Option<Vec<u32>>| {
            if let Some(name) = names.get_mut(nth(i)) {
                if let Some(arcs) = f(name.arcs()) {
                    *name = Oid::new(arcs);
                }
            }
        };
        match self {
            Asked::Sent => {}
            Asked::LastArc(i, change) => replace(*i, &|arcs| {
                let mut arcs = arcs.to_vec();
                *arcs.last_mut()? ^= change;
                Some(arcs)
            }),
            Asked::Aliased(i) => replace(*i, &|arcs| {
                let mut arcs = arcs.to_vec();
                match arcs[..] {
                    [first, second, ..] if first >= 1 => {
                        arcs[0] = first - 1;
                        arcs[1] = second.checked_add(40)?;
                    }
                    [first, second, ..] if second >= 40 => {
                        arcs[0] = first + 1;
                        arcs[1] = second - 40;
                    }
                    _ => return None,
                }
                Some(arcs)
            }),
            Asked::RawOctets(i) => replace(*i, &|arcs| {
                let element = ber::encode_oid(&Oid::from(arcs)).ok()?;
                let content = ber::Reader::new(&element)
                    .expect_element(tag::OID)
                    .ok()?
                    .rest();
                let head = u32::from(content[0]);
                let mut spelled = vec![head / 40, head % 40];
                spelled.extend(content[1..].iter().map(|&octet| u32::from(octet)));
                Some(spelled)
            }),
            Asked::Shorter(keep) => names.truncate(keep % (sent.len() + 1)),
            Asked::Longer(more) => names.extend(more.iter().cloned()),
            Asked::Other(other) => names = other.clone(),
        }
        names
    }
}

/// How a binding's name is written.
#[derive(Debug, Clone, Copy)]
enum NameForm {
    Canonical,
    Padded,
    LongLength,
}

/// The datagram that answers the Get for `sent` under `request_id` —
/// `agent`'s answer over `mib`, or, where it stays silent, every name
/// bound to NULL — with its bindings reshaped and then damaged.
fn reshaped_answer(
    agent: &mut SnmpAgent,
    mib: &ScalarMib,
    sent: &[Oid],
    request_id: i32,
    reshapes: &[Reshape],
    damage: &Damage,
) -> Vec<u8> {
    let request = client::build_get(COMMUNITY, request_id, sent).unwrap();
    let pdu = agent.handle(&request, mib).map_or_else(
        || Pdu::request(PduType::GetResponse, request_id, sent),
        |answer| decode_response(&answer).unwrap(),
    );
    let mut bindings: Vec<(Oid, NameForm, SnmpValue)> = pdu
        .bindings
        .into_iter()
        .map(|vb| (vb.oid, NameForm::Canonical, vb.value))
        .collect();
    for reshape in reshapes {
        let len = bindings.len();
        if let Reshape::Append(name, value) = reshape {
            bindings.push((name.clone(), NameForm::Canonical, value.clone()));
            continue;
        }
        if len == 0 {
            continue;
        }
        match reshape {
            Reshape::Rename(i, name) => bindings[i % len].0 = name.clone(),
            Reshape::Extend(i, arc) => bindings[i % len].0 = bindings[i % len].0.child(*arc),
            Reshape::Shorten(i) => {
                let name = &mut bindings[i % len].0;
                if name.len() > 2 {
                    *name = Oid::from(&name.arcs()[..name.len() - 1]);
                }
            }
            Reshape::Swap(i, j) => bindings.swap(i % len, j % len),
            Reshape::Pad(i) => bindings[i % len].1 = NameForm::Padded,
            Reshape::LongLength(i) => bindings[i % len].1 = NameForm::LongLength,
            Reshape::Drop(i) => drop(bindings.remove(i % len)),
            Reshape::Append(..) => unreachable!("appended above"),
        }
    }
    let mut list = Vec::new();
    for (name, form, value) in &bindings {
        let canonical = ber::encode_oid(name).unwrap();
        let content = ber::Reader::new(&canonical)
            .expect_element(tag::OID)
            .unwrap()
            .rest();
        let name = match form {
            NameForm::Canonical => canonical.clone(),
            NameForm::Padded => tlv(tag::OID, &[&[0x80][..], content].concat()),
            NameForm::LongLength => [&[tag::OID, 0x81, content.len() as u8][..], content].concat(),
        };
        let value = ber::encode_value(value).unwrap();
        list.extend(tlv(tag::SEQUENCE, &[name, value].concat()));
    }
    let body = [
        ber::encode_integer(pdu.request_id.into()),
        ber::encode_integer(pdu.error_status.code()),
        ber::encode_integer(pdu.error_index.into()),
        tlv(tag::SEQUENCE, &list),
    ]
    .concat();
    let message = [
        ber::encode_integer(0),
        tlv(tag::OCTET_STRING, COMMUNITY.as_bytes()),
        tlv(tag::GET_RESPONSE, &body),
    ]
    .concat();
    let mut answer = tlv(tag::SEQUENCE, &message);
    match *damage {
        Damage::None => {}
        Damage::Cut(at) => answer.truncate(at % answer.len()),
        Damage::Flip(at, flip) => {
            let at = at % answer.len();
            answer[at] ^= flip;
        }
    }
    answer
}

/// What a polled agent holds: mostly names of arcs below 128, as
/// MIB-II's are — the ifTable's, and names under `0.x`, `1.x` and `2.x`,
/// x on both sides of 48 — now and then any name.
fn arb_polled_mib() -> impl Strategy<Value = Vec<(Oid, SnmpValue)>> {
    let small = || {
        let head = prop_oneof![(0u32..=1, 0u32..40), (Just(2u32), 0u32..60)];
        (head, prop::collection::vec(0u32..128, 0..14))
            .prop_map(|((first, second), rest)| Oid::from(&[first, second][..]).extend(&rest))
    };
    let key = prop_oneof![
        arb_table_name(),
        arb_table_name(),
        small(),
        small(),
        arb_oid()
    ];
    prop::collection::vec((key, strategies::arb_value()), 1..24)
}

/// The names of a Get to a polled agent: nearly all of them held, so
/// that most answers echo the names, now and then a prefix of one or a
/// name it does not hold.
fn arb_polled_names() -> impl Strategy<Value = Vec<(Name, SnmpValue)>> {
    let name = (0u8..16, any::<usize>(), arb_oid()).prop_map(|(pick, i, other)| match pick {
        0 => Name::PrefixOf(i),
        1 => Name::Other(other),
        _ => Name::Entry(i),
    });
    prop::collection::vec((name, Just(SnmpValue::Null)), 1..8)
}

/// The request-id a fresh manager's first Get carries.
const FIRST_ID: i32 = 1;

/// What `Manager::visit_answer` gives for `answer` read against `asked`
/// with a visitor that takes `stop` bindings and refuses the next: the
/// outcome, and every binding the visitor was handed.
type Visit = (
    Result<Result<usize, usize>, netqos_snmp::SnmpError>,
    Vec<VarBind>,
);

fn visit(answer: &[u8], asked: &[Oid], stop: usize) -> Visit {
    let mut seen = Vec::new();
    let outcome =
        client::Manager::default().visit_answer(answer, FIRST_ID, asked, |name, value| {
            seen.push(VarBind::new(name.clone(), value.to_value()));
            if seen.len() > stop {
                Err(seen.len())
            } else {
                Ok(())
            }
        });
    (outcome, seen)
}

/// What `Session::get_many(asked)` returns when the agent answers with
/// `answer`, whatever the request was.
fn get_many(answer: &[u8], asked: &[Oid]) -> Result<Vec<VarBind>, netqos_snmp::SnmpError> {
    let answer = answer.to_vec();
    let transport = netqos_snmp::transport::FnTransport(move |_: &[u8]| Some(answer.clone()));
    client::SnmpClient::new(transport, COMMUNITY).get_many(asked)
}

/// A Get of the names `names` picks over `entries`, answered by the
/// library agent, reshaped and damaged, then read against the names
/// `asked` picks: the visit and the vector decode must give what they
/// give against no names at all, and what the oracle decoder gives —
/// names, values, bindings visited, the visitor's refusal, the error.
fn asked_reads_agree(
    entries: &[(Oid, SnmpValue)],
    names: &[(Name, SnmpValue)],
    request_id: i32,
    reshapes: &[Reshape],
    damage: &Damage,
    asked: &Asked,
    stop: usize,
) {
    let sent: Vec<Oid> = resolve(names, entries)
        .into_iter()
        .map(|vb| vb.oid)
        .collect();
    let mut mib = ScalarMib::new();
    mib.extend(entries.iter().cloned());
    let mut agent = SnmpAgent::new(COMMUNITY);
    let answer = reshaped_answer(&mut agent, &mib, &sent, request_id, reshapes, damage);
    let asked = asked.names(&sent);

    let expected = oracle::answer::get_many(&answer, FIRST_ID);
    // A Get must be able to carry the names it asks.
    if asked.iter().all(Oid::is_encodable) {
        assert_eq!(
            get_many(&answer, &asked),
            expected,
            "{answer:02x?} against {asked:?}"
        );
    }
    assert_eq!(get_many(&answer, &[]), expected, "{answer:02x?}");

    let unasked = visit(&answer, &[], stop);
    assert_eq!(
        visit(&answer, &asked, stop),
        unasked,
        "{answer:02x?} against {asked:?}"
    );
    let (outcome, seen) = unasked;
    match expected {
        Ok(bindings) => {
            let taken = bindings.len().min(stop + 1);
            assert_eq!(seen, bindings[..taken]);
            let verdict = if bindings.len() > stop {
                Err(stop + 1)
            } else {
                Ok(bindings.len())
            };
            assert_eq!(outcome, Ok(verdict));
        }
        Err(e) => assert_eq!(outcome, Err(e)),
    }
}

proptest! {
    /// The manager reads an answer against the names it asked exactly as
    /// it reads it against none, and as the oracle decodes it, whatever
    /// the answer holds: the echo of the names, names renamed, extended,
    /// shortened, reordered, padded, under long-form lengths, left out or
    /// added; cut or with an octet flipped; read against the names sent,
    /// against those changed, aliased, spelled from their octets, cut
    /// short or extended, or against any names at all.
    #[test]
    fn an_answer_reads_alike_against_the_names_asked_and_against_none(
        entries in arb_polled_mib(),
        names in arb_polled_names(),
        request_id in arb_request_id(),
        reshapes in arb_reshapes(),
        damage in arb_damage(),
        asked in arb_asked(),
        stop in 0usize..10,
    ) {
        asked_reads_agree(&entries, &names, request_id, &reshapes, &damage, &asked, stop);
    }
}

/// How a MIB operation names an instance: one the MIB holds, the name
/// just before or just after one it holds, or any name at all.
#[derive(Debug, Clone)]
enum Key {
    Held(usize),
    Before(usize),
    After(usize),
    Any(Oid),
}

impl Key {
    fn resolve(&self, held: &OracleMib) -> Oid {
        let nth = |i: usize| {
            held.iter()
                .nth(i % held.len().max(1))
                .map(|(k, _)| k.clone())
        };
        let near = |i: usize| nth(i).unwrap_or_else(|| oid("1.3"));
        match self {
            Key::Held(i) => near(*i),
            Key::Before(i) => {
                let k = near(*i);
                Oid::from(&k.arcs()[..k.len().saturating_sub(1)])
            }
            Key::After(i) => near(*i).child(0),
            Key::Any(oid) => oid.clone(),
        }
    }
}

#[derive(Debug, Clone)]
enum MibOp {
    Insert(Key, SnmpValue),
    /// A bulk build of names in any order, duplicates included.
    Install(Vec<(Key, SnmpValue)>),
    /// A bulk build of names under the last one held, in order: the path
    /// that needs no sort.
    Append(Vec<u32>, SnmpValue),
    Remove(Key),
    Get(Key),
    NextAfter(Key),
    Subtree(Key),
}

fn arb_key() -> impl Strategy<Value = Key> {
    prop_oneof![
        any::<usize>().prop_map(Key::Held),
        any::<usize>().prop_map(Key::Held),
        any::<usize>().prop_map(Key::Before),
        any::<usize>().prop_map(Key::After),
        arb_any_oid().prop_map(Key::Any),
        arb_table_name().prop_map(Key::Any),
        arb_table_name().prop_map(Key::Any),
    ]
}

/// Names shaped like the `ifTable`'s, where the MIB keeps rows: cells of
/// columns 0–23 at ifIndex 0–5 or `u32::MAX`, names one arc short of a
/// cell and one arc long, and the `ifEntry` and `ifTable` prefixes.
fn arb_table_name() -> impl Strategy<Value = Oid> {
    let col = || 0u32..24;
    // Rows exist only from ifIndex 1 up, so the low ones come often.
    let if_index = || prop_oneof![1u32..3, 0u32..6, Just(u32::MAX)];
    let cell = || (col(), if_index()).prop_map(|(c, i)| interfaces::instance_oid(c, i));
    prop_oneof![
        cell(),
        cell(),
        cell(),
        col().prop_map(interfaces::column_oid),
        (cell(), 0u32..3).prop_map(|(cell, arc)| cell.child(arc)),
        Just(interfaces::if_entry_base()),
        Just(oid("1.3.6.1.2.1.2.2")),
    ]
}

fn arb_mib_ops() -> impl Strategy<Value = Vec<MibOp>> {
    let op = prop_oneof![
        (arb_key(), arb_any_value()).prop_map(|(k, v)| MibOp::Insert(k, v)),
        (arb_key(), arb_any_value()).prop_map(|(k, v)| MibOp::Insert(k, v)),
        prop::collection::vec((arb_key(), arb_any_value()), 0..24).prop_map(MibOp::Install),
        (prop::collection::vec(0u32..64, 0..12), arb_any_value())
            .prop_map(|(arcs, v)| MibOp::Append(arcs, v)),
        arb_key().prop_map(MibOp::Remove),
        arb_key().prop_map(MibOp::Get),
        arb_key().prop_map(MibOp::NextAfter),
        arb_key().prop_map(MibOp::Subtree),
    ];
    prop::collection::vec(op, 0..48)
}

/// An oracle entry as the flat MIB hands one out.
fn borrowed<'a>((name, value): (&'a Oid, &'a SnmpValue)) -> (Cow<'a, Oid>, &'a SnmpValue) {
    (Cow::Borrowed(name), value)
}

/// Runs `ops` on the flat MIB and on the B-tree, requiring every answer,
/// every length, and at the end every entry and every lookup to agree.
fn mib_ops_agree(ops: &[MibOp]) {
    let mut mib = ScalarMib::new();
    let mut oracle = OracleMib::default();
    for op in ops {
        match op {
            MibOp::Insert(key, value) => {
                let name = key.resolve(&oracle);
                mib.insert(name.clone(), value.clone());
                oracle.insert(name, value.clone());
            }
            MibOp::Install(batch) => {
                let batch: Vec<(Oid, SnmpValue)> = batch
                    .iter()
                    .map(|(key, value)| (key.resolve(&oracle), value.clone()))
                    .collect();
                mib.extend(batch.iter().cloned());
                for (name, value) in batch {
                    oracle.insert(name, value);
                }
            }
            MibOp::Append(arcs, value) => {
                let base = oracle
                    .iter()
                    .last()
                    .map_or_else(|| oid("1.3"), |(k, _)| k.clone());
                let mut arcs = arcs.clone();
                arcs.sort_unstable();
                arcs.dedup();
                let run: Vec<(Oid, SnmpValue)> = arcs
                    .iter()
                    .map(|&a| (base.child(a), value.clone()))
                    .collect();
                mib.extend(run.iter().cloned());
                for (name, value) in run {
                    oracle.insert(name, value);
                }
            }
            MibOp::Remove(key) => {
                let name = key.resolve(&oracle);
                assert_eq!(mib.remove(&name), oracle.remove(&name), "remove {name}");
            }
            MibOp::Get(key) => {
                let name = key.resolve(&oracle);
                assert_eq!(mib.get(&name), oracle.get(&name), "get {name}");
            }
            MibOp::NextAfter(key) => {
                let name = key.resolve(&oracle);
                assert_eq!(
                    mib.next_after(&name),
                    oracle.next_after(&name),
                    "next_after {name}"
                );
            }
            MibOp::Subtree(key) => {
                let name = key.resolve(&oracle);
                assert!(
                    mib.subtree(&name).eq(oracle.subtree(&name).map(borrowed)),
                    "subtree {name}"
                );
            }
        }
        assert_eq!(mib.len(), oracle.len());
        assert_eq!(mib.is_empty(), oracle.len() == 0);
    }
    assert!(mib.iter().eq(oracle.iter().map(borrowed)));
    for (name, value) in oracle.iter() {
        assert_eq!(mib.get(name), Some(value.into()), "get {name}");
    }
}

#[test]
fn a_bulk_walk_stops_where_the_response_passes_its_limit() {
    // Forty counters, then a value no message can carry.
    let mut mib: Vec<(Oid, SnmpValue)> = (1..=40)
        .map(|i| {
            (
                oid("1.3.6.1.2.1.2.2.1.10").child(i),
                SnmpValue::Counter32(i),
            )
        })
        .collect();
    mib.push((oid("1.3.7.0"), SnmpValue::oid(Oid::from([1]))));
    let walk = BulkPdu::request(5, 0, i32::MAX as u32, &[oid("1.3"), oid("1.3")]);
    let walk = oracle::encode_message(&SnmpMessage::v2c_bulk(COMMUNITY, walk)).unwrap();
    // The answer passes 200 bytes long before the walk meets the value.
    let mut pair = Pair::new(&mib, true, Some(200));
    let resp = pair.handle(&walk).unwrap();
    assert_eq!(
        decode_response(&resp).unwrap().error_status,
        ErrorStatus::TooBig
    );
    assert_eq!(pair.library.stats().error_responses, 1);
    // With room for the whole walk, the value comes first: silence.
    let mut pair = Pair::new(&mib, false, None);
    assert_eq!(pair.handle(&walk), None);
    assert_eq!(pair.library.stats().answered, 0);
}

proptest! {
    /// Any sequence of inserts (of new names and held ones), bulk builds,
    /// removals and lookups leaves the flat MIB answering as the B-tree.
    #[test]
    fn the_flat_mib_answers_as_the_btree(ops in arb_mib_ops()) {
        mib_ops_agree(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn the_flat_mib_answers_as_the_btree_at_length(ops in arb_mib_ops()) {
        mib_ops_agree(&ops);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn repeated_gets_are_answered_identically_at_length(
        entries in arb_mib(),
        shapes in arb_shapes(),
        asks in arb_asks(),
        removed in any::<usize>(),
    ) {
        repeated_gets_agree(&entries, &shapes, &asks, removed);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn an_answer_reads_alike_against_the_names_asked_and_against_none_at_length(
        entries in arb_polled_mib(),
        names in arb_polled_names(),
        request_id in arb_request_id(),
        reshapes in arb_reshapes(),
        damage in arb_damage(),
        asked in arb_asked(),
        stop in 0usize..10,
    ) {
        asked_reads_agree(&entries, &names, request_id, &reshapes, &damage, &asked, stop);
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn agent_answers_identically_at_length(
        entries in arb_mib(),
        requests in arb_requests(),
        limit in arb_limit(),
        bulk in any::<bool>(),
    ) {
        agents_agree(&entries, &requests, limit, bulk);
    }
}
