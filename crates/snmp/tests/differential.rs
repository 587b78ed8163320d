//! Differential tests: the single-buffer encoder and the one-pass agent
//! against the reference oracle (the encoder and agent they replaced).

mod oracle;
mod strategies;

use netqos_snmp::agent::{decode_response, SnmpAgent};
use netqos_snmp::client;
use netqos_snmp::message::{MessageBody, SnmpMessage, SnmpVersion};
use netqos_snmp::mib::ScalarMib;
use netqos_snmp::pdu::{BulkPdu, ErrorStatus, Pdu, PduType, VarBind};
use netqos_snmp::{Oid, SnmpValue};
use oracle::OracleAgent;
use proptest::prelude::*;
use strategies::{arb_any_oid, arb_any_value, arb_message, arb_oid};

const COMMUNITY: &str = "public";

/// Both agents over the same MIB, fed the same datagrams.
struct Pair {
    library: SnmpAgent,
    oracle: OracleAgent,
    mib: ScalarMib,
}

impl Pair {
    fn new(mib: ScalarMib, max_response_bytes: Option<usize>) -> Self {
        let mut library = SnmpAgent::new(COMMUNITY);
        if let Some(limit) = max_response_bytes {
            library.set_max_response_bytes(limit);
        }
        Pair {
            library,
            oracle: OracleAgent::new(COMMUNITY, max_response_bytes.unwrap_or(65_507)),
            mib,
        }
    }

    /// Asserts both agents answer `request` alike and returns the answer.
    fn handle(&mut self, request: &[u8]) -> Option<Vec<u8>> {
        let expected = self.oracle.handle(request, &self.mib);
        let got = self.library.handle(request, &self.mib);
        assert_eq!(got, expected, "request {request:02x?}");
        assert_eq!(self.library.stats(), self.oracle.stats);
        got
    }
}

fn oid(s: &str) -> Oid {
    s.parse().unwrap()
}

fn demo_mib() -> ScalarMib {
    let mut mib = ScalarMib::new();
    mib.insert(oid("1.3.6.1.2.1.1.3.0"), SnmpValue::TimeTicks(4242));
    mib.insert(oid("1.3.6.1.2.1.1.5.0"), SnmpValue::text("a host name"));
    mib.insert(
        oid("1.3.6.1.2.1.2.2.1.10.1"),
        SnmpValue::Counter32(u32::MAX),
    );
    mib.insert(
        oid("1.3.6.1.2.1.17.4.3.1.2.2.0.0.170.187.204"),
        SnmpValue::Integer(3),
    );
    mib
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
    let mut pair = Pair::new(demo_mib(), None);
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
    let mut pair = Pair::new(demo_mib(), None);
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
    let mut pair = Pair::new(demo_mib(), Some(48));
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
    let mut pair = Pair::new(demo_mib(), None);
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
    let mut pair = Pair::new(demo_mib(), None);
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
    mib.insert(oid("1.3.7.0"), SnmpValue::oid(Oid::from([1])));
    let mut pair = Pair::new(mib, None);
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
    let key = prop_oneof![arb_oid(), arb_oid(), arb_oid(), arb_oid(), arb_any_oid()];
    let value = prop_oneof![
        strategies::arb_value(),
        strategies::arb_value(),
        strategies::arb_value(),
        arb_any_value(),
    ];
    prop::collection::vec((key, value), 0..24)
}

fn build_request(
    kind: &Kind,
    community: &str,
    request_id: i32,
    names: &[(Name, SnmpValue)],
    entries: &[(Oid, SnmpValue)],
) -> Vec<u8> {
    let entry = |i: usize| {
        entries
            .get(i % entries.len().max(1))
            .map(|(k, _)| k.clone())
    };
    let bindings: Vec<VarBind> = names
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
        .collect();
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
        requests in prop::collection::vec(
            (arb_kind(), arb_names(), any::<i32>(), 0u8..8, any::<usize>(), 1u8..=255),
            1..6,
        ),
        limit in prop_oneof![Just(None), (30usize..400).prop_map(Some)],
    ) {
        let mut mib = ScalarMib::new();
        for (oid, value) in &entries {
            mib.insert(oid.clone(), value.clone());
        }
        let mut pair = Pair::new(mib, limit);
        for (kind, names, request_id, community, position, flip) in &requests {
            let community = if *community == 0 { "private" } else { COMMUNITY };
            let request = build_request(kind, community, *request_id, names, &entries);
            pair.handle(&request);
            let mut corrupted = request;
            let position = position % corrupted.len();
            corrupted[position] ^= flip;
            pair.handle(&corrupted);
        }
    }

    /// Arbitrary bytes never panic either agent and are dropped alike.
    #[test]
    fn agents_drop_garbage_alike(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut pair = Pair::new(demo_mib(), None);
        pair.handle(&bytes);
    }

    /// Any well-formed message at all (traps, responses, sets with
    /// arbitrary values) is treated alike.
    #[test]
    fn agents_treat_any_message_alike(msg in arb_message(), limit in 30usize..200) {
        if let Ok(request) = oracle::encode_message(&msg) {
            let mut pair = Pair::new(demo_mib(), Some(limit));
            pair.handle(&request);
            let mut public = msg;
            public.community = COMMUNITY.into();
            pair.handle(&oracle::encode_message(&public).unwrap());
        }
    }
}
