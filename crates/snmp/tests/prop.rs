//! Property-based tests for the SNMP codec layers: round-trip identities
//! and decoder robustness against arbitrary bytes.

mod strategies;

use netqos_snmp::ber::{self, Reader};
use netqos_snmp::client::Manager;
use netqos_snmp::message::{MessageBody, SnmpMessage, SnmpVersion};
use netqos_snmp::oid::{Oid, INLINE_ARCS};
use netqos_snmp::pdu::TrapPdu;
use netqos_snmp::value::SnmpValue;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use strategies::{arb_any_oid, arb_arc, arb_oid, arb_pdu, arb_value, arb_varbind};

/// Two arc sequences on either side of the inline capacity that often
/// share a prefix, so prefix tests and near-equal comparisons occur.
fn arb_arc_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    let arcs = || prop::collection::vec(arb_arc(), 0..2 * INLINE_ARCS);
    (arcs(), arcs(), 0..2 * INLINE_ARCS, any::<bool>()).prop_map(|(a, tail, keep, related)| {
        if related {
            let mut b = a[..keep.min(a.len())].to_vec();
            b.extend(&tail[..tail.len().min(3)]);
            (a, b)
        } else {
            (a, tail)
        }
    })
}

fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    /// An OID behaves as its arc sequence whichever way it was built and
    /// wherever the arcs are stored: at most `INLINE_ARCS` arcs live
    /// inline, longer ones (BRIDGE-MIB forwarding-database instances have
    /// 17) on the heap.
    #[test]
    fn oid_is_its_arcs_on_both_sides_of_the_inline_capacity(
        (a, b) in arb_arc_pair(),
        arc in arb_arc(),
    ) {
        let (oa, ob) = (Oid::new(a.clone()), Oid::new(b.clone()));
        prop_assert_eq!(oa.arcs(), &a[..]);
        prop_assert_eq!(oa.len(), a.len());
        prop_assert_eq!(oa.is_empty(), a.is_empty());

        // Every construction route yields the same OID.
        let mut pushed = Oid::empty();
        for &x in &a {
            pushed.push(x);
        }
        let routes = [Oid::from(&a[..]), pushed, Oid::empty().extend(&a), oa.clone()];
        for other in &routes {
            prop_assert_eq!(other, &oa);
            prop_assert_eq!(hash_of(other), hash_of(&oa));
            prop_assert_eq!(other.cmp(&oa), std::cmp::Ordering::Equal);
        }
        if !a.is_empty() {
            prop_assert_eq!(&oa.to_string().parse::<Oid>().unwrap(), &oa);
        }

        // Comparison, equality and hashing follow the arcs.
        prop_assert_eq!(oa.cmp(&ob), a.cmp(&b));
        prop_assert_eq!(oa == ob, a == b);
        prop_assert_eq!(hash_of(&oa) == hash_of(&ob), a == b);
        prop_assert_eq!(hash_of(&oa), hash_of(&a[..]));

        let dotted: Vec<String> = a.iter().map(u32::to_string).collect();
        prop_assert_eq!(oa.to_string(), dotted.join("."));

        prop_assert_eq!(oa.starts_with(&ob), a.starts_with(&b));
        prop_assert_eq!(oa.suffix_of(&ob), a.strip_prefix(&b[..]));

        let mut with_arc = a.clone();
        with_arc.push(arc);
        prop_assert_eq!(oa.child(arc).arcs(), &with_arc[..]);
        let joined = [&a[..], &b[..]].concat();
        prop_assert_eq!(oa.extend(&b).arcs(), &joined[..]);
        prop_assert!(oa.child(arc) > oa);
        prop_assert!(oa.child(arc).starts_with(&oa));
    }

    #[test]
    fn value_round_trip(v in arb_value()) {
        let enc = ber::encode_value(&v).unwrap();
        let mut r = Reader::new(&enc);
        let back = r.read_value().unwrap();
        prop_assert_eq!(back, v);
        r.finish().unwrap();
    }

    #[test]
    fn oid_round_trip(o in arb_oid()) {
        let enc = ber::encode_oid(&o).unwrap();
        let mut r = Reader::new(&enc);
        prop_assert_eq!(r.read_oid().unwrap(), o);
    }

    #[test]
    fn oid_parse_display_round_trip(o in arb_oid()) {
        let s = o.to_string();
        let back: Oid = s.parse().unwrap();
        prop_assert_eq!(back, o);
    }

    #[test]
    fn integer_round_trip(v in any::<i64>()) {
        let enc = ber::encode_integer(v);
        let mut r = Reader::new(&enc);
        prop_assert_eq!(r.read_integer().unwrap(), v);
    }

    #[test]
    fn message_round_trip(pdu in arb_pdu(), community in "[a-zA-Z0-9]{0,16}") {
        let msg = SnmpMessage::v1(&community, pdu);
        let enc = msg.encode().unwrap();
        let back = SnmpMessage::decode(&enc).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn trap_round_trip(
        enterprise in arb_oid(),
        addr in any::<[u8; 4]>(),
        generic in 0i32..7,
        specific in any::<i32>(),
        stamp in any::<u32>(),
        bindings in prop::collection::vec(arb_varbind(), 0..4),
    ) {
        let trap = TrapPdu { enterprise, agent_addr: addr, generic_trap: generic,
                             specific_trap: specific, time_stamp: stamp, bindings };
        let msg = SnmpMessage::v1_trap("t", trap);
        let enc = msg.encode().unwrap();
        let back = SnmpMessage::decode(&enc).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// The decoder must never panic, whatever bytes arrive and whatever
    /// names the manager reads them against; it may only return errors.
    #[test]
    fn decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        asked in prop::collection::vec(arb_any_oid(), 0..8),
    ) {
        let _ = SnmpMessage::decode(&bytes);
        let mut r = Reader::new(&bytes);
        let _ = r.read_value();
        let _ = Manager::default().visit_answer(&bytes, 1, &asked, |_, _| Ok::<(), ()>(()));
        for name in &asked {
            let _ = Reader::new(&bytes).skip_oid_if(name);
        }
    }

    /// `skip_oid_if` takes exactly the name's encoding when every
    /// subidentifier is one octet, and otherwise reads nothing; what it
    /// takes decodes to that name, over those octets.
    #[test]
    fn skip_oid_if_takes_what_decodes_to_its_name(
        name in arb_any_oid(),
        other in arb_oid(),
        tail in prop::collection::vec(any::<u8>(), 0..4),
        flip in (any::<usize>(), 0u8..=255),
    ) {
        for encoded in [&name, &other].map(|oid| ber::encode_oid(oid).unwrap_or_default()) {
            let mut bytes = [&encoded[..], &tail].concat();
            let (at, mask) = flip;
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
            let mut skipped = Reader::new(&bytes);
            let mut read = Reader::new(&bytes);
            if skipped.skip_oid_if(&name) {
                prop_assert_eq!(read.read_oid(), Ok(name.clone()));
                prop_assert_eq!(skipped.rest(), read.rest());
            } else {
                prop_assert_eq!(skipped.remaining(), bytes.len());
            }
        }
        let one_octet = name.is_encodable()
            && name.len() <= 128
            && name.arcs()[0] * 40 + name.arcs()[1] < 128
            && name.arcs()[2..].iter().all(|&arc| arc < 128);
        let encoded = [ber::encode_oid(&name).unwrap_or_default(), tail.clone()].concat();
        let mut r = Reader::new(&encoded);
        prop_assert_eq!(r.skip_oid_if(&name), one_octet);
        if one_octet {
            prop_assert_eq!(r.rest(), &tail[..]);
        }
    }

    /// Flipping any single byte of a valid message must never panic the
    /// decoder (it may still decode successfully, e.g. a flipped counter
    /// byte).
    #[test]
    fn decoder_survives_single_byte_corruption(
        pdu in arb_pdu(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        // Read against the names the message carried, as an answer is.
        let names: Vec<Oid> = pdu.bindings.iter().map(|vb| vb.oid.clone()).collect();
        let msg = SnmpMessage::v1("public", pdu);
        let mut enc = msg.encode().unwrap();
        let pos = pos_seed % enc.len();
        enc[pos] ^= flip;
        let _ = SnmpMessage::decode(&enc);
        let _ = Manager::default().visit_answer(&enc, 1, &names, |_, _| Ok::<(), ()>(()));
    }

    /// Version field sanity: decoding always reports V1 for messages we
    /// produce.
    #[test]
    fn version_always_v1(pdu in arb_pdu()) {
        let msg = SnmpMessage::v1("c", pdu);
        let enc = msg.encode().unwrap();
        let back = SnmpMessage::decode(&enc).unwrap();
        prop_assert_eq!(back.version, SnmpVersion::V1);
        prop_assert!(matches!(back.body, MessageBody::Pdu(_)));
    }

    /// A v2c bulk walk yields exactly the same instances as a v1 GetNext
    /// walk, for arbitrary MIB contents and any max-repetitions.
    #[test]
    fn bulk_walk_equals_getnext_walk(
        entries in prop::collection::vec((arb_oid(), arb_value()), 1..30),
        reps in 1u32..25,
    ) {
        use netqos_snmp::agent::SnmpAgent;
        use netqos_snmp::client::SnmpClient;
        use netqos_snmp::mib::ScalarMib;
        use netqos_snmp::transport::LoopbackTransport;

        let mut mib = ScalarMib::new();
        for (oid, value) in &entries {
            // Request-side placeholders and the end-of-walk marker
            // cannot be response values in a walk comparison; replace
            // them with an Integer marker.
            let v = if matches!(value, SnmpValue::Null) || value.is_exception() {
                SnmpValue::Integer(0)
            } else {
                value.clone()
            };
            mib.insert(oid.clone(), v);
        }
        let prefix: Oid = Oid::from([1, 3]);

        let t = LoopbackTransport::new(SnmpAgent::new("c"), mib.clone());
        let mut c1 = SnmpClient::new(t, "c");
        let via_next = c1.session().walk(&prefix).unwrap();

        let t = LoopbackTransport::new(SnmpAgent::new("c"), mib);
        let mut c2 = SnmpClient::new(t, "c");
        let via_bulk = c2.session().bulk_walk(&prefix, reps).unwrap();

        prop_assert_eq!(via_next, via_bulk);
    }
}
