//! Input strategies shared by the SNMP property tests.

#![allow(dead_code)] // each including test crate uses its own subset

use netqos_snmp::message::{MessageBody, SnmpMessage, SnmpVersion};
use netqos_snmp::oid::Oid;
use netqos_snmp::pdu::{BulkPdu, ErrorStatus, Pdu, PduType, TrapPdu, VarBind};
use netqos_snmp::value::SnmpValue;
use proptest::prelude::*;

/// An arc: mostly small, with the base-128 group boundaries and the top
/// of the range mixed in.
pub fn arb_arc() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..130,
        0u32..130,
        16_382u32..16_386,
        2_097_150u32..2_097_154,
        any::<u32>(),
        Just(u32::MAX),
    ]
}

/// Arbitrary BER-encodable OID: first arc 0 or 1 with a second arc below
/// 40, or first arc 2 with any second arc whose combined subidentifier
/// still fits 32 bits; then up to 15 free arcs, so both the inline and
/// the heap representation occur.
pub fn arb_oid() -> impl Strategy<Value = Oid> {
    let head = prop_oneof![
        (0u32..=1, 0u32..40),
        (Just(2u32), arb_arc().prop_map(|arc| arc.min(u32::MAX - 80))),
    ];
    (head, prop::collection::vec(arb_arc(), 0..16)).prop_map(|((first, second), rest)| {
        let mut arcs = vec![first, second];
        arcs.extend(rest);
        Oid::new(arcs)
    })
}

/// Any OID at all, including those BER cannot carry.
pub fn arb_any_oid() -> impl Strategy<Value = Oid> {
    prop_oneof![
        arb_oid(),
        arb_oid(),
        arb_oid(),
        prop::collection::vec(arb_arc(), 0..4).prop_map(Oid::new),
        arb_arc().prop_map(|second| Oid::from([2, second])),
    ]
}

fn arb_value_with(oid: impl Strategy<Value = Oid> + 'static) -> impl Strategy<Value = SnmpValue> {
    prop_oneof![
        any::<i64>().prop_map(SnmpValue::Integer),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(SnmpValue::OctetString),
        // Long enough for a two-octet length.
        prop::collection::vec(any::<u8>(), 120..300).prop_map(SnmpValue::OctetString),
        Just(SnmpValue::Null),
        oid.prop_map(SnmpValue::oid),
        any::<[u8; 4]>().prop_map(SnmpValue::IpAddress),
        any::<u32>().prop_map(SnmpValue::Counter32),
        any::<u32>().prop_map(SnmpValue::Gauge32),
        any::<u32>().prop_map(SnmpValue::TimeTicks),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(SnmpValue::Opaque),
        Just(SnmpValue::NoSuchObject),
        Just(SnmpValue::NoSuchInstance),
        Just(SnmpValue::EndOfMibView),
    ]
}

/// Any value the wire can carry.
pub fn arb_value() -> impl Strategy<Value = SnmpValue> {
    arb_value_with(arb_oid())
}

/// Any value, including OIDs the wire cannot carry.
pub fn arb_any_value() -> impl Strategy<Value = SnmpValue> {
    arb_value_with(arb_any_oid())
}

pub fn arb_varbind() -> impl Strategy<Value = VarBind> {
    (arb_oid(), arb_value()).prop_map(|(oid, value)| VarBind { oid, value })
}

fn arb_pdu_with(bindings: impl Strategy<Value = Vec<VarBind>>) -> impl Strategy<Value = Pdu> {
    (
        prop::sample::select(vec![
            PduType::GetRequest,
            PduType::GetNextRequest,
            PduType::GetResponse,
            PduType::SetRequest,
        ]),
        any::<i32>(),
        0i64..6,
        prop_oneof![0u32..10, any::<u32>()],
        bindings,
    )
        .prop_map(
            |(pdu_type, request_id, status, error_index, bindings)| Pdu {
                pdu_type,
                request_id,
                error_status: ErrorStatus::from_code(status),
                error_index,
                bindings,
            },
        )
}

pub fn arb_pdu() -> impl Strategy<Value = Pdu> {
    arb_pdu_with(prop::collection::vec(arb_varbind(), 0..8))
}

fn arb_any_varbinds() -> impl Strategy<Value = Vec<VarBind>> {
    prop::collection::vec(
        (arb_any_oid(), arb_any_value()).prop_map(|(oid, value)| VarBind { oid, value }),
        0..12,
    )
}

/// Any message: both versions, every PDU kind, traps and GetBulk, a
/// community that may be binary or need a long-form length, and now and
/// then an OID the encoder must refuse.
pub fn arb_message() -> impl Strategy<Value = SnmpMessage> {
    let body = prop_oneof![
        arb_pdu_with(arb_any_varbinds()).prop_map(MessageBody::Pdu),
        arb_pdu_with(arb_any_varbinds()).prop_map(MessageBody::Pdu),
        (
            arb_any_oid(),
            any::<[u8; 4]>(),
            any::<i32>(),
            any::<i32>(),
            any::<u32>(),
            arb_any_varbinds(),
        )
            .prop_map(
                |(enterprise, agent_addr, generic_trap, specific_trap, time_stamp, bindings)| {
                    MessageBody::Trap(TrapPdu {
                        enterprise,
                        agent_addr,
                        generic_trap,
                        specific_trap,
                        time_stamp,
                        bindings,
                    })
                }
            ),
        (any::<i32>(), any::<u32>(), any::<u32>(), arb_any_varbinds()).prop_map(
            |(request_id, non_repeaters, max_repetitions, bindings)| {
                MessageBody::Bulk(BulkPdu {
                    request_id,
                    non_repeaters,
                    max_repetitions,
                    bindings,
                })
            }
        ),
    ];
    (
        prop::sample::select(vec![SnmpVersion::V1, SnmpVersion::V2c]),
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..16),
            prop::collection::vec(any::<u8>(), 126..140),
        ],
        body,
    )
        .prop_map(|(version, community, body)| SnmpMessage {
            version,
            community,
            body,
        })
}
