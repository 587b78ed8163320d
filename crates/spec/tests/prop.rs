//! Property tests: the writer and parser are mutual inverses over
//! arbitrary well-formed specification models.

use netqos_spec::ast::*;
use netqos_spec::{parse, write_spec};
use netqos_topology::NodeKind;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = NodeKind> {
    prop::sample::select(vec![
        NodeKind::Host,
        NodeKind::Switch,
        NodeKind::Hub,
        NodeKind::Router,
    ])
}

fn arb_speed() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![
        10_000u64,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
        1234,
    ])
}

fn arb_interface(ix: usize) -> impl Strategy<Value = InterfaceDecl> {
    prop::option::of(arb_speed()).prop_map(move |speed_bps| InterfaceDecl {
        local_name: format!("if{ix}"),
        speed_bps,
        span: Default::default(),
    })
}

fn arb_node(ix: usize) -> impl Strategy<Value = NodeDecl> {
    (
        arb_kind(),
        prop::option::of("[a-zA-Z ]{1,12}"),
        prop::option::of((0u8..255, 0u8..255).prop_map(|(a, b)| format!("10.{a}.{b}.1"))),
        prop::option::of("[a-z]{1,8}"),
        prop::option::of(arb_speed()),
        prop::collection::vec(Just(()), 0..4),
    )
        .prop_flat_map(move |(kind, os, address, community, default_speed, ifs)| {
            let n = ifs.len();
            (0..n)
                .map(arb_interface)
                .collect::<Vec<_>>()
                .prop_map(move |interfaces| NodeDecl {
                    name: format!("n{ix}"),
                    kind,
                    os: os.clone(),
                    address: address.clone(),
                    snmp_community: community.clone(),
                    default_speed,
                    interfaces,
                    span: Default::default(),
                })
        })
}

/// A qospath between two of `nodes` nodes, with any integer percentage.
fn arb_qos_path(ix: usize, nodes: usize) -> impl Strategy<Value = QosPathDecl> {
    (
        0..nodes,
        0..nodes,
        prop::option::of(arb_speed()),
        prop::option::of((1u32..=100).prop_map(|p| p as f64 / 100.0)),
    )
        .prop_map(
            move |(from, to, min_available_bps, max_utilization)| QosPathDecl {
                name: format!("q{ix}"),
                from: format!("n{from}"),
                to: format!("n{to}"),
                min_available_bps,
                max_utilization,
                application: None,
                span: Default::default(),
            },
        )
}

fn arb_spec() -> impl Strategy<Value = SpecFile> {
    (1usize..5, 0usize..6).prop_flat_map(|(n, paths)| {
        (
            (0..n).map(arb_node).collect::<Vec<_>>(),
            (0..paths).map(|ix| arb_qos_path(ix, n)).collect::<Vec<_>>(),
        )
            .prop_map(|(nodes, qos_paths)| SpecFile {
                nodes,
                connections: Vec::new(),
                applications: Vec::new(),
                qos_paths,
            })
    })
}

fn semantically_equal(a: &SpecFile, b: &SpecFile) -> bool {
    // Parsed declarations carry spans; generated ones do not.
    let same_path = |(x, y): (&QosPathDecl, &QosPathDecl)| {
        QosPathDecl {
            span: y.span,
            ..x.clone()
        } == *y
    };
    if a.nodes.len() != b.nodes.len()
        || a.qos_paths.len() != b.qos_paths.len()
        || !a.qos_paths.iter().zip(&b.qos_paths).all(same_path)
    {
        return false;
    }
    a.nodes.iter().zip(&b.nodes).all(|(x, y)| {
        x.name == y.name
            && x.kind == y.kind
            && x.os == y.os
            && x.address == y.address
            && x.snmp_community == y.snmp_community
            && x.default_speed == y.default_speed
            && x.interfaces
                .iter()
                .map(|i| (&i.local_name, i.speed_bps))
                .eq(y.interfaces.iter().map(|i| (&i.local_name, i.speed_bps)))
    })
}

proptest! {
    /// write → parse recovers the same model.
    #[test]
    fn write_parse_identity(spec in arb_spec()) {
        let text = write_spec(&spec);
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        prop_assert!(semantically_equal(&spec, &back), "mismatch:\n{text}");
    }

    /// write is idempotent modulo parse: writing the reparsed AST yields
    /// identical text.
    #[test]
    fn write_is_canonical(spec in arb_spec()) {
        let t1 = write_spec(&spec);
        let back = parse(&t1).unwrap();
        let t2 = write_spec(&back);
        prop_assert_eq!(t1, t2);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let _ = parse(&src);
    }
}
