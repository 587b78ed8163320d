//! `netqos_telemetry::parse_json` never panics on the documents the
//! service publishes, however they are damaged. The seeds are a
//! two-switch service's `/alerts` (a firing alert with its bottleneck
//! diagnosis) and `/snapshot`; every cut, every flipped bit or byte and
//! every inserted byte of a small alphabet must come back `Ok` or `Err`,
//! and so must random combinations of several edits.

use netqos_loadgen::{LoadProfile, ProfiledSource};
use netqos_monitor::service::{MonitoringService, ServiceConfig};
use netqos_monitor::simnet::SimNetworkOptions;
use netqos_telemetry::{parse_json, MAX_JSON_DEPTH};
use proptest::prelude::*;
use std::sync::OnceLock;

const TWO_SWITCH: &str = include_str!("../../../specs/two-switch.spec");

/// `/alerts` and `/snapshot` after a sustained violation of `feed1`.
fn documents() -> &'static [String; 2] {
    static DOCS: OnceLock<[String; 2]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let model = netqos_spec::parse_and_validate(TWO_SWITCH).unwrap();
        let options = SimNetworkOptions {
            monitor_host: "console".into(),
            ..SimNetworkOptions::default()
        };
        let config = ServiceConfig::default();
        let mut svc = MonitoringService::from_model_with(model, options, config, |b, map, m| {
            let from = m.topology.node_by_name("sensor1").unwrap();
            let to = m.topology.node_by_name("console").unwrap();
            let load = ProfiledSource::new(
                m.addresses[&to].parse().unwrap(),
                LoadProfile::constant(11_000_000),
            );
            b.install_app(map[&from], Box::new(load), None).unwrap();
        })
        .unwrap();
        svc.run_ticks(6).unwrap();
        assert!(
            svc.alerts().firing_count() >= 1,
            "the load must fire an alert"
        );
        [svc.live().alerts_json(), svc.live().snapshot_json()]
    })
}

/// `bytes` read as text: whatever the damage, `Ok` or `Err`.
fn parses_or_refuses(bytes: &[u8]) {
    let _ = parse_json(&String::from_utf8_lossy(bytes));
}

/// Bytes worth inserting: structure, string and number syntax, a
/// continuation byte and a lead byte.
const INSERTS: [u8; 12] = [
    b'{', b'}', b'[', b']', b'"', b'\\', b':', b',', b'-', b'e', 0x80, 0xe2,
];

#[test]
fn the_published_documents_parse() {
    let [alerts, snapshot] = documents();
    let alerts = parse_json(alerts).unwrap();
    let firing = alerts.get("alerts").and_then(|a| a.as_array()).unwrap();
    let annotations = firing[0].get("annotations").unwrap();
    assert!(annotations.get("bottleneck").is_some(), "{alerts:?}");
    let snapshot = parse_json(snapshot).unwrap();
    let paths = snapshot.get("paths").and_then(|p| p.as_array()).unwrap();
    assert_eq!(paths.len(), 3);
    let violated = snapshot.get("violated").and_then(|v| v.as_array()).unwrap();
    assert_eq!(violated[0].as_str(), Some("feed1"));
}

#[test]
fn every_cut_flip_and_insertion_parses_or_refuses() {
    for doc in documents() {
        let doc = doc.as_bytes();
        for cut in 0..doc.len() {
            parses_or_refuses(&doc[..cut]);
            parses_or_refuses(&doc[cut..]);
        }
        for at in 0..doc.len() {
            for mask in [0xff, 1, 2, 4, 8, 16, 32, 64, 128] {
                let mut damaged = doc.to_vec();
                damaged[at] ^= mask;
                parses_or_refuses(&damaged);
            }
            for byte in INSERTS {
                let mut damaged = doc.to_vec();
                damaged.insert(at, byte);
                parses_or_refuses(&damaged);
            }
        }
    }
}

/// A document buried under more brackets than the parser nests is
/// refused, not a stack overflow.
#[test]
fn a_document_nested_past_the_cap_is_refused() {
    for doc in documents() {
        let deep = format!(
            "{}{doc}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&deep).is_err());
        let deep = "[".repeat(1 << 20) + doc;
        assert!(parse_json(&deep).is_err());
    }
}

/// Up to eight edits of any kind, anywhere.
fn damaged(doc: &[u8], edits: &[(u8, usize, u8)]) -> Vec<u8> {
    let mut out = doc.to_vec();
    for &(kind, at, byte) in edits {
        let at = at % (out.len() + 1);
        match kind % 4 {
            0 => out.truncate(at),
            1 if at < out.len() => out[at] ^= byte | 1,
            2 => out.insert(at, byte),
            _ => out.insert(at, INSERTS[byte as usize % INSERTS.len()]),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_documents_parse_or_refuse(
        which in 0usize..2,
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..8),
    ) {
        parses_or_refuses(&damaged(documents()[which].as_bytes(), &edits));
    }
}
