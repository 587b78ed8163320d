//! The on-demand lexer and parser against the eager ones they replaced
//! (`oracle/`): on every input, `parse` returns the same `SpecFile`, or
//! the same `SpecError` with the same span. Inputs: the shipped specs,
//! generated specs of 10 to 3 000 hosts, `lirtss.spec` cut at every byte,
//! generated specs with a byte flipped or inserted, and soups of tokens,
//! near-tokens and non-ASCII text.
//!
//! The `#[ignore]`d twins run the properties at CI's release-mode length:
//! `cargo test --release -p netqos-spec --test differential -- --ignored`.

mod oracle;

use netqos_spec::{generate_spec, parse, GenParams};
use proptest::prelude::*;

const LIRTSS: &str = include_str!("../../../specs/lirtss.spec");

/// At most `limit` chars of `text`.
fn clip(text: &str, limit: usize) -> String {
    match text.char_indices().nth(limit) {
        Some((at, _)) => format!("{}…", &text[..at]),
        None => text.to_owned(),
    }
}

fn agrees(src: &str) {
    let (new, old) = (parse(src), oracle::parse(src));
    assert!(
        new == old,
        "parse disagrees with the oracle on {:?}\n  parse: {}\n oracle: {}",
        clip(src, 400),
        clip(&format!("{new:?}"), 800),
        clip(&format!("{old:?}"), 800),
    );
}

fn agrees_on_bytes(bytes: &[u8]) {
    agrees(&String::from_utf8_lossy(bytes));
}

#[test]
fn every_shipped_spec_parses_as_the_oracle_does() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut specs = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "spec") {
            let src = std::fs::read_to_string(&path).unwrap();
            assert!(parse(&src).is_ok(), "{}", path.display());
            agrees(&src);
            specs += 1;
        }
    }
    assert!(specs >= 2, "found {specs} specs in {dir}");
}

#[test]
fn lirtss_cut_at_every_byte_fails_as_the_oracle_does() {
    let bytes = LIRTSS.as_bytes();
    for cut in 0..=bytes.len() {
        agrees_on_bytes(&bytes[..cut]);
    }
}

#[test]
fn generated_specs_at_the_benchmark_sizes() {
    for hosts in [10, 1_000, 3_000] {
        let src = generate_spec(&GenParams {
            hosts,
            ..GenParams::default()
        });
        assert!(parse(&src).is_ok());
        agrees(&src);
    }
}

fn arb_params(hosts: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = GenParams> {
    (hosts, 1usize..40, 1usize..10, 0usize..5, 0usize..24).prop_map(
        |(hosts, hosts_per_ap, aps_per_site, hub_every, qos_paths)| GenParams {
            hosts,
            hosts_per_ap,
            aps_per_site,
            hub_every,
            qos_paths,
        },
    )
}

/// `src` with the byte at `at` flipped by `mask`, or with `byte` inserted
/// there when `mask` is 0.
fn damaged(src: &str, at: usize, mask: u8, byte: u8) -> Vec<u8> {
    let mut bytes = src.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match (mask, bytes.get_mut(at)) {
        (0, _) | (_, None) => bytes.insert(at, byte),
        (_, Some(b)) => *b ^= mask,
    }
    bytes
}

/// Tokens, broken tokens and text that is whitespace only to Unicode.
const SOUP: &[&str] = &[
    "host",
    "device",
    "switch",
    "hub",
    "router",
    "bridge",
    "interface",
    "speed",
    "os",
    "address",
    "snmp",
    "community",
    "connection",
    "qospath",
    "from",
    "to",
    "min_available",
    "max_utilization",
    "application",
    "on",
    "pinned",
    "L",
    "eth-0",
    "_x9",
    "{",
    "}",
    ";",
    ".",
    "<-",
    "<->",
    "<",
    "-",
    ">",
    "10",
    "0",
    "255",
    "1.5Mbps",
    "2.x",
    "2.",
    "10Zbps",
    "100Mbps",
    "500KBps",
    "7bps",
    "80%",
    "57%",
    "99999999999999999999999",
    "\"Linux\"",
    "\"é\"",
    "\"unterminated",
    "# comment",
    "#",
    "\u{a0}",
    "\u{2028}",
    "é",
    "$",
    "%",
    "\r",
    "\u{feff}",
];

fn arb_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            prop::sample::select(SOUP.to_vec()),
            prop::sample::select(vec!["", " ", " ", "\n", "\t"]),
        ),
        0..40,
    )
    .prop_map(|parts| parts.into_iter().flat_map(|(t, sep)| [t, sep]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn generated_specs_parse_as_the_oracle_does(params in arb_params(10..=3_000)) {
        agrees(&generate_spec(&params));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_damaged_spec_fails_as_the_oracle_does(
        params in arb_params(10..=60),
        at in any::<usize>(),
        mask in prop_oneof![Just(0u8), Just(0xff), (0u32..8).prop_map(|bit| 1u8 << bit)],
        byte in any::<u8>(),
    ) {
        agrees_on_bytes(&damaged(&generate_spec(&params), at, mask, byte));
    }

    #[test]
    fn token_soup_parses_as_the_oracle_does(src in arb_soup()) {
        agrees(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    #[ignore = "256 cases of up to 3 000 hosts: run in release mode"]
    fn generated_specs_parse_as_the_oracle_does_at_length(params in arb_params(10..=3_000)) {
        agrees(&generate_spec(&params));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn a_damaged_spec_fails_as_the_oracle_does_at_length(
        params in arb_params(10..=60),
        at in any::<usize>(),
        mask in prop_oneof![Just(0u8), Just(0xff), (0u32..8).prop_map(|bit| 1u8 << bit)],
        byte in any::<u8>(),
    ) {
        agrees_on_bytes(&damaged(&generate_spec(&params), at, mask, byte));
    }

    #[test]
    #[ignore = "20 000 cases: run in release mode"]
    fn token_soup_parses_as_the_oracle_does_at_length(src in arb_soup()) {
        agrees(&src);
    }
}
