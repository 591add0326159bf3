//! Robustness property tests: the parsers must return `Ok` or a positioned
//! `ParseError` on *any* input — never panic — because Campion's first step
//! in production is parsing configs it has never seen.

use proptest::prelude::*;

use crate::cisco::parse_cisco;
use crate::juniper::{parse_juniper, parse_juniper_set};
use crate::{detect_vendor, parse_config, samples};

/// Fragments that steer random inputs toward the interesting grammar.
const CISCO_WORDS: &[&str] = &[
    "ip",
    "route",
    "prefix-list",
    "permit",
    "deny",
    "route-map",
    "match",
    "set",
    "community",
    "access-list",
    "extended",
    "neighbor",
    "router",
    "bgp",
    "ospf",
    "interface",
    "le",
    "ge",
    "10.0.0.0",
    "255.255.0.0",
    "0.0.0.255",
    "any",
    "host",
    "eq",
    "range",
    "tcp",
    "udp",
    "local-preference",
    "seq",
    "!",
    "\n",
    " ",
    "65000:1",
    "Gi0/0",
    "area",
    "network",
];

pub(crate) const JUNIPER_WORDS: &[&str] = &[
    "policy-options",
    "policy-statement",
    "term",
    "from",
    "then",
    "accept",
    "reject",
    "prefix-list",
    "route-filter",
    "orlonger",
    "exact",
    "upto",
    "community",
    "members",
    "firewall",
    "family",
    "inet",
    "filter",
    "protocols",
    "bgp",
    "group",
    "neighbor",
    "routing-options",
    "static",
    "route",
    "next-hop",
    "{",
    "}",
    ";",
    "[",
    "]",
    "\n",
    " ",
    "10.0.0.0/8",
    "10:10",
    "\"",
    "#",
    "/*",
    "*/",
    "interface",
    "unit",
    "address",
];

pub(crate) fn soup(words: &'static [&'static str]) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(words), 0..120).prop_map(|ws| ws.concat())
}

/// Mutate a valid config by deleting a random byte range.
pub(crate) fn mutated(base: &'static str) -> impl Strategy<Value = String> {
    (0..base.len(), 0..base.len()).prop_map(move |(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut s = String::new();
        for (i, ch) in base.char_indices() {
            if i < lo || i >= hi {
                s.push(ch);
            }
        }
        s
    })
}

proptest! {
    // At least 256 cases; honor a larger PROPTEST_CASES from the
    // environment.
    #![proptest_config(ProptestConfig::with_cases(
        ProptestConfig::default().cases.max(256)
    ))]

    #[test]
    fn cisco_parser_never_panics_on_word_soup(input in soup(CISCO_WORDS)) {
        let _ = parse_cisco(&input);
    }

    #[test]
    fn juniper_parser_never_panics_on_word_soup(input in soup(JUNIPER_WORDS)) {
        let _ = parse_juniper(&input);
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(input in "\\PC*") {
        let _ = parse_cisco(&input);
        let _ = parse_juniper(&input);
        let _ = parse_juniper_set(&input);
        let _ = parse_config(&input);
        let _ = detect_vendor(&input);
    }

    #[test]
    fn cisco_parser_survives_mutations(input in mutated(samples::FIGURE1_CISCO)) {
        let _ = parse_cisco(&input);
    }

    #[test]
    fn juniper_parser_survives_mutations(input in mutated(samples::FIGURE1_JUNIPER)) {
        let _ = parse_juniper(&input);
    }

    /// Errors always carry a line number inside the file (or 0 for
    /// file-level problems).
    #[test]
    fn error_positions_are_in_range(input in soup(CISCO_WORDS)) {
        if let Err(e) = parse_cisco(&input) {
            let lines = input.lines().count() as u32;
            prop_assert!(e.line <= lines.max(1), "line {} of {lines}", e.line);
        }
    }
}
