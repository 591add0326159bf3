//! Unit and property tests for network primitives.

use std::net::Ipv4Addr;

use crate::{service_port, Community, IpProtocol, PortRange, Prefix, PrefixRange, WildcardMask};

#[test]
fn prefix_parses_and_canonicalizes() {
    let p: Prefix = "10.9.1.77/24".parse().unwrap();
    assert_eq!(p.to_string(), "10.9.1.0/24");
    assert_eq!(p.len(), 24);
    assert_eq!(p.netmask(), Ipv4Addr::new(255, 255, 255, 0));
    let host: Prefix = "1.2.3.4".parse().unwrap();
    assert_eq!(host.len(), 32);
}

#[test]
fn prefix_rejects_garbage() {
    assert!("10.0.0.0/33".parse::<Prefix>().is_err());
    assert!("10.0.0/8".parse::<Prefix>().is_err());
    assert!("hello".parse::<Prefix>().is_err());
}

#[test]
fn prefix_containment() {
    let p16: Prefix = "10.9.0.0/16".parse().unwrap();
    let p24: Prefix = "10.9.1.0/24".parse().unwrap();
    let other: Prefix = "10.10.0.0/16".parse().unwrap();
    assert!(p16.contains(&p24));
    assert!(!p24.contains(&p16));
    assert!(!p16.contains(&other));
    assert!(Prefix::DEFAULT.contains(&p16));
    assert!(p16.contains(&p16));
}

#[test]
fn prefix_from_netmask() {
    let p = Prefix::from_netmask(
        Ipv4Addr::new(10, 1, 1, 2),
        Ipv4Addr::new(255, 255, 255, 254),
    )
    .unwrap();
    assert_eq!(p.to_string(), "10.1.1.2/31");
    assert!(
        Prefix::from_netmask(Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(255, 0, 255, 0)).is_err()
    );
}

#[test]
fn prefix_range_membership_matches_paper_examples() {
    // Examples from §3.2 of the paper.
    let r: PrefixRange = "1.2.0.0/16:16-32".parse().unwrap();
    assert!(r.member(&"1.2.3.0/24".parse().unwrap()));
    let u = PrefixRange::universe();
    assert!(u.member(&"0.0.0.0/0".parse().unwrap()));
    assert!(u.member(&"255.255.255.255/32".parse().unwrap()));
    let slash24s: PrefixRange = "1.0.0.0/8:24-24".parse().unwrap();
    assert!(slash24s.member(&"1.200.3.0/24".parse().unwrap()));
    assert!(!slash24s.member(&"2.0.0.0/24".parse().unwrap()));
    assert!(!slash24s.member(&"1.2.0.0/16".parse().unwrap()));
}

#[test]
fn prefix_range_containment() {
    let all: PrefixRange = "10.9.0.0/16:16-32".parse().unwrap();
    let exact: PrefixRange = "10.9.0.0/16:16-16".parse().unwrap();
    let sub: PrefixRange = "10.9.4.0/24:24-32".parse().unwrap();
    assert!(all.member_superset(&exact));
    assert!(all.member_superset(&sub));
    assert!(!exact.member_superset(&all));
    assert!(!sub.member_superset(&all));
    assert!(PrefixRange::universe().member_superset(&all));
}

#[test]
fn prefix_range_intersection() {
    let a: PrefixRange = "10.9.0.0/16:16-32".parse().unwrap();
    let b: PrefixRange = "10.9.4.0/24:20-28".parse().unwrap();
    let i = a.intersect(&b).unwrap();
    assert_eq!(i.to_string(), "10.9.4.0/24 : 20-28");
    // Disjoint addresses.
    let c: PrefixRange = "10.10.0.0/16:16-32".parse().unwrap();
    assert!(a.intersect(&c).is_none());
    // Disjoint length intervals.
    let d: PrefixRange = "10.9.0.0/16:16-16".parse().unwrap();
    let e: PrefixRange = "10.9.0.0/16:24-32".parse().unwrap();
    assert!(d.intersect(&e).is_none());
    // Intersection with the universe is identity.
    assert_eq!(a.intersect(&PrefixRange::universe()), Some(a));
}

#[test]
fn prefix_range_display_round_trip() {
    let r = PrefixRange::new("10.100.0.0/16".parse().unwrap(), 16, 32);
    assert_eq!(r.to_string(), "10.100.0.0/16 : 16-32");
    let back: PrefixRange = r.to_string().parse().unwrap();
    assert_eq!(back, r);
}

#[test]
fn community_round_trip() {
    let c: Community = "10:11".parse().unwrap();
    assert_eq!(c, Community::new(10, 11));
    assert_eq!(Community::from_u32(c.as_u32()), c);
    assert!("1011".parse::<Community>().is_err());
    assert!("a:b".parse::<Community>().is_err());
}

#[test]
fn protocol_numbers() {
    assert_eq!(IpProtocol::Tcp.number(), Some(6));
    assert_eq!(IpProtocol::Any.number(), None);
    assert_eq!(IpProtocol::from_number(17), IpProtocol::Udp);
    assert!(IpProtocol::Any.matches(200));
    assert!(IpProtocol::Icmp.matches(1));
    assert!(!IpProtocol::Icmp.matches(6));
    assert_eq!("tcp".parse::<IpProtocol>().unwrap(), IpProtocol::Tcp);
    assert_eq!("47".parse::<IpProtocol>().unwrap(), IpProtocol::Other(47));
}

#[test]
fn port_ranges() {
    let r = PortRange::new(1000, 2000);
    assert!(r.contains(1000) && r.contains(2000) && !r.contains(999));
    assert!(PortRange::ANY.contains(0) && PortRange::ANY.contains(65535));
    assert_eq!(PortRange::exact(443).to_string(), "443");
    assert_eq!(r.to_string(), "1000-2000");
    assert_eq!(PortRange::ANY.to_string(), "any");
}

#[test]
fn service_names() {
    assert_eq!(service_port("ftp-data"), Some(20));
    assert_eq!(service_port("www"), service_port("http"));
    assert_eq!(service_port("snmp"), Some(161));
    assert_eq!(service_port("80"), None, "numbers are not names");
    assert_eq!(service_port("gopher"), None);
}

#[test]
fn wildcard_masks() {
    // Table 7's matcher: 9.140.0.0 0.0.1.255 covers two adjacent /24s.
    let w = WildcardMask::new(Ipv4Addr::new(9, 140, 0, 0), Ipv4Addr::new(0, 0, 1, 255));
    assert!(w.matches(Ipv4Addr::new(9, 140, 0, 3)));
    assert!(w.matches(Ipv4Addr::new(9, 140, 1, 200)));
    assert!(!w.matches(Ipv4Addr::new(9, 140, 2, 1)));
    assert_eq!(w.as_prefix().unwrap().to_string(), "9.140.0.0/23");

    // A genuinely non-contiguous wildcard: every even /24 inside a /16.
    let nc = WildcardMask::new(Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(0, 0, 2, 255));
    assert!(nc.matches(Ipv4Addr::new(10, 0, 2, 9)));
    assert!(!nc.matches(Ipv4Addr::new(10, 0, 1, 9)));
    assert!(nc.as_prefix().is_none(), "0.0.2.255 is not contiguous");

    let contiguous = WildcardMask::new(Ipv4Addr::new(10, 0, 0, 0), Ipv4Addr::new(0, 0, 255, 255));
    assert_eq!(contiguous.as_prefix().unwrap().to_string(), "10.0.0.0/16");
    assert_eq!(
        WildcardMask::host(Ipv4Addr::new(1, 2, 3, 4))
            .as_prefix()
            .unwrap()
            .to_string(),
        "1.2.3.4/32"
    );
    assert!(WildcardMask::ANY.matches(Ipv4Addr::new(200, 1, 2, 3)));
    assert_eq!(
        WildcardMask::ANY.as_prefix().unwrap(),
        crate::Prefix::DEFAULT
    );
}

#[test]
fn wildcard_from_prefix_round_trips() {
    for s in ["0.0.0.0/0", "10.0.0.0/8", "10.9.1.0/24", "1.2.3.4/32"] {
        let p: Prefix = s.parse().unwrap();
        let w = WildcardMask::from_prefix(&p);
        assert_eq!(w.as_prefix(), Some(p), "round trip failed for {s}");
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::new(Ipv4Addr::from(bits), len))
    }

    fn arb_range() -> impl Strategy<Value = PrefixRange> {
        (arb_prefix(), 0u8..=32, 0u8..=32).prop_map(|(p, a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            PrefixRange::new(p, lo, hi)
        })
    }

    proptest! {
        #[test]
        fn intersection_agrees_with_membership(
            a in arb_range(), b in arb_range(), p in arb_prefix()
        ) {
            let both = a.member(&p) && b.member(&p);
            match a.intersect(&b) {
                Some(i) => prop_assert_eq!(i.member(&p), both),
                None => prop_assert!(!both),
            }
        }

        #[test]
        fn containment_implies_membership(a in arb_range(), b in arb_range(), p in arb_prefix()) {
            if a.member_superset(&b) && b.member(&p) {
                prop_assert!(a.member(&p));
            }
        }

        #[test]
        fn intersection_is_commutative(a in arb_range(), b in arb_range()) {
            let ab = a.intersect(&b);
            let ba = b.intersect(&a);
            match (ab, ba) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    // Same set: mutual containment.
                    prop_assert!(x.member_superset(&y) && y.member_superset(&x));
                }
                _ => prop_assert!(false, "intersection not commutative"),
            }
        }

        #[test]
        fn universe_contains_everything(a in arb_range()) {
            prop_assert!(PrefixRange::universe().member_superset(&a));
            prop_assert_eq!(a.intersect(&PrefixRange::universe()), Some(a));
        }

        #[test]
        fn prefix_contains_is_partial_order(a in arb_prefix(), b in arb_prefix(), c in arb_prefix()) {
            prop_assert!(a.contains(&a));
            if a.contains(&b) && b.contains(&a) {
                prop_assert_eq!(a, b);
            }
            if a.contains(&b) && b.contains(&c) {
                prop_assert!(a.contains(&c));
            }
        }

        #[test]
        fn wildcard_prefix_equivalence(p in arb_prefix(), ip in any::<u32>()) {
            let w = WildcardMask::from_prefix(&p);
            let ip = Ipv4Addr::from(ip);
            prop_assert_eq!(w.matches(ip), p.contains_addr(ip));
        }
    }

    /// A range whose members all live in the ≤ /8 universe, so member sets
    /// can be enumerated exhaustively (Σ 2^l for l ≤ 8 = 511 prefixes).
    fn arb_small_range() -> impl Strategy<Value = PrefixRange> {
        (any::<u32>(), 0u8..=8, 0u8..=8, 0u8..=8).prop_map(|(bits, len, a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            PrefixRange::new(Prefix::new(Ipv4Addr::from(bits), len), lo, hi)
        })
    }

    /// Every prefix of length ≤ 8.
    fn small_universe() -> Vec<Prefix> {
        let mut out = Vec::new();
        for len in 0u8..=8 {
            for block in 0u32..(1 << len) {
                let bits = if len == 0 { 0 } else { block << (32 - len) };
                out.push(Prefix::new(Ipv4Addr::from(bits), len));
            }
        }
        out
    }

    fn member_set(r: &PrefixRange, universe: &[Prefix]) -> Vec<Prefix> {
        universe.iter().filter(|p| r.member(p)).copied().collect()
    }

    proptest! {
        #[test]
        fn canonical_members_preserves_the_member_set(r in arb_small_range()) {
            let universe = small_universe();
            let members = member_set(&r, &universe);
            match r.canonical_members() {
                None => prop_assert!(members.is_empty(), "{r} claimed empty"),
                Some(c) => {
                    prop_assert!(!members.is_empty(), "{r} → {c} claimed nonempty");
                    prop_assert_eq!(member_set(&c, &universe), members);
                }
            }
        }

        #[test]
        fn canonical_members_is_a_set_key(a in arb_small_range(), b in arb_small_range()) {
            let universe = small_universe();
            let equal_sets = member_set(&a, &universe) == member_set(&b, &universe);
            prop_assert_eq!(
                a.canonical_members() == b.canonical_members(),
                equal_sets,
                "{} vs {}", a, b
            );
        }

        #[test]
        fn member_superset_is_exact(a in arb_small_range(), b in arb_small_range()) {
            let universe = small_universe();
            let sa = member_set(&a, &universe);
            let sb = member_set(&b, &universe);
            let brute = sb.iter().all(|p| sa.contains(p));
            prop_assert_eq!(a.member_superset(&b), brute, "{} ⊇ {}", a, b);
        }

        #[test]
        fn member_outside_is_exact((r, others) in arb_range_and_others()) {
            let universe = small_universe();
            let covered = |p: &Prefix| others.iter().any(|o| o.member(p));
            match r.member_outside(others.iter().copied()) {
                Some(p) => {
                    prop_assert!(r.member(&p), "{} is no member of {}", p, r);
                    prop_assert!(!covered(&p), "{} is covered", p);
                }
                None => prop_assert!(
                    member_set(&r, &universe).iter().all(covered),
                    "{} claimed covered by {:?}", r, others
                ),
            }
        }
    }

    /// A range, and others crowded around it: half keep its covering bits
    /// and draw the rest, so they often cover some of its lengths and now
    /// and then every member.
    fn arb_range_and_others() -> impl Strategy<Value = (PrefixRange, Vec<PrefixRange>)> {
        let other = (any::<u32>(), 0u8..=8, 0u8..=8, 0u8..=8, any::<bool>());
        (arb_small_range(), proptest::collection::vec(other, 0..8)).prop_map(|(r, seeds)| {
            let others = seeds
                .into_iter()
                .map(|(tail, len, a, b, near)| {
                    let keep = if near {
                        u32::MAX
                            .checked_shl(32 - u32::from(r.prefix.len()))
                            .unwrap_or(0)
                    } else {
                        0
                    };
                    let bits = (r.prefix.bits() & keep) | (tail & !keep);
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    PrefixRange::new(Prefix::new(Ipv4Addr::from(bits), len), lo, hi)
                })
                .collect();
            (r, others)
        })
    }

    #[test]
    fn member_set_algebra_edge_cases() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        // Equal sets under different spellings.
        assert_eq!(
            r("10.0.0.0/8:8-8").canonical_members(),
            r("10.0.0.0/16:8-8").canonical_members()
        );
        assert_eq!(
            r("10.0.0.0/8:0-8").canonical_members(),
            Some(r("10.0.0.0/8:7-8"))
        );
        // Truncation below the significant bits empties the set.
        assert!(r("10.0.0.0/8:0-6").canonical_members().is_none());
        assert!(r("10.0.0.0/8:0-7").canonical_members().is_some());
        // /0 and /32 extremes.
        assert!(PrefixRange::universe().member_superset(&r("255.255.255.255/32:32-32")));
        assert!(r("0.0.0.0/0:0-0").member_superset(&r("10.0.0.0/8:0-6")));
        assert!(!r("0.0.0.0/0:0-0").member_superset(&r("0.0.0.0/0:0-1")));
        // Adjacent blocks are unrelated.
        assert!(!r("10.0.0.0/9:9-32").member_superset(&r("10.128.0.0/9:9-32")));
        assert!(!r("10.128.0.0/9:9-32").member_superset(&r("10.0.0.0/9:9-32")));
    }

    #[test]
    fn member_outside_edge_cases() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        let outside =
            |range: &str, others: &[&str]| r(range).member_outside(others.iter().map(|o| r(o)));
        // Covered exactly by its children.
        assert_eq!(
            outside(
                "10.0.0.0/8:8-9",
                &["10.0.0.0/8:8-8", "10.0.0.0/9:9-9", "10.128.0.0/9:9-9"]
            ),
            None
        );
        // A member shorter than the covering prefix: 10.0.0.0 keeps its
        // bits down to /7.
        assert_eq!(
            outside("10.0.0.0/16:0-16", &["10.0.0.0/16:8-16"]),
            Some(p("10.0.0.0/7"))
        );
        assert!(r("10.0.0.0/16:0-16").member(&p("10.0.0.0/7")));
        assert_eq!(outside("10.0.0.0/16:0-16", &["10.0.0.0/16:7-16"]), None);
        // Children covering some lengths and not others.
        assert_eq!(
            outside("10.0.0.0/8:8-32", &["10.0.0.0/8:8-24", "10.0.0.0/8:26-32"]),
            Some(p("10.0.0.0/25"))
        );
        assert_eq!(
            outside("10.0.0.0/8:8-32", &["10.0.0.0/8:8-24", "10.0.0.0/8:25-32"]),
            None
        );
        // The first gap in a length's sorted intervals.
        assert_eq!(
            outside(
                "10.0.0.0/8:10-10",
                &["10.128.0.0/10:10-32", "10.0.0.0/10:10-32"]
            ),
            Some(p("10.64.0.0/10"))
        );
        // /0: the root's witness is the default route unless a child holds it.
        assert_eq!(
            outside("0.0.0.0/0:0-32", &["10.0.0.0/8:8-32"]),
            Some(p("0.0.0.0/0"))
        );
        assert_eq!(
            outside("0.0.0.0/0:0-32", &["0.0.0.0/0:1-32"]),
            Some(p("0.0.0.0/0"))
        );
        assert_eq!(
            outside(
                "0.0.0.0/0:0-32",
                &["0.0.0.0/0:0-0", "0.0.0.0/1:1-32", "128.0.0.0/1:1-32"]
            ),
            None
        );
        // /32, and an address block read as its /32 members.
        assert_eq!(outside("1.2.3.4/32:32-32", &["1.2.3.0/24:24-32"]), None);
        assert_eq!(
            outside("1.2.3.4/32:32-32", &["1.2.3.5/32:32-32"]),
            Some(p("1.2.3.4/32"))
        );
        assert_eq!(
            outside("1.2.3.0/24:32-32", &["1.2.3.0/25:32-32"]),
            Some(p("1.2.3.128/32"))
        );
        assert_eq!(
            outside("255.255.255.255/32:32-32", &[]),
            Some(p("255.255.255.255/32"))
        );
        // Empty ranges have no member, and empty others cover nothing.
        assert_eq!(outside("10.0.0.0/8:0-6", &[]), None);
        assert_eq!(
            outside("10.0.0.0/8:8-8", &["10.0.0.0/8:0-6"]),
            Some(p("10.0.0.0/8"))
        );
    }
}
