//! Tests for the Campion core pipeline, anchored on the paper's §2 examples.

use campion_cfg::parse_config;
use campion_cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER, STATIC_CISCO, STATIC_JUNIPER};
use campion_ir::{lower, RouterIr};
use campion_net::PrefixRange;

use crate::driver::{compare_routers, CampionOptions};
use crate::headerloc::{header_localize, reencode, HeaderLocalization};
use crate::report::FindingSide;
use crate::semantic::{acl_paths, policy_paths, semantic_diff};
use campion_symbolic::RouteSpace;

fn load(text: &str) -> RouterIr {
    lower(&parse_config(text).unwrap()).unwrap()
}

fn fig1() -> (RouterIr, RouterIr) {
    (load(FIGURE1_CISCO), load(FIGURE1_JUNIPER))
}

// ---------------------------------------------------------------- semantic

#[test]
fn figure1_path_counts() {
    let (c, j) = fig1();
    let p1 = &c.policies["POL"];
    let p2 = &j.policies["POL"];
    let mut space = RouteSpace::for_policies(&[p1, p2]);
    let u = space.universe();
    let paths1 = policy_paths(&mut space, p1, u);
    let paths2 = policy_paths(&mut space, p2, u);
    // Three reachable clauses each; clause 3 matches everything so the
    // implicit default is unreachable.
    assert_eq!(paths1.len(), 3);
    assert_eq!(paths2.len(), 3);
    // The classes partition the universe.
    for paths in [&paths1, &paths2] {
        let mut acc = campion_bdd::Bdd::FALSE;
        for p in paths.iter() {
            let inter = space.manager.and(acc, p.predicate);
            assert!(space.manager.is_false(inter), "classes must be disjoint");
            acc = space.manager.or(acc, p.predicate);
        }
        assert_eq!(acc, u, "classes must cover the universe");
    }
}

#[test]
fn figure1_produces_exactly_two_differences() {
    let (c, j) = fig1();
    let report = compare_routers(&c, &j, &CampionOptions::default());
    assert_eq!(
        report.route_map_diffs.len(),
        2,
        "the paper's Table 2 reports exactly two differences:\n{report}"
    );

    // Difference 1 (Table 2a): Cisco rejects via `deny 10`, Juniper accepts
    // via rule3 with local-pref 30.
    let d1 = &report.route_map_diffs[0];
    assert_eq!(d1.action1, "REJECT");
    assert_eq!(d1.action2, "SET LOCAL PREF 30\nACCEPT");
    assert_eq!(
        d1.included,
        vec![
            "10.9.0.0/16:16-32".parse::<PrefixRange>().unwrap(),
            "10.100.0.0/16:16-32".parse().unwrap()
        ]
    );
    assert_eq!(
        d1.excluded,
        vec![
            "10.9.0.0/16:16-16".parse::<PrefixRange>().unwrap(),
            "10.100.0.0/16:16-16".parse().unwrap()
        ]
    );
    assert!(d1.text1.contains("route-map POL deny 10"));
    assert!(d1.text1.contains("match ip address prefix-list NETS"));
    assert!(d1.text2.contains("term rule3"));
    assert!(d1.example.is_none(), "difference 1 is prefix-only");

    // Difference 2 (Table 2b): community mismatch, all prefixes outside
    // NETS.
    let d2 = &report.route_map_diffs[1];
    assert_eq!(d2.action1, "REJECT");
    assert_eq!(d2.action2, "SET LOCAL PREF 30\nACCEPT");
    assert_eq!(
        d2.included,
        vec!["0.0.0.0/0:0-32".parse::<PrefixRange>().unwrap()]
    );
    assert_eq!(
        d2.excluded,
        vec![
            "10.9.0.0/16:16-32".parse::<PrefixRange>().unwrap(),
            "10.100.0.0/16:16-32".parse().unwrap()
        ]
    );
    let example = d2.example.as_ref().expect("community example");
    assert!(
        example.contains("10:10") || example.contains("10:11"),
        "example must show a community: {example}"
    );
    assert!(d2.text1.contains("match community COMM"));
}

#[test]
fn identical_policies_are_equivalent() {
    let c1 = load(FIGURE1_CISCO);
    let c2 = load(FIGURE1_CISCO);
    let report = compare_routers(&c1, &c2, &CampionOptions::default());
    assert!(report.is_equivalent(), "{report}");
    let (p1, p2) = (&c1.policies["POL"], &c2.policies["POL"]);
    let mut space = RouteSpace::for_policies(&[p1, p2]);
    let u = space.universe();
    let paths1 = policy_paths(&mut space, p1, u);
    let paths2 = policy_paths(&mut space, p2, u);
    assert!(semantic_diff(&mut space.manager, &paths1, &paths2).is_empty());
}

#[test]
fn corrected_juniper_config_is_equivalent() {
    // Fix both Figure-1 bugs on the Juniper side: orlonger prefix matching
    // and per-member community semantics — plus a terminal reject term to
    // mirror Cisco's implicit deny.
    let fixed = "\
policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
    community C10 members 10:10;
    community C11 members 10:11;
    policy-statement POL {
        term rule1 {
            from prefix-list-filter NETS orlonger;
            then reject;
        }
        term rule2a {
            from community C10;
            then reject;
        }
        term rule2b {
            from community C11;
            then reject;
        }
        term rule3 {
            then {
                local-preference 30;
                accept;
            }
        }
    }
}
";
    let c = load(FIGURE1_CISCO);
    let j = load(fixed);
    let report = compare_routers(&c, &j, &CampionOptions::default());
    assert!(
        report.route_map_diffs.is_empty(),
        "fixed config must be equivalent:\n{report}"
    );
}

#[test]
fn semantic_diff_is_symmetric_in_count() {
    let (c, j) = fig1();
    let p1 = &c.policies["POL"];
    let p2 = &j.policies["POL"];
    let mut s1 = RouteSpace::for_policies(&[p1, p2]);
    let u1 = s1.universe();
    let a = policy_paths(&mut s1, p1, u1);
    let b = policy_paths(&mut s1, p2, u1);
    let fwd = semantic_diff(&mut s1.manager, &a, &b).len();
    let rev = semantic_diff(&mut s1.manager, &b, &a).len();
    assert_eq!(fwd, rev);
}

// ----------------------------------------------------------------- static

#[test]
fn static_route_diff_matches_table4() {
    let c = load(STATIC_CISCO);
    let j = load(STATIC_JUNIPER);
    let report = compare_routers(&c, &j, &CampionOptions::default());
    // 10.1.1.2/31 only in Cisco; 192.0.2.0/24 only in Juniper.
    let statics: Vec<_> = report
        .structural
        .iter()
        .filter(|s| s.component == "Static Routes")
        .collect();
    assert_eq!(statics.len(), 2);
    let cisco_only = statics
        .iter()
        .find(|s| s.side == FindingSide::OnlyFirst)
        .expect("cisco-only route");
    assert_eq!(cisco_only.key, "10.1.1.2/31");
    assert!(cisco_only.value1.contains("next-hop 10.2.2.2"));
    assert!(cisco_only.value1.contains("AD 1"));
    assert_eq!(cisco_only.value2, "None");
    // Text localization points at the exact line.
    let span = cisco_only.span1.expect("span");
    assert_eq!(
        c.snippet(span),
        "ip route 10.1.1.2 255.255.255.254 10.2.2.2"
    );
}

#[test]
fn static_attr_differences_detected() {
    let a = load("ip route 10.0.0.0 255.0.0.0 10.1.1.1\n");
    let b = load("ip route 10.0.0.0 255.0.0.0 10.1.1.2\n");
    let report = compare_routers(&a, &b, &CampionOptions::default());
    assert_eq!(report.structural.len(), 1);
    assert_eq!(report.structural[0].side, FindingSide::Both);
    assert!(report.structural[0].value1.contains("10.1.1.1"));
    assert!(report.structural[0].value2.contains("10.1.1.2"));
    // Same next hops in different definition order: no difference.
    let a2 = load("ip route 10.0.0.0 255.0.0.0 10.1.1.1\nip route 10.0.0.0 255.0.0.0 10.1.1.2\n");
    let b2 = load("ip route 10.0.0.0 255.0.0.0 10.1.1.2\nip route 10.0.0.0 255.0.0.0 10.1.1.1\n");
    assert!(compare_routers(&a2, &b2, &CampionOptions::default()).is_equivalent());
}

// -------------------------------------------------------------------- acl

#[test]
fn acl_diff_reports_address_and_text() {
    let c = load(
        "ip access-list extended VM_FILTER_1\n\
         \x20deny ip 9.140.0.0 0.0.1.255 any\n\
         \x20permit ip any any\n",
    );
    let j = load(
        "firewall {
            family inet {
                filter VM_FILTER_1 {
                    term permit_whitelist {
                        then accept;
                    }
                }
            }
        }",
    );
    let report = compare_routers(&c, &j, &CampionOptions::default());
    assert_eq!(report.acl_diffs.len(), 1, "{report}");
    let d = &report.acl_diffs[0];
    assert_eq!(d.action1, "REJECT");
    assert_eq!(d.action2, "ACCEPT");
    assert!(d.text1.contains("deny ip 9.140.0.0 0.0.1.255 any"));
    assert!(d.text2.contains("term permit_whitelist"));
    let ex = d.example.as_ref().unwrap();
    assert!(ex.contains("srcIP: 9.140.0.0"), "got {ex}");
}

#[test]
fn pairs_alignment_proves_identical_are_never_dispatched() {
    let (c, j) = fig1();
    let acl = load(
        "ip access-list extended F\n\
         \x20permit tcp 10.0.0.0 0.0.255.255 any eq 443\n\
         \x20deny ip any any\n",
    );
    for r in [&c, &j, &acl] {
        let report = compare_routers(r, r, &CampionOptions::default());
        assert!(report.route_map_diffs.is_empty() && report.acl_diffs.is_empty());
        // No pair reached the pool, so no pair built a BDD manager.
        assert_eq!(report.bdd_stats, campion_bdd::ManagerStats::default());
    }
}

#[test]
fn equivalent_acls_cross_vendor() {
    let c = load(
        "ip access-list extended F\n\
         \x20permit tcp 10.0.0.0 0.0.255.255 any eq 443\n\
         \x20deny ip any any\n",
    );
    let j = load(
        "firewall {
            family inet {
                filter F {
                    term t {
                        from {
                            source-address 10.0.0.0/16;
                            protocol tcp;
                            destination-port 443;
                        }
                        then accept;
                    }
                    term rest { then discard; }
                }
            }
        }",
    );
    let report = compare_routers(&c, &j, &CampionOptions::default());
    assert!(report.acl_diffs.is_empty(), "{report}");
}

#[test]
fn acl_paths_partition() {
    let c = load(
        "ip access-list extended F\n\
         \x20permit tcp any any eq 80\n\
         \x20deny udp any any\n\
         \x20permit ip any any\n",
    );
    let mut space = campion_symbolic::PacketSpace::new();
    let u = space.universe();
    let paths = acl_paths(&mut space, &c.acls["F"], u);
    assert_eq!(paths.len(), 3, "third rule swallows the default");
    let mut acc = campion_bdd::Bdd::FALSE;
    for p in &paths {
        let inter = space.manager.and(acc, p.predicate);
        assert!(space.manager.is_false(inter));
        acc = space.manager.or(acc, p.predicate);
    }
    assert!(space.manager.is_true(acc));
}

// -------------------------------------------------------------- headerloc

#[test]
fn headerloc_figure3_worked_example() {
    // Reproduce the paper's Figure 3: seven ranges A..G with S = (B − D) ∪
    // (C − F) ∪ G. We realize the figure's containment shape with concrete
    // ranges:
    //   A = U, B, C children of A; D, E under B; F under C; G under F.
    let a = PrefixRange::universe();
    let b: PrefixRange = "10.0.0.0/8:8-32".parse().unwrap();
    let c: PrefixRange = "20.0.0.0/8:8-32".parse().unwrap();
    let d: PrefixRange = "10.1.0.0/16:16-32".parse().unwrap();
    let e: PrefixRange = "10.2.0.0/16:16-32".parse().unwrap();
    let f: PrefixRange = "20.1.0.0/16:16-32".parse().unwrap();
    let g: PrefixRange = "20.1.1.0/24:24-32".parse().unwrap();
    let ranges = [a, b, c, d, e, f, g];

    // Build S = (B − D) ∪ (C − F) ∪ G in a bare route space.
    let dummy = campion_ir::RoutePolicy::permit_all("x");
    let mut space = RouteSpace::for_policies(&[&dummy]);
    let bb = space.prefix_range_bdd(&b);
    let db = space.prefix_range_bdd(&d);
    let cb = space.prefix_range_bdd(&c);
    let fb = space.prefix_range_bdd(&f);
    let gb = space.prefix_range_bdd(&g);
    let bd = space.manager.diff(bb, db);
    let cf = space.manager.diff(cb, fb);
    let mut s = space.manager.or(bd, cf);
    s = space.manager.or(s, gb);
    // Also include E (a remainder-covered child of B): E ⊂ B − D.
    let loc = header_localize(&mut space, s, &ranges);
    assert!(loc.exact);
    let rendered = loc.to_string();
    assert_eq!(
        rendered,
        format!("{b} − ({d}) ∪ {c} − ({f}) ∪ {g}"),
        "GetMatch must produce B − D, C − F, G"
    );
    // Re-encoding gives back exactly S.
    let back = reencode(&mut space, &loc);
    assert_eq!(back, s);
}

#[test]
fn headerloc_whole_universe() {
    let dummy = campion_ir::RoutePolicy::permit_all("x");
    let mut space = RouteSpace::for_policies(&[&dummy]);
    let u = space.universe();
    let s = space.project_to_prefix(u);
    let loc = header_localize(&mut space, s, &[]);
    assert_eq!(loc.terms.len(), 1);
    assert_eq!(loc.terms[0].base, PrefixRange::universe());
    assert!(loc.terms[0].minus.is_empty());
}

#[test]
fn headerloc_empty_set() {
    let dummy = campion_ir::RoutePolicy::permit_all("x");
    let mut space = RouteSpace::for_policies(&[&dummy]);
    let loc = header_localize(&mut space, campion_bdd::Bdd::FALSE, &[]);
    assert!(loc.terms.is_empty());
    assert!(loc.exact);
}

#[test]
fn headerloc_closure_under_intersection() {
    // Two overlapping ranges: the difference set needs their intersection,
    // which only exists in R by closure.
    let r1: PrefixRange = "10.0.0.0/8:8-24".parse().unwrap();
    let r2: PrefixRange = "10.0.0.0/8:16-32".parse().unwrap();
    let dummy = campion_ir::RoutePolicy::permit_all("x");
    let mut space = RouteSpace::for_policies(&[&dummy]);
    let b1 = space.prefix_range_bdd(&r1);
    let b2 = space.prefix_range_bdd(&r2);
    let s = space.manager.and(b1, b2); // = (10.0.0.0/8, 16-24)
    let loc = header_localize(&mut space, s, &[r1, r2]);
    assert!(loc.exact);
    let back = reencode(&mut space, &loc);
    assert_eq!(back, s);
    assert_eq!(loc.terms.len(), 1);
    assert_eq!(loc.terms[0].base, "10.0.0.0/8:16-24".parse().unwrap());
}

// ------------------------------------------------------------- structural

#[test]
fn bgp_property_differences() {
    let c = load(
        "router bgp 65001\n\
         \x20neighbor 10.0.0.2 remote-as 65002\n\
         \x20neighbor 10.0.0.3 remote-as 65001\n",
    );
    let j = load(
        "routing-options { autonomous-system 65001; }
        protocols {
            bgp {
                group ibgp {
                    type internal;
                    neighbor 10.0.0.3;
                }
            }
        }",
    );
    let report = compare_routers(&c, &j, &CampionOptions::default());
    let bgp: Vec<_> = report
        .structural
        .iter()
        .filter(|s| s.component == "BGP Properties")
        .collect();
    // 10.0.0.2 present only in Cisco; 10.0.0.3 differs on send-community
    // (IOS default off vs JunOS default on).
    assert!(bgp.iter().any(|s| s.key == "10.0.0.2"));
    assert!(
        bgp.iter().any(|s| s.key.contains("send-community")),
        "the paper's send-community default gap must be flagged: {report}"
    );
}

#[test]
fn ospf_cost_differences() {
    let c = load(
        "interface GigabitEthernet0/0\n\
         \x20ip address 10.0.12.1 255.255.255.0\n\
         \x20ip ospf cost 250\n\
         router ospf 1\n\
         \x20network 10.0.12.0 0.0.0.255 area 0\n",
    );
    let j = load(
        "interfaces {
            ge-0/0/0 { unit 0 { family inet { address 10.0.12.2/24; } } }
        }
        protocols {
            ospf {
                area 0.0.0.0 { interface ge-0/0/0.0 { metric 100; } }
            }
        }",
    );
    let report = compare_routers(&c, &j, &CampionOptions::default());
    let ospf: Vec<_> = report
        .structural
        .iter()
        .filter(|s| s.component == "OSPF Properties")
        .collect();
    assert_eq!(ospf.len(), 1, "{report}");
    assert!(ospf[0].description.contains("cost"));
    assert!(ospf[0].value1.contains("250"));
    assert!(ospf[0].value2.contains("100"));
}

#[test]
fn connected_route_differences() {
    let a = load(
        "interface Gi0/0\n\
         \x20ip address 10.0.1.1 255.255.255.0\n\
         interface Gi0/1\n\
         \x20ip address 10.0.2.1 255.255.255.0\n",
    );
    let b = load(
        "interface Gi0/0\n\
         \x20ip address 10.0.1.7 255.255.255.0\n",
    );
    let report = compare_routers(&a, &b, &CampionOptions::default());
    let conn: Vec<_> = report
        .structural
        .iter()
        .filter(|s| s.component == "Connected Routes")
        .collect();
    assert_eq!(conn.len(), 1, "same /24 on Gi0/0; extra /24 on Gi0/1");
    assert_eq!(conn[0].key, "10.0.2.0/24");
}

// ------------------------------------------------------------ full driver

#[test]
fn report_renders_and_is_stable() {
    let (c, j) = fig1();
    let report = compare_routers(&c, &j, &CampionOptions::default());
    let text = format!("{report}");
    assert!(text.contains("Included Prefixes"));
    assert!(text.contains("10.9.0.0/16 : 16-32"));
    assert!(text.contains("REJECT"));
    // Deterministic across runs.
    let again = format!("{}", compare_routers(&c, &j, &CampionOptions::default()));
    assert_eq!(text, again);
}

#[test]
fn options_disable_checks() {
    let (c, j) = fig1();
    let opts = CampionOptions {
        check_route_maps: false,
        ..CampionOptions::default()
    };
    let report = compare_routers(&c, &j, &opts);
    assert!(report.route_map_diffs.is_empty());
}

#[test]
fn unmatched_components_are_reported() {
    let a = load("route-map ONLY_HERE permit 10\n");
    let b = load("hostname other\n");
    let report = compare_routers(&a, &b, &CampionOptions::default());
    assert!(
        report.unmatched.iter().any(|u| u.contains("ONLY_HERE")),
        "{report}"
    );
}

// ------------------------------------------------------------- properties

mod properties {
    use super::*;
    use campion_ir::{RouteAdvert, RoutePolicy};
    use campion_net::{Community, Prefix};
    use proptest::prelude::*;

    prop_compose! {
        fn arb_advert()(
            bits in any::<u32>(),
            len in 0u8..=32,
            c10 in any::<bool>(),
            c11 in any::<bool>(),
        ) -> RouteAdvert {
            let mut comms = Vec::new();
            if c10 { comms.push(Community::new(10, 10)); }
            if c11 { comms.push(Community::new(10, 11)); }
            RouteAdvert::bgp(Prefix::new(std::net::Ipv4Addr::from(bits), len))
                .with_communities(comms)
        }
    }

    /// Encode a concrete advertisement as a BDD assignment.
    fn advert_assignment(space: &RouteSpace, advert: &RouteAdvert) -> campion_bdd::Assignment {
        let mut a = campion_bdd::Assignment::all_false(space.num_vars());
        let bits = advert.prefix.bits();
        for i in 0..32u32 {
            a.set(i, (bits >> (31 - i)) & 1 == 1);
        }
        for i in 0..6u32 {
            a.set(32 + i, (advert.prefix.len() >> (5 - i)) & 1 == 1);
        }
        a.set(39, true);
        a.set(40, true); // protocol = BGP (3)
        for (i, key) in space.atoms().iter().enumerate() {
            if let campion_symbolic::AtomKey::Literal(c) = key {
                if advert.has_community(*c) {
                    a.set(41 + i as u32, true);
                }
            }
        }
        a
    }

    proptest! {
        /// Soundness + completeness of SemanticDiff on Figure 1: a random
        /// advertisement is covered by some reported difference IFF the two
        /// concrete policies disagree on it.
        #[test]
        fn semantic_diff_covers_exactly_the_disagreements(advert in arb_advert()) {
            let (c, j) = fig1();
            let p1 = &c.policies["POL"];
            let p2 = &j.policies["POL"];
            let mut space = RouteSpace::for_policies(&[p1, p2]);
            let u = space.universe();
            let paths1 = policy_paths(&mut space, p1, u);
            let paths2 = policy_paths(&mut space, p2, u);
            let diffs = semantic_diff(&mut space.manager, &paths1, &paths2);
            let a = advert_assignment(&space, &advert);
            let covered = diffs.iter().any(|d| space.manager.eval(d.input, &a));
            let v1 = p1.evaluate(&advert);
            let v2 = p2.evaluate(&advert);
            // Disagreement on accept/reject, or on the transformed route.
            let disagree = v1.accept != v2.accept
                || (v1.accept && v2.accept && {
                    let mut r1 = v1.route.clone();
                    let r2 = v2.route.clone();
                    // next_hop/weight not modeled in this pair.
                    r1.protocol = r2.protocol;
                    r1 != r2
                });
            prop_assert_eq!(covered, disagree, "advert {}", advert);
        }

        /// HeaderLocalize round-trips: the localized representation
        /// re-encodes to exactly the projected difference set.
        #[test]
        fn headerloc_roundtrip_on_random_range_sets(
            seeds in proptest::collection::vec((any::<u32>(), 0u8..=24, 0u8..=8, any::<bool>()), 1..6)
        ) {
            let dummy = RoutePolicy::permit_all("x");
            let mut space = RouteSpace::for_policies(&[&dummy]);
            let mut ranges = Vec::new();
            let mut s = campion_bdd::Bdd::FALSE;
            for (bits, len, extra, include) in seeds {
                let hi = (len + extra).min(32);
                let r = PrefixRange::new(
                    Prefix::new(std::net::Ipv4Addr::from(bits), len), len, hi);
                ranges.push(r);
                if include {
                    let b = space.prefix_range_bdd(&r);
                    s = space.manager.or(s, b);
                }
            }
            // Constrain to valid lengths like real path predicates.
            let valid = space.prefix_range_bdd(&PrefixRange::universe());
            s = space.manager.and(s, valid);
            let loc = header_localize(&mut space, s, &ranges);
            prop_assert!(loc.exact);
            let back = reencode(&mut space, &loc);
            prop_assert_eq!(back, s);
        }

        /// Minimality-ish sanity: localizing a single range yields exactly
        /// that range with no exclusions.
        #[test]
        fn headerloc_single_range_is_itself(bits in any::<u32>(), len in 0u8..=28) {
            let dummy = RoutePolicy::permit_all("x");
            let mut space = RouteSpace::for_policies(&[&dummy]);
            let r = PrefixRange::new(
                Prefix::new(std::net::Ipv4Addr::from(bits), len), len, 32);
            let s = space.prefix_range_bdd(&r);
            let loc = header_localize(&mut space, s, &[r]);
            prop_assert_eq!(loc.terms.len(), 1);
            prop_assert!(loc.terms[0].minus.is_empty());
            // The reported base denotes the same set.
            let base = space.prefix_range_bdd(&loc.terms[0].base);
            prop_assert_eq!(base, s);
        }
    }
}

// ------------------------------------------------------------- extensions

/// Cisco `continue` produces fall-through paths whose accumulated sets
/// survive into the final effect — and SemanticDiff distinguishes them.
#[test]
fn cisco_continue_fallthrough_semantics() {
    let with_continue = load(
        "route-map M permit 10\n\
         \x20set metric 50\n\
         \x20continue 20\n\
         route-map M permit 20\n\
         \x20set local-preference 200\n",
    );
    let without = load(
        "route-map M permit 10\n\
         \x20set local-preference 200\n",
    );
    let report = compare_routers(&with_continue, &without, &CampionOptions::default());
    // The continue version also sets the metric: a behavioral difference.
    assert_eq!(report.route_map_diffs.len(), 1, "{report}");
    assert!(report.route_map_diffs[0].action1.contains("SET METRIC 50"));
    assert!(report.route_map_diffs[0]
        .action1
        .contains("SET LOCAL PREF 200"));
}

/// The exhaustive-communities option replaces the single example with the
/// complete condition set.
#[test]
fn exhaustive_communities_option() {
    let (c, j) = fig1();
    let opts = CampionOptions {
        exhaustive_communities: true,
        ..CampionOptions::default()
    };
    let report = compare_routers(&c, &j, &opts);
    let d2 = &report.route_map_diffs[1];
    let ex = d2.example.as_ref().expect("conditions");
    assert!(ex.contains("with 10:10; without 10:11"), "{ex}");
    assert!(ex.contains("with 10:11; without 10:10"), "{ex}");
    // Difference 1 constrains communities only as "not both": exhaustive
    // mode reports that too (unlike the example heuristic).
    let d1 = &report.route_map_diffs[0];
    assert!(d1.example.is_some());
}

/// A policy referencing an undefined route map on one side compares against
/// permit-all, so a permissive counterpart is equivalent but a restrictive
/// one is flagged.
#[test]
fn missing_policy_compares_as_permit_all() {
    let a = load(
        "router bgp 65000\n\
         \x20neighbor 10.0.0.2 remote-as 65001\n\
         \x20neighbor 10.0.0.2 send-community\n",
    );
    let permissive = load(
        "route-map ALL permit 10\n\
         router bgp 65000\n\
         \x20neighbor 10.0.0.2 remote-as 65001\n\
         \x20neighbor 10.0.0.2 route-map ALL in\n\
         \x20neighbor 10.0.0.2 send-community\n",
    );
    let restrictive = load(
        "route-map NONE deny 10\n\
         router bgp 65000\n\
         \x20neighbor 10.0.0.2 remote-as 65001\n\
         \x20neighbor 10.0.0.2 route-map NONE in\n\
         \x20neighbor 10.0.0.2 send-community\n",
    );
    let r1 = compare_routers(&a, &permissive, &CampionOptions::default());
    assert!(r1.route_map_diffs.is_empty(), "{r1}");
    let r2 = compare_routers(&a, &restrictive, &CampionOptions::default());
    assert_eq!(r2.route_map_diffs.len(), 1, "{r2}");
}

// ------------------------------------------------------- pruning oracle

/// Differential oracle for the disagreement-set-pruned [`semantic_diff`]:
/// the quadratic all-pairs loop is kept verbatim (test-only) and random
/// near-identical component pairs are pushed through both. Both run in the
/// *same* manager, so hash-consing makes BDD handle
/// equality function equality — the strongest possible "same predicate"
/// check — and the remaining fields are compared structurally.
mod prune_oracle {
    use super::*;
    use crate::semantic::{semantic_diff_all_pairs, SemanticDifference};
    use campion_cfg::Span;
    use campion_ir::{
        AclIr, AclRuleIr, Clause, CommAtom, CommunityDialect, CommunityMatcher, Match,
        PrefixMatcher, PrefixMatcherEntry, RoutePolicy, SetAction, Terminal,
    };
    use campion_net::{Community, IpProtocol, PortRange, Prefix, WildcardMask};
    use campion_symbolic::PacketSpace;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// Seed for one ACL rule: addresses, (dst-port base, protocol selector,
    /// permit), and the side-2 mutation selector.
    pub(super) type RuleSeed = (u32, u8, u32, u8, (u16, u8, bool), u8);

    fn mk_rule(i: usize, s: &RuleSeed, flip: bool, widen: bool) -> AclRuleIr {
        let (src_bits, src_len, dst_bits, dst_len, (port_lo, proto_sel, permit), _) = *s;
        let dst_len = if widen {
            dst_len.saturating_sub(4)
        } else {
            dst_len
        };
        let src = WildcardMask::from_prefix(&Prefix::new(Ipv4Addr::from(src_bits), src_len));
        let dst = WildcardMask::from_prefix(&Prefix::new(Ipv4Addr::from(dst_bits), dst_len));
        let protocols = match proto_sel {
            0 => Vec::new(),
            1 => vec![IpProtocol::Tcp],
            2 => vec![IpProtocol::Udp],
            _ => vec![IpProtocol::Tcp, IpProtocol::Udp],
        };
        let dst_ports = if proto_sel > 0 {
            vec![PortRange::new(port_lo, port_lo.saturating_add(100))]
        } else {
            Vec::new()
        };
        AclRuleIr {
            label: format!("seq {}", 10 * (i + 1)),
            permit: permit ^ flip,
            protocols,
            src: vec![src],
            dst: vec![dst],
            src_ports: Vec::new(),
            dst_ports,
            span: Span::line(i as u32 + 1),
        }
    }

    /// Build a near-identical ACL pair: side 2 is side 1 with per-rule
    /// mutations (most rules identical, a few flipped / dropped / widened —
    /// the regime the pruning is designed for).
    pub(super) fn acl_pair(seeds: &[RuleSeed]) -> (AclIr, AclIr) {
        let mut r1 = Vec::new();
        let mut r2 = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            r1.push(mk_rule(i, s, false, false));
            match s.5 {
                5 => r2.push(mk_rule(i, s, true, false)),
                6 => {}
                7 => r2.push(mk_rule(i, s, false, true)),
                _ => r2.push(mk_rule(i, s, false, false)),
            }
        }
        let mk = |rules| AclIr {
            name: "ORACLE".into(),
            rules,
            span: Span::default(),
        };
        (mk(r1), mk(r2))
    }

    /// Seed for one policy clause: (prefix bits, prefix length,
    /// length-interval selector), set-action selector, terminal selector
    /// (5 falls through, other odd values reject), community selector (1–4
    /// match a community, 4 without a prefix condition), and the side-2
    /// mutation selector (5–7 mutate).
    pub(super) type ClauseSeed = ((u32, u8, u8), u8, u8, u8, u8);

    /// A community matcher over `(permit, conjunction)` entries. A lone
    /// permit entry renders as JunOS `members` when `junos`, as a Cisco
    /// list otherwise; the two encode alike and key alike.
    fn comm_matcher(entries: Vec<(bool, Vec<Community>)>, junos: bool) -> CommunityMatcher {
        let atoms = |cs: Vec<Community>| cs.into_iter().map(CommAtom::Literal).collect();
        let dialect = match &entries[..] {
            [(true, cs)] if junos => CommunityDialect::JunosMembers(atoms(cs.clone())),
            _ => CommunityDialect::CiscoList(
                entries
                    .into_iter()
                    .map(|(permit, cs)| (permit, atoms(cs), Span::default()))
                    .collect(),
            ),
        };
        CommunityMatcher {
            name: if junos { "C-J" } else { "C-C" }.into(),
            dialect,
            span: Span::default(),
        }
    }

    /// One clause, its prefix taken from the seed's bits as given; a set
    /// low seed bit adds a leading deny entry for a sub-prefix (seeds stay
    /// at /24 or shorter, so that bit is never an address bit). Side 2
    /// (`junos`) renders one-permit community lists as `members`.
    pub(super) fn mk_clause(
        i: usize,
        s: &ClauseSeed,
        junos: bool,
        flip_term: bool,
        alt_sets: bool,
    ) -> Clause {
        let ((bits, len, len_sel), action_sel, term_sel, comm_sel, _) = *s;
        let prefix = Prefix::new(Ipv4Addr::from(bits), len);
        let lo = (len + len_sel % 3).min(32);
        let hi = if len_sel < 3 { 32 } else { (lo + 1).min(32) };
        let mut entries = Vec::new();
        if bits & 1 == 1 && len < 32 {
            let sub = Prefix::new(Ipv4Addr::from(prefix.bits() | 1 << (31 - len)), len + 1);
            entries.push(PrefixMatcherEntry {
                permit: false,
                range: PrefixRange::or_longer(sub),
                span: Span::default(),
            });
        }
        entries.push(PrefixMatcherEntry {
            permit: true,
            range: PrefixRange::new(prefix, lo, hi),
            span: Span::default(),
        });
        let matcher = PrefixMatcher {
            entries,
            name: format!("PL{i}{}", if junos { "-J" } else { "" }),
        };
        let (c1, c2) = (Community::new(10, 10), Community::new(20, 20));
        let comm = match comm_sel {
            1 | 4 => Some(comm_matcher(vec![(true, vec![c1])], junos)),
            2 => Some(comm_matcher(vec![(true, vec![c1, c2])], junos)),
            3 => Some(comm_matcher(
                vec![(false, vec![c2]), (true, vec![c1])],
                false,
            )),
            _ => None,
        };
        let mut matches = Vec::new();
        if comm_sel != 4 {
            matches.push(Match::Prefix(vec![matcher]));
        }
        matches.extend(comm.map(|cm| Match::Community(vec![cm])));
        let sets = match (action_sel % 4, alt_sets) {
            (_, true) => vec![SetAction::LocalPref(300)],
            (0, _) => Vec::new(),
            (1, _) => vec![SetAction::LocalPref(200)],
            (2, _) => vec![SetAction::Metric(50)],
            _ => vec![SetAction::CommunityAdd(vec![c1])],
        };
        let terminal = match (term_sel, flip_term) {
            (5, false) => Terminal::Fallthrough,
            (t, flip) if (t % 2 == 0) ^ flip => Terminal::Accept,
            _ => Terminal::Reject,
        };
        Clause {
            label: format!("seq {}", 10 * (i + 1)),
            matches,
            sets,
            terminal,
            span: Span::line(i as u32 + 1),
        }
    }

    /// Near-identical policy pair, mutation scheme as for ACLs, with the
    /// given default terminals (`true` accepts) and, when `catch_all` is
    /// `Some(terminal)`, a trailing match-all clause on both sides.
    pub(super) fn policy_pair(
        seeds: &[ClauseSeed],
        (default1, default2): (bool, bool),
        catch_all: Option<Terminal>,
    ) -> (RoutePolicy, RoutePolicy) {
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            c1.push(mk_clause(i, s, false, false, false));
            match s.4 {
                5 => c2.push(mk_clause(i, s, true, true, false)),
                6 => {}
                7 => c2.push(mk_clause(i, s, true, false, true)),
                _ => c2.push(mk_clause(i, s, true, false, false)),
            }
        }
        if let Some(terminal) = catch_all {
            for (clauses, line) in [(&mut c1, 100), (&mut c2, 200)] {
                clauses.push(Clause {
                    label: "catch-all".into(),
                    matches: Vec::new(),
                    sets: Vec::new(),
                    terminal,
                    span: Span::line(line),
                });
            }
        }
        let mk = |clauses, accept: bool| RoutePolicy {
            name: "ORACLE".into(),
            clauses,
            default_terminal: if accept {
                Terminal::Accept
            } else {
                Terminal::Reject
            },
            span: Span::default(),
        };
        (mk(c1, default1), mk(c2, default2))
    }

    /// Default terminals for [`policy_pair`]: equal more often than not.
    pub(super) fn defaults() -> impl Strategy<Value = (bool, bool)> {
        (any::<bool>(), 0u8..4).prop_map(|(d, sel)| (d, d ^ (sel == 0)))
    }

    /// The optional trailing match-all clause for [`policy_pair`], now and
    /// then one that falls through.
    pub(super) fn catch_all() -> impl Strategy<Value = Option<Terminal>> {
        (0u8..8).prop_map(|sel| match sel {
            0..=2 => None,
            3 | 4 => Some(Terminal::Accept),
            5 | 6 => Some(Terminal::Reject),
            _ => Some(Terminal::Fallthrough),
        })
    }

    /// Field-by-field comparison of two difference lists (order included).
    pub(super) fn assert_same(
        pruned: &[SemanticDifference],
        reference: &[SemanticDifference],
    ) -> Result<(), proptest::prelude::TestCaseError> {
        prop_assert_eq!(pruned.len(), reference.len(), "count");
        for (a, b) in pruned.iter().zip(reference.iter()) {
            prop_assert_eq!(a.input, b.input, "input handle");
            prop_assert_eq!(&a.effect1, &b.effect1, "effect1");
            prop_assert_eq!(&a.effect2, &b.effect2, "effect2");
            prop_assert_eq!(&a.spans1, &b.spans1, "spans1");
            prop_assert_eq!(&a.spans2, &b.spans2, "spans2");
            prop_assert_eq!(a.default1, b.default1, "default1");
            prop_assert_eq!(a.default2, b.default2, "default2");
            prop_assert_eq!(a.non_prefix_match, b.non_prefix_match, "non_prefix_match");
        }
        Ok(())
    }

    /// Random ACL rule seeds for [`acl_pair`].
    pub(super) fn rule_seeds() -> impl Strategy<Value = Vec<RuleSeed>> {
        proptest::collection::vec(
            (
                any::<u32>(),
                0u8..=32,
                any::<u32>(),
                0u8..=32,
                (any::<u16>(), 0u8..=3, any::<bool>()),
                0u8..=7,
            ),
            1..10,
        )
    }

    /// A prefix seed `(bits, length)` crowded so that ranges nest as often
    /// as they miss: near the root (the top six address bits, /0–/8) or
    /// deep in one first-octet bucket (10.0.0.0/8 with its ninth and
    /// seventeenth bits drawn, lengths /8–/24). Both keep the low bit,
    /// [`mk_clause`]'s deny-entry selector.
    fn crowded_prefix() -> impl Strategy<Value = (u32, u8)> {
        prop_oneof![
            (any::<u32>().prop_map(|b| b & 0xFC00_0001), 0u8..=8),
            (
                any::<u32>().prop_map(|b| 0x0A00_0000 | b & 0x0080_8001),
                8u8..=24
            ),
        ]
    }

    /// A clause's `(bits, length, length-interval selector)` from `prefix`.
    fn prefix_seed(
        prefix: impl Strategy<Value = (u32, u8)>,
    ) -> impl Strategy<Value = (u32, u8, u8)> {
        (prefix, 0u8..=5).prop_map(|((bits, len), sel)| (bits, len, sel))
    }

    /// Random policy clause seeds for [`policy_pair`]: any address at
    /// /0–/24 for half the clauses, a [`crowded_prefix`] for the rest.
    pub(super) fn clause_seeds() -> impl Strategy<Value = Vec<ClauseSeed>> {
        proptest::collection::vec(
            (
                prefix_seed(prop_oneof![(any::<u32>(), 0u8..=24), crowded_prefix()]),
                0u8..=3,
                0u8..=5,
                0u8..=4,
                0u8..=7,
            ),
            1..8,
        )
    }

    /// Longer clause lists with rarer mutations, fall-through clauses and
    /// community-only conditions, so most pairs stay under alignment's
    /// 25 % fall-back and restrict with the range screen on; every prefix
    /// is a [`crowded_prefix`], so the screen meets nesting ranges at
    /// every depth.
    pub(super) fn sparse_clause_seeds() -> impl Strategy<Value = Vec<ClauseSeed>> {
        proptest::collection::vec(
            (
                prefix_seed(crowded_prefix()),
                0u8..=3,
                0u8..=31,
                0u8..=9,
                0u8..=15,
            ),
            4..16,
        )
    }

    /// Longer rule lists with rarer mutations, for the same reason.
    pub(super) fn sparse_rule_seeds() -> impl Strategy<Value = Vec<RuleSeed>> {
        proptest::collection::vec(
            (
                any::<u32>(),
                0u8..=32,
                any::<u32>(),
                0u8..=32,
                (any::<u16>(), 0u8..=3, any::<bool>()),
                0u8..=15,
            ),
            4..24,
        )
    }

    proptest! {
        // The acceptance bar for this oracle is ≥256 cases per property;
        // honor a larger PROPTEST_CASES from the environment.
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        /// ACL diff: pruned == all-pairs reference.
        #[test]
        fn acl_pruned_diff_matches_all_pairs(seeds in rule_seeds()) {
            let (a1, a2) = acl_pair(&seeds);
            let mut space = PacketSpace::new();
            let u = space.universe();
            let paths1 = acl_paths(&mut space, &a1, u);
            let paths2 = acl_paths(&mut space, &a2, u);
            let pruned = semantic_diff(&mut space.manager, &paths1, &paths2);
            let reference = semantic_diff_all_pairs(&mut space.manager, &paths1, &paths2);
            assert_same(&pruned, &reference)?;
        }

        /// Route-policy diff: pruned == all-pairs reference (exercises
        /// multi-effect grouping: accept verdicts carry distinct rewrite
        /// sets).
        #[test]
        fn policy_pruned_diff_matches_all_pairs(
            seeds in clause_seeds(),
            defaults in defaults(),
            catch_all in catch_all(),
        ) {
            let (p1, p2) = policy_pair(&seeds, defaults, catch_all);
            let mut space = RouteSpace::for_policies(&[&p1, &p2]);
            let u = space.universe();
            let paths1 = policy_paths(&mut space, &p1, u);
            let paths2 = policy_paths(&mut space, &p2, u);
            let pruned = semantic_diff(&mut space.manager, &paths1, &paths2);
            let reference = semantic_diff_all_pairs(&mut space.manager, &paths1, &paths2);
            assert_same(&pruned, &reference)?;
        }
    }
}

// ------------------------------------------------------------- restriction

/// Differential oracle for alignment-restricted enumeration: on random
/// near-identical pairs, [`acl_diff_paths`] and [`policy_diff_paths`] must
/// yield the same differences (handles included — one manager) as
/// enumerating both sides over the whole universe, and a pair alignment
/// proves identical must have no difference at all. The policy pairs carry
/// fall-through clauses, community matches in both dialects, differing
/// defaults and an optional trailing match-all clause, so every fall-back
/// and the range screen are exercised. Deterministic tests pin what the
/// screens are for: the loops ask a screen only about items they reach
/// with `R` nonempty, and a screened rule is never encoded.
mod restriction {
    use super::prune_oracle::{
        acl_pair, assert_same, catch_all, defaults, mk_clause, policy_pair, sparse_clause_seeds,
        sparse_rule_seeds, ClauseSeed, RuleSeed,
    };
    use super::*;
    use crate::semantic::{
        acl_diff_paths, acl_paths_within, acls_identical, policies_identical, policy_diff_paths,
        policy_paths_within, rules_may_overlap,
    };
    use campion_bdd::Bdd;
    use campion_cfg::Span;
    use campion_ir::{Clause, RoutePolicy, Terminal};
    use campion_symbolic::{ClauseKey, PacketSpace};
    use proptest::prelude::*;
    use std::cell::RefCell;

    /// A clause's condition from the initial state, as the enumeration
    /// encodes it.
    fn cond(space: &mut RouteSpace, clause: &Clause) -> Bdd {
        let state = space.initial_state();
        let mut acc = Bdd::TRUE;
        for m in &clause.matches {
            let b = space.match_bdd(m, &state);
            acc = space.manager.and(acc, b);
        }
        acc
    }

    /// `n` pairwise-disjoint permit rules, rule `i` matching the source
    /// /24 `10.i.0/24` (`i` spread over the second and third octets), with
    /// only rule `flip` flipped to deny on side 2.
    fn disjoint_rule_seeds(n: u32, flip: u32) -> Vec<RuleSeed> {
        (0..n)
            .map(|i| {
                (
                    0x0A00_0000 | i << 8,
                    24,
                    0,
                    0,
                    (0, 0, true),
                    5 * u8::from(i == flip),
                )
            })
            .collect()
    }

    /// The ACL loop asks its screen about a rule only when it reaches the
    /// rule with `R` nonempty. With only rule 0's action edited, `R` is
    /// rule 0's condition and empties at rule 0 on both sides, so neither
    /// loop asks about a later rule. With only the last rule edited, each
    /// loop asks about every rule and skips all but that one.
    #[test]
    fn the_acl_loop_asks_the_screen_only_while_r_is_nonempty() {
        for (flip, asked, skipped) in [(0, vec![0], 0), (999, (0..1000).collect(), 999)] {
            let (a1, a2) = acl_pair(&disjoint_rule_seeds(1000, flip as u32));
            let gens = [&a1.rules[flip], &a2.rules[flip]];
            let mut space = PacketSpace::new();
            let within = space.rule_bdd(gens[0]);
            for acl in [&a1, &a2] {
                let seen = RefCell::new(Vec::new());
                let skip = |i: usize| {
                    seen.borrow_mut().push(i);
                    !gens.iter().any(|g| rules_may_overlap(&acl.rules[i], g))
                };
                let (paths, n) = acl_paths_within(&mut space, acl, within, Some(&skip));
                assert_eq!(seen.into_inner(), asked, "rules asked about");
                assert_eq!(n, skipped, "rules skipped");
                assert_eq!(paths.len(), 1, "only the edited rule fires in R");
            }
        }
    }

    /// The route-policy loop likewise: 60 clauses on pairwise-disjoint
    /// /16s, only clause 0's terminal flipped, so `R` is clause 0's
    /// condition and each side's frame chain ends there.
    #[test]
    fn the_policy_loop_asks_the_screen_only_while_r_is_nonempty() {
        let seeds: Vec<ClauseSeed> = (0..60)
            .map(|i| {
                (
                    (0x0A00_0000 | i << 16, 16, 0),
                    0,
                    0,
                    0,
                    5 * u8::from(i == 0),
                )
            })
            .collect();
        let (p1, p2) = policy_pair(&seeds, (false, false), None);
        let mut space = RouteSpace::for_policies(&[&p1, &p2]);
        let within = cond(&mut space, &p1.clauses[0]);
        for policy in [&p1, &p2] {
            let seen = RefCell::new(Vec::new());
            // The clauses are pairwise disjoint: all but clause 0 miss `R`.
            let skip = |i: usize| {
                seen.borrow_mut().push(i);
                i != 0
            };
            let (paths, n) = policy_paths_within(&mut space, policy, within, Some(&skip));
            assert_eq!(seen.into_inner(), [0], "clauses asked about");
            assert_eq!(n, 0, "clauses skipped");
            assert_eq!(paths.len(), 1, "only the edited clause fires in R");
        }
    }

    /// What the ACL screen is for: on 1,000 pairwise-disjoint rules with
    /// only the last one's action flipped, no rule disjoint from the
    /// generators is encoded. The generators (the last rule of each side)
    /// are encoded once each to build `R` and once per side by the loops:
    /// four rule-cache lookups, where an unscreened enumeration makes
    /// 2,002. The differences match the universe enumeration's.
    #[test]
    fn the_acl_screen_leaves_disjoint_rules_unencoded() {
        let (a1, a2) = acl_pair(&disjoint_rule_seeds(1000, 999));
        let mut space = PacketSpace::new();
        let (r1, r2) = acl_diff_paths(&mut space, &a1, &a2, 1);
        assert_eq!(space.rule_cache_stats().0, 4, "rule-cache lookups");
        let restricted = semantic_diff(&mut space.manager, &r1, &r2);
        let u = space.universe();
        let (f1, f2) = (acl_paths(&mut space, &a1, u), acl_paths(&mut space, &a2, u));
        let full = semantic_diff(&mut space.manager, &f1, &f2);
        assert_eq!(full.len(), 1);
        assert_same(&restricted, &full).expect("restricted differences match");
    }

    /// A match-all clause that falls through hides neither default: this
    /// pair has equal clause keys and differing defaults, so it differs.
    #[test]
    fn a_falling_through_match_all_leaves_the_defaults_visible() {
        let seeds = [((0x0A00_0000, 8, 0), 0, 0, 0, 0)];
        let (p1, p2) = policy_pair(&seeds, (true, false), Some(Terminal::Fallthrough));
        assert!(!policies_identical(&p1, &p2));
        let mut space = RouteSpace::for_policies(&[&p1, &p2]);
        let (r1, r2) = policy_diff_paths(&mut space, &p1, &p2);
        assert!(!semantic_diff(&mut space.manager, &r1, &r2).is_empty());
        let (p1, p2) = policy_pair(&seeds, (true, false), Some(Terminal::Reject));
        assert!(policies_identical(&p1, &p2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        #[test]
        fn acl_restriction_matches_the_universe(seeds in sparse_rule_seeds()) {
            let (a1, a2) = acl_pair(&seeds);
            let mut space = PacketSpace::new();
            let (r1, r2) = acl_diff_paths(&mut space, &a1, &a2, 1);
            let restricted = semantic_diff(&mut space.manager, &r1, &r2);
            let u = space.universe();
            let (f1, f2) = (acl_paths(&mut space, &a1, u), acl_paths(&mut space, &a2, u));
            let full = semantic_diff(&mut space.manager, &f1, &f2);
            assert_same(&restricted, &full)?;
            prop_assert!(!acls_identical(&a1, &a2) || full.is_empty());
        }

        #[test]
        fn policy_restriction_matches_the_universe(
            seeds in sparse_clause_seeds(),
            defaults in defaults(),
            catch_all in catch_all(),
        ) {
            let (p1, p2) = policy_pair(&seeds, defaults, catch_all);
            let mut space = RouteSpace::for_policies(&[&p1, &p2]);
            let (r1, r2) = policy_diff_paths(&mut space, &p1, &p2);
            let restricted = semantic_diff(&mut space.manager, &r1, &r2);
            let u = space.universe();
            let (f1, f2) = (policy_paths(&mut space, &p1, u), policy_paths(&mut space, &p2, u));
            let full = semantic_diff(&mut space.manager, &f1, &f2);
            assert_same(&restricted, &full)?;
            prop_assert!(!policies_identical(&p1, &p2) || full.is_empty());
        }

        /// Alignment's premise: equal keys encode to the same condition.
        /// Each seed is rendered with every community selector in both
        /// dialects (other list names, `members` for one-permit lists);
        /// the two dialects of one rendering must key alike, and any two
        /// renderings that key alike must encode alike.
        #[test]
        fn equal_clause_keys_encode_to_the_same_condition(seeds in sparse_clause_seeds()) {
            let mut clauses = Vec::new();
            for (i, seed) in seeds.iter().enumerate() {
                for comm_sel in 0..=4 {
                    let s = (seed.0, seed.1, seed.2, comm_sel, seed.4);
                    clauses.push(mk_clause(i, &s, false, false, false));
                    clauses.push(mk_clause(i, &s, true, false, false));
                }
            }
            let policy = RoutePolicy {
                name: "VARIANTS".into(),
                clauses,
                default_terminal: Terminal::Reject,
                span: Span::default(),
            };
            let mut space = RouteSpace::for_policies(&[&policy]);
            let keys: Vec<ClauseKey> = policy.clauses.iter().map(ClauseKey::of).collect();
            let conds: Vec<Bdd> = policy.clauses.iter().map(|c| cond(&mut space, c)).collect();
            for pair in keys.chunks(2) {
                prop_assert_eq!(&pair[0], &pair[1], "dialects key apart");
            }
            for (i, a) in keys.iter().enumerate() {
                for (j, b) in keys.iter().enumerate() {
                    if a == b {
                        prop_assert_eq!(conds[i], conds[j], "equal keys {} and {}", i, j);
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------------- compaction

/// The driver compacts a pair's arena to the differences' inputs before it
/// localizes them. On random near-identical ACL and policy pairs, every
/// difference must localize (and yield its example) after the compaction
/// exactly as it does in the uncompacted arena.
mod compaction {
    use super::prune_oracle::{
        acl_pair, catch_all, clause_seeds, defaults, policy_pair, rule_seeds,
    };
    use super::*;
    use crate::driver::acl_address_ranges;
    use crate::headerloc::{header_localize_with, DstAddrSpace, RangeDag, SrcAddrSpace};
    use crate::semantic::acl_diff_paths;
    use campion_bdd::{Assignment, Bdd};
    use campion_symbolic::PacketSpace;
    use proptest::prelude::*;

    /// Per input: its destination and source localizations and its first
    /// satisfying assignment.
    fn localize_acl(
        space: &mut PacketSpace,
        (dst, src): &(Vec<PrefixRange>, Vec<PrefixRange>),
        inputs: &[Bdd],
    ) -> Vec<(HeaderLocalization, HeaderLocalization, Option<Assignment>)> {
        let dst_dag = RangeDag::build(&mut DstAddrSpace(space), dst);
        let src_dag = RangeDag::build(&mut SrcAddrSpace(space), src);
        inputs
            .iter()
            .map(|&i| {
                let d = space.project_to_dst(i);
                let d = header_localize_with(&mut DstAddrSpace(space), d, &dst_dag);
                let s = space.project_to_src(i);
                let s = header_localize_with(&mut SrcAddrSpace(space), s, &src_dag);
                (d, s, space.manager.first_sat_assignment(i))
            })
            .collect()
    }

    /// Per input: its prefix localization and its first satisfying
    /// assignment.
    fn localize_policy(
        space: &mut RouteSpace,
        ranges: &[PrefixRange],
        inputs: &[Bdd],
    ) -> Vec<(HeaderLocalization, Option<Assignment>)> {
        let dag = RangeDag::build(space, ranges);
        inputs
            .iter()
            .map(|&i| {
                let s = space.project_to_prefix(i);
                let loc = header_localize_with(space, s, &dag);
                (loc, space.manager.first_sat_assignment(i))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        #[test]
        fn acl_localization_survives_compaction(seeds in rule_seeds()) {
            let (a1, a2) = acl_pair(&seeds);
            let mut space = PacketSpace::new();
            let (paths1, paths2) = acl_diff_paths(&mut space, &a1, &a2, 1);
            let diffs = semantic_diff(&mut space.manager, &paths1, &paths2);
            let inputs: Vec<Bdd> = diffs.iter().map(|d| d.input).collect();
            let mut compacted = space.clone();
            let mut kept = inputs.clone();
            compacted.compact(&mut kept);
            let ranges = acl_address_ranges(&a1, &a2);
            prop_assert_eq!(
                localize_acl(&mut compacted, &ranges, &kept),
                localize_acl(&mut space, &ranges, &inputs)
            );
        }

        #[test]
        fn policy_localization_survives_compaction(
            seeds in clause_seeds(),
            defaults in defaults(),
            catch_all in catch_all(),
        ) {
            let (p1, p2) = policy_pair(&seeds, defaults, catch_all);
            let mut space = RouteSpace::for_policies(&[&p1, &p2]);
            let u = space.universe();
            let paths1 = policy_paths(&mut space, &p1, u);
            let paths2 = policy_paths(&mut space, &p2, u);
            let diffs = semantic_diff(&mut space.manager, &paths1, &paths2);
            let inputs: Vec<Bdd> = diffs.iter().map(|d| d.input).collect();
            let mut compacted = space.clone();
            let mut kept = inputs.clone();
            compacted.compact(&mut kept);
            let mut ranges = p1.prefix_ranges();
            ranges.extend(p2.prefix_ranges());
            prop_assert_eq!(
                localize_policy(&mut compacted, &ranges, &kept),
                localize_policy(&mut space, &ranges, &inputs)
            );
        }
    }
}

// ---------------------------------------------------------- overlap screen

/// `rules_may_overlap` lets `acl_paths_within` skip a rule without encoding
/// it, so a `false` must prove the two conditions disjoint. A rule's
/// condition is a product of per-field sets (its protocols narrowed to
/// TCP/UDP when it names ports, its address alternatives, its port
/// ranges), and two nonempty products meet iff every field's sets meet, so
/// on nonempty rules the screen is exact as well.
mod overlap_screen {
    use crate::semantic::rules_may_overlap;
    use campion_cfg::Span;
    use campion_ir::AclRuleIr;
    use campion_net::{IpProtocol, PortRange, Prefix, WildcardMask};
    use campion_symbolic::PacketSpace;
    use proptest::prelude::*;

    /// Protocol lists, "any" and non-port protocols included; empty means
    /// unconstrained.
    fn protocols() -> impl Strategy<Value = Vec<IpProtocol>> {
        proptest::collection::vec(
            prop_oneof![
                Just(IpProtocol::Any),
                Just(IpProtocol::Tcp),
                Just(IpProtocol::Udp),
                Just(IpProtocol::Icmp),
                Just(IpProtocol::Other(47)),
            ],
            0..3,
        )
    }

    /// Address alternatives over a few cared-for bits, so rules often
    /// meet: prefixes of the top three bits, and non-contiguous masks that
    /// care about some of the top three and bottom two bits.
    fn wildcards() -> impl Strategy<Value = Vec<WildcardMask>> {
        proptest::collection::vec(
            prop_oneof![
                (any::<u32>(), 0u8..=3).prop_map(|(bits, len)| {
                    WildcardMask::from_prefix(&Prefix::new(bits.into(), len))
                }),
                (any::<u32>(), any::<u32>()).prop_map(|(bits, care)| {
                    let care = care & 0xE000_0003;
                    WildcardMask {
                        addr: bits & care,
                        wildcard: !care,
                    }
                }),
            ],
            0..3,
        )
    }

    /// Port ranges over a small domain; empty means unconstrained.
    fn ports() -> impl Strategy<Value = Vec<PortRange>> {
        proptest::collection::vec(
            (0u16..8, 0u16..4).prop_map(|(lo, w)| PortRange::new(lo, lo + w)),
            0..3,
        )
    }

    fn rule() -> impl Strategy<Value = AclRuleIr> {
        (protocols(), wildcards(), wildcards(), ports(), ports()).prop_map(
            |(protocols, src, dst, src_ports, dst_ports)| AclRuleIr {
                label: String::new(),
                permit: true,
                protocols,
                src,
                dst,
                src_ports,
                dst_ports,
                span: Span::default(),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        #[test]
        fn screen_is_sound_and_exact_on_nonempty_rules(a in rule(), b in rule()) {
            let mut space = PacketSpace::new();
            let (ca, cb) = (space.rule_bdd(&a), space.rule_bdd(&b));
            let meet = space.manager.and(ca, cb);
            let screen = rules_may_overlap(&a, &b);
            prop_assert!(screen || meet.is_const_false(), "screen called meeting rules disjoint");
            if !ca.is_const_false() && !cb.is_const_false() {
                prop_assert_eq!(screen, !meet.is_const_false(), "screen missed a disjoint field");
            }
        }
    }
}

// --------------------------------------------------------------- alignment

/// Property suite for the hashed-anchor (patience) alignment that replaced
/// the quadratic handle-keyed LCS in `acl_diff_paths`: soundness (every
/// mark pair is a valid order-preserving common subsequence — the property
/// the restriction set's correctness rests on) and quality against the
/// retained `lcs_pairs` oracle.
mod alignment {
    use crate::semantic::{align_common, lcs_pairs};
    use proptest::prelude::*;

    /// The marked positions, in order, per side.
    fn marked(flags: &[bool]) -> Vec<usize> {
        flags
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect()
    }

    /// Soundness: equal mark counts, and the k-th marked element of `a`
    /// equals the k-th marked element of `b` — i.e. the marks spell one
    /// common subsequence of both inputs.
    fn assert_valid_alignment(
        a: &[u16],
        b: &[u16],
    ) -> Result<(Vec<usize>, Vec<usize>), TestCaseError> {
        let (c1, c2) = align_common(a, b);
        let (m1, m2) = (marked(&c1), marked(&c2));
        prop_assert_eq!(m1.len(), m2.len(), "mark counts differ");
        for (&i, &j) in m1.iter().zip(m2.iter()) {
            prop_assert_eq!(a[i], b[j], "marked pair ({}, {}) differs", i, j);
        }
        Ok((m1, m2))
    }

    proptest! {
        /// Arbitrary sequences (duplicates included): alignment is always
        /// a valid common subsequence, never longer than the true LCS.
        #[test]
        fn alignment_is_valid_common_subsequence(
            a in proptest::collection::vec(0u16..12, 0..60),
            b in proptest::collection::vec(0u16..12, 0..60),
        ) {
            let (m1, _) = assert_valid_alignment(&a, &b)?;
            prop_assert!(m1.len() <= lcs_pairs(&a, &b).len());
        }

        /// Unique-keyed sequences under random edits — the shape real
        /// config pairs take (rule lines rarely repeat verbatim): patience
        /// anchoring recovers a *maximum* common subsequence, exactly
        /// matching the LCS oracle's length.
        #[test]
        fn patience_matches_lcs_on_unique_keys(
            n in 1usize..80,
            edits in proptest::collection::vec((any::<u16>(), 0u8..3), 0..8),
        ) {
            let a: Vec<u16> = (0..n as u16).collect();
            let mut b = a.clone();
            for (r, kind) in &edits {
                let pos = *r as usize % b.len().max(1);
                match kind {
                    0 if !b.is_empty() => { b.remove(pos); }
                    1 => b.insert(pos.min(b.len()), 1000 + *r % 900),
                    _ if !b.is_empty() => b[pos] = 2000 + *r % 900,
                    _ => {}
                }
            }
            let (m1, _) = assert_valid_alignment(&a, &b)?;
            // `b` can still repeat an inserted/substituted key; the LCS
            // oracle is the ground truth either way.
            prop_assert_eq!(m1.len(), lcs_pairs(&a, &b).len());
        }

        /// Equal-length middles take the positional pass: an in-place
        /// mutation leaves everything but the touched positions aligned.
        #[test]
        fn positional_pass_aligns_in_place_edits(
            n in 2usize..100,
            touched in proptest::collection::btree_set(0usize..100, 1..4),
        ) {
            let a: Vec<u16> = (0..n as u16).collect();
            let mut b = a.clone();
            let touched: Vec<usize> =
                touched.into_iter().map(|t| t % n).collect();
            for &t in &touched {
                b[t] = 5000 + t as u16;
            }
            let (c1, _) = align_common(&a, &b);
            for (i, &flag) in c1.iter().enumerate() {
                prop_assert_eq!(flag, !touched.contains(&i), "position {}", i);
            }
        }
    }
}

// --------------------------------------------------------------- ddNF/trie

/// Differential suite for the structural ddNF builder and the pruned,
/// witness-deciding `GetMatch`: the trie-based [`RangeDag::build`] must
/// produce byte-identical DAGs — node order, cover edges, BDD handles and
/// cells included — versus the retained BDD-deciding oracle, localizations
/// against either must agree, every cell must be the `diff` chain over the
/// node sets and hold its witness, and the pruned query, which decides
/// overlap by walking the target and "cell ⊆ S" at a witness, must return
/// what the eager, unpruned one does, building cells only for a target
/// that is no union of cells.
mod ddnf {
    use std::net::Ipv4Addr;

    use campion_bdd::Bdd;
    use campion_net::Prefix;
    use campion_symbolic::PacketSpace;
    use proptest::prelude::*;

    use super::*;
    use crate::headerloc::oracle::{
        build_ddnf_oracle, dag_structure, diff_chain_cells, found_witnesses, header_localize_eager,
        skeleton, witness,
    };
    use crate::headerloc::{
        header_localize_with, localize, Decisions, DstAddrSpace, HeaderLocalization, RangeDag,
        RangeEncoder, RangeSemantics, RangeTerm, SrcAddrSpace,
    };

    /// Build with both builders in the same space (so deterministic
    /// hash-consing makes node handles comparable), encode every node set
    /// and remainder of both, assert full equality, then cross-check
    /// localization of every input range and their union.
    fn assert_same_dag<E: RangeEncoder>(space: &mut E, ranges: &[PrefixRange]) {
        let oracle = build_ddnf_oracle(space, ranges);
        let fast = RangeDag::build(space, ranges);
        assert_eq!(
            dag_structure(space, &oracle),
            dag_structure(space, &fast),
            "trie builder diverged from the oracle"
        );
        let mut targets = Vec::new();
        let mut union = campion_bdd::Bdd::FALSE;
        for r in ranges {
            let b = space.cell(r, &[]);
            targets.push(b);
            union = space.manager().or(union, b);
        }
        targets.push(union);
        targets.push(campion_bdd::Bdd::FALSE);
        let valid = space.cell(&PrefixRange::universe(), &[]);
        for t in targets {
            let s = space.manager().and(t, valid);
            let a = header_localize_with(space, s, &oracle);
            let b = header_localize_with(space, s, &fast);
            assert_eq!(a, b, "localization diverged between oracle and trie DAG");
        }
    }

    fn route_space() -> RouteSpace {
        let dummy = campion_ir::RoutePolicy::permit_all("x");
        RouteSpace::for_policies(&[&dummy])
    }

    /// A leaf of the DAG (node order) together with a range denoting a
    /// nonempty strict subset of it, when one exists: a target holding
    /// that sub-range splits the leaf's cell.
    fn splitting_subrange(
        sem: RangeSemantics,
        nodes: &[PrefixRange],
        children: &[Vec<usize>],
    ) -> Option<(usize, PrefixRange)> {
        let half = |p: &Prefix| (p.len() < 32).then(|| Prefix::new(p.addr(), p.len() + 1));
        (0..nodes.len())
            .filter(|&n| children[n].is_empty())
            .find_map(|n| {
                let sub = match sem {
                    RangeSemantics::Addresses => half(&nodes[n].prefix).map(PrefixRange::or_longer),
                    RangeSemantics::Members => {
                        let c = nodes[n].canonical_members()?;
                        let lowest = PrefixRange::new(c.prefix, c.min_len, c.min_len);
                        let fanned =
                            half(&c.prefix).map(|h| PrefixRange::new(h, c.max_len, c.max_len));
                        [Some(lowest), fanned].into_iter().flatten().find(|x| {
                            x.canonical_members().is_some()
                                && c.member_superset(x)
                                && !x.member_superset(&c)
                        })
                    }
                };
                sub.map(|sub| (n, sub))
            })
    }

    /// Require every cell the DAG builds (in a route space, one first-match
    /// build) to be the `diff` chain over the node sets, handle for handle.
    /// Then localize a battery of targets with the pruned query and with
    /// the eager, unpruned oracle — each against its own DAG over `ranges` —
    /// and require equal terms and `exact` flags, and that the pruned query
    /// built cells, in one fallback, exactly for the inexact targets.
    /// Targets: ∅, the universe, every single cell, the union of the input
    /// ranges (all exact), and, when a leaf cell can be split by a range,
    /// that sub-range alone and united with the input ranges disjoint from
    /// the leaf (both inexact).
    fn assert_pruned_matches_eager<E: RangeEncoder>(
        space: &mut E,
        ranges: &[PrefixRange],
    ) -> Result<(), TestCaseError> {
        let cells = RangeDag::build(space, ranges);
        let (nodes, bdds, children, remainders) = dag_structure(space, &cells);
        prop_assert_eq!(
            &remainders,
            &diff_chain_cells(space, &cells),
            "a cell is not the diff chain"
        );
        let valid = space.cell(&PrefixRange::universe(), &[]);
        let mut targets: Vec<(Bdd, bool)> = vec![(Bdd::FALSE, true), (valid, true)];
        targets.extend(remainders.iter().map(|&r| (r, true)));
        let mut union = Bdd::FALSE;
        for r in ranges {
            let b = space.cell(r, &[]);
            union = space.manager().or(union, b);
        }
        targets.push((space.manager().and(union, valid), true));
        if let Some((leaf, sub)) = splitting_subrange(space.semantics(), &nodes, &children) {
            let b = space.cell(&sub, &[]);
            let sub = space.manager().and(b, valid);
            let mut apart = sub;
            for r in ranges {
                let b = space.cell(r, &[]);
                let meet = space.manager().and(b, bdds[leaf]);
                if space.manager().is_false(meet) {
                    apart = space.manager().or(apart, b);
                }
            }
            targets.push((sub, false));
            targets.push((space.manager().and(apart, valid), false));
        }
        let pruned = RangeDag::build(space, ranges);
        let eager = RangeDag::build(space, ranges);
        for (s, exact) in targets {
            let want = header_localize_eager(space, s, &eager);
            let (got, decided) = localize(space, s, &pruned);
            prop_assert_eq!(
                &got,
                &want,
                "pruned GetMatch diverged from the eager oracle"
            );
            prop_assert_eq!(got.exact, exact);
            prop_assert_eq!(decided.fallback, !exact);
            if exact {
                prop_assert_eq!(decided.cells, 0, "an exact target built cells");
            }
        }
        Ok(())
    }

    /// Require every node's witness to stand for its cell: `None` exactly
    /// when the cell is empty, and otherwise a point the cell holds.
    fn assert_witnesses_match_cells<E: RangeEncoder>(
        space: &mut E,
        ranges: &[PrefixRange],
    ) -> Result<(), TestCaseError> {
        let dag = RangeDag::build(space, ranges);
        let (nodes, _, _, cells) = dag_structure(space, &dag);
        for (n, &cell) in cells.iter().enumerate() {
            match witness(&dag, n) {
                None => prop_assert!(cell.is_const_false(), "{} has a member", nodes[n]),
                Some(p) => prop_assert!(space.holds(cell, &p), "{} is outside {}", p, nodes[n]),
            }
        }
        Ok(())
    }

    /// Ranges with arbitrary length intervals from proptest seeds: a route
    /// space reads empty member sets and truncation chains among them, an
    /// address space only their prefixes.
    fn member_ranges(seeds: &[(u32, u8, u8, u8)]) -> Vec<PrefixRange> {
        seeds
            .iter()
            .map(|&(bits, len, a, b)| {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                PrefixRange::new(Prefix::new(Ipv4Addr::from(bits), len), lo, hi)
            })
            .collect()
    }

    /// Address-space ranges from proptest seeds, as the ACL driver builds
    /// them: `or_longer` ranges from rule prefixes. A seed marked `split`
    /// adds both halves of its block too, so the block's cell is empty: a
    /// node that GetMatch must prune on overlap alone.
    fn addr_ranges(seeds: &[(u32, u8, bool)]) -> Vec<PrefixRange> {
        let mut out = Vec::new();
        for &(bits, len, split) in seeds {
            let p = Prefix::new(Ipv4Addr::from(bits), len);
            out.push(PrefixRange::or_longer(p));
            if split && len < 32 {
                let half = 1u32 << (31 - len);
                for b in [p.bits(), p.bits() | half] {
                    out.push(PrefixRange::or_longer(Prefix::new(
                        Ipv4Addr::from(b),
                        len + 1,
                    )));
                }
            }
        }
        out
    }

    /// Prefix bits for the `GetMatch` differential: half the draws keep
    /// only a few high bits, so ranges nest and the DAG grows deep.
    fn crowded_bits() -> impl Strategy<Value = u32> {
        prop_oneof![any::<u32>(), any::<u32>().prop_map(|b| b & 0xF0F0_0000)]
    }

    proptest! {
        /// Route-space (member semantics).
        #[test]
        fn trie_matches_oracle_in_route_spaces(
            seeds in proptest::collection::vec(
                (any::<u32>(), 0u8..=32, 0u8..=32, 0u8..=32), 1..8)
        ) {
            assert_same_dag(&mut route_space(), &member_ranges(&seeds));
        }

        /// Address-space (prefix-only semantics), destination and source.
        #[test]
        fn trie_matches_oracle_in_addr_spaces(
            seeds in proptest::collection::vec((any::<u32>(), 0u8..=32, any::<bool>()), 1..8)
        ) {
            let mut space = PacketSpace::new();
            assert_same_dag(&mut DstAddrSpace(&mut space), &addr_ranges(&seeds));
            assert_same_dag(&mut SrcAddrSpace(&mut space), &addr_ranges(&seeds));
        }
    }

    proptest! {
        // At least 256 cases per semantics; honor a larger PROPTEST_CASES
        // from the environment.
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        /// Pruned, lazy `GetMatch` == eager oracle, member semantics.
        #[test]
        fn pruned_getmatch_matches_eager_in_route_spaces(
            seeds in proptest::collection::vec(
                (crowded_bits(), 0u8..=32, 0u8..=32, 0u8..=32), 1..10)
        ) {
            assert_pruned_matches_eager(&mut route_space(), &member_ranges(&seeds))?;
        }

        /// Pruned, lazy `GetMatch` == eager oracle, address semantics, in
        /// the destination and the source dimension (each walks its own
        /// variable run).
        #[test]
        fn pruned_getmatch_matches_eager_in_addr_spaces(
            seeds in proptest::collection::vec((crowded_bits(), 0u8..=32, any::<bool>()), 1..10)
        ) {
            let mut space = PacketSpace::new();
            assert_pruned_matches_eager(&mut DstAddrSpace(&mut space), &addr_ranges(&seeds))?;
            assert_pruned_matches_eager(&mut SrcAddrSpace(&mut space), &addr_ranges(&seeds))?;
        }
    }

    /// Require the address DAG over `ranges` to be the Hasse diagram of
    /// the encoded address sets: one node per distinct set of the input
    /// and the universe, a cover edge exactly where one set strictly
    /// contains another with no node strictly between, and cells that are
    /// pairwise disjoint and together make up the universe.
    fn assert_address_hasse_diagram<E: RangeEncoder>(
        space: &mut E,
        ranges: &[PrefixRange],
    ) -> Result<(), TestCaseError> {
        let dag = RangeDag::build(space, ranges);
        let (_, sets, children, cells) = dag_structure(space, &dag);
        let n = sets.len();
        let mut want: Vec<Bdd> = vec![space.cell(&PrefixRange::universe(), &[])];
        for r in ranges {
            let b = space.cell(r, &[]);
            if !want.contains(&b) {
                want.push(b);
            }
        }
        prop_assert_eq!(&sets, &want, "nodes are not the distinct input sets");
        // below[a][b]: set a ⊂ set b, strictly.
        let mut below = vec![vec![false; n]; n];
        for a in 0..n {
            for b in 0..n {
                below[a][b] = a != b && space.manager().diff(sets[a], sets[b]).is_const_false();
            }
        }
        for m in 0..n {
            for c in 0..n {
                let cover = below[c][m] && !(0..n).any(|k| below[c][k] && below[k][m]);
                prop_assert_eq!(
                    children[m].contains(&c),
                    cover,
                    "edge {} -> {} disagrees with the cover relation",
                    m,
                    c
                );
            }
        }
        let mut union = Bdd::FALSE;
        for a in 0..n {
            for b in a + 1..n {
                let meet = space.manager().and(cells[a], cells[b]);
                prop_assert!(meet.is_const_false(), "cells {} and {} overlap", a, b);
            }
            union = space.manager().or(union, cells[a]);
        }
        prop_assert_eq!(union, sets[0], "the cells do not cover the universe");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        /// Witnesses against built cells, member semantics.
        #[test]
        fn witnesses_match_cells_in_route_spaces(
            seeds in proptest::collection::vec(
                (crowded_bits(), 0u8..=32, 0u8..=32, 0u8..=32), 1..10)
        ) {
            assert_witnesses_match_cells(&mut route_space(), &member_ranges(&seeds))?;
        }

        /// Witnesses against built cells, address semantics, on split
        /// blocks and on arbitrary length bounds.
        #[test]
        fn witnesses_match_cells_in_addr_spaces(
            split in proptest::collection::vec((crowded_bits(), 0u8..=32, any::<bool>()), 1..10),
            bounded in proptest::collection::vec(
                (crowded_bits(), 0u8..=32, 0u8..=32, 0u8..=32), 1..10)
        ) {
            let mut space = PacketSpace::new();
            for ranges in [addr_ranges(&split), member_ranges(&bounded)] {
                assert_witnesses_match_cells(&mut DstAddrSpace(&mut space), &ranges)?;
                assert_witnesses_match_cells(&mut SrcAddrSpace(&mut space), &ranges)?;
            }
        }
    }

    proptest! {
        /// The address DAG is the Hasse diagram of the address sets for
        /// arbitrary length bounds, which decide nothing there.
        #[test]
        fn address_dag_is_the_hasse_diagram_of_address_sets(
            seeds in proptest::collection::vec(
                (crowded_bits(), 0u8..=32, 0u8..=32, 0u8..=32), 1..10)
        ) {
            let ranges = member_ranges(&seeds);
            let mut space = PacketSpace::new();
            assert_address_hasse_diagram(&mut DstAddrSpace(&mut space), &ranges)?;
            assert_address_hasse_diagram(&mut SrcAddrSpace(&mut space), &ranges)?;
        }
    }

    /// A node's parent is its deepest ancestor prefix even when their
    /// length intervals miss: `/8:20-32` sits between the universe and
    /// `/16:10-12`, so the chain is U ⊃ /8 ⊃ /16 ⊃ /24 and the cell of
    /// `/8` excludes `/16`.
    #[test]
    fn address_parents_ignore_length_bounds() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let ranges = [
            r("10.1.1.0/24:10-32"),
            r("10.1.0.0/16:10-12"),
            r("10.0.0.0/8:20-32"),
        ];
        let mut space = PacketSpace::new();
        let dag = RangeDag::build(&mut DstAddrSpace(&mut space), &ranges);
        let (nodes, children) = skeleton(&dag);
        assert_eq!(nodes[0], PrefixRange::universe());
        assert_eq!(nodes[1..], ranges);
        assert_eq!(children, [vec![3], vec![], vec![1], vec![2]]);
        assert_address_hasse_diagram(&mut DstAddrSpace(&mut space), &ranges).unwrap();
    }

    /// `n` `or_longer` ranges (/10–/26) from a fixed-seed LCG, crowded
    /// into sixteen first octets so the DAG is deep rather than a flat
    /// forest.
    fn lcg_ranges(n: usize) -> Vec<PrefixRange> {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let len = 10 + ((x >> 59) % 17) as u8;
                let bits = ((10 + ((x >> 32) & 0xF) as u32) << 24) | (x as u32 & 0x00FF_FFFF);
                PrefixRange::or_longer(Prefix::new(bits.into(), len))
            })
            .collect()
    }

    /// Localize a target confined to one leaf and check what the query
    /// did: witnesses for the path nodes only, each decided by its witness,
    /// and no cell built (overlap tests walk the target and encode nothing).
    fn assert_localizes_one_leaf_lazily<E: RangeEncoder>(space: &mut E) {
        let valid = space.cell(&PrefixRange::universe(), &[]);
        let dag = RangeDag::build(space, &lcg_ranges(1000));
        let snapshot = dag.clone();
        let (nodes, children) = skeleton(&dag);
        let (nodes, children) = (nodes.to_vec(), children.to_vec());
        // Or-longer ranges nest or are disjoint, so the DAG is a tree.
        let mut parent = vec![None; nodes.len()];
        for (m, kids) in children.iter().enumerate() {
            for &k in kids {
                assert!(parent[k].replace(m).is_none(), "node {k} has two parents");
            }
        }
        let path_to = |leaf: usize| {
            let mut path = vec![leaf];
            while let Some(p) = parent[*path.last().unwrap()] {
                path.push(p);
            }
            path.reverse();
            path
        };
        // A node whose children's blocks tile its own has an empty cell,
        // and GetMatch would include it and descend into the complement;
        // take the deepest leaf below none of those.
        let tiled = |n: usize| {
            let block = |r: &PrefixRange| 1u64 << (32 - u32::from(r.prefix.len()));
            children[n].iter().map(|&k| block(&nodes[k])).sum::<u64>() == block(&nodes[n])
        };
        let path = (0..nodes.len())
            .filter(|&n| children[n].is_empty())
            .map(path_to)
            .filter(|path| !path.iter().any(|&n| tiled(n)))
            .max_by_key(|path| path.len())
            .expect("a leaf below no tiled node");
        assert!(path.len() >= 3, "the test DAG should be deep: {path:?}");
        let leaf = *path.last().unwrap();
        assert_eq!(path[0], 0, "the root is node 0");

        let b = space.cell(&nodes[leaf], &[]);
        let s = space.manager().and(b, valid);
        let (loc, decided) = localize(space, s, &dag);
        assert_eq!(
            loc,
            HeaderLocalization {
                terms: vec![RangeTerm {
                    base: nodes[leaf],
                    minus: Vec::new(),
                }],
                exact: true,
            }
        );
        assert_eq!(
            decided,
            Decisions {
                points: path.len() as u64,
                cells: 0,
                fallback: false,
            }
        );
        let mut want = path.clone();
        want.sort_unstable();
        let found: Vec<usize> = found_witnesses(&dag).iter().map(|&(n, _)| n).collect();
        assert_eq!(found, want, "witnesses found off the path");
        assert!(found_witnesses(&snapshot).is_empty());
    }

    #[test]
    fn getmatch_witnesses_only_the_visited_path_in_route_spaces() {
        assert_localizes_one_leaf_lazily(&mut route_space());
    }

    #[test]
    fn getmatch_witnesses_only_the_visited_path_in_packet_spaces() {
        let mut space = PacketSpace::new();
        assert_localizes_one_leaf_lazily(&mut DstAddrSpace(&mut space));
        assert_localizes_one_leaf_lazily(&mut SrcAddrSpace(&mut space));
    }

    /// Localize a target equal to one of `ranges`, which must be pairwise
    /// disjoint, and require the query to decide only the nodes that meet
    /// it: the root and that range's node, not the other root children it
    /// walked past.
    fn assert_decides_hits_only<E: RangeEncoder>(space: &mut E, ranges: &[PrefixRange]) {
        let dag = RangeDag::build(space, ranges);
        let (_, children) = skeleton(&dag);
        assert_eq!(
            children[0].len(),
            ranges.len(),
            "every range is a root child"
        );
        let hit = ranges[ranges.len() / 2];
        let valid = space.cell(&PrefixRange::universe(), &[]);
        let b = space.cell(&hit, &[]);
        let s = space.manager().and(b, valid);
        let (loc, decided) = localize(space, s, &dag);
        assert_eq!(loc.included(), [hit]);
        assert_eq!(
            decided,
            Decisions {
                points: 2,
                cells: 0,
                fallback: false,
            },
            "the root and the hit child"
        );
    }

    /// `GetMatch` decides hits, not misses: 64 disjoint `/8` root children
    /// and a target inside one of them take two decisions.
    #[test]
    fn getmatch_decides_only_nodes_that_meet_their_target() {
        let ranges: Vec<PrefixRange> = (1..=64u8)
            .map(|i| PrefixRange::or_longer(Prefix::new(Ipv4Addr::new(i, 0, 0, 0), 8)))
            .collect();
        assert_decides_hits_only(&mut route_space(), &ranges);
        let mut space = PacketSpace::new();
        assert_decides_hits_only(&mut DstAddrSpace(&mut space), &ranges);
        assert_decides_hits_only(&mut SrcAddrSpace(&mut space), &ranges);
    }

    /// Why a query keeps a memo. At one prefix `P`, the ranges `(P, a, 32)`
    /// and `(P, 20, b)` for `a, b` in `20..=32` close to every length
    /// interval inside `20..=32`, and each interval is covered by its two
    /// one-longer neighbours, so `[a, b]` lies on `C(12 − (b − a), a − 20)`
    /// paths down from `[20, 32]`: 924 for `[26, 26]`. A target at length
    /// 26 or its complement meets every interval, so `GetMatch` recurses
    /// along every path. With the memo the query decides each node at most
    /// once per target, `S` or `¬S`.
    #[test]
    fn getmatch_decides_a_shared_node_once_per_target() {
        let p = Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 20);
        let ranges: Vec<PrefixRange> = (20..=32u8)
            .flat_map(|x| [PrefixRange::new(p, x, 32), PrefixRange::new(p, 20, x)])
            .collect();
        let mut space = route_space();
        let dag = RangeDag::build(&mut space, &ranges);
        assert_eq!(
            dag.len(),
            1 + 13 * 14 / 2,
            "every interval and the universe"
        );
        let (nodes, children) = skeleton(&dag);
        let shared = (0..dag.len())
            .filter(|&c| children.iter().filter(|kids| kids.contains(&c)).count() == 2)
            .count();
        assert_eq!(
            shared,
            11 * 12 / 2,
            "every interval inside 21..=31 has two covers"
        );
        let target = PrefixRange::new(p, 26, 26);
        assert!(nodes.contains(&target));
        let s = space.cell(&target, &[]);
        let (got, decided) = localize(&mut space, s, &dag);
        let eager = RangeDag::build(&mut space, &ranges);
        assert_eq!(got, header_localize_eager(&mut space, s, &eager));
        assert!(got.exact);
        assert!(
            decided.points <= 2 * dag.len() as u64,
            "{} decisions on a {}-node DAG",
            decided.points,
            dag.len()
        );
    }

    /// The route-space overlap test reads a node's length interval, not
    /// only its address bits. `240.0.0.0/31:15-29` is covered exactly by
    /// its children `15-25` and `20-29`, so its cell is empty, and the
    /// target `240.0.0.0/31:30-31` sits at its address bits with lengths
    /// outside its interval. Walking the address bits alone finds the two
    /// meeting, and `GetMatch` then includes the empty term
    /// `240.0.0.0/31:15-29 − (240.0.0.0/31:15-25, 240.0.0.0/31:20-29)`.
    #[test]
    fn route_space_overlap_reads_length_bounds() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let (covered, target) = (r("240.0.0.0/31:15-29"), r("240.0.0.0/31:30-31"));
        let ranges = [
            covered,
            r("240.0.0.0/31:15-25"),
            r("240.0.0.0/31:20-29"),
            target,
        ];
        let mut space = route_space();
        let s = space.cell(&target, &[]);
        let dag = RangeDag::build(&mut space, &ranges);
        let got = header_localize_with(&mut space, s, &dag);
        assert_eq!(
            got,
            HeaderLocalization {
                terms: vec![RangeTerm {
                    base: target,
                    minus: Vec::new(),
                }],
                exact: true,
            }
        );
        let eager = RangeDag::build(&mut space, &ranges);
        assert_eq!(got, header_localize_eager(&mut space, s, &eager));
        assert!(!space.meets(&covered, s));
    }

    /// The IPv4 corners: /0, /32, adjacent blocks, duplicates, and
    /// structurally different spellings of the same member set.
    #[test]
    fn trie_matches_oracle_on_edge_cases() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let ranges = vec![
            r("0.0.0.0/0:0-0"),
            r("0.0.0.0/0:0-32"), // duplicate of the implicit universe
            r("10.0.0.0/9:9-32"),
            r("10.128.0.0/9:9-32"), // adjacent block of the previous
            r("10.0.0.0/8:8-32"),
            r("255.255.255.255/32:32-32"),
            r("10.0.0.0/8:8-8"),
            r("10.0.0.0/16:8-8"), // same member set as the previous
            r("10.0.0.0/8:0-6"),  // empty member set
            r("10.0.0.0/8:8-32"), // literal duplicate
        ];
        assert_same_dag(&mut route_space(), &ranges);
    }

    /// A query leaves only witnesses on the DAG: a repeat query decides as
    /// many nodes as the first, and a compaction between two queries keeps
    /// every witness, which is plain data, and changes no answer.
    #[test]
    fn repeat_queries_decide_afresh_and_compaction_keeps_witnesses() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let ranges = [
            r("10.0.0.0/8:8-32"),
            r("10.1.0.0/16:16-32"),
            r("20.0.0.0/8:8-32"),
        ];
        let mut space = route_space();
        let dag = RangeDag::build(&mut space, &ranges);
        let valid = space.prefix_range_bdd(&PrefixRange::universe());
        let mut targets: Vec<Bdd> = ranges
            .iter()
            .map(|r| {
                let b = space.prefix_range_bdd(r);
                space.manager.and(b, valid)
            })
            .collect();
        let first: Vec<_> = targets
            .iter()
            .map(|&s| localize(&mut space, s, &dag))
            .collect();
        assert!(first
            .iter()
            .all(|(_, d)| d.points > 0 && d.cells == 0 && !d.fallback));
        let (again, redecided) = localize(&mut space, targets[0], &dag);
        assert_eq!((&again, &redecided), (&first[0].0, &first[0].1));
        let found = found_witnesses(&dag);
        // Keep only the targets, then refill the arena with unrelated
        // functions, so a handle kept across the compaction would now name
        // one of them.
        space.compact(&mut targets);
        for r in ["30.0.0.0/8:8-32", "40.0.0.0/12:12-24", "50.0.0.0/16:16-16"] {
            let _ = space.prefix_range_bdd(&r.parse().unwrap());
        }
        for (&s, want) in targets.iter().zip(&first) {
            assert_eq!(&localize(&mut space, s, &dag), want);
        }
        assert_eq!(
            found_witnesses(&dag),
            found,
            "a witness was lost or found again"
        );
        let fresh = RangeDag::build(&mut space, &ranges);
        for &s in &targets {
            let _ = localize(&mut space, s, &fresh);
        }
        assert_eq!(found_witnesses(&fresh), found);
    }

    /// A target that splits a cell takes the fallback once: the witnesses'
    /// terms fail the re-encode check, the query runs again on cells and
    /// returns the eager oracle's terms with `exact: false`, and the next
    /// in-premise query on the same DAG builds no cell again.
    fn assert_splitting_target_falls_back<E: RangeEncoder>(space: &mut E) {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let ranges = [
            r("10.0.0.0/8:8-32"),
            r("10.1.0.0/16:16-32"),
            r("20.0.0.0/8:8-32"),
        ];
        let valid = space.cell(&PrefixRange::universe(), &[]);
        let target = |space: &mut E, range: &str| {
            let b = space.cell(&r(range), &[]);
            space.manager().and(b, valid)
        };
        let dag = RangeDag::build(space, &ranges);
        let eager = RangeDag::build(space, &ranges);
        let split = target(space, "10.1.128.0/17:17-32");
        let (got, decided) = localize(space, split, &dag);
        assert_eq!(got, header_localize_eager(space, split, &eager));
        assert!(!got.exact);
        assert!(decided.fallback && decided.cells > 0, "{decided:?}");
        let whole = target(space, "10.0.0.0/8:8-32");
        let (got, decided) = localize(space, whole, &dag);
        assert_eq!(got, header_localize_eager(space, whole, &eager));
        assert!(got.exact);
        assert!(!decided.fallback && decided.cells == 0, "{decided:?}");
    }

    #[test]
    fn cell_splitting_targets_fall_back_to_cells() {
        assert_splitting_target_falls_back(&mut route_space());
        let mut space = PacketSpace::new();
        assert_splitting_target_falls_back(&mut DstAddrSpace(&mut space));
        assert_splitting_target_falls_back(&mut SrcAddrSpace(&mut space));
    }

    /// The clone invariant the benchmark's traced replay relies on: a
    /// cloned (space, DAG) snapshot localizes byte-identically to the
    /// original, even after the arenas diverge.
    #[test]
    fn snapshot_clones_localize_identically() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let ranges = [
            r("10.0.0.0/8:8-32"),
            r("10.1.0.0/16:16-32"),
            r("10.2.0.0/16:16-32"),
            r("20.0.0.0/8:8-24"),
        ];
        let mut space = route_space();
        let dag = RangeDag::build(&mut space, &ranges);
        let valid = space.prefix_range_bdd(&PrefixRange::universe());
        let mut targets = Vec::new();
        for r in &ranges {
            let b = space.prefix_range_bdd(r);
            let s = space.manager.and(b, valid);
            targets.push(s);
        }
        let mut clone_space = space.clone();
        let clone_dag = dag.clone();
        // Diverge the clone's arena before querying: new nodes beyond the
        // snapshot must not disturb snapshot handles.
        let extra = clone_space.prefix_range_bdd(&r("99.0.0.0/8:8-32"));
        let _ = clone_space.manager.not(extra);
        for (i, &s) in targets.iter().enumerate() {
            // Opposite query orders on purpose.
            let from_clone =
                header_localize_with(&mut clone_space, targets[targets.len() - 1 - i], &clone_dag);
            let from_orig = header_localize_with(&mut space, targets[targets.len() - 1 - i], &dag);
            assert_eq!(from_orig, from_clone);
            let a = header_localize_with(&mut space, s, &dag);
            let b = header_localize_with(&mut clone_space, s, &clone_dag);
            assert_eq!(a, b);
        }
    }
}
