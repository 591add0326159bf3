//! Tests for the Campion core pipeline, anchored on the paper's §2 examples.

use campion_cfg::parse_config;
use campion_cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER, STATIC_CISCO, STATIC_JUNIPER};
use campion_ir::{lower, RouterIr};
use campion_net::PrefixRange;

use crate::driver::{compare_routers, CampionOptions};
use crate::headerloc::{header_localize, reencode};
use crate::report::FindingSide;
use crate::semantic::{acl_paths, policies_equivalent, policy_paths, semantic_diff};
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
    assert!(policies_equivalent(
        &c1.policies["POL"],
        &c2.policies["POL"]
    ));
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
/// near-identical component pairs are pushed through both, under every GC
/// mode. Both run in the *same* manager, so hash-consing makes BDD handle
/// equality function equality — the strongest possible "same predicate"
/// check — and the remaining fields are compared structurally.
mod prune_oracle {
    use super::*;
    use crate::driver::GcMode;
    use crate::semantic::{semantic_diff_all_pairs, SemanticDifference};
    use campion_cfg::Span;
    use campion_ir::{
        AclIr, AclRuleIr, Clause, Match, PrefixMatcher, PrefixMatcherEntry, RoutePolicy, SetAction,
        Terminal,
    };
    use campion_net::{Community, IpProtocol, PortRange, Prefix, WildcardMask};
    use campion_symbolic::PacketSpace;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// Seed for one ACL rule: addresses, (dst-port base, protocol selector,
    /// permit), and the side-2 mutation selector.
    type RuleSeed = (u32, u8, u32, u8, (u16, u8, bool), u8);

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
    fn acl_pair(seeds: &[RuleSeed]) -> (AclIr, AclIr) {
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

    /// Seed for one policy clause: prefix bits/len, set-action selector,
    /// terminal selector, and the side-2 mutation selector.
    type ClauseSeed = (u32, u8, u8, u8, u8);

    fn mk_clause(i: usize, s: &ClauseSeed, flip_term: bool, alt_sets: bool) -> Clause {
        let (bits, len, action_sel, term_sel, _) = *s;
        let range = PrefixRange::new(Prefix::new(Ipv4Addr::from(bits), len), len, 32);
        let matcher = PrefixMatcher {
            entries: vec![PrefixMatcherEntry {
                permit: true,
                range,
                span: Span::default(),
            }],
            name: String::new(),
        };
        let sets = match (action_sel % 4, alt_sets) {
            (_, true) => vec![SetAction::LocalPref(300)],
            (0, _) => Vec::new(),
            (1, _) => vec![SetAction::LocalPref(200)],
            (2, _) => vec![SetAction::Metric(50)],
            _ => vec![SetAction::CommunityAdd(vec![Community::new(10, 10)])],
        };
        let accept = (term_sel % 2 == 0) ^ flip_term;
        Clause {
            label: format!("seq {}", 10 * (i + 1)),
            matches: vec![Match::Prefix(vec![matcher])],
            sets,
            terminal: if accept {
                Terminal::Accept
            } else {
                Terminal::Reject
            },
            span: Span::line(i as u32 + 1),
        }
    }

    /// Near-identical policy pair, mutation scheme as for ACLs.
    fn policy_pair(seeds: &[ClauseSeed], default_accept: bool) -> (RoutePolicy, RoutePolicy) {
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            c1.push(mk_clause(i, s, false, false));
            match s.4 {
                5 => c2.push(mk_clause(i, s, true, false)),
                6 => {}
                7 => c2.push(mk_clause(i, s, false, true)),
                _ => c2.push(mk_clause(i, s, false, false)),
            }
        }
        let mk = |clauses| RoutePolicy {
            name: "ORACLE".into(),
            clauses,
            default_terminal: if default_accept {
                Terminal::Accept
            } else {
                Terminal::Reject
            },
            span: Span::default(),
        };
        (mk(c1), mk(c2))
    }

    /// Field-by-field comparison of two difference lists (order included).
    fn assert_same(
        pruned: &[SemanticDifference],
        reference: &[SemanticDifference],
        gc: GcMode,
    ) -> Result<(), proptest::prelude::TestCaseError> {
        prop_assert_eq!(pruned.len(), reference.len(), "count, gc={:?}", gc);
        for (a, b) in pruned.iter().zip(reference.iter()) {
            prop_assert_eq!(a.input, b.input, "input handle, gc={:?}", gc);
            prop_assert_eq!(&a.effect1, &b.effect1, "effect1, gc={:?}", gc);
            prop_assert_eq!(&a.effect2, &b.effect2, "effect2, gc={:?}", gc);
            prop_assert_eq!(&a.spans1, &b.spans1, "spans1, gc={:?}", gc);
            prop_assert_eq!(&a.spans2, &b.spans2, "spans2, gc={:?}", gc);
            prop_assert_eq!(a.default1, b.default1, "default1, gc={:?}", gc);
            prop_assert_eq!(a.default2, b.default2, "default2, gc={:?}", gc);
            prop_assert_eq!(
                a.non_prefix_match,
                b.non_prefix_match,
                "non_prefix_match, gc={:?}",
                gc
            );
        }
        Ok(())
    }

    const GC_MODES: [GcMode; 3] = [GcMode::Off, GcMode::Auto, GcMode::Aggressive];

    proptest! {
        // The acceptance bar for this oracle is ≥256 cases per property;
        // honor a larger PROPTEST_CASES from the environment.
        #![proptest_config(ProptestConfig::with_cases(
            ProptestConfig::default().cases.max(256)
        ))]

        /// ACL diff: pruned == all-pairs reference under every GC mode.
        #[test]
        fn acl_pruned_diff_matches_all_pairs(
            seeds in proptest::collection::vec(
                (any::<u32>(), 0u8..=32, any::<u32>(), 0u8..=32,
                 (any::<u16>(), 0u8..=3, any::<bool>()), 0u8..=7),
                1..10,
            )
        ) {
            let (a1, a2) = acl_pair(&seeds);
            for gc in GC_MODES {
                let mut space = PacketSpace::new();
                space.manager.set_gc_policy(gc.policy());
                let u = space.universe();
                let paths1 = acl_paths(&mut space, &a1, u);
                let paths2 = acl_paths(&mut space, &a2, u);
                let pruned = semantic_diff(&mut space.manager, &paths1, &paths2);
                let reference =
                    semantic_diff_all_pairs(&mut space.manager, &paths1, &paths2);
                assert_same(&pruned, &reference, gc)?;
            }
        }

        /// Route-policy diff: pruned == all-pairs reference under every GC
        /// mode (exercises multi-effect grouping: accept verdicts carry
        /// distinct rewrite sets).
        #[test]
        fn policy_pruned_diff_matches_all_pairs(
            seeds in proptest::collection::vec(
                (any::<u32>(), 0u8..=24, 0u8..=3, 0u8..=1, 0u8..=7),
                1..8,
            ),
            default_accept in any::<bool>(),
        ) {
            let (p1, p2) = policy_pair(&seeds, default_accept);
            for gc in GC_MODES {
                let mut space = RouteSpace::for_policies(&[&p1, &p2]);
                space.manager.set_gc_policy(gc.policy());
                let u = space.universe();
                space.manager.protect(u);
                let paths1 = policy_paths(&mut space, &p1, u);
                let paths2 = policy_paths(&mut space, &p2, u);
                let pruned = semantic_diff(&mut space.manager, &paths1, &paths2);
                let reference =
                    semantic_diff_all_pairs(&mut space.manager, &paths1, &paths2);
                assert_same(&pruned, &reference, gc)?;
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

/// Differential suite for the structural ddNF builder and the lazy, pruned
/// `GetMatch`: the trie-based [`RangeDag::build`] must produce
/// byte-identical DAGs — node order, cover edges, BDD handles and
/// remainders included — versus the retained BDD-deciding oracle,
/// localizations against either must agree, and the pruned query must
/// return what the eager, unpruned one does while materializing only the
/// nodes it visits.
mod ddnf {
    use std::net::Ipv4Addr;

    use campion_bdd::Bdd;
    use campion_net::Prefix;
    use campion_symbolic::PacketSpace;
    use proptest::prelude::*;

    use super::*;
    use crate::headerloc::oracle::{
        build_ddnf_oracle, dag_structure, header_localize_eager, materialized, skeleton,
    };
    use crate::headerloc::{
        header_localize_with, DstAddrSpace, HeaderLocalization, RangeDag, RangeEncoder,
        RangeSemantics, RangeTerm, SrcAddrSpace,
    };

    /// Build with both builders in the same space (so deterministic
    /// hash-consing makes node handles comparable), materialize every node
    /// set and remainder of both, assert full equality, then cross-check
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
            let b = space.encode(r);
            targets.push(b);
            union = space.manager().or(union, b);
        }
        targets.push(union);
        targets.push(campion_bdd::Bdd::FALSE);
        let valid = space.encode(&PrefixRange::universe());
        for t in targets {
            let s = space.manager().and(t, valid);
            let a = header_localize_with(space, s, &oracle);
            let b = header_localize_with(space, s, &fast);
            assert_eq!(a, b, "localization diverged between oracle and trie DAG");
        }
        oracle.release(space.manager());
        fast.release(space.manager());
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

    /// Localize a battery of targets with the pruned, lazy query and with
    /// the eager, unpruned oracle — each against its own DAG over
    /// `ranges` — and require equal terms and `exact` flags. Targets: ∅,
    /// the universe, every single cell, the union of the input ranges
    /// (all exact), and, when a leaf cell can be split by a range, that
    /// sub-range alone and united with the input ranges disjoint from the
    /// leaf (both inexact).
    fn assert_pruned_matches_eager<E: RangeEncoder>(
        space: &mut E,
        ranges: &[PrefixRange],
    ) -> Result<(), TestCaseError> {
        let cells = RangeDag::build(space, ranges);
        let (nodes, bdds, children, remainders, _) = dag_structure(space, &cells);
        let valid = space.encode(&PrefixRange::universe());
        let mut targets: Vec<(Bdd, bool)> = vec![(Bdd::FALSE, true), (valid, true)];
        targets.extend(remainders.iter().map(|&r| (r, true)));
        let mut union = Bdd::FALSE;
        for r in ranges {
            let b = space.encode(r);
            union = space.manager().or(union, b);
        }
        targets.push((space.manager().and(union, valid), true));
        if let Some((leaf, sub)) = splitting_subrange(space.semantics(), &nodes, &children) {
            let b = space.encode(&sub);
            let sub = space.manager().and(b, valid);
            let mut apart = sub;
            for r in ranges {
                let b = space.encode(r);
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
            let got = header_localize_with(space, s, &pruned);
            prop_assert_eq!(
                &got,
                &want,
                "pruned GetMatch diverged from the eager oracle"
            );
            prop_assert_eq!(got.exact, exact);
        }
        for dag in [cells, pruned, eager] {
            dag.release(space.manager());
        }
        Ok(())
    }

    /// Route-space ranges from proptest seeds: arbitrary length intervals,
    /// including empty member sets and truncation chains.
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
    /// them: `or_longer` ranges from rule prefixes.
    fn addr_ranges(seeds: &[(u32, u8)]) -> Vec<PrefixRange> {
        seeds
            .iter()
            .map(|&(bits, len)| PrefixRange::or_longer(Prefix::new(Ipv4Addr::from(bits), len)))
            .collect()
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

        /// Address-space (prefix-only semantics).
        #[test]
        fn trie_matches_oracle_in_addr_spaces(
            seeds in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..8)
        ) {
            let mut space = PacketSpace::new();
            assert_same_dag(&mut DstAddrSpace(&mut space), &addr_ranges(&seeds));
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

        /// Pruned, lazy `GetMatch` == eager oracle, address semantics.
        #[test]
        fn pruned_getmatch_matches_eager_in_addr_spaces(
            seeds in proptest::collection::vec((crowded_bits(), 0u8..=32), 1..10)
        ) {
            let mut space = PacketSpace::new();
            assert_pruned_matches_eager(&mut DstAddrSpace(&mut space), &addr_ranges(&seeds))?;
        }
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

    /// Localize a target confined to one leaf and check what was
    /// materialized: node sets for the root and for the children of every
    /// node on the root-to-leaf path (their overlap tests), remainders for
    /// the path nodes only. The build roots nothing; `release` drops
    /// exactly what the query rooted.
    fn assert_localizes_one_leaf_lazily<E: RangeEncoder>(space: &mut E) {
        // Encoding once roots the space's own lifetime caches (a route
        // space's canonical-form constraint), which are not the DAG's.
        let valid = space.encode(&PrefixRange::universe());
        let roots_before = space.manager().root_count();
        let dag = RangeDag::build(space, &lcg_ranges(1000));
        assert_eq!(
            space.manager().root_count(),
            roots_before,
            "build rooted BDDs"
        );
        let snapshot = dag.clone();
        let (nodes, children, root) = skeleton(&dag);
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
        assert_eq!(path[0], root);

        let b = space.encode(&nodes[leaf]);
        let s = space.manager().and(b, valid);
        let loc = header_localize_with(space, s, &dag);
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
        let mut want_sets: Vec<usize> = path.iter().flat_map(|&p| children[p].clone()).collect();
        want_sets.push(root);
        want_sets.sort_unstable();
        let mut want_rems = path.clone();
        want_rems.sort_unstable();
        let (sets, rems) = materialized(&dag);
        assert_eq!(
            sets, want_sets,
            "node sets materialized off the path's fan-out"
        );
        assert_eq!(rems, want_rems, "remainders materialized off the path");
        assert!(
            3 * sets.len() < nodes.len(),
            "{} of {} sets",
            sets.len(),
            nodes.len()
        );
        assert_eq!(materialized(&snapshot), (Vec::new(), Vec::new()));
        dag.release(space.manager());
        snapshot.release(space.manager());
        assert_eq!(
            space.manager().root_count(),
            roots_before,
            "release leaked roots"
        );
    }

    #[test]
    fn getmatch_materializes_only_the_visited_path_in_route_spaces() {
        assert_localizes_one_leaf_lazily(&mut route_space());
    }

    #[test]
    fn getmatch_materializes_only_the_visited_path_in_packet_spaces() {
        let mut space = PacketSpace::new();
        assert_localizes_one_leaf_lazily(&mut DstAddrSpace(&mut space));
        assert_localizes_one_leaf_lazily(&mut SrcAddrSpace(&mut space));
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

    /// Localizing against a released DAG is a use-after-free of its GC
    /// roots; the poison flag catches it in debug builds.
    #[test]
    #[should_panic(expected = "released RangeDag")]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the poison flag is a debug_assert; it compiles out in release builds"
    )]
    fn localize_after_release_is_poisoned() {
        let mut space = route_space();
        let dag = RangeDag::build(&mut space, &[]);
        dag.release(&mut space.manager);
        let _ = header_localize_with(&mut space, campion_bdd::Bdd::FALSE, &dag);
    }

    /// The `(node, S)` memo must serve repeat queries and reset when a
    /// sweep recycles node indices.
    #[test]
    fn memo_is_stable_across_queries_and_collections() {
        let r = |s: &str| s.parse::<PrefixRange>().unwrap();
        let ranges = [
            r("10.0.0.0/8:8-32"),
            r("10.1.0.0/16:16-32"),
            r("20.0.0.0/8:8-32"),
        ];
        let mut space = route_space();
        space
            .manager
            .set_gc_policy(campion_bdd::GcPolicy::Aggressive);
        let dag = RangeDag::build(&mut space, &ranges);
        let b = space.prefix_range_bdd(&ranges[0]);
        let valid = space.prefix_range_bdd(&PrefixRange::universe());
        let s = space.manager.and(b, valid);
        space.manager.protect(s);
        let first = header_localize_with(&mut space, s, &dag);
        let memo_hit = header_localize_with(&mut space, s, &dag);
        assert_eq!(first, memo_hit);
        space.manager.gc_checkpoint(); // aggressive: sweeps, indices may move
        let after_gc = header_localize_with(&mut space, s, &dag);
        assert_eq!(first, after_gc);
        space.manager.unprotect(s);
        dag.release(&mut space.manager);
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
            space.manager.protect(s);
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
        for s in targets {
            space.manager.unprotect(s);
        }
        dag.release(&mut space.manager);
    }
}
