//! Tests for the symbolic encodings, including differential tests against
//! the concrete IR interpreters.

use campion_cfg::parse_config;
use campion_cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER};
use campion_ir::{lower, Match, RouteAdvert, RouterIr};
use campion_net::{Community, Flow, Prefix, PrefixRange};

use crate::route_space::FieldState;
use crate::{PacketSpace, RouteSpace};

fn fig1() -> (RouterIr, RouterIr) {
    (
        lower(&parse_config(FIGURE1_CISCO).unwrap()).unwrap(),
        lower(&parse_config(FIGURE1_JUNIPER).unwrap()).unwrap(),
    )
}

#[test]
fn route_space_layout_from_figure1() {
    let (c, j) = fig1();
    let space = RouteSpace::for_policies(&[&c.policies["POL"], &j.policies["POL"]]);
    // Two literal atoms (10:10, 10:11), no regexes, no tags, no metrics.
    assert_eq!(space.atoms().len(), 2);
    assert_eq!(space.num_vars(), 41 + 2);
}

#[test]
fn prefix_range_bdd_counts() {
    let (c, _) = fig1();
    let mut space = RouteSpace::for_policies(&[&c.policies["POL"]]);
    // Exact /16: 16 fixed address bits, and canonicality zeroes the host
    // bits, so only the non-prefix vars (protocol + atoms) remain free.
    let r: PrefixRange = "10.9.0.0/16:16-16".parse().unwrap();
    let b = space.prefix_range_bdd(&r);
    let other = space.num_vars() - 32 - 6;
    assert_eq!(space.manager.sat_count(b), 1u128 << other);
    // The whole-range form frees exactly the address bits the lengths
    // allow: sum over len 16..=32 of 2^(len-16) canonical prefixes.
    let wide: PrefixRange = "10.9.0.0/16:16-32".parse().unwrap();
    let wb = space.prefix_range_bdd(&wide);
    let prefixes: u128 = (16..=32u32).map(|l| 1u128 << (l - 16)).sum();
    assert_eq!(space.manager.sat_count(wb), prefixes << other);
}

/// The symbolic encoding of each Figure-1 clause agrees with the concrete
/// interpreter on a grid of advertisements.
#[test]
fn match_bdd_agrees_with_concrete_matching() {
    let (c, j) = fig1();
    for router in [&c, &j] {
        let pol = &router.policies["POL"];
        let mut space = RouteSpace::for_policies(&[&c.policies["POL"], &j.policies["POL"]]);
        let state = space.initial_state();
        let prefixes = [
            "10.9.0.0/16",
            "10.9.1.0/24",
            "10.100.0.0/16",
            "10.100.0.0/17",
            "9.9.9.0/24",
            "0.0.0.0/0",
        ];
        let comm_sets: [&[Community]; 4] = [
            &[],
            &[Community::new(10, 10)],
            &[Community::new(10, 11)],
            &[Community::new(10, 10), Community::new(10, 11)],
        ];
        for clause in &pol.clauses {
            for m in &clause.matches {
                let bdd = space.match_bdd(m, &state);
                for p in prefixes {
                    for cs in comm_sets {
                        let advert = RouteAdvert::bgp(p.parse::<Prefix>().unwrap())
                            .with_communities(cs.iter().copied());
                        let sym = eval_on_advert(&space, bdd, &advert);
                        assert_eq!(
                            sym,
                            m.holds(&advert),
                            "clause {} match {m:?} on {advert}",
                            clause.label
                        );
                    }
                }
            }
        }
    }
}

/// Encode a concrete advertisement as an assignment and evaluate.
fn eval_on_advert(space: &RouteSpace, f: campion_bdd::Bdd, advert: &RouteAdvert) -> bool {
    let mut a = campion_bdd::Assignment::all_false(space.num_vars());
    let bits = advert.prefix.bits();
    for i in 0..32u32 {
        a.set(i, (bits >> (31 - i)) & 1 == 1);
    }
    let len = advert.prefix.len();
    for i in 0..6u32 {
        a.set(32 + i, (len >> (5 - i)) & 1 == 1);
    }
    // protocol: BGP = 3.
    a.set(38, false);
    a.set(39, true);
    a.set(40, true);
    for (i, key) in space.atoms().iter().enumerate() {
        if let crate::AtomKey::Literal(c) = key {
            if advert.has_community(*c) {
                a.set(41 + i as u32, true);
            }
        }
    }
    space.manager.eval(f, &a)
}

#[test]
fn sets_change_later_matches() {
    // A policy that first sets a community, then matches it: the symbolic
    // state must see the write.
    let r = lower(
        &parse_config(
            "ip community-list standard C permit 9:9\n\
             route-map M permit 10\n\
             \x20set community 9:9\n\
             \x20continue 20\n\
             route-map M deny 20\n\
             \x20match community C\n",
        )
        .unwrap(),
    )
    .unwrap();
    let pol = &r.policies["M"];
    let mut space = RouteSpace::for_policies(&[pol]);
    let mut state = space.initial_state();
    // After clause 0's sets, the atom for 9:9 must be constantly true.
    space.apply_sets(&mut state, &pol.clauses[0].sets);
    let m = &pol.clauses[1].matches[0];
    let b = space.match_bdd(m, &state);
    assert!(
        space.manager.is_true(b),
        "set community feeds the later match"
    );
}

#[test]
fn tag_and_metric_fields() {
    let r = lower(
        &parse_config(
            "route-map M deny 10\n\
             \x20match tag 77\n\
             route-map M permit 20\n\
             \x20set tag 77\n",
        )
        .unwrap(),
    )
    .unwrap();
    let pol = &r.policies["M"];
    let mut space = RouteSpace::for_policies(&[pol]);
    let mut state = space.initial_state();
    let m = &pol.clauses[0].matches[0];
    let before = space.match_bdd(m, &state);
    assert!(!space.manager.is_true(before));
    assert!(space.manager.is_sat(before));
    space.apply_sets(&mut state, &pol.clauses[1].sets);
    assert_eq!(state.tag, FieldState::Const(77));
    let after = space.match_bdd(m, &state);
    assert!(space.manager.is_true(after), "tag now constant 77");
}

#[test]
fn project_to_prefix_drops_community_vars() {
    let (c, j) = fig1();
    let mut space = RouteSpace::for_policies(&[&c.policies["POL"], &j.policies["POL"]]);
    let state = space.initial_state();
    // Clause 2 of the Cisco POL: community match.
    let m = &c.policies["POL"].clauses[1].matches[0];
    let b = space.match_bdd(m, &state);
    let p = space.project_to_prefix(b);
    assert!(
        space.manager.is_true(p),
        "every prefix has some matching input"
    );
    let support = space.manager.support(p);
    assert!(support.is_empty());
}

#[test]
fn concretize_round_trip() {
    let (c, j) = fig1();
    let mut space = RouteSpace::for_policies(&[&c.policies["POL"], &j.policies["POL"]]);
    let state = space.initial_state();
    let m = &c.policies["POL"].clauses[1].matches[0];
    let b = space.match_bdd(m, &state);
    let u = space.universe();
    let bu = space.manager.and(b, u);
    let a = space.manager.first_sat_assignment(bu).unwrap();
    let ex = space.concretize(&a);
    assert!(
        !ex.communities.is_empty(),
        "a community-match example must carry a community"
    );
}

#[test]
fn packet_space_rule_agrees_with_concrete_acl() {
    let r = lower(
        &parse_config(
            "ip access-list extended F\n\
             \x20permit tcp 10.0.0.0 0.0.255.255 any eq 443\n\
             \x20deny ip 9.140.0.0 0.0.1.255 any\n\
             \x20permit udp any range 100 200 any\n",
        )
        .unwrap(),
    )
    .unwrap();
    let acl = &r.acls["F"];
    let mut space = PacketSpace::new();
    let flows = [
        Flow::tcp(
            "10.0.1.1".parse().unwrap(),
            999,
            "8.8.8.8".parse().unwrap(),
            443,
        ),
        Flow::tcp(
            "10.0.1.1".parse().unwrap(),
            999,
            "8.8.8.8".parse().unwrap(),
            80,
        ),
        Flow::tcp(
            "10.9.1.1".parse().unwrap(),
            999,
            "8.8.8.8".parse().unwrap(),
            443,
        ),
        Flow::icmp("9.140.1.77".parse().unwrap(), "1.2.3.4".parse().unwrap()),
        Flow::udp(
            "7.7.7.7".parse().unwrap(),
            150,
            "1.2.3.4".parse().unwrap(),
            9,
        ),
        Flow::udp(
            "7.7.7.7".parse().unwrap(),
            99,
            "1.2.3.4".parse().unwrap(),
            9,
        ),
    ];
    for rule in &acl.rules {
        let b = space.rule_bdd(rule);
        for flow in &flows {
            let fb = space.flow_bdd(flow);
            let inter = space.manager.and(b, fb);
            assert_eq!(
                space.manager.is_sat(inter),
                rule.matches(flow),
                "rule {} on {flow}",
                rule.label
            );
        }
    }
}

#[test]
fn packet_space_projections() {
    let r = lower(
        &parse_config(
            "ip access-list extended F\n\
             \x20permit tcp 10.0.0.0 0.0.255.255 host 192.0.2.1 eq 443\n",
        )
        .unwrap(),
    )
    .unwrap();
    let mut space = PacketSpace::new();
    let b = space.rule_bdd(&r.acls["F"].rules[0]);
    let dst = space.project_to_dst(b);
    // Destination projection: exactly the /32.
    let host = space.dst_prefix_bdd(&"192.0.2.1/32".parse().unwrap());
    assert_eq!(dst, host);
    let src = space.project_to_src(b);
    let net = space.src_prefix_bdd(&"10.0.0.0/16".parse().unwrap());
    assert_eq!(src, net);
}

#[test]
fn figure1_semantic_difference_is_nonempty_symbolically() {
    // A quick preview of SemanticDiff: fold both policies into accept-sets
    // and check the disagreement region exists and projects to the right
    // prefixes. (The full algorithm lives in campion-core.)
    let (c, j) = fig1();
    let mut space = RouteSpace::for_policies(&[&c.policies["POL"], &j.policies["POL"]]);
    let mut accept = Vec::new();
    for pol in [&c.policies["POL"], &j.policies["POL"]] {
        let state = space.initial_state();
        // Both policies here have purely terminal clauses, so a simple
        // reverse first-match fold gives the accept set.
        let default = match pol.default_terminal {
            campion_ir::Terminal::Accept => campion_bdd::Bdd::TRUE,
            _ => campion_bdd::Bdd::FALSE,
        };
        let mut acc = default;
        for clause in pol.clauses.iter().rev() {
            let mut cond = campion_bdd::Bdd::TRUE;
            for m in &clause.matches {
                let b = space.match_bdd(m, &state);
                cond = space.manager.and(cond, b);
            }
            acc = match clause.terminal {
                campion_ir::Terminal::Accept => space.manager.or(cond, acc),
                campion_ir::Terminal::Reject => space.manager.diff(acc, cond),
                campion_ir::Terminal::Fallthrough => acc,
            };
        }
        accept.push(acc);
    }
    let u = space.universe();
    let diff = space.manager.xor(accept[0], accept[1]);
    let diff = space.manager.and(diff, u);
    assert!(space.manager.is_sat(diff), "Figure 1 pair must differ");
    // 10.9.1.0/24 must be in the disagreement region.
    let range = space.prefix_range_bdd(&"10.9.1.0/24:24-24".parse().unwrap());
    let hit = space.manager.and(diff, range);
    assert!(space.manager.is_sat(hit));
    // The exact /16 with no communities must NOT be in the region.
    let exact = space.prefix_range_bdd(&"10.9.0.0/16:16-16".parse().unwrap());
    let mut no_comm = exact;
    for i in 0..space.atoms().len() {
        let v = space.manager.nvar(41 + i as u32);
        no_comm = space.manager.and(no_comm, v);
    }
    let miss = space.manager.and(diff, no_comm);
    assert!(!space.manager.is_sat(miss));
}

mod properties {
    use super::*;
    use campion_ir::Terminal;
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

    proptest! {
        /// The folded symbolic accept-set agrees with the concrete
        /// interpreter on random advertisements, for both Figure-1 policies.
        #[test]
        fn symbolic_accept_set_equals_concrete(a in arb_advert()) {
            let (c, j) = fig1();
            let mut space =
                RouteSpace::for_policies(&[&c.policies["POL"], &j.policies["POL"]]);
            for pol in [&c.policies["POL"], &j.policies["POL"]] {
                let state = space.initial_state();
                let default = match pol.default_terminal {
                    Terminal::Accept => campion_bdd::Bdd::TRUE,
                    _ => campion_bdd::Bdd::FALSE,
                };
                let mut acc = default;
                for clause in pol.clauses.iter().rev() {
                    let mut cond = campion_bdd::Bdd::TRUE;
                    for m in &clause.matches {
                        let b = space.match_bdd(m, &state);
                        cond = space.manager.and(cond, b);
                    }
                    acc = match clause.terminal {
                        Terminal::Accept => space.manager.or(cond, acc),
                        Terminal::Reject => space.manager.diff(acc, cond),
                        Terminal::Fallthrough => acc,
                    };
                }
                let sym = eval_on_advert(&space, acc, &a);
                let conc = pol.evaluate(&a).accept;
                prop_assert_eq!(sym, conc, "policy {} on {}", &pol.name, &a);
            }
        }
    }

    #[test]
    fn match_enum_is_covered() {
        // Guard: if Match grows a variant, match_bdd must be extended.
        let m = Match::Tag(1);
        match m {
            Match::Prefix(_)
            | Match::Community(_)
            | Match::Tag(_)
            | Match::Metric(_)
            | Match::Protocol(_) => {}
        }
    }
}
