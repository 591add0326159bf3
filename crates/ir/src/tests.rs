//! Tests for the VI model and vendor lowering — anchored on the concrete
//! behavioral gaps the paper's Figure 1 exposes.

use campion_cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER};
use campion_cfg::{parse_config, Vendor};
use campion_net::{Community, Flow, Prefix};

use crate::*;

fn cisco_fig1() -> RouterIr {
    lower(&parse_config(FIGURE1_CISCO).unwrap()).unwrap()
}

fn juniper_fig1() -> RouterIr {
    lower(&parse_config(FIGURE1_JUNIPER).unwrap()).unwrap()
}

fn advert(p: &str) -> RouteAdvert {
    RouteAdvert::bgp(p.parse::<Prefix>().unwrap())
}

#[test]
fn figure1_lowering_shapes() {
    let c = cisco_fig1();
    assert_eq!(c.vendor, Vendor::CiscoIos);
    let pol = &c.policies["POL"];
    assert_eq!(pol.clauses.len(), 3);
    assert_eq!(pol.default_terminal, Terminal::Reject);
    assert_eq!(pol.clauses[0].label, "deny 10");
    assert_eq!(pol.clauses[2].sets, vec![SetAction::LocalPref(30)]);

    let j = juniper_fig1();
    assert_eq!(j.vendor, Vendor::JuniperJunos);
    let pol = &j.policies["POL"];
    assert_eq!(pol.clauses.len(), 3);
    assert_eq!(pol.default_terminal, Terminal::Accept);
    assert_eq!(pol.clauses[0].label, "term rule1");
}

/// The paper's Difference 1: `10.9.1.0/24` falls in Cisco NETS (le 32) but
/// not in Juniper NETS (exact), so Cisco rejects and Juniper accepts.
#[test]
fn figure1_difference_1_prefix_lengths() {
    let c = cisco_fig1();
    let j = juniper_fig1();
    let a = advert("10.9.1.0/24");
    let vc = c.policies["POL"].evaluate(&a);
    let vj = j.policies["POL"].evaluate(&a);
    assert!(!vc.accept, "Cisco: matched by NETS, denied by clause 10");
    assert_eq!(vc.fired, vec![0]);
    assert!(
        vj.accept,
        "Juniper: NETS matches only /16 exactly; falls to rule3"
    );
    assert_eq!(vj.route.local_pref, 30);
    // The /16 itself is treated identically (both reject).
    let a16 = advert("10.9.0.0/16");
    assert!(!c.policies["POL"].evaluate(&a16).accept);
    assert!(!j.policies["POL"].evaluate(&a16).accept);
}

/// The paper's Difference 2: a route tagged only `10:10` matches Cisco COMM
/// (any line) but not Juniper COMM (requires both members).
#[test]
fn figure1_difference_2_community_semantics() {
    let c = cisco_fig1();
    let j = juniper_fig1();
    let a = advert("99.0.0.0/8").with_communities([Community::new(10, 10)]);
    let vc = c.policies["POL"].evaluate(&a);
    let vj = j.policies["POL"].evaluate(&a);
    assert!(!vc.accept, "Cisco: COMM line '10:10' matches → deny 20");
    assert_eq!(vc.fired, vec![1]);
    assert!(vj.accept, "Juniper: members [10:10 10:11] needs both");
    // With both communities the routers agree (reject).
    let both =
        advert("99.0.0.0/8").with_communities([Community::new(10, 10), Community::new(10, 11)]);
    assert!(!c.policies["POL"].evaluate(&both).accept);
    assert!(!j.policies["POL"].evaluate(&both).accept);
}

/// Fall-through asymmetry: Cisco's implicit deny versus JunOS
/// default-accept, visible once the catch-all clause is removed.
#[test]
fn default_terminal_asymmetry() {
    let c = lower(&parse_config("route-map ONLY deny 10\n match tag 7\n").unwrap()).unwrap();
    let j = lower(
        &parse_config(
            "policy-options {
                policy-statement ONLY {
                    term t { from tag 7; then reject; }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    let a = advert("1.2.3.0/24");
    assert!(
        !c.policies["ONLY"].evaluate(&a).accept,
        "Cisco implicit deny"
    );
    assert!(
        j.policies["ONLY"].evaluate(&a).accept,
        "JunOS default accept"
    );
}

#[test]
fn fallthrough_accumulates_sets() {
    let j = lower(
        &parse_config(
            "policy-options {
                policy-statement CHAIN {
                    term set_pref { then local-preference 250; }
                    term accept_all { then accept; }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    let v = j.policies["CHAIN"].evaluate(&advert("5.5.0.0/16"));
    assert!(v.accept);
    assert_eq!(v.route.local_pref, 250, "set survives the fallthrough");
    assert_eq!(v.fired, vec![0, 1]);
}

#[test]
fn community_set_add_delete() {
    let c = lower(
        &parse_config(
            "ip community-list standard STRIP permit 65000:1\n\
             route-map M permit 10\n\
             \x20set community 1:1 2:2\n\
             route-map M2 permit 10\n\
             \x20set community 3:3 additive\n\
             route-map M3 permit 10\n\
             \x20set comm-list STRIP delete\n",
        )
        .unwrap(),
    )
    .unwrap();
    let base =
        advert("9.9.0.0/16").with_communities([Community::new(65000, 1), Community::new(7, 7)]);
    let v1 = c.policies["M"].evaluate(&base);
    assert_eq!(
        v1.route.communities.into_iter().collect::<Vec<_>>(),
        vec![Community::new(1, 1), Community::new(2, 2)],
        "set replaces"
    );
    let v2 = c.policies["M2"].evaluate(&base);
    assert!(v2.route.communities.contains(&Community::new(3, 3)));
    assert!(
        v2.route.communities.contains(&Community::new(7, 7)),
        "additive keeps"
    );
    let v3 = c.policies["M3"].evaluate(&base);
    assert!(!v3.route.communities.contains(&Community::new(65000, 1)));
    assert!(v3.route.communities.contains(&Community::new(7, 7)));
}

#[test]
fn regex_community_matching() {
    let c = lower(
        &parse_config(
            "ip community-list expanded PEERS permit _65000:.*_\n\
             route-map M deny 10\n\
             \x20match community PEERS\n\
             route-map M permit 20\n",
        )
        .unwrap(),
    )
    .unwrap();
    let hit = advert("1.0.0.0/8").with_communities([Community::new(65000, 42)]);
    let miss = advert("1.0.0.0/8").with_communities([Community::new(64000, 42)]);
    assert!(!c.policies["M"].evaluate(&hit).accept);
    assert!(c.policies["M"].evaluate(&miss).accept);
}

#[test]
fn juniper_route_filter_modifiers_behave() {
    let j = lower(
        &parse_config(
            "policy-options {
                policy-statement P {
                    term t {
                        from {
                            route-filter 10.0.0.0/8 upto /16;
                        }
                        then reject;
                    }
                    term u { then accept; }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    let p = &j.policies["P"];
    assert!(!p.evaluate(&advert("10.0.0.0/8")).accept);
    assert!(!p.evaluate(&advert("10.5.0.0/16")).accept);
    assert!(
        p.evaluate(&advert("10.5.5.0/24")).accept,
        "/24 beyond upto /16"
    );
    assert!(p.evaluate(&advert("11.0.0.0/8")).accept);
}

#[test]
fn undefined_references_error() {
    let err = lower(
        &parse_config("route-map M permit 10\n match ip address prefix-list NOPE\n").unwrap(),
    )
    .unwrap_err();
    assert!(err.message.contains("NOPE"));
    let err = lower(
        &parse_config(
            "policy-options {
                policy-statement P { term t { from community NOPE; then accept; } }
            }",
        )
        .unwrap(),
    )
    .unwrap_err();
    assert!(err.message.contains("NOPE"));
}

#[test]
fn static_route_lowering_and_null0() {
    let c = lower(
        &parse_config(
            "ip route 10.1.1.2 255.255.255.254 10.2.2.2\n\
             ip route 192.0.2.0 255.255.255.0 Null0\n",
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(c.static_routes[0].admin_distance, 1);
    assert_eq!(
        c.static_routes[0].next_hop,
        NextHopIr::Ip("10.2.2.2".parse().unwrap())
    );
    assert_eq!(c.static_routes[1].next_hop, NextHopIr::Discard);

    let j = lower(
        &parse_config(
            "routing-options {
                static {
                    route 10.1.1.2/31 next-hop 10.2.2.2;
                    route 192.0.2.0/24 discard;
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(
        j.static_routes[0].admin_distance, 5,
        "JunOS default preference"
    );
    assert_eq!(j.static_routes[1].next_hop, NextHopIr::Discard);
}

#[test]
fn acl_lowering_cross_vendor_equivalence() {
    // Equivalent ACLs in both dialects must agree on sample flows.
    let c = lower(
        &parse_config(
            "ip access-list extended F\n\
             \x20permit tcp 10.0.0.0 0.0.255.255 any eq 443\n\
             \x20deny ip any any\n",
        )
        .unwrap(),
    )
    .unwrap();
    let j = lower(
        &parse_config(
            "firewall {
                family inet {
                    filter F {
                        term t1 {
                            from {
                                source-address 10.0.0.0/16;
                                protocol tcp;
                                destination-port 443;
                            }
                            then accept;
                        }
                        term t2 { then discard; }
                    }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    let inside = Flow::tcp(
        "10.0.9.9".parse().unwrap(),
        5000,
        "8.8.8.8".parse().unwrap(),
        443,
    );
    let outside = Flow::tcp(
        "10.1.0.1".parse().unwrap(),
        5000,
        "8.8.8.8".parse().unwrap(),
        443,
    );
    let wrong_port = Flow::tcp(
        "10.0.9.9".parse().unwrap(),
        5000,
        "8.8.8.8".parse().unwrap(),
        80,
    );
    let udp = Flow::udp(
        "10.0.9.9".parse().unwrap(),
        5000,
        "8.8.8.8".parse().unwrap(),
        443,
    );
    for flow in [inside, outside, wrong_port, udp] {
        assert_eq!(
            c.acls["F"].permits(&flow),
            j.acls["F"].permits(&flow),
            "disagreement on {flow}"
        );
    }
    assert!(c.acls["F"].permits(&inside));
    assert!(!c.acls["F"].permits(&outside));
}

#[test]
fn acl_port_rule_cannot_match_portless_protocol() {
    let c = lower(
        &parse_config(
            "ip access-list extended F\n\
             \x20permit tcp any any eq 443\n",
        )
        .unwrap(),
    )
    .unwrap();
    let icmp = Flow::icmp("1.1.1.1".parse().unwrap(), "2.2.2.2".parse().unwrap());
    assert!(!c.acls["F"].permits(&icmp));
}

#[test]
fn bgp_neighbor_lowering_defaults() {
    let c = lower(
        &parse_config(
            "router bgp 65001\n\
             \x20neighbor 10.0.0.2 remote-as 65002\n\
             \x20neighbor 10.0.0.2 route-map POL out\n\
             route-map POL permit 10\n",
        )
        .unwrap(),
    )
    .unwrap();
    let n = &c.bgp.as_ref().unwrap().neighbors[&"10.0.0.2".parse().unwrap()];
    assert!(!n.send_community, "IOS: off by default");
    assert_eq!(n.export_policy.as_deref(), Some("POL"));

    let j = lower(
        &parse_config(
            "routing-options { autonomous-system 65001; }
            policy-options {
                policy-statement A { term t { then accept; } }
                policy-statement B { term t { then reject; } }
            }
            protocols {
                bgp {
                    group peers {
                        type internal;
                        cluster 192.0.2.1;
                        export [ A B ];
                        neighbor 10.0.0.2;
                    }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    let bgp = j.bgp.as_ref().unwrap();
    assert_eq!(bgp.asn, 65001);
    let n = &bgp.neighbors[&"10.0.0.2".parse().unwrap()];
    assert!(n.send_community, "JunOS: on by default");
    assert!(
        n.route_reflector_client,
        "cluster makes neighbors RR clients"
    );
    assert_eq!(n.remote_as, Some(65001), "internal group peers at local AS");
    assert_eq!(n.export_policy.as_deref(), Some("A+B"));
    assert!(j.policies.contains_key("A+B"), "chain materialized");
    assert_eq!(j.policies["A+B"].clauses.len(), 2);
}

/// JunOS: a neighbor's own import/export chain overrides its group's; a
/// neighbor without one inherits the group's.
#[test]
fn juniper_neighbor_chains_override_group_chains() {
    let j = lower(
        &parse_config(
            "routing-options { autonomous-system 65001; }
            policy-options {
                policy-statement EXP1 { term t { then accept; } }
                policy-statement EXP2 { term t { then reject; } }
                policy-statement CUSTOM_IN { term t { then accept; } }
                policy-statement CUSTOM_OUT { term t { then reject; } }
                policy-statement IMP { term t { then accept; } }
            }
            protocols {
                bgp {
                    group ibgp {
                        type internal;
                        export [ EXP1 EXP2 ];
                        neighbor 10.0.0.3;
                        neighbor 10.0.0.4 {
                            import CUSTOM_IN;
                        }
                    }
                    group ebgp {
                        type external;
                        peer-as 65002;
                        import IMP;
                        export EXP1;
                        neighbor 10.0.1.2;
                        neighbor 10.0.1.3 {
                            export CUSTOM_OUT;
                        }
                    }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    let bgp = j.bgp.as_ref().unwrap();
    let chains = |addr: &str| {
        let n = &bgp.neighbors[&addr.parse().unwrap()];
        (n.import_policy.as_deref(), n.export_policy.as_deref())
    };
    assert_eq!(chains("10.0.0.3"), (None, Some("EXP1+EXP2")));
    assert_eq!(chains("10.0.0.4"), (Some("CUSTOM_IN"), Some("EXP1+EXP2")));
    assert_eq!(chains("10.0.1.2"), (Some("IMP"), Some("EXP1")));
    assert_eq!(chains("10.0.1.3"), (Some("IMP"), Some("CUSTOM_OUT")));
}

#[test]
fn connected_routes_from_interfaces() {
    let c = lower(
        &parse_config(
            "interface GigabitEthernet0/0\n\
             \x20ip address 10.0.12.1 255.255.255.0\n\
             interface GigabitEthernet0/1\n\
             \x20ip address 10.0.13.1 255.255.255.0\n\
             \x20shutdown\n",
        )
        .unwrap(),
    )
    .unwrap();
    let routes = c.connected_routes();
    assert!(routes.contains(&"10.0.12.0/24".parse().unwrap()));
    assert!(
        !routes.contains(&"10.0.13.0/24".parse().unwrap()),
        "shutdown interfaces contribute nothing"
    );
}

#[test]
fn ospf_interface_lowering_cisco_network_statements() {
    let c = lower(
        &parse_config(
            "interface GigabitEthernet0/0\n\
             \x20ip address 10.0.12.1 255.255.255.0\n\
             \x20ip ospf cost 250\n\
             interface GigabitEthernet0/1\n\
             \x20ip address 172.16.0.1 255.255.255.0\n\
             router ospf 1\n\
             \x20network 10.0.0.0 0.255.255.255 area 0\n\
             \x20passive-interface GigabitEthernet0/0\n",
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(c.ospf_interfaces.len(), 1, "only the matched interface");
    let oi = &c.ospf_interfaces[0];
    assert_eq!(oi.iface, "GigabitEthernet0/0");
    assert_eq!(oi.area, 0);
    assert_eq!(oi.cost, Some(250));
    assert!(oi.passive);
    assert_eq!(oi.subnet.unwrap().to_string(), "10.0.12.0/24");
}

#[test]
fn ospf_interface_lowering_juniper() {
    let j = lower(
        &parse_config(
            "interfaces {
                ge-0/0/0 {
                    unit 0 { family inet { address 10.0.12.2/24; } }
                }
            }
            protocols {
                ospf {
                    area 0.0.0.0 {
                        interface ge-0/0/0.0 { metric 250; }
                    }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    let oi = &j.ospf_interfaces[0];
    assert_eq!(oi.iface, "ge-0/0/0.0");
    assert_eq!(oi.cost, Some(250));
    assert_eq!(oi.subnet.unwrap().to_string(), "10.0.12.0/24");
}

#[test]
fn juniper_ospf_export_becomes_redistribution() {
    let j = lower(
        &parse_config(
            "policy-options {
                policy-statement STATIC_TO_OSPF {
                    term t { from protocol static; then accept; }
                }
            }
            protocols {
                ospf {
                    export STATIC_TO_OSPF;
                    area 0.0.0.0 { interface ge-0/0/0.0; }
                }
            }",
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(j.ospf_redistribute.len(), 1);
    assert_eq!(j.ospf_redistribute[0].from_protocol, RouteProtocol::Static);
    assert_eq!(
        j.ospf_redistribute[0].policy.as_deref(),
        Some("STATIC_TO_OSPF")
    );
}

#[test]
fn policy_or_permit_for_missing_hook() {
    let c = lower(&parse_config("hostname r1\n").unwrap()).unwrap();
    let p = c.policy_or_permit("NOT_THERE");
    assert!(p.evaluate(&advert("1.2.3.0/24")).accept);
}

#[test]
fn prefix_ranges_and_atoms_extraction() {
    let c = cisco_fig1();
    let pol = &c.policies["POL"];
    let ranges = pol.prefix_ranges();
    assert_eq!(ranges.len(), 2);
    assert!(ranges
        .iter()
        .any(|r| r.to_string() == "10.9.0.0/16 : 16-32"));
    let atoms = pol.community_atoms();
    assert!(atoms.contains(&CommAtom::Literal(Community::new(10, 10))));
    assert!(atoms.contains(&CommAtom::Literal(Community::new(10, 11))));

    let j = juniper_fig1();
    let ranges = j.policies["POL"].prefix_ranges();
    assert!(
        ranges
            .iter()
            .any(|r| r.to_string() == "10.9.0.0/16 : 16-16"),
        "exact semantics"
    );
}

mod properties {
    //! Differential property tests: random route maps evaluated clause by
    //! clause against an oracle interpreter written independently here.
    use super::*;
    use proptest::prelude::*;

    fn arb_community() -> impl Strategy<Value = Community> {
        (0u16..4, 0u16..4).prop_map(|(a, b)| Community::new(a * 10, b))
    }

    prop_compose! {
        fn arb_advert()(
            bits in any::<u32>(),
            len in 0u8..=32,
            comms in proptest::collection::btree_set(arb_community(), 0..4),
            tag in 0u32..3,
        ) -> RouteAdvert {
            let mut a = RouteAdvert::bgp(Prefix::new(std::net::Ipv4Addr::from(bits), len));
            a.communities = comms;
            a.tag = tag;
            a
        }
    }

    proptest! {
        /// Accepted verdicts from a policy with only Accept/Reject terminals
        /// fire exactly one clause, and that clause matches the input.
        #[test]
        fn fired_clause_matches(a in arb_advert()) {
            let c = cisco_fig1();
            let pol = &c.policies["POL"];
            let v = pol.evaluate(&a);
            if !v.default_fired {
                prop_assert_eq!(v.fired.len(), 1);
                prop_assert!(pol.clauses[v.fired[0]].matches_advert(&a));
                // No earlier clause matches.
                for i in 0..v.fired[0] {
                    prop_assert!(!pol.clauses[i].matches_advert(&a));
                }
            } else {
                for cl in &pol.clauses {
                    prop_assert!(!cl.matches_advert(&a));
                }
            }
        }

        /// The Figure 1 pair disagrees exactly on the two documented
        /// difference regions — everywhere else they agree.
        #[test]
        fn figure1_disagreement_is_exactly_the_two_bugs(a in arb_advert()) {
            let c = cisco_fig1();
            let j = juniper_fig1();
            let vc = c.policies["POL"].evaluate(&a);
            let vj = j.policies["POL"].evaluate(&a);
            // Region 1: in Cisco NETS but not Juniper NETS (length 17-32 of
            // the two /16s).
            let nets16: [Prefix; 2] =
                ["10.9.0.0/16".parse().unwrap(), "10.100.0.0/16".parse().unwrap()];
            let in_cisco_nets = nets16.iter().any(|n| {
                n.contains(&a.prefix) && a.prefix.len() >= 16
            });
            let in_juniper_nets = nets16.contains(&a.prefix);
            let region1 = in_cisco_nets && !in_juniper_nets;
            // Region 2: outside Cisco NETS, matches Cisco COMM (any of
            // 10:10, 10:11) but not Juniper COMM (both).
            let has1010 = a.has_community(Community::new(10, 10));
            let has1011 = a.has_community(Community::new(10, 11));
            let region2 = !in_cisco_nets && (has1010 ^ has1011);
            let expect_disagree = region1 || region2;
            prop_assert_eq!(
                vc.accept != vj.accept,
                expect_disagree,
                "advert {} (cisco={}, juniper={})", a, vc.accept, vj.accept
            );
        }
    }
}
