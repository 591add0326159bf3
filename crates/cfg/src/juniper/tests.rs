//! Tests for the Juniper JunOS extraction, anchored on the paper's Figure 1(b).

use campion_net::{Community, IpProtocol, PortRange};

use super::ast::*;
use super::parse_juniper;
use crate::span::Span;

use crate::samples::FIGURE1_JUNIPER;

#[test]
fn figure1_juniper_parses() {
    let cfg = parse_juniper(FIGURE1_JUNIPER).unwrap();

    let nets = &cfg.prefix_lists["NETS"];
    assert_eq!(nets.prefixes.len(), 2);
    assert_eq!(nets.prefixes[0].0.to_string(), "10.9.0.0/16");
    assert_eq!(nets.prefixes[0].1, Span::line(3));

    let comm = &cfg.communities["COMM"];
    assert_eq!(
        comm.members,
        vec![Community::new(10, 10), Community::new(10, 11)],
        "members [...] is a conjunction of two communities"
    );
    assert!(comm.regexes.is_empty());

    let pol = &cfg.policies["POL"];
    assert_eq!(pol.terms.len(), 3);
    assert_eq!(pol.terms[0].name, "rule1");
    assert_eq!(
        pol.terms[0].from,
        vec![FromClause::PrefixList("NETS".into())]
    );
    assert_eq!(pol.terms[0].then, vec![ThenClause::Reject]);
    assert_eq!(
        pol.terms[1].from,
        vec![FromClause::Community(vec!["COMM".into()])]
    );
    let rule3 = &pol.terms[2];
    assert!(rule3.from.is_empty());
    assert_eq!(
        rule3.then,
        vec![ThenClause::LocalPreference(30), ThenClause::Accept]
    );
    assert_eq!(rule3.span, Span::lines(16, 21));
}

#[test]
fn figure1_snippets_match_source() {
    let cfg = parse_juniper(FIGURE1_JUNIPER).unwrap();
    let rule3 = &cfg.policies["POL"].terms[2];
    let snippet = cfg.snippet(rule3.span);
    assert!(snippet.starts_with("term rule3 {"));
    assert!(snippet.contains("local-preference 30;"));
    assert!(snippet.trim_end().ends_with('}'));
}

#[test]
fn route_filters_and_modifiers() {
    let cfg = parse_juniper(
        "policy-options {
            policy-statement P {
                term t1 {
                    from {
                        route-filter 10.0.0.0/8 orlonger;
                        route-filter 10.64.0.0/16 exact;
                        route-filter 172.16.0.0/12 upto /24;
                        route-filter 192.168.0.0/16 prefix-length-range /24-/28;
                        route-filter 11.0.0.0/8 longer;
                    }
                    then accept;
                }
            }
        }",
    )
    .unwrap();
    let from = &cfg.policies["P"].terms[0].from;
    assert_eq!(from.len(), 5);
    assert!(matches!(
        from[0],
        FromClause::RouteFilter(_, RouteFilterModifier::OrLonger)
    ));
    assert!(matches!(
        from[1],
        FromClause::RouteFilter(_, RouteFilterModifier::Exact)
    ));
    assert!(matches!(
        from[2],
        FromClause::RouteFilter(_, RouteFilterModifier::Upto(24))
    ));
    assert!(matches!(
        from[3],
        FromClause::RouteFilter(_, RouteFilterModifier::PrefixLengthRange(24, 28))
    ));
    assert!(matches!(
        from[4],
        FromClause::RouteFilter(_, RouteFilterModifier::Longer)
    ));
}

#[test]
fn prefix_list_filter_modifiers() {
    let cfg = parse_juniper(
        "policy-options {
            prefix-list NETS { 10.9.0.0/16; }
            policy-statement P {
                term t {
                    from prefix-list-filter NETS orlonger;
                    then reject;
                }
            }
        }",
    )
    .unwrap();
    assert_eq!(
        cfg.policies["P"].terms[0].from,
        vec![FromClause::PrefixListFilter(
            "NETS".into(),
            RouteFilterModifier::OrLonger
        )]
    );
}

#[test]
fn policy_then_actions() {
    let cfg = parse_juniper(
        "policy-options {
            policy-statement P {
                term t {
                    then {
                        metric 120;
                        community add TAG1;
                        community set ONLY;
                        community delete OLD;
                        next-hop self;
                        next-hop 192.0.2.7;
                        tag 99;
                        next term;
                    }
                }
                term u {
                    then next policy;
                }
            }
        }",
    )
    .unwrap();
    let then = &cfg.policies["P"].terms[0].then;
    assert_eq!(then[0], ThenClause::Metric(120));
    assert_eq!(then[1], ThenClause::CommunityAdd("TAG1".into()));
    assert_eq!(then[2], ThenClause::CommunitySet("ONLY".into()));
    assert_eq!(then[3], ThenClause::CommunityDelete("OLD".into()));
    assert_eq!(then[4], ThenClause::NextHop(None));
    assert_eq!(
        then[5],
        ThenClause::NextHop(Some("192.0.2.7".parse().unwrap()))
    );
    assert_eq!(then[6], ThenClause::Tag(99));
    assert_eq!(then[7], ThenClause::NextTerm);
    assert_eq!(
        cfg.policies["P"].terms[1].then,
        vec![ThenClause::NextPolicy]
    );
}

#[test]
fn community_regex_members() {
    let cfg = parse_juniper(
        "policy-options {
            community RX members \"^65000:.*$\";
            community MIX members [ 10:10 ^100:.*$ ];
        }",
    )
    .unwrap();
    assert_eq!(cfg.communities["RX"].regexes, vec!["^65000:.*$"]);
    let mix = &cfg.communities["MIX"];
    assert_eq!(mix.members, vec![Community::new(10, 10)]);
    assert_eq!(mix.regexes, vec!["^100:.*$"]);
}

#[test]
fn firewall_filter() {
    let cfg = parse_juniper(
        "firewall {
            family inet {
                filter VM_FILTER {
                    term permit_whitelist {
                        from {
                            source-address {
                                9.140.0.0/23;
                            }
                            protocol tcp;
                            destination-port [ 443 8000-8080 ];
                        }
                        then accept;
                    }
                    term deny_rest {
                        then discard;
                    }
                }
            }
        }",
    )
    .unwrap();
    let f = &cfg.filters["VM_FILTER"];
    assert_eq!(f.terms.len(), 2);
    let t0 = &f.terms[0];
    assert_eq!(t0.name, "permit_whitelist");
    assert_eq!(t0.from.src_addrs[0].to_string(), "9.140.0.0/23");
    assert_eq!(t0.from.protocols, vec![IpProtocol::Tcp]);
    assert_eq!(
        t0.from.dst_ports,
        vec![PortRange::exact(443), PortRange::new(8000, 8080)]
    );
    assert_eq!(t0.action, FilterAction::Accept);
    assert_eq!(f.terms[1].action, FilterAction::Discard);
}

#[test]
fn static_routes_both_forms() {
    let cfg = parse_juniper(
        "routing-options {
            static {
                route 10.1.1.2/31 next-hop 10.2.2.2;
                route 10.5.0.0/16 {
                    next-hop 10.2.2.9;
                    preference 200;
                    tag 77;
                }
                route 192.0.2.0/24 discard;
            }
            autonomous-system 65001;
            router-id 192.0.2.1;
        }",
    )
    .unwrap();
    assert_eq!(cfg.static_routes.len(), 3);
    let r0 = &cfg.static_routes[0];
    assert_eq!(r0.prefix.to_string(), "10.1.1.2/31");
    assert_eq!(r0.next_hop.unwrap().to_string(), "10.2.2.2");
    assert_eq!(r0.preference, 5, "JunOS default static preference");
    let r1 = &cfg.static_routes[1];
    assert_eq!(r1.preference, 200);
    assert_eq!(r1.tag, Some(77));
    assert!(cfg.static_routes[2].discard);
    assert_eq!(cfg.autonomous_system, Some(65001));
    assert_eq!(cfg.router_id.unwrap().to_string(), "192.0.2.1");
}

#[test]
fn bgp_groups_and_neighbors() {
    let cfg = parse_juniper(
        "routing-options { autonomous-system 65001; }
        protocols {
            bgp {
                group ibgp {
                    type internal;
                    cluster 192.0.2.1;
                    export [ EXP1 EXP2 ];
                    neighbor 10.0.0.3;
                    neighbor 10.0.0.4 {
                        import CUSTOM_IN;
                        peer-as 65001;
                    }
                }
                group ebgp {
                    type external;
                    peer-as 65002;
                    import IMP;
                    export EXP;
                    neighbor 10.0.1.2;
                }
            }
        }",
    )
    .unwrap();
    let bgp = cfg.bgp.unwrap();
    assert_eq!(bgp.local_as, Some(65001));
    let ibgp = &bgp.groups["ibgp"];
    assert!(ibgp.internal);
    assert_eq!(ibgp.cluster.unwrap().to_string(), "192.0.2.1");
    assert_eq!(ibgp.export, vec!["EXP1", "EXP2"]);
    // Chains stay where they were written; lowering resolves overrides.
    let n4 = &ibgp.neighbors[&"10.0.0.4".parse().unwrap()];
    assert_eq!(n4.import, vec!["CUSTOM_IN"]);
    assert!(n4.export.is_empty());
    let ebgp = &bgp.groups["ebgp"];
    assert!(!ebgp.internal);
    assert_eq!(ebgp.import, vec!["IMP"]);
    assert!(ebgp.neighbors[&"10.0.1.2".parse().unwrap()]
        .import
        .is_empty());
    assert_eq!(bgp.neighbors().count(), 3);
}

#[test]
fn ospf_areas_and_interfaces() {
    let cfg = parse_juniper(
        "protocols {
            ospf {
                reference-bandwidth 100g;
                export STATIC_TO_OSPF;
                area 0.0.0.0 {
                    interface ge-0/0/0.0 {
                        metric 250;
                    }
                    interface lo0.0 passive;
                }
                area 0.0.0.1 {
                    interface ge-0/0/1.0;
                }
            }
        }",
    )
    .unwrap();
    let ospf = cfg.ospf.unwrap();
    assert_eq!(ospf.reference_bandwidth, Some(100_000_000_000));
    assert_eq!(ospf.export, vec!["STATIC_TO_OSPF"]);
    let area0 = &ospf.areas[&0];
    assert_eq!(area0.len(), 2);
    assert_eq!(area0[0].metric, Some(250));
    assert!(area0[1].passive);
    assert!(ospf.areas.contains_key(&1));
}

#[test]
fn interfaces_with_units() {
    let cfg = parse_juniper(
        "interfaces {
            ge-0/0/1 {
                description \"uplink to core\";
                unit 0 {
                    family inet {
                        address 10.0.12.2/24;
                        filter {
                            input EDGE_IN;
                            output EDGE_OUT;
                        }
                    }
                }
            }
            lo0 {
                disable;
                unit 0 {
                    family inet {
                        address 192.0.2.2/32;
                    }
                }
            }
        }",
    )
    .unwrap();
    let ge = &cfg.interfaces["ge-0/0/1"];
    assert_eq!(ge.description.as_deref(), Some("uplink to core"));
    let u0 = &ge.units[&0];
    assert_eq!(u0.address.unwrap().1.to_string(), "10.0.12.0/24");
    assert_eq!(u0.filter_in.as_deref(), Some("EDGE_IN"));
    assert_eq!(u0.filter_out.as_deref(), Some("EDGE_OUT"));
    assert!(cfg.interfaces["lo0"].disabled);
}

#[test]
fn errors_carry_line_numbers() {
    let err = parse_juniper(
        "policy-options {
            policy-statement P {
                term t {
                    from frobnicate X;
                    then accept;
                }
            }
        }",
    )
    .unwrap_err();
    assert_eq!(err.line, 4);
    assert!(err.message.contains("frobnicate"));
}

#[test]
fn hostname_extracted() {
    let cfg = parse_juniper("system { host-name border-2; }").unwrap();
    assert_eq!(cfg.hostname, "border-2");
}
