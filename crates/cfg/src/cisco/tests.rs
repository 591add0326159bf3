//! Tests for the Cisco IOS parser, anchored on the paper's Figure 1(a).

use campion_net::{Community, IpProtocol, PortRange};

use super::ast::*;
use super::parse_cisco;
use crate::span::Span;

use crate::samples::FIGURE1_CISCO;

#[test]
fn figure1_cisco_parses() {
    let cfg = parse_cisco(FIGURE1_CISCO).unwrap();

    let nets = &cfg.prefix_lists["NETS"];
    assert_eq!(nets.entries.len(), 2);
    let e0 = &nets.entries[0];
    assert_eq!(e0.prefix.to_string(), "10.9.0.0/16");
    assert_eq!((e0.ge, e0.le), (16, 32));
    assert!(e0.action.permits());
    assert_eq!(e0.span, Span::line(1));
    assert_eq!(nets.entries[1].prefix.to_string(), "10.100.0.0/16");

    let comm = &cfg.community_lists["COMM"];
    assert_eq!(comm.entries.len(), 2);
    assert_eq!(comm.entries[0].communities, vec![Community::new(10, 10)]);
    assert_eq!(comm.entries[1].communities, vec![Community::new(10, 11)]);

    let pol = &cfg.route_maps["POL"];
    assert_eq!(pol.entries.len(), 3);
    assert_eq!(pol.entries[0].seq, 10);
    assert_eq!(pol.entries[0].action, LineAction::Deny);
    assert_eq!(
        pol.entries[0].matches,
        vec![RouteMapMatch::IpAddressPrefixList(vec!["NETS".into()])]
    );
    assert_eq!(pol.entries[0].span, Span::lines(7, 8));
    assert_eq!(
        pol.entries[1].matches,
        vec![RouteMapMatch::Community(vec!["COMM".into()])]
    );
    assert_eq!(pol.entries[2].action, LineAction::Permit);
    assert_eq!(pol.entries[2].sets, vec![RouteMapSet::LocalPreference(30)]);
}

#[test]
fn figure1_snippets_match_source() {
    let cfg = parse_cisco(FIGURE1_CISCO).unwrap();
    let pol = &cfg.route_maps["POL"];
    assert_eq!(
        cfg.snippet(pol.entries[0].span),
        "route-map POL deny 10\n match ip address prefix-list NETS"
    );
}

#[test]
fn prefix_list_ge_le_defaults() {
    let cfg = parse_cisco(
        "ip prefix-list A permit 10.0.0.0/8\n\
         ip prefix-list B permit 10.0.0.0/8 ge 24\n\
         ip prefix-list C seq 17 deny 10.0.0.0/8 ge 12 le 20\n",
    )
    .unwrap();
    let a = &cfg.prefix_lists["A"].entries[0];
    assert_eq!((a.ge, a.le), (8, 8), "bare prefix is exact-length");
    let b = &cfg.prefix_lists["B"].entries[0];
    assert_eq!((b.ge, b.le), (24, 32), "ge without le runs to 32");
    let c = &cfg.prefix_lists["C"].entries[0];
    assert_eq!((c.seq, c.ge, c.le), (17, 12, 20));
    assert_eq!(c.action, LineAction::Deny);
}

/// Every malformed prefix-list line is refused with its own message.
#[test]
fn prefix_list_errors_name_the_fault() {
    for (line, message) in [
        ("ip prefix-list", "prefix-list missing name"),
        ("ip prefix-list A seq", "seq missing number"),
        (
            "ip prefix-list A seq x permit 10.0.0.0/8",
            "bad sequence number: \"x\"",
        ),
        ("ip prefix-list A", "prefix-list missing action"),
        ("ip prefix-list A seq 5", "prefix-list missing action"),
        ("ip prefix-list A permit", "prefix-list missing prefix"),
        ("ip prefix-list A permit 10.0.0.0/8 ge", "ge missing value"),
        (
            "ip prefix-list A permit 10.0.0.0/8 le 9 le",
            "le missing value",
        ),
        (
            "ip prefix-list A permit 10.0.0.0/8 le x",
            "bad le length: \"x\"",
        ),
        (
            "ip prefix-list A permit 10.0.0.0/8 eq 9",
            "unexpected token \"eq\"",
        ),
        (
            "ip prefix-list A permit 10.0.0.0/16 ge 8",
            "invalid ge/le bounds 8/32",
        ),
    ] {
        let err = parse_cisco(&format!("!\n{line}\n")).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, message), "{line}");
    }
    let cfg = parse_cisco("ip prefix-list A seq 5 description anything at all\n").unwrap();
    assert!(
        cfg.prefix_lists.is_empty(),
        "a description line adds no list"
    );
}

#[test]
fn prefix_list_rejects_bad_bounds() {
    assert!(parse_cisco("ip prefix-list A permit 10.0.0.0/16 ge 8\n").is_err());
    assert!(parse_cisco("ip prefix-list A permit 10.0.0.0/16 le 40\n").is_err());
    assert!(parse_cisco("ip prefix-list A permit 10.0.0.0/16 ge 30 le 20\n").is_err());
}

#[test]
fn static_routes_full_form() {
    let cfg = parse_cisco(
        "ip route 10.1.1.2 255.255.255.254 10.2.2.2\n\
         ip route 10.5.0.0 255.255.0.0 10.2.2.9 200 tag 77\n\
         ip route 0.0.0.0 0.0.0.0 Null0\n",
    )
    .unwrap();
    assert_eq!(cfg.static_routes.len(), 3);
    let r0 = &cfg.static_routes[0];
    assert_eq!(r0.prefix.to_string(), "10.1.1.2/31");
    assert_eq!(r0.next_hop.unwrap().to_string(), "10.2.2.2");
    assert_eq!(r0.admin_distance, 1);
    assert_eq!(r0.tag, None);
    let r1 = &cfg.static_routes[1];
    assert_eq!(r1.admin_distance, 200);
    assert_eq!(r1.tag, Some(77));
    let r2 = &cfg.static_routes[2];
    assert_eq!(r2.interface.as_deref(), Some("Null0"));
    assert!(r2.next_hop.is_none());
}

#[test]
fn named_extended_acl() {
    let cfg = parse_cisco(
        "ip access-list extended VM_FILTER_1\n\
         \x20permit tcp 10.0.0.0 0.0.255.255 any eq 443\n\
         \x20deny ipv4 9.140.0.0 0.0.1.255 any\n\
         \x20deny ip any any\n",
    );
    // `ipv4` is an IOS-XR spelling; our parser accepts standard `ip` only.
    assert!(cfg.is_err());

    let cfg = parse_cisco(
        "ip access-list extended VM_FILTER_1\n\
         \x20permit tcp 10.0.0.0 0.0.255.255 range 1000 2000 any eq 443\n\
         \x20deny ip 9.140.0.0 0.0.1.255 any\n\
         \x20permit udp any eq domain host 10.0.0.53 gt 1023\n\
         \x20deny ip any any log\n",
    )
    .unwrap();
    let acl = &cfg.acls["VM_FILTER_1"];
    assert_eq!(acl.rules.len(), 4);
    let r0 = &acl.rules[0];
    assert_eq!(r0.protocol, IpProtocol::Tcp);
    assert_eq!(r0.src_ports, PortRange::new(1000, 2000));
    assert_eq!(r0.dst_ports, PortRange::exact(443));
    let r2 = &acl.rules[2];
    assert_eq!(r2.protocol, IpProtocol::Udp);
    assert_eq!(r2.src_ports, PortRange::exact(53));
    assert_eq!(r2.dst_ports, PortRange::new(1024, 65535));
    let r3 = &acl.rules[3];
    assert_eq!(r3.action, LineAction::Deny);
    assert_eq!(r3.src, AclAddr::Any);
}

#[test]
fn numbered_acls() {
    let cfg = parse_cisco(
        "access-list 10 permit 10.0.0.0 0.255.255.255\n\
         access-list 10 deny any\n\
         access-list 101 permit tcp any host 10.0.0.1 eq bgp\n",
    )
    .unwrap();
    let std10 = &cfg.acls["10"];
    assert_eq!(std10.rules.len(), 2);
    assert_eq!(std10.rules[0].protocol, IpProtocol::Any);
    assert_eq!(std10.rules[0].dst, AclAddr::Any);
    let ext = &cfg.acls["101"];
    assert_eq!(ext.rules[0].dst_ports, PortRange::exact(179));
}

#[test]
fn acl_sequence_numbers() {
    let cfg = parse_cisco(
        "ip access-list extended SEQ\n\
         \x2050 permit tcp any any eq 80\n\
         \x20permit ip any any\n",
    )
    .unwrap();
    let acl = &cfg.acls["SEQ"];
    assert_eq!(acl.rules[0].seq, 50, "explicit sequence preserved");
    assert_eq!(acl.rules[1].seq, 20, "implicit sequence assigned");
}

#[test]
fn route_map_set_clauses() {
    let cfg = parse_cisco(
        "route-map OUT permit 10\n\
         \x20match ip address prefix-list P1 P2\n\
         \x20set metric 120\n\
         \x20set community 65000:100 65000:200 additive\n\
         \x20set ip next-hop 192.0.2.1\n\
         route-map OUT permit 20\n\
         \x20set comm-list STRIP delete\n\
         \x20continue 30\n",
    )
    .unwrap();
    let rm = &cfg.route_maps["OUT"];
    assert_eq!(
        rm.entries[0].matches,
        vec![RouteMapMatch::IpAddressPrefixList(vec![
            "P1".into(),
            "P2".into()
        ])]
    );
    assert_eq!(
        rm.entries[0].sets,
        vec![
            RouteMapSet::Metric(120),
            RouteMapSet::Community {
                communities: vec![Community::new(65000, 100), Community::new(65000, 200)],
                additive: true
            },
            RouteMapSet::NextHop("192.0.2.1".parse().unwrap()),
        ]
    );
    assert_eq!(
        rm.entries[1].sets,
        vec![RouteMapSet::CommListDelete("STRIP".into())]
    );
    assert_eq!(rm.entries[1].continue_seq, Some(30));
}

#[test]
fn route_map_entries_sorted_by_seq() {
    let cfg = parse_cisco(
        "route-map M permit 20\n\
         route-map M deny 10\n",
    )
    .unwrap();
    let seqs: Vec<u32> = cfg.route_maps["M"].entries.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![10, 20]);
}

#[test]
fn prefix_list_entries_sorted_by_seq_then_line() {
    let cfg = parse_cisco(
        "ip prefix-list P seq 20 permit 10.0.2.0/24\n\
         ip prefix-list P seq 10 permit 10.0.1.0/24\n\
         ip prefix-list Q permit 10.9.0.0/16\n\
         ip prefix-list P seq 10 deny 10.0.3.0/24\n\
         ip prefix-list P permit 10.0.4.0/24\n\
         ip prefix-list P seq 5 deny 10.0.5.0/24\n",
    )
    .unwrap();
    // The implicit seq on line 5 counts P's three earlier entries: 20.
    let order: Vec<(u32, u32)> = cfg.prefix_lists["P"]
        .entries
        .iter()
        .map(|e| (e.seq, e.span.start))
        .collect();
    assert_eq!(order, vec![(5, 6), (10, 2), (10, 4), (20, 1), (20, 5)]);
    assert_eq!(cfg.prefix_lists["Q"].entries[0].seq, 5);
}

#[test]
fn interfaces_and_ospf_attributes() {
    let cfg = parse_cisco(
        "interface GigabitEthernet0/0\n\
         \x20description uplink to core\n\
         \x20ip address 10.0.12.1 255.255.255.0\n\
         \x20ip ospf cost 250\n\
         \x20ip ospf 1 area 0\n\
         \x20ip access-group EDGE_IN in\n\
         interface Loopback0\n\
         \x20ip address 192.0.2.1 255.255.255.255\n\
         \x20shutdown\n",
    )
    .unwrap();
    let gi = &cfg.interfaces["GigabitEthernet0/0"];
    assert_eq!(gi.ospf_cost, Some(250));
    assert_eq!(gi.ospf_area, Some(0));
    assert_eq!(gi.acl_in.as_deref(), Some("EDGE_IN"));
    assert_eq!(gi.address.unwrap().1.to_string(), "10.0.12.0/24");
    assert_eq!(gi.description.as_deref(), Some("uplink to core"));
    let lo = &cfg.interfaces["Loopback0"];
    assert!(lo.shutdown);
    assert_eq!(lo.address.unwrap().1.to_string(), "192.0.2.1/32");
}

#[test]
fn router_bgp_stanza() {
    let cfg = parse_cisco(
        "router bgp 65001\n\
         \x20bgp router-id 192.0.2.1\n\
         \x20network 10.9.0.0 mask 255.255.0.0\n\
         \x20neighbor 10.0.0.2 remote-as 65002\n\
         \x20neighbor 10.0.0.2 route-map IMPORT in\n\
         \x20neighbor 10.0.0.2 route-map EXPORT out\n\
         \x20neighbor 10.0.0.2 send-community\n\
         \x20neighbor 10.0.0.3 remote-as 65001\n\
         \x20neighbor 10.0.0.3 route-reflector-client\n\
         \x20neighbor 10.0.0.3 next-hop-self\n\
         \x20redistribute static route-map STATIC_TO_BGP\n\
         \x20redistribute connected\n\
         \x20distance bgp 20 200 200\n",
    )
    .unwrap();
    let bgp = cfg.bgp.unwrap();
    assert_eq!(bgp.asn, 65001);
    assert_eq!(bgp.router_id.unwrap().to_string(), "192.0.2.1");
    assert_eq!(bgp.networks.len(), 1);
    assert_eq!(bgp.networks[0].0.to_string(), "10.9.0.0/16");
    let n2 = &bgp.neighbors[&"10.0.0.2".parse().unwrap()];
    assert_eq!(n2.remote_as, Some(65002));
    assert_eq!(n2.route_map_in.as_deref(), Some("IMPORT"));
    assert_eq!(n2.route_map_out.as_deref(), Some("EXPORT"));
    assert!(n2.send_community);
    assert!(!n2.route_reflector_client);
    let n3 = &bgp.neighbors[&"10.0.0.3".parse().unwrap()];
    assert!(n3.route_reflector_client);
    assert!(n3.next_hop_self);
    assert!(!n3.send_community, "send-community is opt-in on IOS");
    assert_eq!(bgp.redistribute.len(), 2);
    assert_eq!(
        bgp.redistribute[0].route_map.as_deref(),
        Some("STATIC_TO_BGP")
    );
    assert_eq!(bgp.distance, Some((20, 200, 200)));
}

#[test]
fn router_ospf_stanza() {
    let cfg = parse_cisco(
        "router ospf 1\n\
         \x20router-id 192.0.2.1\n\
         \x20network 10.0.12.0 0.0.0.255 area 0\n\
         \x20network 10.0.13.0 0.0.0.255 area 0.0.0.1\n\
         \x20passive-interface Loopback0\n\
         \x20distance 115\n\
         \x20auto-cost reference-bandwidth 100000\n\
         \x20redistribute bgp 65001 route-map BGP_TO_OSPF\n",
    )
    .unwrap();
    let ospf = cfg.ospf.unwrap();
    assert_eq!(ospf.process_id, 1);
    assert_eq!(ospf.networks.len(), 2);
    assert_eq!(ospf.networks[1].1, 1, "dotted-quad area decodes");
    assert_eq!(ospf.passive_interfaces, vec!["Loopback0"]);
    assert_eq!(ospf.distance, Some(115));
    assert_eq!(ospf.reference_bandwidth, Some(100000));
    assert_eq!(ospf.redistribute.len(), 1);
}

#[test]
fn community_list_forms() {
    let cfg = parse_cisco(
        "ip community-list standard BOTH permit 10:10 10:11\n\
         ip community-list expanded RX permit _65000:.*_\n\
         ip community-list 42 permit 1:2\n",
    )
    .unwrap();
    let both = &cfg.community_lists["BOTH"].entries[0];
    assert_eq!(
        both.communities.len(),
        2,
        "one line, two required communities"
    );
    let rx = &cfg.community_lists["RX"].entries[0];
    assert_eq!(rx.regex.as_deref(), Some("_65000:.*_"));
    assert!(cfg.community_lists.contains_key("42"));
}

#[test]
fn unmodeled_lines_are_skipped() {
    let cfg = parse_cisco(
        "version 15.2\n\
         service timestamps debug datetime msec\n\
         hostname edge1\n\
         ntp server 10.0.0.99\n\
         line vty 0 4\n\
         \x20transport input ssh\n\
         ip route 10.0.0.0 255.0.0.0 10.1.1.1\n",
    )
    .unwrap();
    assert_eq!(cfg.hostname, "edge1");
    assert_eq!(cfg.static_routes.len(), 1);
}

#[test]
fn malformed_lines_error_with_position() {
    let err = parse_cisco("ip route 10.0.0.0 255.0.0.0\n").unwrap_err();
    assert_eq!(err.line, 1);
    let err = parse_cisco("!\nip prefix-list X allow 10.0.0.0/8\n").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("permit|deny"));
}
