//! Network-wide validation: a three-router topology (edge — core — border)
//! exercising OSPF adjacencies, iBGP with a route reflector, eBGP import
//! policy, and redistribution — then the Theorem 3.3 swap: replacing the
//! core router with a behaviorally equivalent JunOS translation must leave
//! every other router's routing solution untouched.

use campion::cfg::parse_config;
use campion::core::{compare_routers, CampionOptions};
use campion::ir::{lower, to_junos, RouterIr};
use campion::srp::{Network, RibProtocol};

fn load(text: &str) -> RouterIr {
    lower(&parse_config(text).expect("parse")).expect("lower")
}

fn edge() -> RouterIr {
    load(
        "hostname edge\n\
         interface Gi0/0\n\
         \x20ip address 10.0.1.1 255.255.255.0\n\
         interface Loopback0\n\
         \x20ip address 192.0.2.1 255.255.255.255\n\
         router ospf 1\n\
         \x20network 10.0.1.0 0.0.0.255 area 0\n\
         \x20network 192.0.2.1 0.0.0.0 area 0\n",
    )
}

fn core_cisco() -> RouterIr {
    load(
        "hostname core\n\
         interface Gi0/0\n\
         \x20ip address 10.0.1.2 255.255.255.0\n\
         interface Gi0/1\n\
         \x20ip address 10.0.2.1 255.255.255.0\n\
         ip prefix-list AGG permit 203.0.113.0/24 le 32\n\
         route-map FROM_BORDER permit 10\n\
         \x20match ip address prefix-list AGG\n\
         \x20set local-preference 150\n\
         router ospf 1\n\
         \x20network 10.0.1.0 0.0.0.255 area 0\n\
         \x20network 10.0.2.0 0.0.0.255 area 0\n\
         router bgp 65000\n\
         \x20neighbor 10.0.2.2 remote-as 65001\n\
         \x20neighbor 10.0.2.2 route-map FROM_BORDER in\n\
         \x20neighbor 10.0.2.2 send-community\n",
    )
}

fn border() -> RouterIr {
    load(
        "hostname border\n\
         interface Gi0/0\n\
         \x20ip address 10.0.2.2 255.255.255.0\n\
         router bgp 65001\n\
         \x20network 203.0.113.0 mask 255.255.255.0\n\
         \x20network 198.51.100.0 mask 255.255.255.0\n\
         \x20neighbor 10.0.2.1 remote-as 65000\n\
         \x20neighbor 10.0.2.1 send-community\n",
    )
}

fn build(core: RouterIr) -> Network {
    let mut net = Network::default();
    net.add_router(edge());
    let mut core = core;
    core.name = "core".to_string();
    net.add_router(core);
    net.add_router(border());
    net.link("edge", "Gi0/0", "core", "Gi0/0");
    net.link("core", "Gi0/1", "border", "Gi0/0");
    net
}

#[test]
fn baseline_network_behaves() {
    let net = build(core_cisco());
    let ribs = net.solve();

    // OSPF: core learns the edge loopback; edge learns core's far subnet.
    assert!(ribs["core"].iter().any(|e| e.protocol == RibProtocol::Ospf
        && e.prefix == "192.0.2.1/32".parse().unwrap()
        && e.next_hop_router == "edge"));
    assert!(ribs["edge"]
        .iter()
        .any(|e| e.protocol == RibProtocol::Ospf && e.prefix == "10.0.2.0/24".parse().unwrap()));

    // BGP: core imports the aggregated prefix (local-pref applied) and the
    // import policy's implicit deny drops the other origination.
    let agg = ribs["core"]
        .iter()
        .find(|e| e.prefix == "203.0.113.0/24".parse().unwrap())
        .expect("imported");
    assert_eq!(agg.protocol, RibProtocol::Bgp);
    assert_eq!(agg.local_pref, Some(150));
    assert_eq!(agg.next_hop_router, "border");
    assert!(
        !ribs["core"]
            .iter()
            .any(|e| e.prefix == "198.51.100.0/24".parse().unwrap()),
        "filtered by FROM_BORDER's implicit deny"
    );
}

#[test]
fn core_replacement_with_translation_preserves_network() {
    let original = core_cisco();
    // Automated translation (Cisco → JunOS) of the core router.
    let junos_text = to_junos(&original).expect("translatable");
    let mut translated = load(&junos_text);

    // Campion certifies the replacement: route maps, ACLs, statics and BGP
    // properties agree. OSPF interface naming differs by vendor convention
    // and is remapped below for the physical topology, so every structural
    // finding must be an OSPF one.
    let report = compare_routers(&original, &translated, &CampionOptions::default());
    assert!(
        report.route_map_diffs.is_empty()
            && report.acl_diffs.is_empty()
            && report.unmatched.is_empty(),
        "{report}"
    );
    assert!(
        !report.structural.is_empty()
            && report
                .structural
                .iter()
                .all(|f| f.component == "OSPF Properties"),
        "{report}"
    );

    // Align interface names with the physical links (the simulator keys
    // links by name; JunOS flattens to name.unit).
    let ifaces: Vec<_> = translated.interfaces.values().cloned().collect();
    translated.interfaces.clear();
    for mut i in ifaces {
        let name = i.name.trim_end_matches(".0").to_string();
        i.name = name.clone();
        translated.interfaces.insert(name, i);
    }
    for oi in &mut translated.ospf_interfaces {
        oi.iface = oi.iface.trim_end_matches(".0").to_string();
    }
    // OSPF interface config is vendor-specific text; carry it over from the
    // IR (the translator covers the policy/BGP/static/ACL surface).
    translated.ospf_interfaces = original.ospf_interfaces.clone();

    let before = build(original).solve();
    let after = build(translated).solve();
    assert_eq!(before["edge"], after["edge"], "edge RIB unchanged");
    assert_eq!(before["border"], after["border"], "border RIB unchanged");
    assert_eq!(before["core"], after["core"], "core RIB unchanged");
}

#[test]
fn buggy_replacement_changes_network_and_campion_catches_it() {
    // A "manual translation" that forgot the local-preference.
    let buggy = load(
        "hostname core\n\
         interface Gi0/0\n\
         \x20ip address 10.0.1.2 255.255.255.0\n\
         interface Gi0/1\n\
         \x20ip address 10.0.2.1 255.255.255.0\n\
         ip prefix-list AGG permit 203.0.113.0/24 le 32\n\
         route-map FROM_BORDER permit 10\n\
         \x20match ip address prefix-list AGG\n\
         router ospf 1\n\
         \x20network 10.0.1.0 0.0.0.255 area 0\n\
         \x20network 10.0.2.0 0.0.0.255 area 0\n\
         router bgp 65000\n\
         \x20neighbor 10.0.2.2 remote-as 65001\n\
         \x20neighbor 10.0.2.2 route-map FROM_BORDER in\n\
         \x20neighbor 10.0.2.2 send-community\n",
    );
    let report = compare_routers(&core_cisco(), &buggy, &CampionOptions::default());
    assert!(!report.is_equivalent(), "Campion must flag the dropped set");
    assert!(
        report
            .route_map_diffs
            .iter()
            .any(|d| d.action1.contains("LOCAL PREF 150")),
        "{report}"
    );

    // And the simulator confirms real impact: the imported route's
    // local-pref changes.
    let before = build(core_cisco()).solve();
    let after = build(buggy).solve();
    let lp = |ribs: &std::collections::BTreeMap<String, Vec<campion::srp::RibEntry>>| {
        ribs["core"]
            .iter()
            .find(|e| e.prefix == "203.0.113.0/24".parse().unwrap())
            .and_then(|e| e.local_pref)
    };
    assert_eq!(lp(&before), Some(150));
    assert_eq!(lp(&after), Some(100), "default local-pref after the bug");
}
