//! End-to-end integration tests: raw configuration text → parse → lower →
//! diff → present, across crates.

mod common;

use campion::cfg::parse_config;
use campion::cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER};
use campion::core::{compare_routers, CampionOptions};
use campion::gen::capirca_acl_pair;
use campion::ir::lower;

fn load(text: &str) -> campion::ir::RouterIr {
    lower(&parse_config(text).expect("parse")).expect("lower")
}

#[test]
fn figure1_full_pipeline_from_text() {
    let report = compare_routers(
        &load(FIGURE1_CISCO),
        &load(FIGURE1_JUNIPER),
        &CampionOptions::default(),
    );
    assert_eq!(report.route_map_diffs.len(), 2);
    let rendered = report.to_string();
    // Every row of the paper's Table 2 appears in the rendering.
    for needle in [
        "10.9.0.0/16 : 16-32",
        "10.100.0.0/16 : 16-32",
        "10.9.0.0/16 : 16-16",
        "0.0.0.0/0 : 0-32",
        // The full disagreeing community set (commloc), not one example.
        "Community: 10:10, 10:11",
        "REJECT",
        "SET LOCAL PREF 30",
        "route-map POL deny 10",
        "match community COMM",
        "term rule3",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
}

#[test]
fn self_comparison_is_always_clean() {
    for text in [FIGURE1_CISCO, FIGURE1_JUNIPER] {
        let a = load(text);
        let b = load(text);
        let report = compare_routers(&a, &b, &CampionOptions::default());
        assert!(report.is_equivalent(), "{report}");
    }
}

/// A faithful cross-vendor translation pair must be reported equivalent —
/// the workflow that gates a router replacement.
#[test]
fn faithful_translation_is_equivalent() {
    let cisco = "\
hostname edge
ip prefix-list MARTIANS permit 10.0.0.0/8 le 32
ip prefix-list MARTIANS permit 192.168.0.0/16 le 32
ip community-list standard BLOCK permit 65000:666
route-map IN deny 10
 match ip address prefix-list MARTIANS
route-map IN deny 20
 match community BLOCK
route-map IN permit 30
 set local-preference 110
ip route 0.0.0.0 0.0.0.0 10.0.0.1 250
router bgp 64800
 neighbor 10.0.0.1 remote-as 64801
 neighbor 10.0.0.1 route-map IN in
 neighbor 10.0.0.1 send-community
";
    let juniper = "\
system { host-name edge; }
policy-options {
    prefix-list MARTIANS {
        10.0.0.0/8;
        192.168.0.0/16;
    }
    community BLOCK members 65000:666;
    policy-statement IN {
        term martians {
            from prefix-list-filter MARTIANS orlonger;
            then reject;
        }
        term block {
            from community BLOCK;
            then reject;
        }
        term rest {
            then {
                local-preference 110;
                accept;
            }
        }
    }
}
routing-options {
    autonomous-system 64800;
    static {
        route 0.0.0.0/0 {
            next-hop 10.0.0.1;
            preference 250;
        }
    }
}
protocols {
    bgp {
        group upstream {
            type external;
            peer-as 64801;
            neighbor 10.0.0.1 {
                import IN;
            }
        }
    }
}
";
    let report = compare_routers(&load(cisco), &load(juniper), &CampionOptions::default());
    assert!(
        report.is_equivalent(),
        "faithful translation flagged:\n{report}"
    );
}

/// Both vendors read the same well-known service names as the same ports.
#[test]
fn service_names_compare_equal_across_vendors() {
    let cisco = "\
hostname edge
ip access-list extended SVC
 permit udp any host 10.0.0.1 eq snmp
 permit tcp 10.1.0.0 0.0.255.255 any eq smtp
 permit tcp any eq ftp-data any
 deny ip any any
";
    let juniper = "\
system { host-name edge; }
firewall {
    family inet {
        filter SVC {
            term snmp {
                from {
                    destination-address 10.0.0.1/32;
                    protocol udp;
                    destination-port snmp;
                }
                then accept;
            }
            term smtp {
                from {
                    source-address 10.1.0.0/16;
                    protocol tcp;
                    destination-port smtp;
                }
                then accept;
            }
            term ftp-data {
                from {
                    protocol tcp;
                    source-port ftp-data;
                }
                then accept;
            }
            term rest {
                then discard;
            }
        }
    }
}
";
    let c = load(cisco);
    let report = compare_routers(&c, &load(juniper), &CampionOptions::default());
    assert!(report.is_equivalent(), "service names differ:\n{report}");
    // The names are ports, not wildcards: another port is a difference.
    let other = juniper.replace("destination-port snmp", "destination-port 162");
    let report = compare_routers(&c, &load(&other), &CampionOptions::default());
    assert!(report.to_string().contains("dstPort: 161"), "{report}");
}

/// Campion and the Minesweeper baseline must agree on *whether* two route
/// maps differ, and every baseline counterexample must be covered by some
/// Campion difference.
#[test]
fn minesweeper_and_campion_agree() {
    let c = load(FIGURE1_CISCO);
    let j = load(FIGURE1_JUNIPER);
    let report = compare_routers(&c, &j, &CampionOptions::default());
    let cexs = campion::minesweeper::enumerate_route_map_cexs_general(
        &c.policies["POL"],
        &j.policies["POL"],
        100,
    );
    assert!(!report.route_map_diffs.is_empty());
    assert!(!cexs.is_empty());
    // Each counterexample's prefix falls inside the included-minus-excluded
    // ranges of at least one Campion difference.
    for cex in &cexs {
        let covered = report.route_map_diffs.iter().any(|d| {
            d.included.iter().any(|r| r.member(&cex.advert.prefix))
                && !d.excluded.iter().any(|r| r.member(&cex.advert.prefix))
                || d.included.iter().any(|r| r.member(&cex.advert.prefix)) && d.example.is_some()
        });
        assert!(
            covered,
            "cex {} not covered by any Campion difference",
            cex.advert
        );
    }
}

#[test]
fn options_gate_each_check_independently() {
    let c = load(FIGURE1_CISCO);
    let j = load(FIGURE1_JUNIPER);
    let all_off = CampionOptions {
        check_structural: false,
        check_route_maps: false,
        check_acls: false,
        ..CampionOptions::default()
    };
    let report = compare_routers(&c, &j, &all_off);
    assert_eq!(report.total_differences(), 0);
}

/// A large filter reads the same in brace and `set` form. The set form
/// repeats every container path on every line, so this is also the input
/// that made a sibling scan per container lookup quadratic.
#[test]
fn set_style_rendering_of_a_large_filter_is_equivalent() {
    let (_, brace) = capirca_acl_pair(2500, 10, 0x5E7_2500);
    let set = common::display_set(&brace);
    assert!(
        set.lines().count() > 2 * 2500,
        "{} set lines",
        set.lines().count()
    );
    let (b, s) = (load(&brace), load(&set));
    assert_eq!(s.acls["ACL-GEN"].rules.len(), 2501);
    let report = compare_routers(&b, &s, &CampionOptions::default());
    assert!(report.is_equivalent(), "{report}");
}
