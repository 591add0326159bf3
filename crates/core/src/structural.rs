//! StructuralDiff (§3.3): exact structural comparison for components whose
//! modular behavioral equivalence coincides with structural equality —
//! static routes, connected routes, BGP neighbor properties, OSPF interface
//! attributes, and administrative distances.
//!
//! Localization is inherent: every finding points at the differing values
//! and their source spans directly.

use std::collections::BTreeMap;

use campion_cfg::Span;
use campion_ir::{RouterIr, StaticRouteIr};
use campion_net::Prefix;

use crate::report::{FindingSide, StructuralFinding};

/// Compare the static routes of two routers.
///
/// Routes are grouped by destination prefix; a difference is a prefix
/// configured in only one router, or configured in both with a different
/// attribute multiset (next hops, administrative distances, tags) — the
/// exact tuple comparison of §3.3.
pub fn diff_static_routes(r1: &RouterIr, r2: &RouterIr) -> Vec<StructuralFinding> {
    let mut out = Vec::new();
    let by_prefix = |r: &RouterIr| -> BTreeMap<Prefix, Vec<StaticRouteIr>> {
        let mut m: BTreeMap<Prefix, Vec<StaticRouteIr>> = BTreeMap::new();
        for s in &r.static_routes {
            m.entry(s.prefix).or_default().push(s.clone());
        }
        m
    };
    let m1 = by_prefix(r1);
    let m2 = by_prefix(r2);
    for (prefix, routes1) in &m1 {
        match m2.get(prefix) {
            None => out.push(missing_static(*prefix, routes1, FindingSide::OnlyFirst)),
            Some(routes2) => {
                // Compare attribute multisets, order-independent.
                let key = |r: &StaticRouteIr| (r.next_hop.clone(), r.admin_distance, r.tag);
                let mut k1: Vec<_> = routes1.iter().map(key).collect();
                let mut k2: Vec<_> = routes2.iter().map(key).collect();
                k1.sort();
                k2.sort();
                if k1 != k2 {
                    let span1 = routes1
                        .iter()
                        .map(|r| r.span)
                        .reduce(Span::merge)
                        .expect("nonempty");
                    let span2 = routes2
                        .iter()
                        .map(|r| r.span)
                        .reduce(Span::merge)
                        .expect("nonempty");
                    out.push(StructuralFinding {
                        component: "Static Routes".to_string(),
                        key: prefix.to_string(),
                        description: format!(
                            "static routes for {prefix} have different attributes"
                        ),
                        value1: routes1
                            .iter()
                            .map(describe_static)
                            .collect::<Vec<_>>()
                            .join("; "),
                        value2: routes2
                            .iter()
                            .map(describe_static)
                            .collect::<Vec<_>>()
                            .join("; "),
                        span1: Some(span1),
                        span2: Some(span2),
                        side: FindingSide::Both,
                    });
                }
            }
        }
    }
    for (prefix, routes2) in &m2 {
        if !m1.contains_key(prefix) {
            out.push(missing_static(*prefix, routes2, FindingSide::OnlySecond));
        }
    }
    out
}

fn describe_static(r: &StaticRouteIr) -> String {
    let mut s = format!("next-hop {}, AD {}", r.next_hop, r.admin_distance);
    if let Some(t) = r.tag {
        s.push_str(&format!(", tag {t}"));
    }
    s
}

fn missing_static(
    prefix: Prefix,
    routes: &[StaticRouteIr],
    side: FindingSide,
) -> StructuralFinding {
    let span = routes.iter().map(|r| r.span).reduce(Span::merge);
    let desc = routes
        .iter()
        .map(describe_static)
        .collect::<Vec<_>>()
        .join("; ");
    let (value1, value2, span1, span2) = match side {
        FindingSide::OnlyFirst => (desc, "None".to_string(), span, None),
        FindingSide::OnlySecond => ("None".to_string(), desc, None, span),
        FindingSide::Both => unreachable!("missing route is one-sided"),
    };
    StructuralFinding {
        component: "Static Routes".to_string(),
        key: prefix.to_string(),
        description: format!("static route for {prefix} present in only one router"),
        value1,
        value2,
        span1,
        span2,
        side,
    }
}

/// Compare connected routes: the subnet sets contributed by up interfaces.
pub fn diff_connected_routes(r1: &RouterIr, r2: &RouterIr) -> Vec<StructuralFinding> {
    let c1 = r1.connected_routes();
    let c2 = r2.connected_routes();
    let mut out = Vec::new();
    for p in c1.difference(&c2) {
        out.push(StructuralFinding {
            component: "Connected Routes".to_string(),
            key: p.to_string(),
            description: format!("connected subnet {p} present in only one router"),
            value1: p.to_string(),
            value2: "None".to_string(),
            span1: iface_span(r1, p),
            span2: None,
            side: FindingSide::OnlyFirst,
        });
    }
    for p in c2.difference(&c1) {
        out.push(StructuralFinding {
            component: "Connected Routes".to_string(),
            key: p.to_string(),
            description: format!("connected subnet {p} present in only one router"),
            value1: "None".to_string(),
            value2: p.to_string(),
            span1: None,
            span2: iface_span(r2, p),
            side: FindingSide::OnlySecond,
        });
    }
    out
}

fn iface_span(r: &RouterIr, p: &Prefix) -> Option<Span> {
    r.interfaces
        .values()
        .find(|i| i.connected_route().as_ref() == Some(p))
        .map(|i| i.span)
}

/// Compare BGP properties not implemented by route maps: neighbor presence,
/// remote AS, community propagation, route-reflector-client status,
/// next-hop-self, plus the process-level AS and configured distances.
pub fn diff_bgp_properties(r1: &RouterIr, r2: &RouterIr) -> Vec<StructuralFinding> {
    let mut out = Vec::new();
    match (&r1.bgp, &r2.bgp) {
        (None, None) => {}
        (Some(b), None) => out.push(StructuralFinding {
            component: "BGP Properties".to_string(),
            key: "process".to_string(),
            description: "BGP configured in only one router".to_string(),
            value1: format!("AS {}", b.asn),
            value2: "None".to_string(),
            span1: Some(b.span),
            span2: None,
            side: FindingSide::OnlyFirst,
        }),
        (None, Some(b)) => out.push(StructuralFinding {
            component: "BGP Properties".to_string(),
            key: "process".to_string(),
            description: "BGP configured in only one router".to_string(),
            value1: "None".to_string(),
            value2: format!("AS {}", b.asn),
            span1: None,
            span2: Some(b.span),
            side: FindingSide::OnlySecond,
        }),
        (Some(b1), Some(b2)) => {
            if b1.asn != b2.asn {
                out.push(StructuralFinding {
                    component: "BGP Properties".to_string(),
                    key: "local AS".to_string(),
                    description: "local AS numbers differ".to_string(),
                    value1: b1.asn.to_string(),
                    value2: b2.asn.to_string(),
                    span1: Some(b1.span),
                    span2: Some(b2.span),
                    side: FindingSide::Both,
                });
            }
            if b1.distance != b2.distance {
                out.push(StructuralFinding {
                    component: "Administrative Distances".to_string(),
                    key: "bgp".to_string(),
                    description: "configured BGP distances differ".to_string(),
                    value1: format!("{:?}", b1.distance),
                    value2: format!("{:?}", b2.distance),
                    span1: Some(b1.span),
                    span2: Some(b2.span),
                    side: FindingSide::Both,
                });
            }
            for (addr, n1) in &b1.neighbors {
                match b2.neighbors.get(addr) {
                    None => out.push(StructuralFinding {
                        component: "BGP Properties".to_string(),
                        key: addr.to_string(),
                        description: format!("neighbor {addr} present in only one router"),
                        value1: format!("remote-as {:?}", n1.remote_as),
                        value2: "None".to_string(),
                        span1: Some(n1.span),
                        span2: None,
                        side: FindingSide::OnlyFirst,
                    }),
                    Some(n2) => {
                        let checks: [(&str, String, String); 4] = [
                            (
                                "remote-as",
                                format!("{:?}", n1.remote_as),
                                format!("{:?}", n2.remote_as),
                            ),
                            (
                                "send-community",
                                n1.send_community.to_string(),
                                n2.send_community.to_string(),
                            ),
                            (
                                "route-reflector-client",
                                n1.route_reflector_client.to_string(),
                                n2.route_reflector_client.to_string(),
                            ),
                            (
                                "next-hop-self",
                                n1.next_hop_self.to_string(),
                                n2.next_hop_self.to_string(),
                            ),
                        ];
                        for (what, v1, v2) in checks {
                            if v1 != v2 {
                                out.push(StructuralFinding {
                                    component: "BGP Properties".to_string(),
                                    key: format!("{addr} {what}"),
                                    description: format!("neighbor {addr}: {what} differs"),
                                    value1: v1,
                                    value2: v2,
                                    span1: Some(n1.span),
                                    span2: Some(n2.span),
                                    side: FindingSide::Both,
                                });
                            }
                        }
                    }
                }
            }
            for (addr, n2) in &b2.neighbors {
                if !b1.neighbors.contains_key(addr) {
                    out.push(StructuralFinding {
                        component: "BGP Properties".to_string(),
                        key: addr.to_string(),
                        description: format!("neighbor {addr} present in only one router"),
                        value1: "None".to_string(),
                        value2: format!("remote-as {:?}", n2.remote_as),
                        span1: None,
                        span2: Some(n2.span),
                        side: FindingSide::OnlySecond,
                    });
                }
            }
        }
    }
    out
}

/// Compare OSPF interface attributes (cost, area, passive status).
///
/// Interfaces are paired by name first; leftovers are paired by equal
/// subnet, then by (area, mask length) — backup routers use different
/// addresses for interfaces in the same role (§4 of the paper).
pub fn diff_ospf(r1: &RouterIr, r2: &RouterIr) -> Vec<StructuralFinding> {
    let mut out = Vec::new();
    if r1.ospf_distance != r2.ospf_distance {
        out.push(StructuralFinding {
            component: "Administrative Distances".to_string(),
            key: "ospf".to_string(),
            description: "configured OSPF distances differ".to_string(),
            value1: format!("{:?}", r1.ospf_distance),
            value2: format!("{:?}", r2.ospf_distance),
            span1: None,
            span2: None,
            side: FindingSide::Both,
        });
    }
    let mut used2 = vec![false; r2.ospf_interfaces.len()];
    for o1 in &r1.ospf_interfaces {
        // Pairing heuristics, most to least specific.
        let candidate = r2
            .ospf_interfaces
            .iter()
            .enumerate()
            .filter(|(j, _)| !used2[*j])
            .find(|(_, o2)| o2.iface == o1.iface)
            .or_else(|| {
                r2.ospf_interfaces
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| !used2[*j])
                    .find(|(_, o2)| o1.subnet.is_some() && o2.subnet == o1.subnet)
            })
            .or_else(|| {
                r2.ospf_interfaces
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| !used2[*j])
                    .find(|(_, o2)| {
                        o2.area == o1.area
                            && o1.subnet.map(|s| s.len()) == o2.subnet.map(|s| s.len())
                    })
            });
        match candidate {
            None => out.push(StructuralFinding {
                component: "OSPF Properties".to_string(),
                key: o1.iface.clone(),
                description: format!("OSPF interface {} has no counterpart", o1.iface),
                value1: describe_ospf(o1),
                value2: "None".to_string(),
                span1: Some(o1.span),
                span2: None,
                side: FindingSide::OnlyFirst,
            }),
            Some((j, o2)) => {
                used2[j] = true;
                let checks: [(&str, String, String); 3] = [
                    ("area", o1.area.to_string(), o2.area.to_string()),
                    ("cost", format!("{:?}", o1.cost), format!("{:?}", o2.cost)),
                    ("passive", o1.passive.to_string(), o2.passive.to_string()),
                ];
                for (what, v1, v2) in checks {
                    if v1 != v2 {
                        out.push(StructuralFinding {
                            component: "OSPF Properties".to_string(),
                            key: format!("{} / {} {what}", o1.iface, o2.iface),
                            description: format!(
                                "OSPF {what} differs on {} vs {}",
                                o1.iface, o2.iface
                            ),
                            value1: v1,
                            value2: v2,
                            span1: Some(o1.span),
                            span2: Some(o2.span),
                            side: FindingSide::Both,
                        });
                    }
                }
            }
        }
    }
    for (j, o2) in r2.ospf_interfaces.iter().enumerate() {
        if !used2[j] {
            out.push(StructuralFinding {
                component: "OSPF Properties".to_string(),
                key: o2.iface.clone(),
                description: format!("OSPF interface {} has no counterpart", o2.iface),
                value1: "None".to_string(),
                value2: describe_ospf(o2),
                span1: None,
                span2: Some(o2.span),
                side: FindingSide::OnlySecond,
            });
        }
    }
    out
}

fn describe_ospf(o: &campion_ir::OspfIfaceIr) -> String {
    let mut s = format!("area {}", o.area);
    if let Some(c) = o.cost {
        s.push_str(&format!(", cost {c}"));
    }
    if o.passive {
        s.push_str(", passive");
    }
    if let Some(net) = o.subnet {
        s.push_str(&format!(", subnet {net}"));
    }
    s
}
