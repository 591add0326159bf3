//! The BGP instantiation: route advertisements transformed by export and
//! import policies, selected by the standard decision process.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use campion_ir::{RouteAdvert, RouterIr};
use campion_net::Prefix;

/// A BGP route as held in a router's Adj-RIB-In / Loc-RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpRoute {
    /// The transformed advertisement (prefix, communities, local-pref,
    /// MED, tag...).
    pub advert: RouteAdvert,
    /// AS-path length accumulated so far (hop count across eBGP edges).
    pub as_path_len: u32,
    /// Whether the route was learned over eBGP.
    pub ebgp: bool,
    /// The neighbor it was learned from.
    pub learned_from: Ipv4Addr,
}

impl BgpRoute {
    /// An originated route (empty AS path, default attributes).
    pub fn originate(prefix: Prefix) -> Self {
        BgpRoute {
            advert: RouteAdvert::bgp(prefix),
            as_path_len: 0,
            ebgp: false,
            learned_from: Ipv4Addr::UNSPECIFIED,
        }
    }

    /// The standard BGP decision process, returning `Ordering::Greater`
    /// when `self` is preferred over `other`:
    /// highest weight → highest local-pref → shortest AS path → lowest MED
    /// → eBGP over iBGP → lowest neighbor address.
    pub fn compare(&self, other: &BgpRoute) -> Ordering {
        self.advert
            .weight
            .cmp(&other.advert.weight)
            .then(self.advert.local_pref.cmp(&other.advert.local_pref))
            .then(other.as_path_len.cmp(&self.as_path_len))
            .then(other.advert.metric.cmp(&self.advert.metric))
            .then(self.ebgp.cmp(&other.ebgp))
            .then(other.learned_from.cmp(&self.learned_from))
    }

    /// Is `self` strictly preferred?
    pub fn preferred_over(&self, other: &BgpRoute) -> bool {
        self.compare(other) == Ordering::Greater
    }
}

/// Apply a router's export processing toward `neighbor`: export policy,
/// community stripping when `send-community` is off, AS-path extension on
/// eBGP edges.
pub fn export(router: &RouterIr, neighbor: Ipv4Addr, route: &BgpRoute) -> Option<BgpRoute> {
    let bgp = router.bgp.as_ref()?;
    let ncfg = bgp.neighbors.get(&neighbor)?;
    let ebgp_edge = ncfg.remote_as.is_some() && ncfg.remote_as != Some(bgp.asn);
    // iBGP split horizon: a route learned from an iBGP peer is only
    // propagated to other iBGP peers when this router reflects (the
    // neighbor or the source is a route-reflector client).
    if !route.ebgp && !ebgp_edge && route.learned_from != Ipv4Addr::UNSPECIFIED {
        let source_is_client = bgp
            .neighbors
            .get(&route.learned_from)
            .is_some_and(|n| n.route_reflector_client);
        if !source_is_client && !ncfg.route_reflector_client {
            return None;
        }
    }
    let policy = match &ncfg.export_policy {
        Some(name) => router.policy_or_permit(name),
        None => campion_ir::RoutePolicy::permit_all("(no export policy)"),
    };
    let verdict = policy.evaluate(&route.advert);
    if !verdict.accept {
        return None;
    }
    let mut advert = verdict.route;
    if !ncfg.send_community {
        advert.communities.clear();
    }
    // Weight is router-local and never propagates.
    advert.weight = 0;
    // MED propagates to eBGP neighbors as set; local-pref only crosses iBGP.
    if ebgp_edge {
        advert.local_pref = 100;
    }
    Some(BgpRoute {
        advert,
        as_path_len: route.as_path_len + u32::from(ebgp_edge),
        ebgp: ebgp_edge,
        learned_from: Ipv4Addr::UNSPECIFIED, // filled at the receiver
    })
}

/// Apply the receiving router's import processing from `neighbor`.
pub fn import(router: &RouterIr, neighbor: Ipv4Addr, mut route: BgpRoute) -> Option<BgpRoute> {
    let bgp = router.bgp.as_ref()?;
    let ncfg = bgp.neighbors.get(&neighbor)?;
    let policy = match &ncfg.import_policy {
        Some(name) => router.policy_or_permit(name),
        None => campion_ir::RoutePolicy::permit_all("(no import policy)"),
    };
    let verdict = policy.evaluate(&route.advert);
    if !verdict.accept {
        return None;
    }
    route.advert = verdict.route;
    route.learned_from = neighbor;
    Some(route)
}

/// Pick the best route per prefix from a set of candidates.
pub fn best_routes(candidates: &[BgpRoute]) -> BTreeMap<Prefix, BgpRoute> {
    let mut best: BTreeMap<Prefix, BgpRoute> = BTreeMap::new();
    for c in candidates {
        match best.get(&c.advert.prefix) {
            Some(cur) if !c.preferred_over(cur) => {}
            _ => {
                best.insert(c.advert.prefix, c.clone());
            }
        }
    }
    best
}
