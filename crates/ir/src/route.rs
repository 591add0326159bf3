//! Concrete route advertisements — the inputs route policies transform.

use std::collections::BTreeSet;
use std::fmt;

use campion_net::{Community, Prefix};

/// The protocol a route was learned from (used by `from protocol` matches
/// and by the RIB's admin-distance comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteProtocol {
    /// Locally connected subnet.
    Connected,
    /// Static route.
    Static,
    /// OSPF-internal route.
    Ospf,
    /// BGP route (external or internal).
    Bgp,
    /// Aggregate/generated route.
    Aggregate,
}

impl RouteProtocol {
    /// Parse a vendor protocol keyword (`direct` is JunOS for connected).
    pub fn from_keyword(kw: &str) -> Option<Self> {
        match kw {
            "connected" | "direct" => Some(RouteProtocol::Connected),
            "static" => Some(RouteProtocol::Static),
            "ospf" => Some(RouteProtocol::Ospf),
            "bgp" => Some(RouteProtocol::Bgp),
            "aggregate" => Some(RouteProtocol::Aggregate),
            _ => None,
        }
    }
}

impl fmt::Display for RouteProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteProtocol::Connected => "connected",
            RouteProtocol::Static => "static",
            RouteProtocol::Ospf => "ospf",
            RouteProtocol::Bgp => "bgp",
            RouteProtocol::Aggregate => "aggregate",
        };
        write!(f, "{s}")
    }
}

/// A concrete BGP route advertisement, carrying the attributes the analyzed
/// policies can match on or rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAdvert {
    /// The advertised prefix.
    pub prefix: Prefix,
    /// Attached communities.
    pub communities: BTreeSet<Community>,
    /// LOCAL_PREF (default 100).
    pub local_pref: u32,
    /// MED / metric.
    pub metric: u32,
    /// Route tag.
    pub tag: u32,
    /// Where the route came from.
    pub protocol: RouteProtocol,
    /// Next hop, when set by policy.
    pub next_hop: Option<std::net::Ipv4Addr>,
    /// Cisco-only weight.
    pub weight: u32,
}

impl RouteAdvert {
    /// A BGP advertisement for `prefix` with default attributes.
    pub fn bgp(prefix: Prefix) -> Self {
        RouteAdvert {
            prefix,
            communities: BTreeSet::new(),
            local_pref: 100,
            metric: 0,
            tag: 0,
            protocol: RouteProtocol::Bgp,
            next_hop: None,
            weight: 0,
        }
    }

    /// Builder: attach communities.
    pub fn with_communities<I: IntoIterator<Item = Community>>(mut self, cs: I) -> Self {
        self.communities.extend(cs);
        self
    }

    /// Builder: set the source protocol.
    pub fn with_protocol(mut self, p: RouteProtocol) -> Self {
        self.protocol = p;
        self
    }

    /// Does the advertisement carry community `c`?
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.contains(&c)
    }
}

impl fmt::Display for RouteAdvert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.prefix, self.protocol)?;
        if !self.communities.is_empty() {
            let cs: Vec<String> = self.communities.iter().map(|c| c.to_string()).collect();
            write!(f, " comms={}", cs.join(","))?;
        }
        write!(
            f,
            " lp={} med={} tag={}",
            self.local_pref, self.metric, self.tag
        )
    }
}
