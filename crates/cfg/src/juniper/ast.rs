//! The Juniper JunOS abstract syntax tree (typed view).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use campion_net::{Community, IpProtocol, PortRange, Prefix};

use crate::span::{SourceText, Span};

/// A `policy-options prefix-list NAME { ... }` definition. Juniper prefix
/// lists match **exact** prefixes unless qualified at the use site
/// (`prefix-list-filter NAME orlonger`); this exact-match default versus
/// Cisco's `le 32` style is the first bug of the paper's Figure 1.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JuniperPrefixList {
    /// The listed prefixes, in order, each with its own line.
    pub prefixes: Vec<(Prefix, Span)>,
    /// Span of the whole definition.
    pub span: Span,
}

/// A `policy-options community NAME ...` definition.
///
/// `members [ 10:10 10:11 ]` requires a route to carry **all** listed
/// communities — the "all vs any" semantics gap behind Figure 1's second
/// bug. A member containing regex metacharacters makes this a regex match
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JuniperCommunity {
    /// Literal members (conjunctive), when all members are literal.
    pub members: Vec<Community>,
    /// Regex members (Juniper treats each as a pattern over the set).
    pub regexes: Vec<String>,
    /// Span of the definition.
    pub span: Span,
}

/// Match qualifier for `route-filter` and `prefix-list-filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteFilterModifier {
    /// `exact`: only the prefix itself.
    Exact,
    /// `orlonger`: the prefix and all more-specifics.
    OrLonger,
    /// `longer`: strictly more-specific prefixes.
    Longer,
    /// `upto /N`: lengths from the prefix's own up to `N`.
    Upto(u8),
    /// `prefix-length-range /A-/B`.
    PrefixLengthRange(u8, u8),
}

/// One `from` condition inside a policy term. Conditions of different kinds
/// are conjunctive; multiple route filters are disjunctive (JunOS semantics,
/// mirroring Cisco route maps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromClause {
    /// `from prefix-list NAME;` — exact-match against the list.
    PrefixList(String),
    /// `from prefix-list-filter NAME MODIFIER;`.
    PrefixListFilter(String, RouteFilterModifier),
    /// `from route-filter P MODIFIER;`.
    RouteFilter(Prefix, RouteFilterModifier),
    /// `from community NAME;` (or `[ N1 N2 ]`, disjunctive).
    Community(Vec<String>),
    /// `from protocol NAME;` (bgp, ospf, static, direct...).
    Protocol(Vec<String>),
    /// `from tag N;`.
    Tag(u32),
    /// `from metric N;`.
    Metric(u32),
}

/// One `then` action inside a policy term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThenClause {
    /// `then accept;` — terminal.
    Accept,
    /// `then reject;` — terminal.
    Reject,
    /// `then next term;`.
    NextTerm,
    /// `then next policy;`.
    NextPolicy,
    /// `then local-preference N;`.
    LocalPreference(u32),
    /// `then metric N;`.
    Metric(u32),
    /// `then community add NAME;`.
    CommunityAdd(String),
    /// `then community set NAME;`.
    CommunitySet(String),
    /// `then community delete NAME;`.
    CommunityDelete(String),
    /// `then next-hop A.B.C.D;` (`self` is represented as `None`).
    NextHop(Option<Ipv4Addr>),
    /// `then tag N;`.
    Tag(u32),
}

/// One `term NAME { from ...; then ...; }` inside a policy statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyTerm {
    /// Term name (synthesized `__anonymous` for unnamed terms).
    pub name: String,
    /// Conjunction of from-conditions (empty = match everything).
    pub from: Vec<FromClause>,
    /// Actions in order.
    pub then: Vec<ThenClause>,
    /// Source span of the term.
    pub span: Span,
}

/// A `policy-options policy-statement NAME { term...; }`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyStatement {
    /// Terms in order, first terminal match wins.
    pub terms: Vec<PolicyTerm>,
    /// Span of the whole statement.
    pub span: Span,
}

/// The `from` side of a firewall-filter term (conditions are conjunctive;
/// values within one condition are disjunctive).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FilterFrom {
    /// `source-address` prefixes.
    pub src_addrs: Vec<Prefix>,
    /// `destination-address` prefixes.
    pub dst_addrs: Vec<Prefix>,
    /// `protocol` selectors.
    pub protocols: Vec<IpProtocol>,
    /// `source-port` ranges.
    pub src_ports: Vec<PortRange>,
    /// `destination-port` ranges.
    pub dst_ports: Vec<PortRange>,
}

/// Terminal action of a firewall-filter term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// `then accept;`
    Accept,
    /// `then discard;` / `then reject;`
    Discard,
}

/// One `term NAME { from {...} then ...; }` of a firewall filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterTerm {
    /// Term name.
    pub name: String,
    /// Match conditions.
    pub from: FilterFrom,
    /// Action (defaults to accept when only counters are configured).
    pub action: FilterAction,
    /// Source span.
    pub span: Span,
}

/// A `firewall family inet filter NAME` definition. Implicit final discard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FirewallFilter {
    /// Terms in order.
    pub terms: Vec<FilterTerm>,
    /// Span of the filter.
    pub span: Span,
}

/// A `routing-options static route ...` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JuniperStaticRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Next-hop address (`None` for discard/reject routes).
    pub next_hop: Option<Ipv4Addr>,
    /// `preference` — JunOS's administrative distance (default 5).
    pub preference: u8,
    /// `tag`.
    pub tag: Option<u32>,
    /// Whether this is a `discard`/`reject` route.
    pub discard: bool,
    /// Source span.
    pub span: Span,
}

/// One BGP neighbor inside a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JuniperBgpNeighbor {
    /// Neighbor address.
    pub addr: Ipv4Addr,
    /// `peer-as`.
    pub peer_as: Option<u32>,
    /// Neighbor-level `import` policy chain (overrides the group's).
    pub import: Vec<String>,
    /// Neighbor-level `export` policy chain (overrides the group's).
    pub export: Vec<String>,
    /// Source span.
    pub span: Span,
}

/// A `protocols bgp group NAME { ... }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JuniperBgpGroup {
    /// `type internal|external`.
    pub internal: bool,
    /// `cluster ID` — makes neighbors route-reflector clients.
    pub cluster: Option<Ipv4Addr>,
    /// Group-level import chain.
    pub import: Vec<String>,
    /// Group-level export chain.
    pub export: Vec<String>,
    /// `peer-as` at group level.
    pub peer_as: Option<u32>,
    /// Neighbors by address.
    pub neighbors: BTreeMap<Ipv4Addr, JuniperBgpNeighbor>,
    /// Source span.
    pub span: Span,
}

/// The `protocols bgp` stanza.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JuniperBgp {
    /// Local AS (`routing-options autonomous-system`).
    pub local_as: Option<u32>,
    /// Groups by name.
    pub groups: BTreeMap<String, JuniperBgpGroup>,
    /// Span of the bgp stanza.
    pub span: Span,
}

impl JuniperBgp {
    /// All neighbors across groups.
    pub fn neighbors(
        &self,
    ) -> impl Iterator<Item = (&String, &JuniperBgpGroup, &JuniperBgpNeighbor)> {
        self.groups
            .iter()
            .flat_map(|(name, g)| g.neighbors.values().map(move |n| (name, g, n)))
    }
}

/// One OSPF interface inside an area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JuniperOspfInterface {
    /// Interface name (`ge-0/0/0.0`).
    pub name: String,
    /// `metric N`.
    pub metric: Option<u32>,
    /// `passive;`.
    pub passive: bool,
    /// Source span.
    pub span: Span,
}

/// The `protocols ospf` stanza.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JuniperOspf {
    /// `reference-bandwidth` in bps.
    pub reference_bandwidth: Option<u64>,
    /// Export policy chain (route redistribution into OSPF).
    pub export: Vec<String>,
    /// Interfaces per area id.
    pub areas: BTreeMap<u32, Vec<JuniperOspfInterface>>,
    /// Span.
    pub span: Span,
}

/// A logical interface unit with its inet configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JuniperUnit {
    /// Unit number.
    pub unit: u32,
    /// `family inet address P` (address with prefix length).
    pub address: Option<(Ipv4Addr, Prefix)>,
    /// `family inet filter input NAME`.
    pub filter_in: Option<String>,
    /// `family inet filter output NAME`.
    pub filter_out: Option<String>,
    /// Span of the unit stanza.
    pub span: Span,
}

/// A physical interface and its units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JuniperInterface {
    /// Interface name (`ge-0/0/1`).
    pub name: String,
    /// `disable;` present.
    pub disabled: bool,
    /// Description.
    pub description: Option<String>,
    /// Units by number.
    pub units: BTreeMap<u32, JuniperUnit>,
    /// Span of the whole stanza.
    pub span: Span,
}

/// A parsed Juniper JunOS configuration.
#[derive(Debug, Clone)]
pub struct JuniperConfig {
    /// `system host-name`.
    pub hostname: String,
    /// Prefix lists by name.
    pub prefix_lists: BTreeMap<String, JuniperPrefixList>,
    /// Community definitions by name.
    pub communities: BTreeMap<String, JuniperCommunity>,
    /// Policy statements by name.
    pub policies: BTreeMap<String, PolicyStatement>,
    /// Firewall filters (family inet) by name.
    pub filters: BTreeMap<String, FirewallFilter>,
    /// Static routes in order.
    pub static_routes: Vec<JuniperStaticRoute>,
    /// Local AS number.
    pub autonomous_system: Option<u32>,
    /// Router id (`routing-options router-id`).
    pub router_id: Option<Ipv4Addr>,
    /// BGP configuration.
    pub bgp: Option<JuniperBgp>,
    /// OSPF configuration.
    pub ospf: Option<JuniperOspf>,
    /// Interfaces by name.
    pub interfaces: BTreeMap<String, JuniperInterface>,
    /// The original text, for snippet extraction.
    pub source: SourceText,
}

impl JuniperConfig {
    /// Quote the configuration text for a span (text localization).
    pub fn snippet(&self, span: Span) -> String {
        self.source.snippet_dedented(span)
    }
}
