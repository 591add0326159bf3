//! Vendor-independent route policies (route maps / policy statements) and
//! their concrete evaluation semantics.
//!
//! A [`RoutePolicy`] is an ordered list of [`Clause`]s: each clause is a
//! conjunction of [`Match`] conditions guarding a list of [`SetAction`]s and
//! a [`Terminal`] disposition. Evaluation walks clauses in order; the first
//! clause whose matches all hold fires. A firing clause applies its sets and
//! then either terminates (`Accept`/`Reject`) or falls through to the next
//! clause (`Fallthrough`, covering JunOS non-terminating terms, `next term`,
//! and Cisco `continue`). When no clause terminates, the policy's
//! `default_terminal` applies — implicit deny on Cisco, default-accept for
//! BGP routes on Juniper.

use std::fmt;

use campion_cfg::Span;
use campion_net::regex::Regex;
use campion_net::{Community, Prefix, PrefixRange};

use crate::route::{RouteAdvert, RouteProtocol};

/// One entry of a prefix matcher: an action applied to a prefix range.
/// First-match-wins over the entry list, implicit deny at the end — the
/// shared shape of Cisco prefix lists and JunOS route-filter groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixMatcherEntry {
    /// `true` = permit, `false` = deny.
    pub permit: bool,
    /// The matched range.
    pub range: PrefixRange,
    /// The vendor line this entry came from.
    pub span: Span,
}

/// A prefix-set matcher: ordered permit/deny ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrefixMatcher {
    /// Entries in match order.
    pub entries: Vec<PrefixMatcherEntry>,
    /// Name of the originating list, for reports (empty for inline filters).
    pub name: String,
}

impl PrefixMatcher {
    /// Does the matcher accept `p`?
    pub fn matches(&self, p: &Prefix) -> bool {
        for e in &self.entries {
            if e.range.member(p) {
                return e.permit;
            }
        }
        false
    }

    /// Every range mentioned (for `HeaderLocalize`'s range universe).
    pub fn ranges(&self) -> impl Iterator<Item = PrefixRange> + '_ {
        self.entries.iter().map(|e| e.range)
    }
}

/// One community atom: a literal community or a regex over community
/// strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommAtom {
    /// An exact community value.
    Literal(Community),
    /// A regex pattern (validated at lowering time).
    Regex(String),
}

impl CommAtom {
    /// Does the atom hold for an advertisement carrying `communities`?
    /// Literals require presence; regexes require *some* community to match.
    pub fn holds(&self, advert: &RouteAdvert) -> bool {
        match self {
            CommAtom::Literal(c) => advert.has_community(*c),
            CommAtom::Regex(pat) => {
                let re = Regex::new(pat).expect("validated at lowering");
                advert
                    .communities
                    .iter()
                    .any(|c| re.is_match(&c.to_string()))
            }
        }
    }
}

impl fmt::Display for CommAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommAtom::Literal(c) => write!(f, "{c}"),
            CommAtom::Regex(r) => write!(f, "/{r}/"),
        }
    }
}

/// Which vendor matching discipline a community matcher uses — the
/// "any of the lines" versus "all of the members" split at the heart of
/// Figure 1's second bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunityDialect {
    /// Cisco community-list: ordered `(permit, conjunction-of-atoms)`
    /// entries, first match wins, implicit deny. With the common
    /// one-community-per-line style this is an *any* semantics.
    CiscoList(Vec<(bool, Vec<CommAtom>, Span)>),
    /// Juniper `community NAME members [...]`: a single conjunction — the
    /// route must satisfy **all** atoms.
    JunosMembers(Vec<CommAtom>),
}

/// A named community matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunityMatcher {
    /// Name of the community list / definition.
    pub name: String,
    /// Matching discipline.
    pub dialect: CommunityDialect,
    /// Definition site.
    pub span: Span,
}

impl CommunityMatcher {
    /// Does the matcher accept the advertisement?
    pub fn matches(&self, advert: &RouteAdvert) -> bool {
        match &self.dialect {
            CommunityDialect::CiscoList(entries) => {
                for (permit, atoms, _) in entries {
                    if atoms.iter().all(|a| a.holds(advert)) {
                        return *permit;
                    }
                }
                false
            }
            CommunityDialect::JunosMembers(atoms) => atoms.iter().all(|a| a.holds(advert)),
        }
    }

    /// All atoms mentioned (for the symbolic layer's atom universe).
    pub fn atoms(&self) -> Vec<&CommAtom> {
        match &self.dialect {
            CommunityDialect::CiscoList(entries) => {
                entries.iter().flat_map(|(_, a, _)| a.iter()).collect()
            }
            CommunityDialect::JunosMembers(atoms) => atoms.iter().collect(),
        }
    }
}

/// One match condition of a clause. Conditions are conjunctive within a
/// clause; the `Vec` payloads are disjunctive (vendor semantics for
/// multiple names/values on one line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Match {
    /// Prefix must be accepted by at least one matcher.
    Prefix(Vec<PrefixMatcher>),
    /// At least one community matcher must accept.
    Community(Vec<CommunityMatcher>),
    /// Route tag equals.
    Tag(u32),
    /// Metric equals.
    Metric(u32),
    /// Source protocol is one of.
    Protocol(Vec<RouteProtocol>),
}

impl Match {
    /// Does the condition hold for the advertisement?
    pub fn holds(&self, advert: &RouteAdvert) -> bool {
        match self {
            Match::Prefix(ms) => ms.iter().any(|m| m.matches(&advert.prefix)),
            Match::Community(ms) => ms.iter().any(|m| m.matches(advert)),
            Match::Tag(t) => advert.tag == *t,
            Match::Metric(m) => advert.metric == *m,
            Match::Protocol(ps) => ps.contains(&advert.protocol),
        }
    }
}

/// An attribute rewrite applied by a firing clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SetAction {
    /// Set LOCAL_PREF.
    LocalPref(u32),
    /// Set MED/metric.
    Metric(u32),
    /// Replace the community set.
    CommunitySet(Vec<Community>),
    /// Add communities.
    CommunityAdd(Vec<Community>),
    /// Delete communities matching any atom.
    CommunityDelete(Vec<CommAtom>),
    /// Set the next hop (`None` = self).
    NextHop(Option<std::net::Ipv4Addr>),
    /// Set the tag.
    Tag(u32),
    /// Set Cisco weight.
    Weight(u32),
}

impl SetAction {
    /// Apply the rewrite to an advertisement.
    pub fn apply(&self, advert: &mut RouteAdvert) {
        match self {
            SetAction::LocalPref(v) => advert.local_pref = *v,
            SetAction::Metric(v) => advert.metric = *v,
            SetAction::CommunitySet(cs) => {
                advert.communities = cs.iter().copied().collect();
            }
            SetAction::CommunityAdd(cs) => {
                advert.communities.extend(cs.iter().copied());
            }
            SetAction::CommunityDelete(atoms) => {
                let res: Vec<Regex> = atoms
                    .iter()
                    .filter_map(|a| match a {
                        CommAtom::Regex(p) => Some(Regex::new(p).expect("validated")),
                        CommAtom::Literal(_) => None,
                    })
                    .collect();
                advert.communities.retain(|c| {
                    let s = c.to_string();
                    let lit = atoms.contains(&CommAtom::Literal(*c));
                    let rex = res.iter().any(|r| r.is_match(&s));
                    !(lit || rex)
                });
            }
            SetAction::NextHop(nh) => advert.next_hop = *nh,
            SetAction::Tag(v) => advert.tag = *v,
            SetAction::Weight(v) => advert.weight = *v,
        }
    }
}

impl fmt::Display for SetAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetAction::LocalPref(v) => write!(f, "SET LOCAL PREF {v}"),
            SetAction::Metric(v) => write!(f, "SET METRIC {v}"),
            SetAction::CommunitySet(cs) => {
                let s: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                write!(f, "SET COMMUNITY {}", s.join(" "))
            }
            SetAction::CommunityAdd(cs) => {
                let s: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                write!(f, "ADD COMMUNITY {}", s.join(" "))
            }
            SetAction::CommunityDelete(atoms) => {
                let s: Vec<String> = atoms.iter().map(|a| a.to_string()).collect();
                write!(f, "DELETE COMMUNITY {}", s.join(" "))
            }
            SetAction::NextHop(Some(ip)) => write!(f, "SET NEXT-HOP {ip}"),
            SetAction::NextHop(None) => write!(f, "SET NEXT-HOP SELF"),
            SetAction::Tag(v) => write!(f, "SET TAG {v}"),
            SetAction::Weight(v) => write!(f, "SET WEIGHT {v}"),
        }
    }
}

/// How a firing clause disposes of the route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminal {
    /// Accept the route (with all accumulated sets applied).
    Accept,
    /// Reject the route.
    Reject,
    /// Fall through to the next clause, keeping accumulated sets.
    Fallthrough,
}

/// One clause of a route policy (a Cisco route-map entry or Juniper term).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Display label: `"deny 10"`, `"term rule1"`, ...
    pub label: String,
    /// Conjunction of conditions (empty = match all).
    pub matches: Vec<Match>,
    /// Rewrites applied when the clause fires.
    pub sets: Vec<SetAction>,
    /// Disposition when the clause fires.
    pub terminal: Terminal,
    /// Source lines of the clause.
    pub span: Span,
}

impl Clause {
    /// Do all conditions hold?
    pub fn matches_advert(&self, advert: &RouteAdvert) -> bool {
        self.matches.iter().all(|m| m.holds(advert))
    }
}

/// The result of evaluating a policy on a concrete advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyVerdict {
    /// Whether the route was accepted.
    pub accept: bool,
    /// The transformed advertisement (meaningful when accepted).
    pub route: RouteAdvert,
    /// Indices of clauses that fired, in order; `None` entries never appear —
    /// the final implicit default is represented by `default_fired`.
    pub fired: Vec<usize>,
    /// Whether the policy's default terminal decided the verdict.
    pub default_fired: bool,
}

/// A vendor-independent route policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePolicy {
    /// Policy name.
    pub name: String,
    /// Clauses in evaluation order.
    pub clauses: Vec<Clause>,
    /// Disposition when no clause terminates (never `Fallthrough`).
    pub default_terminal: Terminal,
    /// Span of the whole definition.
    pub span: Span,
}

impl RoutePolicy {
    /// A policy that accepts everything unchanged (used for unset
    /// import/export hooks).
    pub fn permit_all(name: impl Into<String>) -> Self {
        RoutePolicy {
            name: name.into(),
            clauses: Vec::new(),
            default_terminal: Terminal::Accept,
            span: Span::default(),
        }
    }

    /// Evaluate the policy on an advertisement.
    pub fn evaluate(&self, advert: &RouteAdvert) -> PolicyVerdict {
        let mut route = advert.clone();
        let mut fired = Vec::new();
        for (i, clause) in self.clauses.iter().enumerate() {
            if clause.matches_advert(&route) {
                fired.push(i);
                for s in &clause.sets {
                    s.apply(&mut route);
                }
                match clause.terminal {
                    Terminal::Accept => {
                        return PolicyVerdict {
                            accept: true,
                            route,
                            fired,
                            default_fired: false,
                        }
                    }
                    Terminal::Reject => {
                        return PolicyVerdict {
                            accept: false,
                            route,
                            fired,
                            default_fired: false,
                        }
                    }
                    Terminal::Fallthrough => {}
                }
            }
        }
        PolicyVerdict {
            accept: self.default_terminal == Terminal::Accept,
            route,
            fired,
            default_fired: true,
        }
    }

    /// Concatenate a chain of policies (JunOS `import [A B]` semantics):
    /// clauses run in order across policies; the last policy's default
    /// terminal is the chain's default.
    pub fn chain(name: impl Into<String>, policies: &[&RoutePolicy]) -> Self {
        let mut clauses = Vec::new();
        let mut span: Option<Span> = None;
        for p in policies {
            clauses.extend(p.clauses.iter().cloned());
            span = Some(match span {
                Some(s) => s.merge(p.span),
                None => p.span,
            });
        }
        RoutePolicy {
            name: name.into(),
            clauses,
            default_terminal: policies
                .last()
                .map(|p| p.default_terminal)
                .unwrap_or(Terminal::Accept),
            span: span.unwrap_or_default(),
        }
    }

    /// Every prefix range mentioned anywhere in the policy.
    pub fn prefix_ranges(&self) -> Vec<PrefixRange> {
        let mut out = Vec::new();
        for c in &self.clauses {
            for m in &c.matches {
                if let Match::Prefix(ms) = m {
                    for pm in ms {
                        out.extend(pm.ranges());
                    }
                }
            }
        }
        out
    }

    /// Every community atom mentioned anywhere in the policy (matches and
    /// set/delete actions).
    pub fn community_atoms(&self) -> Vec<CommAtom> {
        let mut out = Vec::new();
        for c in &self.clauses {
            for m in &c.matches {
                if let Match::Community(ms) = m {
                    for cm in ms {
                        out.extend(cm.atoms().into_iter().cloned());
                    }
                }
            }
            for s in &c.sets {
                match s {
                    SetAction::CommunitySet(cs) | SetAction::CommunityAdd(cs) => {
                        out.extend(cs.iter().map(|c| CommAtom::Literal(*c)));
                    }
                    SetAction::CommunityDelete(atoms) => out.extend(atoms.iter().cloned()),
                    _ => {}
                }
            }
        }
        out
    }
}
