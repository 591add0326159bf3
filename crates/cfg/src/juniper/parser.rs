//! Extraction of the typed Juniper AST from the generic statement tree.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use campion_net::{service_port, Community, IpProtocol, PortRange, Prefix};

use super::ast::*;
use super::setstyle::parse_set_style;
use super::tree::{parse_tree, Stmt, Tree};
use crate::error::ParseError;
use crate::span::{SourceText, Span};

/// Parse a Juniper JunOS configuration in the hierarchical brace form.
pub fn parse_juniper(text: &str) -> Result<JuniperConfig, ParseError> {
    extract(text, parse_tree)
}

/// Parse a Juniper JunOS configuration in the `set`-style flattened form
/// (`| display set` output).
pub(crate) fn parse_juniper_set(text: &str) -> Result<JuniperConfig, ParseError> {
    extract(text, parse_set_style)
}

/// Build the statement tree of `text` with `build`, then extract the
/// typed AST from it.
fn extract<'a>(
    text: &'a str,
    build: fn(&'a str) -> Result<Tree<'a>, ParseError>,
) -> Result<JuniperConfig, ParseError> {
    let tree = {
        campion_trace::span!("cfg.tree");
        build(text)?
    };
    let mut cfg = JuniperConfig {
        hostname: String::new(),
        prefix_lists: BTreeMap::new(),
        communities: BTreeMap::new(),
        policies: BTreeMap::new(),
        filters: BTreeMap::new(),
        static_routes: Vec::new(),
        autonomous_system: None,
        router_id: None,
        bgp: None,
        ospf: None,
        interfaces: BTreeMap::new(),
        source: SourceText::new(text),
    };
    for stmt in tree.roots() {
        match stmt.keyword() {
            Some("system") => {
                if let Some(hn) = stmt.find("host-name") {
                    cfg.hostname = hn.args().first().copied().unwrap_or_default().to_string();
                }
            }
            Some("policy-options") => extract_policy_options(stmt, &mut cfg)?,
            Some("firewall") => extract_firewall(stmt, &mut cfg)?,
            Some("routing-options") => extract_routing_options(stmt, &mut cfg)?,
            Some("protocols") => extract_protocols(stmt, &mut cfg)?,
            Some("interfaces") => extract_interfaces(stmt, &mut cfg)?,
            _ => {} // unmodeled top-level stanza
        }
    }
    Ok(cfg)
}

fn err(stmt: Stmt<'_>, msg: impl Into<String>) -> ParseError {
    ParseError::at(stmt.span().start, msg.into())
}

fn parse_prefix(tok: &str, stmt: Stmt<'_>) -> Result<Prefix, ParseError> {
    tok.parse()
        .map_err(|e: campion_net::ParseNetError| err(stmt, e.message))
}

fn parse_ip(tok: &str, stmt: Stmt<'_>) -> Result<Ipv4Addr, ParseError> {
    tok.parse()
        .map_err(|_| err(stmt, format!("bad IPv4 address {tok:?}")))
}

fn parse_u32(tok: &str, stmt: Stmt<'_>, what: &str) -> Result<u32, ParseError> {
    tok.parse()
        .map_err(|_| err(stmt, format!("bad {what}: {tok:?}")))
}

fn extract_policy_options(po: Stmt<'_>, cfg: &mut JuniperConfig) -> Result<(), ParseError> {
    for child in po.children() {
        match child.keyword() {
            Some("prefix-list") => {
                let name = child
                    .args()
                    .first()
                    .ok_or_else(|| err(child, "prefix-list missing name"))?
                    .to_string();
                let mut pl = JuniperPrefixList {
                    prefixes: Vec::new(),
                    span: child.span(),
                };
                // Children are bare prefixes: `10.9.0.0/16;`
                for p in child.children() {
                    let tok = p
                        .keyword()
                        .ok_or_else(|| err(p, "empty prefix-list entry"))?;
                    pl.prefixes.push((parse_prefix(tok, p)?, p.span()));
                }
                // Inline form: `prefix-list NETS [ 1.0.0.0/8 2.0.0.0/8 ];`
                for tok in &child.args()[1..] {
                    pl.prefixes.push((parse_prefix(tok, child)?, child.span()));
                }
                cfg.prefix_lists.insert(name, pl);
            }
            Some("community") => {
                // community NAME members [ a b ];  (words flattened)
                let args = child.args();
                let name = args
                    .first()
                    .ok_or_else(|| err(child, "community missing name"))?
                    .to_string();
                let mut members = Vec::new();
                let mut regexes = Vec::new();
                let mut member_toks: Vec<&str> = Vec::new();
                if args.get(1).copied() == Some("members") {
                    member_toks.extend(&args[2..]);
                }
                for m in child.find_all("members") {
                    member_toks.extend(m.args());
                }
                if member_toks.is_empty() {
                    return Err(err(child, "community missing members"));
                }
                for tok in member_toks {
                    match tok.parse::<Community>() {
                        Ok(c) => members.push(c),
                        Err(_) => regexes.push(tok.to_string()),
                    }
                }
                cfg.communities.insert(
                    name,
                    JuniperCommunity {
                        members,
                        regexes,
                        span: child.span(),
                    },
                );
            }
            Some("policy-statement") => {
                let name = child
                    .args()
                    .first()
                    .ok_or_else(|| err(child, "policy-statement missing name"))?
                    .to_string();
                let ps = extract_policy_statement(child)?;
                cfg.policies.insert(name, ps);
            }
            _ => {}
        }
    }
    Ok(())
}

fn extract_policy_statement(ps: Stmt<'_>) -> Result<PolicyStatement, ParseError> {
    let mut out = PolicyStatement {
        terms: Vec::new(),
        span: ps.span(),
    };
    let mut anonymous: Option<Span> = None;
    for child in ps.children() {
        match child.keyword() {
            Some("term") => {
                let name = child
                    .args()
                    .first()
                    .copied()
                    .unwrap_or("__anonymous")
                    .to_string();
                out.terms
                    .push(extract_policy_term(child.children(), name, child.span())?);
            }
            // A policy-statement may have top-level from/then (an unnamed
            // single term).
            Some("from") | Some("then") => {
                anonymous = Some(anonymous.map_or(child.span(), |s| s.merge(child.span())));
            }
            _ => {}
        }
    }
    if let Some(span) = anonymous {
        // A term reads only its from/then children, so the statement's own
        // children are the unnamed term's.
        out.terms.push(extract_policy_term(
            ps.children(),
            "__unnamed".to_string(),
            span,
        )?);
    }
    Ok(out)
}

fn extract_policy_term<'t>(
    clauses: impl Iterator<Item = Stmt<'t>>,
    name: String,
    span: Span,
) -> Result<PolicyTerm, ParseError> {
    let mut t = PolicyTerm {
        name,
        from: Vec::new(),
        then: Vec::new(),
        span,
    };
    for child in clauses {
        match child.keyword() {
            Some("from") => {
                if child.is_leaf() {
                    // Inline: `from prefix-list NETS;`
                    t.from.push(from_clause_words(child, child.args())?);
                } else {
                    for f in child.children() {
                        t.from.push(from_clause_words(f, f.words())?);
                    }
                }
            }
            Some("then") => {
                if child.is_leaf() {
                    t.then.push(then_clause_words(child, child.args())?);
                } else {
                    for a in child.children() {
                        t.then.push(then_clause_words(a, a.words())?);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(t)
}

fn route_filter_modifier(
    words: &[&str],
    stmt: Stmt<'_>,
) -> Result<RouteFilterModifier, ParseError> {
    match words.first().copied() {
        Some("exact") | None => Ok(RouteFilterModifier::Exact),
        Some("orlonger") => Ok(RouteFilterModifier::OrLonger),
        Some("longer") => Ok(RouteFilterModifier::Longer),
        Some("upto") => {
            let len = words
                .get(1)
                .and_then(|w| w.strip_prefix('/'))
                .and_then(|w| w.parse::<u8>().ok())
                .ok_or_else(|| err(stmt, "upto missing /N"))?;
            Ok(RouteFilterModifier::Upto(len))
        }
        Some("prefix-length-range") => {
            let spec = words
                .get(1)
                .ok_or_else(|| err(stmt, "prefix-length-range missing /A-/B"))?;
            let (a, b) = spec
                .split_once('-')
                .ok_or_else(|| err(stmt, "prefix-length-range missing '-'"))?;
            let lo = a
                .strip_prefix('/')
                .and_then(|w| w.parse::<u8>().ok())
                .ok_or_else(|| err(stmt, "bad prefix-length-range low bound"))?;
            let hi = b
                .strip_prefix('/')
                .and_then(|w| w.parse::<u8>().ok())
                .ok_or_else(|| err(stmt, "bad prefix-length-range high bound"))?;
            Ok(RouteFilterModifier::PrefixLengthRange(lo, hi))
        }
        Some(other) => Err(err(
            stmt,
            format!("unknown route-filter modifier {other:?}"),
        )),
    }
}

fn from_clause_words(stmt: Stmt<'_>, words: &[&str]) -> Result<FromClause, ParseError> {
    match words.first().copied() {
        Some("prefix-list") => {
            let name = words
                .get(1)
                .ok_or_else(|| err(stmt, "from prefix-list missing name"))?;
            Ok(FromClause::PrefixList(name.to_string()))
        }
        Some("prefix-list-filter") => {
            let name = words
                .get(1)
                .ok_or_else(|| err(stmt, "prefix-list-filter missing name"))?;
            let m = route_filter_modifier(&words[2..], stmt)?;
            Ok(FromClause::PrefixListFilter(name.to_string(), m))
        }
        Some("route-filter") => {
            let p = words
                .get(1)
                .ok_or_else(|| err(stmt, "route-filter missing prefix"))?;
            let prefix = parse_prefix(p, stmt)?;
            let m = route_filter_modifier(&words[2..], stmt)?;
            Ok(FromClause::RouteFilter(prefix, m))
        }
        Some("community") => {
            let names = owned(&words[1..]);
            if names.is_empty() {
                return Err(err(stmt, "from community missing name"));
            }
            Ok(FromClause::Community(names))
        }
        Some("protocol") => Ok(FromClause::Protocol(owned(&words[1..]))),
        Some("tag") => Ok(FromClause::Tag(parse_u32(
            words.get(1).ok_or_else(|| err(stmt, "tag missing value"))?,
            stmt,
            "tag",
        )?)),
        Some("metric") => Ok(FromClause::Metric(parse_u32(
            words
                .get(1)
                .ok_or_else(|| err(stmt, "metric missing value"))?,
            stmt,
            "metric",
        )?)),
        Some(other) => Err(err(stmt, format!("unsupported from condition {other:?}"))),
        None => Err(err(stmt, "empty from condition")),
    }
}

fn then_clause_words(stmt: Stmt<'_>, words: &[&str]) -> Result<ThenClause, ParseError> {
    match words.first().copied() {
        Some("accept") => Ok(ThenClause::Accept),
        Some("reject") => Ok(ThenClause::Reject),
        Some("next") => match words.get(1).copied() {
            Some("term") => Ok(ThenClause::NextTerm),
            Some("policy") => Ok(ThenClause::NextPolicy),
            _ => Err(err(stmt, "expected 'next term' or 'next policy'")),
        },
        Some("local-preference") => Ok(ThenClause::LocalPreference(parse_u32(
            words
                .get(1)
                .ok_or_else(|| err(stmt, "local-preference missing value"))?,
            stmt,
            "local-preference",
        )?)),
        Some("metric") => Ok(ThenClause::Metric(parse_u32(
            words
                .get(1)
                .ok_or_else(|| err(stmt, "metric missing value"))?,
            stmt,
            "metric",
        )?)),
        Some("tag") => Ok(ThenClause::Tag(parse_u32(
            words.get(1).ok_or_else(|| err(stmt, "tag missing value"))?,
            stmt,
            "tag",
        )?)),
        Some("community") => {
            let op = words
                .get(1)
                .ok_or_else(|| err(stmt, "then community missing operation"))?;
            let name = words
                .get(2)
                .ok_or_else(|| err(stmt, "then community missing name"))?
                .to_string();
            match *op {
                "add" => Ok(ThenClause::CommunityAdd(name)),
                "set" => Ok(ThenClause::CommunitySet(name)),
                "delete" => Ok(ThenClause::CommunityDelete(name)),
                other => Err(err(stmt, format!("unknown community operation {other:?}"))),
            }
        }
        Some("next-hop") => {
            let v = words
                .get(1)
                .ok_or_else(|| err(stmt, "next-hop missing value"))?;
            if *v == "self" {
                Ok(ThenClause::NextHop(None))
            } else {
                Ok(ThenClause::NextHop(Some(parse_ip(v, stmt)?)))
            }
        }
        Some(other) => Err(err(stmt, format!("unsupported then action {other:?}"))),
        None => Err(err(stmt, "empty then action")),
    }
}

fn extract_firewall(fw: Stmt<'_>, cfg: &mut JuniperConfig) -> Result<(), ParseError> {
    // firewall { family inet { filter NAME { term ... } } }
    // Also accept `firewall { filter NAME {...} }` (older syntax).
    let mut filters: Vec<Stmt<'_>> = Vec::new();
    for child in fw.children() {
        match child.keyword() {
            Some("family") if child.args().first().copied() == Some("inet") => {
                filters.extend(child.find_all("filter"));
            }
            Some("filter") => filters.push(child),
            _ => {}
        }
    }
    for f in filters {
        let name = f
            .args()
            .first()
            .ok_or_else(|| err(f, "filter missing name"))?
            .to_string();
        let mut filter = FirewallFilter {
            terms: Vec::new(),
            span: f.span(),
        };
        for term in f.find_all("term") {
            let tname = term
                .args()
                .first()
                .copied()
                .unwrap_or("__anonymous")
                .to_string();
            filter.terms.push(extract_filter_term(term, tname)?);
        }
        cfg.filters.insert(name, filter);
    }
    Ok(())
}

fn extract_filter_term(term: Stmt<'_>, name: String) -> Result<FilterTerm, ParseError> {
    let mut from = FilterFrom::default();
    // Terms with only counters default to accept.
    let mut action = FilterAction::Accept;
    for child in term.children() {
        match child.keyword() {
            Some("from") => {
                for cond in child.children() {
                    filter_condition(cond, cond.words(), &mut from)?;
                }
                if child.is_leaf() && !child.args().is_empty() {
                    // Inline single condition: `from <cond>;`.
                    filter_condition(child, child.args(), &mut from)?;
                }
            }
            Some("then") => {
                if child.is_leaf() {
                    for w in child.args() {
                        filter_action(w, child, &mut action)?;
                    }
                } else {
                    for w in child.children().filter_map(Stmt::keyword) {
                        filter_action(w, child, &mut action)?;
                    }
                }
            }
            _ => {}
        }
    }
    Ok(FilterTerm {
        name,
        from,
        action,
        span: term.span(),
    })
}

/// Apply one word of a term's `then` to its action.
fn filter_action(word: &str, then: Stmt<'_>, action: &mut FilterAction) -> Result<(), ParseError> {
    match word {
        "accept" => *action = FilterAction::Accept,
        "discard" | "reject" => *action = FilterAction::Discard,
        "count" | "log" | "syslog" | "sample" => {}
        other => return Err(err(then, format!("unsupported filter action {other:?}"))),
    }
    Ok(())
}

/// One match condition, `words` with its keyword first, of statement
/// `cond`: its own words, or those after `from` in the inline form (a
/// leaf, so its children are none).
fn filter_condition(
    cond: Stmt<'_>,
    words: &[&str],
    from: &mut FilterFrom,
) -> Result<(), ParseError> {
    let (kw, args) = words
        .split_first()
        .ok_or_else(|| err(cond, "empty condition"))?;
    match *kw {
        "source-address" => addr_args(cond, args, &mut from.src_addrs)?,
        "destination-address" => addr_args(cond, args, &mut from.dst_addrs)?,
        "protocol" => {
            for p in args {
                from.protocols
                    .push(p.parse::<IpProtocol>().map_err(|e| err(cond, e.message))?);
            }
        }
        "source-port" => {
            for r in args {
                from.src_ports.push(port_range(r, cond)?);
            }
        }
        "destination-port" => {
            for r in args {
                from.dst_ports.push(port_range(r, cond)?);
            }
        }
        other => return Err(err(cond, format!("unsupported filter condition {other:?}"))),
    }
    Ok(())
}

/// Addresses can be inline args or child statements (one per line).
fn addr_args(cond: Stmt<'_>, args: &[&str], out: &mut Vec<Prefix>) -> Result<(), ParseError> {
    let before = out.len();
    for a in args {
        out.push(parse_prefix(a, cond)?);
    }
    for c in cond.children() {
        let tok = c.keyword().ok_or_else(|| err(c, "empty address entry"))?;
        out.push(parse_prefix(tok, c)?);
    }
    if out.len() == before {
        return Err(err(cond, "address condition without addresses"));
    }
    Ok(())
}

/// A port, a `lo-hi` range or a well-known service name (some of which,
/// like `ftp-data`, contain a dash).
fn port_range(tok: &str, stmt: Stmt<'_>) -> Result<PortRange, ParseError> {
    if let Some(p) = service_port(tok) {
        Ok(PortRange::exact(p))
    } else if let Some((a, b)) = tok.split_once('-') {
        let lo: u16 = a
            .parse()
            .map_err(|_| err(stmt, format!("bad port {a:?}")))?;
        let hi: u16 = b
            .parse()
            .map_err(|_| err(stmt, format!("bad port {b:?}")))?;
        if lo > hi {
            return Err(err(stmt, format!("empty port range {tok}")));
        }
        Ok(PortRange::new(lo, hi))
    } else {
        tok.parse()
            .map(PortRange::exact)
            .map_err(|_| err(stmt, format!("bad port {tok:?}")))
    }
}

fn extract_routing_options(ro: Stmt<'_>, cfg: &mut JuniperConfig) -> Result<(), ParseError> {
    if let Some(asys) = ro.find("autonomous-system") {
        if let Some(v) = asys.args().first() {
            cfg.autonomous_system = Some(parse_u32(v, asys, "autonomous-system")?);
        }
    }
    if let Some(rid) = ro.find("router-id") {
        if let Some(v) = rid.args().first() {
            cfg.router_id = Some(parse_ip(v, rid)?);
        }
    }
    if let Some(st) = ro.find("static") {
        for route in st.find_all("route") {
            cfg.static_routes.push(extract_static_route(route)?);
        }
    }
    Ok(())
}

fn extract_static_route(route: Stmt<'_>) -> Result<JuniperStaticRoute, ParseError> {
    let args = route.args();
    let p = args
        .first()
        .ok_or_else(|| err(route, "route missing prefix"))?;
    let prefix = parse_prefix(p, route)?;
    let mut r = JuniperStaticRoute {
        prefix,
        next_hop: None,
        preference: 5,
        tag: None,
        discard: false,
        span: route.span(),
    };
    // Inline form: route P next-hop X; or route P discard;
    let mut i = 1;
    while i < args.len() {
        match args[i] {
            "next-hop" => {
                r.next_hop = Some(parse_ip(
                    args.get(i + 1)
                        .ok_or_else(|| err(route, "next-hop missing address"))?,
                    route,
                )?);
                i += 2;
            }
            "discard" | "reject" => {
                r.discard = true;
                i += 1;
            }
            "preference" => {
                r.preference = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(route, "bad preference"))?;
                i += 2;
            }
            "tag" => {
                r.tag = Some(parse_u32(
                    args.get(i + 1)
                        .ok_or_else(|| err(route, "tag missing value"))?,
                    route,
                    "tag",
                )?);
                i += 2;
            }
            other => return Err(err(route, format!("unsupported route option {other:?}"))),
        }
    }
    // Block form children.
    for c in route.children() {
        match c.keyword() {
            Some("next-hop") => {
                r.next_hop = Some(parse_ip(
                    c.args()
                        .first()
                        .ok_or_else(|| err(c, "next-hop missing address"))?,
                    c,
                )?);
            }
            Some("preference") => {
                r.preference = c
                    .args()
                    .first()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(c, "bad preference"))?;
            }
            Some("tag") => {
                r.tag = Some(parse_u32(
                    c.args()
                        .first()
                        .ok_or_else(|| err(c, "tag missing value"))?,
                    c,
                    "tag",
                )?);
            }
            Some("discard") | Some("reject") => r.discard = true,
            _ => {}
        }
    }
    if r.next_hop.is_none() && !r.discard {
        return Err(err(route, "static route needs next-hop or discard"));
    }
    Ok(r)
}

fn extract_protocols(protos: Stmt<'_>, cfg: &mut JuniperConfig) -> Result<(), ParseError> {
    for child in protos.children() {
        match child.keyword() {
            Some("bgp") => {
                let mut bgp = JuniperBgp {
                    local_as: cfg.autonomous_system,
                    groups: BTreeMap::new(),
                    span: child.span(),
                };
                for g in child.find_all("group") {
                    let name = g
                        .args()
                        .first()
                        .ok_or_else(|| err(g, "group missing name"))?
                        .to_string();
                    bgp.groups.insert(name, extract_bgp_group(g)?);
                }
                cfg.bgp = Some(bgp);
            }
            Some("ospf") => {
                cfg.ospf = Some(extract_ospf(child)?);
            }
            _ => {}
        }
    }
    Ok(())
}

/// Copy words the typed AST keeps out of the borrowed tree.
fn owned(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

fn extract_bgp_group(g: Stmt<'_>) -> Result<JuniperBgpGroup, ParseError> {
    let mut group = JuniperBgpGroup {
        internal: false,
        cluster: None,
        import: Vec::new(),
        export: Vec::new(),
        peer_as: None,
        neighbors: BTreeMap::new(),
        span: g.span(),
    };
    for c in g.children() {
        match c.keyword() {
            Some("type") => {
                group.internal = c.args().first().copied() == Some("internal");
            }
            Some("cluster") => {
                group.cluster = Some(parse_ip(
                    c.args()
                        .first()
                        .ok_or_else(|| err(c, "cluster missing id"))?,
                    c,
                )?);
            }
            Some("import") => group.import = owned(c.args()),
            Some("export") => group.export = owned(c.args()),
            Some("peer-as") => {
                group.peer_as = Some(parse_u32(
                    c.args().first().ok_or_else(|| err(c, "peer-as missing"))?,
                    c,
                    "peer-as",
                )?);
            }
            Some("neighbor") => {
                let addr = parse_ip(
                    c.args()
                        .first()
                        .ok_or_else(|| err(c, "neighbor missing address"))?,
                    c,
                )?;
                let mut nb = JuniperBgpNeighbor {
                    addr,
                    peer_as: None,
                    import: Vec::new(),
                    export: Vec::new(),
                    span: c.span(),
                };
                for nc in c.children() {
                    match nc.keyword() {
                        Some("import") => nb.import = owned(nc.args()),
                        Some("export") => nb.export = owned(nc.args()),
                        Some("peer-as") => {
                            nb.peer_as = Some(parse_u32(
                                nc.args()
                                    .first()
                                    .ok_or_else(|| err(nc, "peer-as missing"))?,
                                nc,
                                "peer-as",
                            )?);
                        }
                        _ => {}
                    }
                }
                group.neighbors.insert(addr, nb);
            }
            _ => {}
        }
    }
    Ok(group)
}

fn extract_ospf(o: Stmt<'_>) -> Result<JuniperOspf, ParseError> {
    let mut ospf = JuniperOspf {
        reference_bandwidth: None,
        export: Vec::new(),
        areas: BTreeMap::new(),
        span: o.span(),
    };
    for c in o.children() {
        match c.keyword() {
            Some("reference-bandwidth") => {
                let v = c
                    .args()
                    .first()
                    .ok_or_else(|| err(c, "reference-bandwidth missing value"))?;
                ospf.reference_bandwidth = Some(parse_bandwidth(v, c)?);
            }
            Some("export") => ospf.export = owned(c.args()),
            Some("area") => {
                let area_tok = c.args().first().ok_or_else(|| err(c, "area missing id"))?;
                let area = parse_area(area_tok, c)?;
                let mut ifaces = Vec::new();
                for i in c.find_all("interface") {
                    let name = i
                        .args()
                        .first()
                        .ok_or_else(|| err(i, "interface missing name"))?
                        .to_string();
                    let mut oi = JuniperOspfInterface {
                        name,
                        metric: None,
                        passive: false,
                        span: i.span(),
                    };
                    if i.args().get(1).copied() == Some("passive") {
                        oi.passive = true;
                    }
                    for ic in i.children() {
                        match ic.keyword() {
                            Some("metric") => {
                                oi.metric = Some(parse_u32(
                                    ic.args()
                                        .first()
                                        .ok_or_else(|| err(ic, "metric missing value"))?,
                                    ic,
                                    "metric",
                                )?);
                            }
                            Some("passive") => oi.passive = true,
                            _ => {}
                        }
                    }
                    ifaces.push(oi);
                }
                ospf.areas.entry(area).or_default().extend(ifaces);
            }
            _ => {}
        }
    }
    Ok(ospf)
}

/// Areas may be integers or dotted quads.
fn parse_area(tok: &str, stmt: Stmt<'_>) -> Result<u32, ParseError> {
    if let Ok(v) = tok.parse::<u32>() {
        return Ok(v);
    }
    if let Ok(ip) = tok.parse::<Ipv4Addr>() {
        return Ok(u32::from(ip));
    }
    Err(err(stmt, format!("bad OSPF area {tok:?}")))
}

/// Bandwidths accept `1g`, `100m`, `10k` suffixes; plain numbers are bps.
fn parse_bandwidth(tok: &str, stmt: Stmt<'_>) -> Result<u64, ParseError> {
    let (digits, mult) = match tok.chars().last() {
        Some('g') | Some('G') => (&tok[..tok.len() - 1], 1_000_000_000),
        Some('m') | Some('M') => (&tok[..tok.len() - 1], 1_000_000),
        Some('k') | Some('K') => (&tok[..tok.len() - 1], 1_000),
        _ => (tok, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| err(stmt, format!("bad bandwidth {tok:?}")))
}

fn extract_interfaces(ifs: Stmt<'_>, cfg: &mut JuniperConfig) -> Result<(), ParseError> {
    for i in ifs.children() {
        let Some(name) = i.keyword() else { continue };
        let mut iface = JuniperInterface {
            name: name.to_string(),
            disabled: false,
            description: None,
            units: BTreeMap::new(),
            span: i.span(),
        };
        for c in i.children() {
            match c.keyword() {
                Some("disable") => iface.disabled = true,
                Some("description") => {
                    iface.description = c.args().first().map(|d| d.to_string());
                }
                Some("unit") => {
                    let unit_no = c
                        .args()
                        .first()
                        .and_then(|v| v.parse::<u32>().ok())
                        .ok_or_else(|| err(c, "bad unit number"))?;
                    let mut unit = JuniperUnit {
                        unit: unit_no,
                        address: None,
                        filter_in: None,
                        filter_out: None,
                        span: c.span(),
                    };
                    if let Some(fam) = c.find("family") {
                        if fam.args().first().copied() == Some("inet") {
                            for fc in fam.children() {
                                match fc.keyword() {
                                    Some("address") => {
                                        let a = fc
                                            .args()
                                            .first()
                                            .ok_or_else(|| err(fc, "address missing value"))?;
                                        let (ip_s, len_s) = a.split_once('/').ok_or_else(|| {
                                            err(fc, "interface address needs /len")
                                        })?;
                                        let ip = parse_ip(ip_s, fc)?;
                                        let len: u8 = len_s
                                            .parse()
                                            .map_err(|_| err(fc, "bad address length"))?;
                                        unit.address = Some((ip, Prefix::new(ip, len)));
                                    }
                                    Some("filter") => {
                                        for f in fc.children() {
                                            match f.keyword() {
                                                Some("input") => {
                                                    unit.filter_in =
                                                        f.args().first().map(|n| n.to_string())
                                                }
                                                Some("output") => {
                                                    unit.filter_out =
                                                        f.args().first().map(|n| n.to_string())
                                                }
                                                _ => {}
                                            }
                                        }
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    iface.units.insert(unit_no, unit);
                }
                _ => {}
            }
        }
        cfg.interfaces.insert(name.to_string(), iface);
    }
    Ok(())
}
