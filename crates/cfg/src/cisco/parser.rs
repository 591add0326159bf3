//! The Cisco IOS parser: a single pass over the configuration lines.

use std::collections::BTreeMap;
use std::iter::{Peekable, Zip};
use std::net::Ipv4Addr;
use std::ops::RangeFrom;
use std::str::Lines;

use campion_net::{service_port, Community, IpProtocol, PortRange, Prefix, WildcardMask};

use super::ast::*;
use crate::error::ParseError;
use crate::span::{SourceText, Span};

/// Parse a Cisco IOS configuration.
///
/// Lines the analysis does not model (NTP, SNMP, AAA, ...) are skipped, as
/// in Batfish; lines that *are* modeled but malformed produce a
/// [`ParseError`] with the offending line number.
pub fn parse_cisco(text: &str) -> Result<CiscoConfig, ParseError> {
    Parser::new(text).parse()
}

struct Parser<'a> {
    /// (1-based line number, raw text) for each line not yet read.
    lines: Peekable<Zip<RangeFrom<u32>, Lines<'a>>>,
    cfg: CiscoConfig,
}

/// Tokenize an IOS line on whitespace, in one allocation for a line of at
/// most 16 words (a prefix-list entry has at most 11).
fn tokens(line: &str) -> Vec<&str> {
    let mut toks = Vec::with_capacity(16);
    toks.extend(line.split_whitespace());
    toks
}

/// Is this line a stanza-body line (indented continuation)?
fn is_indented(line: &str) -> bool {
    line.starts_with(' ') || line.starts_with('\t')
}

fn parse_u32(tok: &str, line: u32, what: &str) -> Result<u32, ParseError> {
    tok.parse()
        .map_err(|_| ParseError::at(line, format!("bad {what}: {tok:?}")))
}

fn parse_u8(tok: &str, line: u32, what: &str) -> Result<u8, ParseError> {
    tok.parse()
        .map_err(|_| ParseError::at(line, format!("bad {what}: {tok:?}")))
}

fn parse_ip(tok: &str, line: u32) -> Result<Ipv4Addr, ParseError> {
    tok.parse()
        .map_err(|_| ParseError::at(line, format!("bad IPv4 address: {tok:?}")))
}

fn parse_action(tok: &str, line: u32) -> Result<LineAction, ParseError> {
    match tok {
        "permit" => Ok(LineAction::Permit),
        "deny" => Ok(LineAction::Deny),
        other => Err(ParseError::at(
            line,
            format!("expected permit|deny, got {other:?}"),
        )),
    }
}

/// A port in an `eq`/`range` spec: a number or a well-known service name.
fn parse_port(tok: &str, line: u32) -> Result<u16, ParseError> {
    service_port(tok)
        .or_else(|| tok.parse().ok())
        .ok_or_else(|| ParseError::at(line, format!("bad port: {tok:?}")))
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: (1..).zip(text.lines()).peekable(),
            cfg: CiscoConfig {
                hostname: String::new(),
                prefix_lists: BTreeMap::new(),
                community_lists: BTreeMap::new(),
                acls: BTreeMap::new(),
                route_maps: BTreeMap::new(),
                static_routes: Vec::new(),
                interfaces: BTreeMap::new(),
                bgp: None,
                ospf: None,
                source: SourceText::new(text),
            },
        }
    }

    /// The next line, if it is a stanza-body line: indented and not blank.
    fn body_line(&mut self) -> Option<(u32, &'a str)> {
        self.lines
            .next_if(|(_, l)| is_indented(l) && !l.trim().is_empty())
    }

    /// Each top-level command's handler reads its own stanza body.
    fn parse(mut self) -> Result<CiscoConfig, ParseError> {
        while let Some((num, line)) = self.lines.next() {
            let t = line.trim();
            if t.is_empty() || t == "!" || t.starts_with("! ") {
                continue; // blank line or pure comment
            }
            let toks = tokens(line);
            match toks.as_slice() {
                ["hostname", name, ..] => self.cfg.hostname = (*name).to_string(),
                ["ip", "prefix-list", ..] => self.prefix_list_line(num, &toks)?,
                ["ip", "community-list", ..] => self.community_list_line(num, &toks)?,
                ["ip", "route", ..] => self.static_route_line(num, &toks)?,
                ["ip", "access-list", ..] => self.named_acl(num, &toks)?,
                ["access-list", ..] => self.numbered_acl_line(num, &toks)?,
                ["route-map", ..] => self.route_map_entry(num, &toks)?,
                ["interface", ..] => self.interface(num, &toks)?,
                ["router", "bgp", ..] => self.router_bgp(num, &toks)?,
                ["router", "ospf", ..] => self.router_ospf(num, &toks)?,
                // Unmodeled top-level command: skip its body.
                _ => while self.body_line().is_some() {},
            }
        }
        // Entries sort by sequence number, ties in line order.
        for list in self.cfg.prefix_lists.values_mut() {
            list.entries.sort_by_key(|e| e.seq);
        }
        for map in self.cfg.route_maps.values_mut() {
            map.entries.sort_by_key(|e| e.seq);
        }
        Ok(self.cfg)
    }

    fn prefix_list_line(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        // ip prefix-list NAME [seq N] permit|deny PFX [ge G] [le L]
        let Some((name, mut rest)) = toks[2..].split_first() else {
            return Err(ParseError::at(num, "prefix-list missing name"));
        };
        let mut seq = None;
        if rest.first() == Some(&"seq") {
            if rest.len() < 2 {
                return Err(ParseError::at(num, "seq missing number"));
            }
            seq = Some(parse_u32(rest[1], num, "sequence number")?);
            rest = &rest[2..];
        }
        if rest.first() == Some(&"description") {
            return Ok(()); // descriptions carry no behavior
        }
        if rest.is_empty() {
            return Err(ParseError::at(num, "prefix-list missing action"));
        }
        let action = parse_action(rest[0], num)?;
        if rest.len() < 2 {
            return Err(ParseError::at(num, "prefix-list missing prefix"));
        }
        let prefix: Prefix = rest[1]
            .parse()
            .map_err(|e: campion_net::ParseNetError| ParseError::at(num, e.message))?;
        let mut ge = prefix.len();
        let mut le = prefix.len();
        let mut i = 2;
        let mut saw_le = false;
        let mut saw_ge = false;
        while i < rest.len() {
            match rest[i] {
                "ge" => {
                    ge = parse_u8(
                        rest.get(i + 1)
                            .ok_or_else(|| ParseError::at(num, "ge missing value"))?,
                        num,
                        "ge length",
                    )?;
                    saw_ge = true;
                    i += 2;
                }
                "le" => {
                    le = parse_u8(
                        rest.get(i + 1)
                            .ok_or_else(|| ParseError::at(num, "le missing value"))?,
                        num,
                        "le length",
                    )?;
                    saw_le = true;
                    i += 2;
                }
                other => return Err(ParseError::at(num, format!("unexpected token {other:?}"))),
            }
        }
        if saw_ge && !saw_le {
            le = 32;
        }
        if ge < prefix.len() || le > 32 || ge > le {
            return Err(ParseError::at(
                num,
                format!("invalid ge/le bounds {ge}/{le}"),
            ));
        }
        // The list exists after its first line: allocate its name only then.
        let lists = &mut self.cfg.prefix_lists;
        let list = match lists.get_mut(*name) {
            Some(list) => list,
            None => lists.entry((*name).to_string()).or_default(),
        };
        let seq = seq.unwrap_or((list.entries.len() as u32 + 1) * 5);
        list.entries.push(PrefixListEntry {
            seq,
            action,
            prefix,
            ge,
            le,
            span: Span::line(num),
        });
        Ok(())
    }

    fn community_list_line(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        // ip community-list standard|expanded NAME permit|deny ...
        let kind = toks
            .get(2)
            .ok_or_else(|| ParseError::at(num, "community-list missing kind"))?;
        // Also allow the numbered form: ip community-list 10 permit 1:2
        let (expanded, name_idx) = match *kind {
            "standard" => (false, 3),
            "expanded" => (true, 3),
            _ if kind.parse::<u32>().is_ok() => (false, 2),
            other => {
                return Err(ParseError::at(
                    num,
                    format!("expected standard|expanded|number, got {other:?}"),
                ))
            }
        };
        let name = toks
            .get(name_idx)
            .ok_or_else(|| ParseError::at(num, "community-list missing name"))?;
        // In the numbered form the "name" is the number itself.
        let (name, action_idx) = if name_idx == 2 {
            (*kind, 3)
        } else {
            (*name, 4)
        };
        let action = parse_action(
            toks.get(action_idx)
                .ok_or_else(|| ParseError::at(num, "community-list missing action"))?,
            num,
        )?;
        let entry = if expanded {
            let regex = toks[action_idx + 1..].join(" ");
            if regex.is_empty() {
                return Err(ParseError::at(num, "expanded community-list missing regex"));
            }
            CommunityListEntry {
                action,
                communities: Vec::new(),
                regex: Some(regex),
                span: Span::line(num),
            }
        } else {
            let mut communities = Vec::new();
            for tok in &toks[action_idx + 1..] {
                let c: Community = tok
                    .parse()
                    .map_err(|e: campion_net::ParseNetError| ParseError::at(num, e.message))?;
                communities.push(c);
            }
            if communities.is_empty() {
                return Err(ParseError::at(num, "community-list missing communities"));
            }
            CommunityListEntry {
                action,
                communities,
                regex: None,
                span: Span::line(num),
            }
        };
        self.cfg
            .community_lists
            .entry(name.to_string())
            .or_default()
            .entries
            .push(entry);
        Ok(())
    }

    fn static_route_line(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        // ip route PREFIX MASK (NEXTHOP | IFACE [NEXTHOP]) [AD] [tag T] [name N] [permanent]
        let addr = parse_ip(
            toks.get(2)
                .ok_or_else(|| ParseError::at(num, "ip route missing prefix"))?,
            num,
        )?;
        let mask = parse_ip(
            toks.get(3)
                .ok_or_else(|| ParseError::at(num, "ip route missing mask"))?,
            num,
        )?;
        let prefix =
            Prefix::from_netmask(addr, mask).map_err(|e| ParseError::at(num, e.message))?;
        let mut next_hop = None;
        let mut interface = None;
        let mut admin_distance = 1u8;
        let mut tag = None;
        let mut i = 4;
        while i < toks.len() {
            let tok = toks[i];
            if let Ok(ip) = tok.parse::<Ipv4Addr>() {
                next_hop = Some(ip);
                i += 1;
            } else if tok == "tag" {
                tag = Some(parse_u32(
                    toks.get(i + 1)
                        .ok_or_else(|| ParseError::at(num, "tag missing value"))?,
                    num,
                    "tag",
                )?);
                i += 2;
            } else if tok == "name" {
                i += 2; // route name: no behavior
            } else if tok == "permanent" || tok == "track" {
                i += 1;
            } else if let Ok(ad) = tok.parse::<u8>() {
                admin_distance = ad;
                i += 1;
            } else if interface.is_none() && next_hop.is_none() {
                interface = Some(tok.to_string());
                i += 1;
            } else {
                return Err(ParseError::at(num, format!("unexpected token {tok:?}")));
            }
        }
        if next_hop.is_none() && interface.is_none() {
            return Err(ParseError::at(num, "ip route missing next hop"));
        }
        self.cfg.static_routes.push(StaticRoute {
            prefix,
            next_hop,
            interface,
            admin_distance,
            tag,
            span: Span::line(num),
        });
        Ok(())
    }

    fn named_acl(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        // ip access-list extended|standard NAME, body indented.
        let kind = toks
            .get(2)
            .ok_or_else(|| ParseError::at(num, "access-list missing kind"))?;
        let extended = match *kind {
            "extended" => true,
            "standard" => false,
            other => {
                return Err(ParseError::at(
                    num,
                    format!("unsupported ACL kind {other:?}"),
                ))
            }
        };
        let name = toks
            .get(3)
            .ok_or_else(|| ParseError::at(num, "access-list missing name"))?
            .to_string();
        let mut acl = Acl::default();
        while let Some((n, l)) = self.body_line() {
            let t = tokens(l);
            if t.first() == Some(&"remark") {
                continue;
            }
            let rule = self.acl_rule(n, &t, extended, acl.rules.len() as u32)?;
            acl.rules.push(rule);
        }
        self.cfg.acls.insert(name, acl);
        Ok(())
    }

    fn numbered_acl_line(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        // access-list NUM permit|deny ... — standard for 1-99, extended 100+.
        let number = toks
            .get(1)
            .ok_or_else(|| ParseError::at(num, "access-list missing number"))?;
        let n: u32 = parse_u32(number, num, "ACL number")?;
        if toks.get(2) == Some(&"remark") {
            return Ok(());
        }
        let extended = n >= 100;
        let body: Vec<&str> = toks[2..].to_vec();
        let acl = self.cfg.acls.entry(number.to_string()).or_default();
        let seq_hint = acl.rules.len() as u32;
        let rule = self.acl_rule_tokens(num, &body, extended, seq_hint)?;
        self.cfg
            .acls
            .get_mut(*number)
            .expect("entry just created")
            .rules
            .push(rule);
        Ok(())
    }

    /// Parse one ACL rule from a body line that may start with a sequence
    /// number (named ACLs).
    fn acl_rule(
        &mut self,
        num: u32,
        toks: &[&str],
        extended: bool,
        seq_hint: u32,
    ) -> Result<AclRule, ParseError> {
        let (seq, rest) = match toks.first().and_then(|t| t.parse::<u32>().ok()) {
            Some(s) => (Some(s), &toks[1..]),
            None => (None, toks),
        };
        let mut rule = self.acl_rule_tokens(num, rest, extended, seq_hint)?;
        if let Some(s) = seq {
            rule.seq = s;
        }
        Ok(rule)
    }

    /// Parse `permit|deny [proto] SRC [ports] [DST [ports]]`.
    fn acl_rule_tokens(
        &mut self,
        num: u32,
        toks: &[&str],
        extended: bool,
        seq_hint: u32,
    ) -> Result<AclRule, ParseError> {
        let action = parse_action(
            toks.first()
                .ok_or_else(|| ParseError::at(num, "ACL rule missing action"))?,
            num,
        )?;
        let mut i = 1;
        let protocol = if extended {
            let p: IpProtocol = toks
                .get(i)
                .ok_or_else(|| ParseError::at(num, "ACL rule missing protocol"))?
                .parse()
                .map_err(|e: campion_net::ParseNetError| ParseError::at(num, e.message))?;
            i += 1;
            p
        } else {
            IpProtocol::Any
        };
        let (src, di) = self.acl_addr(num, &toks[i..])?;
        i += di;
        let (src_ports, di) = self.acl_ports(num, &toks[i..], protocol)?;
        i += di;
        let (dst, dst_ports) = if extended {
            let (dst, di) = self.acl_addr(num, &toks[i..])?;
            i += di;
            let (dp, di) = self.acl_ports(num, &toks[i..], protocol)?;
            i += di;
            (dst, dp)
        } else {
            (AclAddr::Any, PortRange::ANY)
        };
        // Trailing qualifiers we accept but do not model.
        while let Some(tok) = toks.get(i) {
            match *tok {
                "log" | "log-input" | "established" | "echo" | "echo-reply" | "fragments" => i += 1,
                other => {
                    return Err(ParseError::at(
                        num,
                        format!("unexpected ACL token {other:?}"),
                    ))
                }
            }
        }
        Ok(AclRule {
            seq: (seq_hint + 1) * 10,
            action,
            protocol,
            src,
            src_ports,
            dst,
            dst_ports,
            span: Span::line(num),
        })
    }

    /// Parse an address matcher; returns the matcher and tokens consumed.
    fn acl_addr(&mut self, num: u32, toks: &[&str]) -> Result<(AclAddr, usize), ParseError> {
        match toks.first() {
            Some(&"any") => Ok((AclAddr::Any, 1)),
            Some(&"host") => {
                let ip = parse_ip(
                    toks.get(1)
                        .ok_or_else(|| ParseError::at(num, "host missing address"))?,
                    num,
                )?;
                Ok((AclAddr::Host(ip), 2))
            }
            Some(tok) => {
                let base = parse_ip(tok, num)?;
                let wc = parse_ip(
                    toks.get(1)
                        .ok_or_else(|| ParseError::at(num, "address missing wildcard"))?,
                    num,
                )?;
                Ok((AclAddr::Wildcard(WildcardMask::new(base, wc)), 2))
            }
            None => Err(ParseError::at(num, "ACL rule missing address")),
        }
    }

    /// Parse an optional port qualifier; returns the range and tokens consumed.
    fn acl_ports(
        &mut self,
        num: u32,
        toks: &[&str],
        protocol: IpProtocol,
    ) -> Result<(PortRange, usize), ParseError> {
        if !protocol.has_ports() {
            return Ok((PortRange::ANY, 0));
        }
        match toks.first() {
            Some(&"eq") => {
                let p = parse_port(
                    toks.get(1)
                        .ok_or_else(|| ParseError::at(num, "eq missing port"))?,
                    num,
                )?;
                Ok((PortRange::exact(p), 2))
            }
            Some(&"range") => {
                let lo = parse_port(
                    toks.get(1)
                        .ok_or_else(|| ParseError::at(num, "range missing low port"))?,
                    num,
                )?;
                let hi = parse_port(
                    toks.get(2)
                        .ok_or_else(|| ParseError::at(num, "range missing high port"))?,
                    num,
                )?;
                if lo > hi {
                    return Err(ParseError::at(num, format!("empty port range {lo}-{hi}")));
                }
                Ok((PortRange::new(lo, hi), 3))
            }
            Some(&"gt") => {
                let p = parse_port(
                    toks.get(1)
                        .ok_or_else(|| ParseError::at(num, "gt missing port"))?,
                    num,
                )?;
                if p == u16::MAX {
                    return Err(ParseError::at(num, "gt 65535 matches nothing"));
                }
                Ok((PortRange::new(p + 1, u16::MAX), 2))
            }
            Some(&"lt") => {
                let p = parse_port(
                    toks.get(1)
                        .ok_or_else(|| ParseError::at(num, "lt missing port"))?,
                    num,
                )?;
                if p == 0 {
                    return Err(ParseError::at(num, "lt 0 matches nothing"));
                }
                Ok((PortRange::new(0, p - 1), 2))
            }
            _ => Ok((PortRange::ANY, 0)),
        }
    }

    fn route_map_entry(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        // route-map NAME permit|deny SEQ, body indented (match/set lines).
        let name = toks
            .get(1)
            .ok_or_else(|| ParseError::at(num, "route-map missing name"))?
            .to_string();
        let action = parse_action(
            toks.get(2)
                .ok_or_else(|| ParseError::at(num, "route-map missing action"))?,
            num,
        )?;
        let seq = parse_u32(
            toks.get(3)
                .ok_or_else(|| ParseError::at(num, "route-map missing sequence"))?,
            num,
            "sequence number",
        )?;
        let mut entry = RouteMapEntry {
            seq,
            action,
            matches: Vec::new(),
            sets: Vec::new(),
            continue_seq: None,
            span: Span::line(num),
        };
        while let Some((n, l)) = self.body_line() {
            entry.span = entry.span.merge(Span::line(n));
            let t = tokens(l);
            match t.as_slice() {
                ["match", "ip", "address", "prefix-list", names @ ..] => {
                    if names.is_empty() {
                        return Err(ParseError::at(n, "match prefix-list missing names"));
                    }
                    entry.matches.push(RouteMapMatch::IpAddressPrefixList(
                        names.iter().map(|s| s.to_string()).collect(),
                    ));
                }
                ["match", "ip", "address", names @ ..] => {
                    if names.is_empty() {
                        return Err(ParseError::at(n, "match ip address missing names"));
                    }
                    entry.matches.push(RouteMapMatch::IpAddress(
                        names.iter().map(|s| s.to_string()).collect(),
                    ));
                }
                ["match", "community", names @ ..] => {
                    let names: Vec<String> = names
                        .iter()
                        .filter(|s| **s != "exact-match")
                        .map(|s| s.to_string())
                        .collect();
                    if names.is_empty() {
                        return Err(ParseError::at(n, "match community missing names"));
                    }
                    entry.matches.push(RouteMapMatch::Community(names));
                }
                ["match", "tag", v] => {
                    entry
                        .matches
                        .push(RouteMapMatch::Tag(parse_u32(v, n, "tag")?));
                }
                ["match", "metric", v] => {
                    entry
                        .matches
                        .push(RouteMapMatch::Metric(parse_u32(v, n, "metric")?));
                }
                ["set", "local-preference", v] => {
                    entry.sets.push(RouteMapSet::LocalPreference(parse_u32(
                        v,
                        n,
                        "local-preference",
                    )?));
                }
                ["set", "metric", v] => {
                    entry
                        .sets
                        .push(RouteMapSet::Metric(parse_u32(v, n, "metric")?));
                }
                ["set", "weight", v] => {
                    entry
                        .sets
                        .push(RouteMapSet::Weight(parse_u32(v, n, "weight")?));
                }
                ["set", "tag", v] => {
                    entry.sets.push(RouteMapSet::Tag(parse_u32(v, n, "tag")?));
                }
                ["set", "ip", "next-hop", v] => {
                    entry.sets.push(RouteMapSet::NextHop(parse_ip(v, n)?));
                }
                ["set", "comm-list", name, "delete"] => {
                    entry
                        .sets
                        .push(RouteMapSet::CommListDelete(name.to_string()));
                }
                ["set", "community", rest @ ..] => {
                    let additive = rest.last() == Some(&"additive");
                    let vals = if additive {
                        &rest[..rest.len() - 1]
                    } else {
                        rest
                    };
                    let mut communities = Vec::new();
                    for v in vals {
                        communities.push(v.parse::<Community>().map_err(
                            |e: campion_net::ParseNetError| ParseError::at(n, e.message),
                        )?);
                    }
                    if communities.is_empty() {
                        return Err(ParseError::at(n, "set community missing values"));
                    }
                    entry.sets.push(RouteMapSet::Community {
                        communities,
                        additive,
                    });
                }
                ["continue", v] => {
                    entry.continue_seq = Some(parse_u32(v, n, "continue sequence")?);
                }
                ["description", ..] => {}
                other => {
                    return Err(ParseError::at(
                        n,
                        format!("unsupported route-map clause: {}", other.join(" ")),
                    ))
                }
            }
        }
        let map = self.cfg.route_maps.entry(name).or_default();
        map.entries.push(entry);
        Ok(())
    }

    fn interface(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        let name = toks
            .get(1)
            .ok_or_else(|| ParseError::at(num, "interface missing name"))?
            .to_string();
        let mut iface = Interface {
            name: name.clone(),
            address: None,
            ospf_cost: None,
            ospf_area: None,
            acl_in: None,
            acl_out: None,
            shutdown: false,
            description: None,
            span: Span::line(num),
        };
        while let Some((n, l)) = self.body_line() {
            iface.span = iface.span.merge(Span::line(n));
            let t = tokens(l);
            match t.as_slice() {
                ["ip", "address", addr, mask] => {
                    let a = parse_ip(addr, n)?;
                    let m = parse_ip(mask, n)?;
                    let p = Prefix::from_netmask(a, m).map_err(|e| ParseError::at(n, e.message))?;
                    iface.address = Some((a, p));
                }
                ["ip", "ospf", "cost", v] => iface.ospf_cost = Some(parse_u32(v, n, "ospf cost")?),
                ["ip", "ospf", _pid, "area", v] => {
                    iface.ospf_area = Some(parse_u32(v, n, "ospf area")?)
                }
                ["ip", "access-group", name, "in"] => iface.acl_in = Some(name.to_string()),
                ["ip", "access-group", name, "out"] => iface.acl_out = Some(name.to_string()),
                ["shutdown"] => iface.shutdown = true,
                ["description", rest @ ..] => iface.description = Some(rest.join(" ")),
                _ => {} // unmodeled interface attribute
            }
        }
        self.cfg.interfaces.insert(name, iface);
        Ok(())
    }

    fn router_bgp(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        let asn = parse_u32(
            toks.get(2)
                .ok_or_else(|| ParseError::at(num, "router bgp missing ASN"))?,
            num,
            "AS number",
        )?;
        let mut bgp = BgpConfig {
            asn,
            router_id: None,
            neighbors: BTreeMap::new(),
            networks: Vec::new(),
            redistribute: Vec::new(),
            distance: None,
            span: Span::line(num),
        };
        while let Some((n, l)) = self.body_line() {
            bgp.span = bgp.span.merge(Span::line(n));
            let t = tokens(l);
            match t.as_slice() {
                ["bgp", "router-id", v] => bgp.router_id = Some(parse_ip(v, n)?),
                ["bgp", ..] => {} // other bgp knobs unmodeled
                ["address-family", ..] | ["exit-address-family"] => {}
                ["network", addr, "mask", mask, rest @ ..] => {
                    let a = parse_ip(addr, n)?;
                    let m = parse_ip(mask, n)?;
                    let p = Prefix::from_netmask(a, m).map_err(|e| ParseError::at(n, e.message))?;
                    let rm = match rest {
                        ["route-map", name] => Some(name.to_string()),
                        [] => None,
                        other => {
                            return Err(ParseError::at(
                                n,
                                format!("unexpected network options {other:?}"),
                            ))
                        }
                    };
                    bgp.networks.push((p, rm, Span::line(n)));
                }
                ["network", addr] => {
                    // Classful form; treat as the classful prefix.
                    let a = parse_ip(addr, n)?;
                    let len = classful_len(a);
                    bgp.networks
                        .push((Prefix::new(a, len), None, Span::line(n)));
                }
                ["redistribute", proto, rest @ ..] => {
                    let mut rm = None;
                    let mut metric = None;
                    let mut i = 0;
                    while i < rest.len() {
                        match rest[i] {
                            "route-map" => {
                                rm = Some(
                                    rest.get(i + 1)
                                        .ok_or_else(|| {
                                            ParseError::at(n, "redistribute missing route-map name")
                                        })?
                                        .to_string(),
                                );
                                i += 2;
                            }
                            "metric" => {
                                metric = Some(parse_u32(
                                    rest.get(i + 1)
                                        .ok_or_else(|| ParseError::at(n, "metric missing value"))?,
                                    n,
                                    "metric",
                                )?);
                                i += 2;
                            }
                            "subnets" => i += 1,
                            other => {
                                return Err(ParseError::at(
                                    n,
                                    format!("unexpected redistribute option {other:?}"),
                                ))
                            }
                        }
                    }
                    bgp.redistribute.push(Redistribution {
                        protocol: proto.to_string(),
                        route_map: rm,
                        metric,
                        span: Span::line(n),
                    });
                }
                ["distance", "bgp", e, i, l2] => {
                    bgp.distance = Some((
                        parse_u8(e, n, "external distance")?,
                        parse_u8(i, n, "internal distance")?,
                        parse_u8(l2, n, "local distance")?,
                    ));
                }
                ["neighbor", addr, rest @ ..] => {
                    let ip = parse_ip(addr, n)?;
                    let nb = bgp.neighbors.entry(ip).or_insert_with(|| BgpNeighbor {
                        addr: ip,
                        remote_as: None,
                        route_map_in: None,
                        route_map_out: None,
                        send_community: false,
                        route_reflector_client: false,
                        next_hop_self: false,
                        description: None,
                        span: Span::line(n),
                    });
                    nb.span = nb.span.merge(Span::line(n));
                    match rest {
                        ["remote-as", v] => nb.remote_as = Some(parse_u32(v, n, "remote AS")?),
                        ["route-map", name, "in"] => nb.route_map_in = Some(name.to_string()),
                        ["route-map", name, "out"] => nb.route_map_out = Some(name.to_string()),
                        ["send-community"]
                        | ["send-community", "both"]
                        | ["send-community", "standard"] => nb.send_community = true,
                        ["route-reflector-client"] => nb.route_reflector_client = true,
                        ["next-hop-self"] => nb.next_hop_self = true,
                        ["description", d @ ..] => nb.description = Some(d.join(" ")),
                        ["update-source", _]
                        | ["activate"]
                        | ["soft-reconfiguration", ..]
                        | ["timers", ..]
                        | ["password", ..]
                        | ["ebgp-multihop", ..] => {}
                        other => {
                            return Err(ParseError::at(
                                n,
                                format!("unsupported neighbor option: {}", other.join(" ")),
                            ))
                        }
                    }
                }
                _ => {} // unmodeled bgp line
            }
        }
        self.cfg.bgp = Some(bgp);
        Ok(())
    }

    fn router_ospf(&mut self, num: u32, toks: &[&str]) -> Result<(), ParseError> {
        let pid = parse_u32(
            toks.get(2)
                .ok_or_else(|| ParseError::at(num, "router ospf missing process id"))?,
            num,
            "process id",
        )?;
        let mut ospf = OspfConfig {
            process_id: pid,
            router_id: None,
            networks: Vec::new(),
            passive_interfaces: Vec::new(),
            distance: None,
            reference_bandwidth: None,
            redistribute: Vec::new(),
            span: Span::line(num),
        };
        while let Some((n, l)) = self.body_line() {
            ospf.span = ospf.span.merge(Span::line(n));
            let t = tokens(l);
            match t.as_slice() {
                ["router-id", v] => ospf.router_id = Some(parse_ip(v, n)?),
                ["network", addr, wc, "area", area] => {
                    let a = parse_ip(addr, n)?;
                    let w = parse_ip(wc, n)?;
                    let area = parse_area(area, n)?;
                    ospf.networks
                        .push((WildcardMask::new(a, w), area, Span::line(n)));
                }
                ["passive-interface", name] => {
                    ospf.passive_interfaces.push(name.to_string());
                }
                ["distance", v] => ospf.distance = Some(parse_u8(v, n, "distance")?),
                ["auto-cost", "reference-bandwidth", v] => {
                    ospf.reference_bandwidth =
                        Some(u64::from(parse_u32(v, n, "reference bandwidth")?));
                }
                ["redistribute", proto, rest @ ..] => {
                    let rm = match rest {
                        ["route-map", name, ..] => Some(name.to_string()),
                        _ => None,
                    };
                    ospf.redistribute.push(Redistribution {
                        protocol: proto.to_string(),
                        route_map: rm,
                        metric: None,
                        span: Span::line(n),
                    });
                }
                _ => {} // unmodeled ospf line
            }
        }
        self.cfg.ospf = Some(ospf);
        Ok(())
    }
}

/// OSPF areas may be written as integers or dotted quads.
fn parse_area(tok: &str, line: u32) -> Result<u32, ParseError> {
    if let Ok(v) = tok.parse::<u32>() {
        return Ok(v);
    }
    if let Ok(ip) = tok.parse::<Ipv4Addr>() {
        return Ok(u32::from(ip));
    }
    Err(ParseError::at(line, format!("bad OSPF area {tok:?}")))
}

/// Classful prefix length for bare `network` statements.
fn classful_len(a: Ipv4Addr) -> u8 {
    let first = a.octets()[0];
    if first < 128 {
        8
    } else if first < 192 {
        16
    } else {
        24
    }
}
