//! The symbolic packet space for ACL analysis: the classic 5-tuple.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use campion_bdd::{bits, Assignment, Bdd, Manager};
use campion_ir::AclRuleIr;
use campion_net::{Flow, IpProtocol, PortRange, Prefix, WildcardMask};

/// Canonical identity of an ACL rule's *match condition* — every field that
/// feeds [`PacketSpace::rule_bdd`], and nothing else (label, span and
/// permit/deny don't shape the BDD). Near-identical configs repeat match
/// conditions almost verbatim across the two sides of a pair, so keying the
/// rule cache on this content hash makes the second side's encoding (and
/// duplicated rules within one ACL) a lookup instead of a rebuild.
///
/// Public because the semantic layer aligns rule lists *syntactically* by
/// this same canonical content (plus action) before building any BDDs —
/// two rules with equal keys denote equal match sets by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RuleKey {
    protocols: Vec<IpProtocol>,
    src: Vec<WildcardMask>,
    dst: Vec<WildcardMask>,
    src_ports: Vec<PortRange>,
    dst_ports: Vec<PortRange>,
}

impl RuleKey {
    /// The canonical match content of `rule`.
    pub fn of(rule: &AclRuleIr) -> Self {
        RuleKey {
            protocols: rule.protocols.clone(),
            src: rule.src.clone(),
            dst: rule.dst.clone(),
            src_ports: rule.src_ports.clone(),
            dst_ports: rule.dst_ports.clone(),
        }
    }
}

/// Variables of the destination address (first so destination-prefix
/// localization mirrors the route space's layout).
pub const DST_VARS: std::ops::Range<u32> = 0..32;
/// Variables of the source address.
pub const SRC_VARS: std::ops::Range<u32> = 32..64;
/// Variables of the IP protocol byte.
pub const PROTO_VARS: std::ops::Range<u32> = 64..72;
/// Variables of the source port.
pub const SPORT_VARS: std::ops::Range<u32> = 72..88;
/// Variables of the destination port.
pub const DPORT_VARS: std::ops::Range<u32> = 88..104;

/// Total variable count of the packet space.
pub const NUM_VARS: u32 = 104;

/// Variable layout and encoding operations for data-plane packets.
///
/// `Clone` snapshots the space (manager arena included, with node indices
/// preserved), so localization queries can run on a copy that is dropped
/// afterwards; the benchmark's traced replay does this.
#[derive(Clone)]
pub struct PacketSpace {
    /// The BDD manager (exposed so callers can run set operations).
    pub manager: Manager,
    /// Memoized rule-condition BDDs keyed by canonical match content.
    /// Entries are GC-rooted at insert: the cache is consulted for the
    /// space's whole lifetime, so they must survive any collection between
    /// rules.
    rule_cache: HashMap<RuleKey, Bdd>,
    rule_cache_lookups: u64,
    rule_cache_hits: u64,
}

impl Default for PacketSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketSpace {
    /// Create the space on a fresh manager.
    pub fn new() -> Self {
        PacketSpace {
            manager: Manager::new(NUM_VARS),
            rule_cache: HashMap::new(),
            rule_cache_lookups: 0,
            rule_cache_hits: 0,
        }
    }

    /// Every packet (the packet universe is unconstrained).
    pub fn universe(&self) -> Bdd {
        Bdd::TRUE
    }

    /// Rule-cache counters `(lookups, hits)` — one lookup per
    /// [`PacketSpace::rule_bdd`] call. The driver folds these into the
    /// report's [`campion_bdd::ManagerStats`].
    pub fn rule_cache_stats(&self) -> (u64, u64) {
        (self.rule_cache_lookups, self.rule_cache_hits)
    }

    /// Encode one ACL rule's match condition. Memoized on the rule's
    /// canonical match content, so both ACLs of a pair (which share this
    /// space and typically share almost all rules) encode each distinct
    /// condition once.
    pub fn rule_bdd(&mut self, rule: &AclRuleIr) -> Bdd {
        let key = RuleKey::of(rule);
        self.rule_cache_lookups += 1;
        if let Some(&b) = self.rule_cache.get(&key) {
            self.rule_cache_hits += 1;
            return b;
        }
        let b = self.rule_bdd_uncached(rule);
        self.manager.protect(b);
        self.rule_cache.insert(key, b);
        b
    }

    fn rule_bdd_uncached(&mut self, rule: &AclRuleIr) -> Bdd {
        let mut acc = Bdd::TRUE;

        // Protocol alternatives.
        if !rule.protocols.is_empty() {
            let proto_vars: Vec<u32> = PROTO_VARS.collect();
            let mut any = Bdd::FALSE;
            for p in &rule.protocols {
                let b = match p.number() {
                    Some(n) => bits::eq_const(&mut self.manager, &proto_vars, u64::from(n)),
                    None => Bdd::TRUE,
                };
                any = self.manager.or(any, b);
            }
            acc = self.manager.and(acc, any);
        }

        // Addresses.
        for (vars, alts) in [(SRC_VARS, &rule.src), (DST_VARS, &rule.dst)] {
            if !alts.is_empty() {
                let v: Vec<u32> = vars.collect();
                let mut any = Bdd::FALSE;
                for w in alts {
                    let b = bits::wildcard_const(&mut self.manager, &v, w.addr, w.wildcard);
                    any = self.manager.or(any, b);
                }
                acc = self.manager.and(acc, any);
            }
        }

        // Ports only exist for TCP/UDP; a port-qualified rule cannot match
        // other protocols.
        let portful = {
            let proto_vars: Vec<u32> = PROTO_VARS.collect();
            let tcp = bits::eq_const(&mut self.manager, &proto_vars, 6);
            let udp = bits::eq_const(&mut self.manager, &proto_vars, 17);
            self.manager.or(tcp, udp)
        };
        for (vars, alts) in [(SPORT_VARS, &rule.src_ports), (DPORT_VARS, &rule.dst_ports)] {
            if !alts.is_empty() {
                let v: Vec<u32> = vars.collect();
                let mut any = Bdd::FALSE;
                for r in alts {
                    let b =
                        bits::range_const(&mut self.manager, &v, u64::from(r.lo), u64::from(r.hi));
                    any = self.manager.or(any, b);
                }
                let gated = self.manager.and(portful, any);
                acc = self.manager.and(acc, gated);
            }
        }
        acc
    }

    /// The set of packets whose destination lies in a prefix range's
    /// addresses (for destination-prefix localization of ACL diffs, the
    /// length dimension collapses to address containment of the covering
    /// prefix).
    pub fn dst_prefix_bdd(&mut self, p: &Prefix) -> Bdd {
        let v: Vec<u32> = DST_VARS.collect();
        bits::prefix_const(&mut self.manager, &v, p.bits(), p.len())
    }

    /// Same for source addresses.
    pub fn src_prefix_bdd(&mut self, p: &Prefix) -> Bdd {
        let v: Vec<u32> = SRC_VARS.collect();
        bits::prefix_const(&mut self.manager, &v, p.bits(), p.len())
    }

    /// Project a predicate onto the destination-address dimensions.
    pub fn project_to_dst(&mut self, f: Bdd) -> Bdd {
        let vars: Vec<u32> = (DST_VARS.end..NUM_VARS).collect();
        self.manager.exists(f, &vars)
    }

    /// Project a predicate onto the source-address dimensions.
    pub fn project_to_src(&mut self, f: Bdd) -> Bdd {
        let mut vars: Vec<u32> = DST_VARS.collect();
        vars.extend(SRC_VARS.end..NUM_VARS);
        self.manager.exists(f, &vars)
    }

    /// Decode a satisfying assignment into a concrete flow plus display
    /// metadata.
    pub fn concretize(&self, a: &Assignment) -> FlowExample {
        let flow = Flow {
            dst_ip: Ipv4Addr::from(a.decode_be(DST_VARS) as u32),
            src_ip: Ipv4Addr::from(a.decode_be(SRC_VARS) as u32),
            protocol: a.decode_be(PROTO_VARS) as u8,
            src_port: a.decode_be(SPORT_VARS) as u16,
            dst_port: a.decode_be(DPORT_VARS) as u16,
        };
        FlowExample { flow }
    }

    /// Encode a concrete flow as a point predicate (for differential tests).
    pub fn flow_bdd(&mut self, f: &Flow) -> Bdd {
        let dst: Vec<u32> = DST_VARS.collect();
        let src: Vec<u32> = SRC_VARS.collect();
        let proto: Vec<u32> = PROTO_VARS.collect();
        let sp: Vec<u32> = SPORT_VARS.collect();
        let dp: Vec<u32> = DPORT_VARS.collect();
        let mut acc = bits::eq_const(&mut self.manager, &dst, u64::from(u32::from(f.dst_ip)));
        let b = bits::eq_const(&mut self.manager, &src, u64::from(u32::from(f.src_ip)));
        acc = self.manager.and(acc, b);
        let b = bits::eq_const(&mut self.manager, &proto, u64::from(f.protocol));
        acc = self.manager.and(acc, b);
        let b = bits::eq_const(&mut self.manager, &sp, u64::from(f.src_port));
        acc = self.manager.and(acc, b);
        let b = bits::eq_const(&mut self.manager, &dp, u64::from(f.dst_port));
        acc = self.manager.and(acc, b);
        acc
    }
}

/// A decoded packet example for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowExample {
    /// The concrete flow.
    pub flow: Flow,
}

impl fmt::Display for FlowExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.flow)
    }
}
