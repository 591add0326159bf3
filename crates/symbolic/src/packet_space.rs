//! The symbolic packet space for ACL analysis: the classic 5-tuple.

use std::borrow::Cow;
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
///
/// A key borrows the rule it keys; the rule cache stores an owned copy
/// only when it misses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RuleKey<'a> {
    protocols: Cow<'a, [IpProtocol]>,
    src: Cow<'a, [WildcardMask]>,
    dst: Cow<'a, [WildcardMask]>,
    src_ports: Cow<'a, [PortRange]>,
    dst_ports: Cow<'a, [PortRange]>,
}

impl<'a> RuleKey<'a> {
    /// The canonical match content of `rule`, borrowed from it.
    pub fn of(rule: &'a AclRuleIr) -> Self {
        RuleKey {
            protocols: Cow::Borrowed(&rule.protocols),
            src: Cow::Borrowed(&rule.src),
            dst: Cow::Borrowed(&rule.dst),
            src_ports: Cow::Borrowed(&rule.src_ports),
            dst_ports: Cow::Borrowed(&rule.dst_ports),
        }
    }

    /// The same key, owning its content.
    fn into_owned(self) -> RuleKey<'static> {
        RuleKey {
            protocols: Cow::Owned(self.protocols.into_owned()),
            src: Cow::Owned(self.src.into_owned()),
            dst: Cow::Owned(self.dst.into_owned()),
            src_ports: Cow::Owned(self.src_ports.into_owned()),
            dst_ports: Cow::Owned(self.dst_ports.into_owned()),
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
    /// [`PacketSpace::compact`] clears it.
    rule_cache: HashMap<RuleKey<'static>, Bdd>,
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

    /// Compact the manager to what `roots` reach, rewriting them
    /// ([`Manager::compact`]). The rule cache, whose handles that
    /// invalidates, is cleared first; its counters carry on.
    pub fn compact(&mut self, roots: &mut [Bdd]) {
        self.rule_cache.clear();
        self.manager.compact(roots);
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
        // `HashMap` is covariant in its key, so the owned-key cache can be
        // read through a borrowed key.
        let cache: &HashMap<RuleKey<'_>, Bdd> = &self.rule_cache;
        if let Some(&b) = cache.get(&key) {
            self.rule_cache_hits += 1;
            return b;
        }
        let b = self.rule_bdd_uncached(rule);
        self.rule_cache.insert(key.into_owned(), b);
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
