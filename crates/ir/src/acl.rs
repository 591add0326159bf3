//! Vendor-independent ACLs (Cisco extended ACLs, Juniper inet firewall
//! filters) and their concrete evaluation semantics.

use campion_cfg::Span;
use campion_net::{Flow, IpProtocol, PortRange, WildcardMask};

/// One rule: a conjunction of field constraints, each field being a
/// disjunction of values (empty = unconstrained). This single shape covers
/// both a Cisco ACL line (one value per field) and a Juniper filter term
/// (several values per field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclRuleIr {
    /// Display label (`"seq 20"`, `"term permit_whitelist"`).
    pub label: String,
    /// `true` = permit/accept, `false` = deny/discard.
    pub permit: bool,
    /// Protocol alternatives (empty = any).
    pub protocols: Vec<IpProtocol>,
    /// Source-address alternatives (empty = any).
    pub src: Vec<WildcardMask>,
    /// Destination-address alternatives (empty = any).
    pub dst: Vec<WildcardMask>,
    /// Source-port alternatives (empty = any).
    pub src_ports: Vec<PortRange>,
    /// Destination-port alternatives (empty = any).
    pub dst_ports: Vec<PortRange>,
    /// Source lines.
    pub span: Span,
}

impl AclRuleIr {
    /// Does the rule match a concrete flow?
    pub fn matches(&self, flow: &Flow) -> bool {
        let proto_ok =
            self.protocols.is_empty() || self.protocols.iter().any(|p| p.matches(flow.protocol));
        let src_ok = self.src.is_empty() || self.src.iter().any(|w| w.matches(flow.src_ip));
        let dst_ok = self.dst.is_empty() || self.dst.iter().any(|w| w.matches(flow.dst_ip));
        // Port constraints only bind for protocols that carry ports; a rule
        // with a port constraint cannot match a portless protocol.
        let has_ports = flow.protocol == 6 || flow.protocol == 17;
        let sport_ok = self.src_ports.is_empty()
            || (has_ports && self.src_ports.iter().any(|r| r.contains(flow.src_port)));
        let dport_ok = self.dst_ports.is_empty()
            || (has_ports && self.dst_ports.iter().any(|r| r.contains(flow.dst_port)));
        proto_ok && src_ok && dst_ok && sport_ok && dport_ok
    }
}

/// A vendor-independent ACL: ordered rules, first match wins, implicit
/// trailing deny (both vendors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclIr {
    /// ACL / filter name.
    pub name: String,
    /// Rules in order.
    pub rules: Vec<AclRuleIr>,
    /// Span of the whole definition.
    pub span: Span,
}

impl AclIr {
    /// Evaluate on a concrete flow: `(permitted, index of deciding rule)`.
    /// `None` index means the implicit trailing deny decided.
    pub fn evaluate(&self, flow: &Flow) -> (bool, Option<usize>) {
        for (i, r) in self.rules.iter().enumerate() {
            if r.matches(flow) {
                return (r.permit, Some(i));
            }
        }
        (false, None)
    }

    /// Shorthand: is the flow permitted?
    pub fn permits(&self, flow: &Flow) -> bool {
        self.evaluate(flow).0
    }
}
