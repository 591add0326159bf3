//! Stable per-component content hashing of the VI model — the foundation
//! of `campion-fleetd`'s incremental recompute (DESIGN.md §2h).
//!
//! A pair comparison is a pure function of the two routers' *compared
//! components* (policies, ACLs, the structural families) **and** of the
//! configuration text those components quote: `Present` renders source
//! snippets via spans, and structural findings print the span line numbers
//! themselves. A component's hash therefore covers both its lowered IR
//! (including every embedded [`Span`](campion_cfg::Span)) and the dedented
//! snippet of its overall span — if either moves, the hash moves, and the
//! fleet daemon recomputes exactly the pairs that read the changed
//! component.
//!
//! The hash is FNV-1a over the component's `Debug` rendering plus its
//! quoted text. `Debug` output is stable for a given crate version; the
//! snapshot store pins its own format version (and re-derives hashes on
//! decode-version bumps), so cross-version drift degrades to a recompute,
//! never to a stale report.

use std::collections::BTreeMap;

use crate::RouterIr;

/// 64-bit FNV-1a (offset basis 0xcbf29ce484222325, prime 0x100000001b3):
/// tiny, dependency-free, and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// Fold another already-computed hash into `acc` (order-sensitive).
pub fn fnv1a64_combine(acc: u64, h: u64) -> u64 {
    fnv1a64_with(acc, &h.to_le_bytes())
}

fn fnv1a64_with(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Hash of a raw configuration text (the parse-skip fast path: when a
/// router's text hash is unchanged between snapshots, its component hashes
/// are reused verbatim and the file is never re-parsed).
pub fn text_hash(text: &str) -> u64 {
    fnv1a64(text.as_bytes())
}

/// The per-component content hashes of one lowered router.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ComponentHashes {
    /// One hash per route policy, by name.
    pub policies: BTreeMap<String, u64>,
    /// One hash per ACL / firewall filter, by name.
    pub acls: BTreeMap<String, u64>,
    /// One hash over everything `StructuralDiff` reads: static routes,
    /// interfaces (connected routes), BGP process and OSPF attributes.
    pub structural: u64,
}

impl ComponentHashes {
    /// A single order-sensitive digest of every component hash — the
    /// router's contribution to a pair key.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a64(b"components.v1");
        for (name, ph) in &self.policies {
            h = fnv1a64_with(h, name.as_bytes());
            h = fnv1a64_with(h, &ph.to_le_bytes());
        }
        for (name, ah) in &self.acls {
            h = fnv1a64_with(h, name.as_bytes());
            h = fnv1a64_with(h, &ah.to_le_bytes());
        }
        fnv1a64_with(h, &self.structural.to_le_bytes())
    }

    /// The component names whose hashes differ from `other`'s (added,
    /// removed, or changed) — the provenance the fleet API reports for a
    /// recompute.
    pub fn changed_components(&self, other: &ComponentHashes) -> Vec<String> {
        let mut out = Vec::new();
        let keys = |a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>| {
            let mut k: Vec<String> = a.keys().chain(b.keys()).cloned().collect();
            k.sort();
            k.dedup();
            k
        };
        for name in keys(&self.policies, &other.policies) {
            if self.policies.get(&name) != other.policies.get(&name) {
                out.push(format!("policy {name}"));
            }
        }
        for name in keys(&self.acls, &other.acls) {
            if self.acls.get(&name) != other.acls.get(&name) {
                out.push(format!("acl {name}"));
            }
        }
        if self.structural != other.structural {
            out.push("structural".to_string());
        }
        out
    }
}

/// Hash one component: its `Debug` rendering (covers the full lowered IR,
/// spans included) plus the quoted source text of the given spans.
fn component_hash(debug: &str, router: &RouterIr, spans: &[campion_cfg::Span]) -> u64 {
    let mut h = fnv1a64(debug.as_bytes());
    for s in spans {
        h = fnv1a64_with(h, router.snippet(*s).as_bytes());
        h = fnv1a64_with(h, b"\x00");
    }
    h
}

/// Compute the per-component content hashes of a lowered router.
pub fn hash_router(r: &RouterIr) -> ComponentHashes {
    let mut out = ComponentHashes::default();
    for (name, p) in &r.policies {
        out.policies.insert(
            name.clone(),
            component_hash(&format!("{p:?}"), r, &[p.span]),
        );
    }
    for (name, a) in &r.acls {
        out.acls.insert(
            name.clone(),
            component_hash(&format!("{a:?}"), r, &[a.span]),
        );
    }
    // Everything StructuralDiff (and MatchPolicies) reads outside the two
    // maps above, hashed as one unit with each element's quoted text.
    let mut spans: Vec<campion_cfg::Span> = Vec::new();
    spans.extend(r.static_routes.iter().map(|s| s.span));
    spans.extend(r.interfaces.values().map(|i| i.span));
    spans.extend(r.ospf_interfaces.iter().map(|o| o.span));
    spans.extend(r.ospf_redistribute.iter().map(|x| x.span));
    if let Some(bgp) = &r.bgp {
        spans.push(bgp.span);
        spans.extend(bgp.neighbors.values().map(|n| n.span));
    }
    let debug = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.name,
        r.vendor,
        r.static_routes,
        r.interfaces,
        r.ospf_interfaces,
        r.ospf_redistribute,
        r.ospf_distance,
        r.bgp,
    );
    out.structural = component_hash(&debug, r, &spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use campion_cfg::parse_config;
    use campion_cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER};

    fn load(text: &str) -> RouterIr {
        crate::lower(&parse_config(text).expect("parse")).expect("lower")
    }

    #[test]
    fn hashing_is_deterministic() {
        let r = load(FIGURE1_CISCO);
        assert_eq!(hash_router(&r), hash_router(&r));
        assert_eq!(hash_router(&r).digest(), hash_router(&r).digest());
    }

    #[test]
    fn different_routers_hash_differently() {
        let c = hash_router(&load(FIGURE1_CISCO));
        let j = hash_router(&load(FIGURE1_JUNIPER));
        assert_ne!(c.digest(), j.digest());
    }

    #[test]
    fn editing_one_component_moves_only_that_component() {
        let base = "route-map A permit 10\nroute-map B deny 10\n";
        let edited = "route-map A permit 10\nroute-map B deny 20\n";
        let h1 = hash_router(&load(base));
        let h2 = hash_router(&load(edited));
        assert_eq!(h1.policies["A"], h2.policies["A"]);
        assert_ne!(h1.policies["B"], h2.policies["B"]);
        assert_eq!(h1.structural, h2.structural);
        assert_eq!(h2.changed_components(&h1), vec!["policy B".to_string()]);
    }

    #[test]
    fn structural_edit_moves_structural_hash() {
        let base = "hostname r1\n";
        let edited = "hostname r1\nip route 10.0.0.0 255.0.0.0 192.168.0.1\n";
        let h1 = hash_router(&load(base));
        let h2 = hash_router(&load(edited));
        assert_ne!(h1.structural, h2.structural);
        assert_eq!(h2.changed_components(&h1), vec!["structural".to_string()]);
    }

    #[test]
    fn span_shift_is_conservative() {
        // Inserting a line above a component shifts its spans: the quoted
        // line numbers (which structural findings print) change, so the
        // hash must change even though the semantics are identical.
        let base = "ip route 10.0.0.0 255.0.0.0 192.168.0.1\n";
        let shifted = "hostname r1\nip route 10.0.0.0 255.0.0.0 192.168.0.1\n";
        let h1 = hash_router(&load(base));
        let h2 = hash_router(&load(shifted));
        assert_ne!(h1.structural, h2.structural);
    }

    #[test]
    fn text_hash_tracks_bytes() {
        assert_eq!(text_hash("abc"), text_hash("abc"));
        assert_ne!(text_hash("abc"), text_hash("abd"));
    }
}
