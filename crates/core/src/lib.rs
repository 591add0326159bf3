//! # campion-core — the paper's contribution
//!
//! The modular configuration-differencing pipeline of *Campion: Debugging
//! Router Configuration Differences* (SIGCOMM 2021):
//!
//! * [`semantic`] — **SemanticDiff** (§3.1): partitions the input space of a
//!   route map or ACL into path equivalence classes (BDD predicates +
//!   composed action + text spans), then pairwise-intersects the classes of
//!   the two components to find **all** behavioral differences.
//! * [`headerloc`] — **HeaderLocalize** (§3.2): re-expresses each
//!   difference's input set minimally in terms of the prefix ranges that
//!   appear in the configurations, via a ddNF DAG and the recursive
//!   `GetMatch` traversal.
//! * [`structural`] — **StructuralDiff** (§3.3): exact structural comparison
//!   for components whose modular equivalence *is* structural equality —
//!   static routes, connected routes, BGP properties, OSPF attributes,
//!   administrative distances.
//! * [`matching`] — **MatchPolicies** (§4): pairs corresponding components
//!   across the two routers (route maps by BGP neighbor, ACLs by name,
//!   OSPF interfaces by name/subnet).
//! * [`report`] / [`driver`] — **Present**: renders each difference in the
//!   paper's two-column table format with header and text localization.
//!
//! The top-level entry point is [`compare_routers`]:
//!
//! ```
//! use campion_cfg::parse_config;
//! use campion_cfg::samples::{FIGURE1_CISCO, FIGURE1_JUNIPER};
//! use campion_core::{compare_routers, CampionOptions};
//! use campion_ir::lower;
//!
//! let cisco = lower(&parse_config(FIGURE1_CISCO).unwrap()).unwrap();
//! let juniper = lower(&parse_config(FIGURE1_JUNIPER).unwrap()).unwrap();
//! let report = compare_routers(&cisco, &juniper, &CampionOptions::default());
//! assert_eq!(report.route_map_diffs.len(), 2); // the paper's Table 2
//! ```

#![warn(missing_docs)]

pub mod commloc;
pub mod driver;
pub mod headerloc;
pub mod json;
pub mod matching;
pub mod portloc;
mod replay_shims;
pub mod report;
pub mod semantic;
pub mod structural;

pub use commloc::{community_localize, CommunityCondition, CommunityLocalization};
pub use driver::{compare_config_texts, compare_routers, steal_indexed, CampionOptions};
pub use headerloc::{
    header_localize, header_localize_with, reencode, DstAddrSpace, HeaderLocalization, RangeDag,
    RangeEncoder, RangeTerm, SrcAddrSpace,
};
pub use json::{policy_diff_json, report_json, stats_json, structural_finding_json};
pub use matching::{match_policies, MatchedComponents, PolicyPair};
pub use portloc::dst_port_localize;
pub use report::{CampionReport, FindingSide, PolicyDiffReport, StructuralFinding};
pub use semantic::{acl_paths, policy_paths, semantic_diff, PolicyPath, SemanticDifference};

#[cfg(test)]
mod tests;
