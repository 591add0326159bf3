//! # campion-symbolic — BDD encodings of packets and route advertisements
//!
//! This crate is the bridge between the VI model ([`campion_ir`]) and the
//! BDD engine ([`campion_bdd`]): it fixes variable layouts for the two input
//! spaces Campion partitions —
//!
//! * [`RouteSpace`]: route advertisements (destination prefix + length,
//!   community *atoms*, tag/metric atoms, source protocol), used for route
//!   maps; and
//! * [`PacketSpace`]: the data-plane 5-tuple, used for ACLs —
//!
//! and provides the symbolic transfer machinery ([`SymbolicRoute`]) that
//! tracks attribute rewrites along fall-through paths, mirroring Batfish's
//! `TransferBDD` as used by the original Campion.
//!
//! ## Community atoms
//!
//! Communities are encoded as *atomic predicates*: one BDD variable per
//! community literal appearing in either compared component, plus one
//! variable per distinct regex meaning "the route carries some community
//! *outside* the literal universe that matches this pattern". A regex match
//! is then the disjunction of its matching literals' variables and its own
//! unknown-variable. Two textually different regexes therefore get distinct
//! unknown-atoms and are (soundly) flagged as potentially different — this
//! slightly overapproximates regex equivalence, as documented in DESIGN.md.

#![warn(missing_docs)]

mod action;
mod packet_space;
mod route_space;

pub use action::ActionEffect;
pub use packet_space::{FlowExample, PacketSpace, RuleKey, DST_VARS, SRC_VARS};
pub use route_space::{
    AtomKey, ClauseKey, FieldState, RouteExample, RouteSpace, SymbolicRoute, LEN_VARS, PREFIX_VARS,
    PROTO_VARS,
};

/// The destination-port variable run of the packet space.
pub fn packet_dport_vars() -> std::ops::Range<u32> {
    packet_space::DPORT_VARS
}

/// Total variable count of the packet space.
pub fn packet_num_vars() -> u32 {
    packet_space::NUM_VARS
}

#[cfg(test)]
mod tests;
