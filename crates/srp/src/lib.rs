//! # campion-srp — a stable-routing-problem control-plane simulator
//!
//! The paper's soundness theorem (§3.4) states that two *locally
//! equivalent* networks — isomorphic topologies whose corresponding edges
//! carry behaviorally equivalent configurations — compute the same routing
//! solutions, which is why Campion can be **protocol-free**: it never needs
//! to model BGP or OSPF themselves.
//!
//! This crate makes that theorem *testable* in this reproduction. It
//! implements:
//!
//! * the abstract **SRP** of Definition 3.1 ([`srp`]): a topology, a route
//!   domain, per-edge transfer functions, and a preference relation, with a
//!   synchronous fixed-point solver;
//! * a **BGP instantiation** ([`bgp`]): route advertisements transformed by
//!   the routers' export/import [`RoutePolicy`](campion_ir::RoutePolicy)s,
//!   selected by the standard decision process (weight, local-pref, AS-path
//!   length, MED, neighbor address);
//! * an **OSPF instantiation** ([`ospf`]): Dijkstra over configured link
//!   costs;
//! * a **RIB/FIB layer** ([`network`]): admin-distance merge of connected,
//!   static, OSPF and BGP routes, longest-prefix-match forwarding, and
//!   interface ACL evaluation.
//!
//! The workspace integration tests use it to check, end to end: when
//! Campion reports *no differences* between two routers, substituting one
//! for the other inside a simulated network leaves every router's routing
//! solution unchanged.

#![warn(missing_docs)]

pub mod bgp;
pub mod network;
pub mod ospf;
pub mod srp;

pub use bgp::BgpRoute;
pub use network::{Link, Network, RibEntry, RibProtocol};
pub use ospf::OspfRoute;
pub use srp::{SolveError, Srp};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
