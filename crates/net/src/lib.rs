//! # campion-net — network primitives
//!
//! Shared vocabulary types for the Campion reproduction: IPv4 prefixes,
//! *prefix ranges* (the §3.2 primitive that `HeaderLocalize` manipulates),
//! BGP communities, Cisco wildcard masks, port ranges and IP protocols.
//!
//! Everything here is plain data with value semantics — no I/O, no unsafe —
//! so the parsing, symbolic and diffing layers can share it freely.

#![warn(missing_docs)]

mod community;
mod flow;
mod prefix;
mod range;
pub mod regex;
pub mod regex_dfa;
mod trie;
mod wildcard;

pub use community::Community;
pub use flow::{service_port, Flow, IpProtocol, PortRange};
pub use prefix::{ParseNetError, Prefix};
pub use range::PrefixRange;
pub use trie::PrefixTrie;
pub use wildcard::WildcardMask;

#[cfg(test)]
mod tests;
