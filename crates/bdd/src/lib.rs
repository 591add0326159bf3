//! # campion-bdd — reduced ordered binary decision diagrams
//!
//! A from-scratch ROBDD engine serving the same role JavaBDD plays in the
//! original Campion implementation: the symbolic substrate under
//! `SemanticDiff` (equivalence-class predicates over packet headers and route
//! advertisements) and `HeaderLocalize` (prefix-range set algebra).
//!
//! Design goals follow the session's networking guides (smoltcp style):
//! simplicity and robustness over cleverness — no unsafe, no macro tricks,
//! plain hash-consed nodes with memoized operations.
//!
//! ## Model
//!
//! A [`Manager`] owns an arena of nodes over a fixed variable order
//! `0 .. num_vars`. A [`Bdd`] is a copyable handle (index) into that arena;
//! all operations go through the manager:
//!
//! ```
//! use campion_bdd::Manager;
//! let mut m = Manager::new(4);
//! let x0 = m.var(0);
//! let x1 = m.var(1);
//! let f = m.and(x0, x1);
//! assert_eq!(m.sat_count(f), 4); // x0 & x1 over 4 variables: 2^2 models
//! let g = m.not(f);
//! let h = m.or(f, g);
//! assert!(m.is_true(h));
//! ```
//!
//! ## Determinism
//!
//! Node indices, cube iteration order and `first_sat` are fully deterministic
//! for a fixed sequence of operations. The Minesweeper baseline relies on this
//! to make its counterexample-enumeration experiment (§2.1 of the paper)
//! reproducible.

#![warn(missing_docs)]

pub mod bits;
mod cube;
mod manager;

pub use cube::{Assignment, Cube, CubeIter};
pub use manager::{Bdd, GcPolicy, Manager, ManagerStats};

#[cfg(test)]
mod tests;
