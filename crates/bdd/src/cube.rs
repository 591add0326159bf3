//! Satisfying assignments and cubes.
//!
//! A *cube* is one root-to-`true` path through a BDD: each variable is
//! constrained to `false`, `true`, or left free. Campion uses cubes to pull
//! concrete examples out of difference predicates — e.g. the single community
//! example in Table 2(b) of the paper, and every Minesweeper counterexample.

use crate::manager::{Bdd, Manager};

/// A complete assignment of every variable to a boolean.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// Build from explicit values (index = variable).
    pub fn new(values: Vec<bool>) -> Self {
        Assignment { values }
    }

    /// All-false assignment over `n` variables.
    pub fn all_false(n: u32) -> Self {
        Assignment {
            values: vec![false; n as usize],
        }
    }

    /// Value of variable `var`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn get(&self, var: u32) -> bool {
        self.values[var as usize]
    }

    /// Set variable `var` to `value`.
    pub fn set(&mut self, var: u32, value: bool) {
        self.values[var as usize] = value;
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the assignment covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the underlying values.
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// Decode variables `range` as a big-endian unsigned integer (first
    /// variable in the range is the most significant bit). This matches the
    /// symbolic layer's field layout.
    pub fn decode_be(&self, range: std::ops::Range<u32>) -> u64 {
        let mut v = 0u64;
        for var in range {
            v = (v << 1) | u64::from(self.get(var));
        }
        v
    }
}

/// A partial assignment: each variable is `Some(bool)` or free (`None`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    values: Vec<Option<bool>>,
}

impl Cube {
    /// Build from explicit per-variable constraints.
    pub fn new(values: Vec<Option<bool>>) -> Self {
        Cube { values }
    }

    /// Constraint on variable `var` (`None` = unconstrained).
    pub fn get(&self, var: u32) -> Option<bool> {
        self.values[var as usize]
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the cube covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the underlying constraints.
    pub fn values(&self) -> &[Option<bool>] {
        &self.values
    }

    /// Resolve free variables to `default`, producing a complete assignment.
    pub fn complete_with(&self, default: bool) -> Assignment {
        Assignment::new(self.values.iter().map(|v| v.unwrap_or(default)).collect())
    }
}

/// Deterministic iterator over the satisfying cubes of a function, in
/// lexicographic (low-branch-first) order. The yielded cubes are pairwise
/// disjoint and their union is exactly the satisfying set.
pub struct CubeIter<'m> {
    manager: &'m Manager,
    /// Explicit DFS stack of (node, path-so-far). `path` holds constraints
    /// for variables above the node's level.
    stack: Vec<(Bdd, Vec<Option<bool>>)>,
}

impl<'m> CubeIter<'m> {
    pub(crate) fn new(manager: &'m Manager, f: Bdd) -> Self {
        let stack = if f.is_const_false() {
            Vec::new()
        } else {
            vec![(f, vec![None; manager.num_vars() as usize])]
        };
        CubeIter { manager, stack }
    }
}

impl Iterator for CubeIter<'_> {
    type Item = Cube;

    fn next(&mut self) -> Option<Cube> {
        while let Some((node, path)) = self.stack.pop() {
            if node.is_const_true() {
                return Some(Cube::new(path));
            }
            if node.is_const_false() {
                continue;
            }
            let (var, low, high) = self.manager.node(node);
            // Push high first so low is explored first (lexicographic order:
            // false < true).
            if !high.is_const_false() {
                let mut p = path.clone();
                p[var as usize] = Some(true);
                self.stack.push((high, p));
            }
            if !low.is_const_false() {
                let mut p = path;
                p[var as usize] = Some(false);
                self.stack.push((low, p));
            }
        }
        None
    }
}
