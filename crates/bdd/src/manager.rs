//! The BDD manager: node arena, unique table, and memoized operations.
//!
//! ## Hot-path design (the CUDD/Sylvan table layout)
//!
//! The two structures every BDD operation funnels through are hand-rolled
//! for speed rather than borrowed from `std::collections`:
//!
//! * **Unique table** — an open-addressing, linear-probing hash table of
//!   node indices keyed by `(var, low, high)` with an FxHash-style
//!   multiply-xor hash. Power-of-two capacity, amortized doubling at 3/4
//!   load. Compared with a SipHash `HashMap<Node, Bdd>`, a lookup is one
//!   multiply-mix plus a short probe over a flat `u32` array.
//! * **Computed table** — one direct-mapped array with lossy overwrite
//!   (CUDD's "computed table") memoizes `apply`, the only recursive
//!   operator: `and`, `or`, `xor`, `diff` and `not` (as `TRUE ∖ f`) all go
//!   through it. A colliding insert simply replaces the previous entry;
//!   correctness is unaffected because results are only reused on an exact
//!   key match, and [`Manager::compact`], the only operation that renumbers
//!   nodes, clears the table. The constant encoders of [`crate::bits`] need
//!   no memo: they build their node chains bottom-up with `mk`.
//!
//! ## Compaction
//!
//! Operations only ever add nodes; nothing is collected behind a caller's
//! back, so every handle stays valid for as long as the manager lives.
//! A caller done with most of its arena calls [`Manager::compact`] with
//! the handles it still needs: the arena is rebuilt from what they reach,
//! they are rewritten in place, and every other handle is invalid
//! afterwards. Campion's driver compacts each pair's arena once, after
//! SemanticDiff, to the differences' inputs.
//!
//! Every table keeps hit/probe counters, surfaced through
//! [`Manager::stats`] so benchmarks (the `scalability` bin) can report
//! cache behavior, compactions and peak node counts alongside wall-clock
//! numbers.

use std::collections::HashMap;

use crate::cube::{Assignment, Cube, CubeIter};

/// A handle to a BDD node owned by a [`Manager`].
///
/// Handles are cheap to copy and compare; two handles from the same manager
/// are equal if and only if they denote the same boolean function (the arena
/// is hash-consed, so ROBDD canonicity gives structural equality for free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false handle. Valid in every manager.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true handle. Valid in every manager.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns true if this handle is the constant `false`.
    pub fn is_const_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns true if this handle is the constant `true`.
    pub fn is_const_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns true if this handle is either constant.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

/// One decision node. `var` is the decision level; `low` is the cofactor for
/// `var = 0`, `high` for `var = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    low: Bdd,
    high: Bdd,
}

/// Binary operations memoized in the apply cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    And,
    Or,
    Xor,
    Diff,
}

impl Op {
    /// Evaluate the operation on constants (returns None when not yet decided).
    fn terminal(self, f: Bdd, g: Bdd) -> Option<Bdd> {
        match self {
            Op::And => {
                if f.is_const_false() || g.is_const_false() {
                    Some(Bdd::FALSE)
                } else if f.is_const_true() {
                    Some(g)
                } else if g.is_const_true() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Or => {
                if f.is_const_true() || g.is_const_true() {
                    Some(Bdd::TRUE)
                } else if f.is_const_false() {
                    Some(g)
                } else if g.is_const_false() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Xor => {
                if f == g {
                    Some(Bdd::FALSE)
                } else if f.is_const_false() {
                    Some(g)
                } else if g.is_const_false() {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Diff => {
                // f & !g
                if f.is_const_false() || g.is_const_true() || f == g {
                    Some(Bdd::FALSE)
                } else if g.is_const_false() {
                    Some(f)
                } else {
                    None
                }
            }
        }
    }

    /// Whether the operation is commutative (lets us normalize cache keys).
    fn commutative(self) -> bool {
        matches!(self, Op::And | Op::Or | Op::Xor)
    }
}

/// FxHash-style word mixer: rotate, xor, multiply by a large odd constant.
#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    (hash.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Hash of a node key `(var, low, high)`.
#[inline]
fn node_hash(var: u32, low: Bdd, high: Bdd) -> u64 {
    let h = fx_mix(0, u64::from(var));
    let h = fx_mix(h, u64::from(low.0));
    fx_mix(h, u64::from(high.0))
}

/// Fold a 64-bit hash down to a table index with `mask = len - 1`.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    // The multiply pushes entropy toward the high bits; fold them back in
    // before masking.
    ((hash ^ (hash >> 32)) as usize) & mask
}

/// Marker for an empty unique-table slot.
const EMPTY: u32 = u32::MAX;

/// Open-addressing unique table: node indices keyed by the node's
/// `(var, low, high)` triple, resolved against the arena.
#[derive(Clone)]
struct UniqueTable {
    /// Node index per slot, or [`EMPTY`]. Length is a power of two.
    slots: Vec<u32>,
    /// `slots.len() - 1`.
    mask: usize,
    /// Occupied slot count.
    len: usize,
    /// Lookups that found an existing node.
    hits: u64,
    /// Total lookups.
    lookups: u64,
    /// Number of times the table doubled.
    grows: u64,
}

impl UniqueTable {
    /// An empty table of 64 slots.
    fn new() -> Self {
        let capacity = 64;
        UniqueTable {
            slots: vec![EMPTY; capacity],
            mask: capacity - 1,
            len: 0,
            hits: 0,
            lookups: 0,
            grows: 0,
        }
    }

    /// Find the node equal to `(var, low, high)` or the empty slot where it
    /// belongs. Returns `Ok(existing_index)` or `Err(slot)`.
    #[inline]
    fn find(&mut self, nodes: &[Node], var: u32, low: Bdd, high: Bdd) -> Result<u32, usize> {
        self.lookups += 1;
        let mut slot = slot_of(node_hash(var, low, high), self.mask);
        loop {
            let s = self.slots[slot];
            if s == EMPTY {
                return Err(slot);
            }
            let n = nodes[s as usize];
            if n.var == var && n.low == low && n.high == high {
                self.hits += 1;
                return Ok(s);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Fill a slot previously returned by [`UniqueTable::find`] and grow at
    /// 3/4 load so probe chains stay short.
    #[inline]
    fn insert(&mut self, slot: usize, index: u32, nodes: &[Node]) {
        self.slots[slot] = index;
        self.len += 1;
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow(nodes);
        }
    }

    /// Double the table and rehash every non-terminal node.
    fn grow(&mut self, nodes: &[Node]) {
        self.grows += 1;
        let new_cap = self.slots.len() * 2;
        self.mask = new_cap - 1;
        self.slots.clear();
        self.slots.resize(new_cap, EMPTY);
        for (i, n) in nodes.iter().enumerate().skip(2) {
            let mut slot = slot_of(node_hash(n.var, n.low, n.high), self.mask);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = u32::try_from(i).expect("BDD arena overflow");
        }
    }
}

/// Key of a memoized `apply`: the operation and its (normalized) operands.
type ApplyKey = (u8, Bdd, Bdd);

/// The direct-mapped computed table (lossy overwrite on collision) with a
/// slot count fixed for the manager's lifetime.
#[derive(Clone)]
struct DirectCache {
    entries: Vec<Option<(ApplyKey, Bdd)>>,
    mask: usize,
    lookups: u64,
    hits: u64,
}

impl DirectCache {
    fn new(bits: u32) -> Self {
        let capacity = 1usize << bits;
        DirectCache {
            entries: vec![None; capacity],
            mask: capacity - 1,
            lookups: 0,
            hits: 0,
        }
    }

    /// Drop every entry, keeping the buffer.
    fn clear(&mut self) {
        self.entries.fill(None);
    }

    #[inline]
    fn get(&mut self, hash: u64, key: ApplyKey) -> Option<Bdd> {
        self.lookups += 1;
        match self.entries[slot_of(hash, self.mask)] {
            Some((k, v)) if k == key => {
                self.hits += 1;
                Some(v)
            }
            _ => None,
        }
    }

    #[inline]
    fn put(&mut self, hash: u64, key: ApplyKey, value: Bdd) {
        self.entries[slot_of(hash, self.mask)] = Some((key, value));
    }
}

/// Slot-count exponent of the computed table, fixed per manager. A fresh
/// manager's table costs well under a megabyte. Larger direct-mapped tables
/// measured slower: they are touched on every operation, and past the
/// last-level cache each lookup becomes a DRAM miss. A compaction clears
/// the table but keeps its buffer.
const APPLY_CACHE_BITS: u32 = 14;

/// A point-in-time snapshot of a manager's internal counters, for
/// benchmarks and scalability reporting. Obtain via [`Manager::stats`];
/// merge across managers with [`ManagerStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Live nodes, including the two terminals. Equals allocated-ever only
    /// when the manager has never compacted.
    pub nodes: u64,
    /// High-water mark of live nodes over the manager's lifetime.
    pub peak_nodes: u64,
    /// Live nodes right after the most recent compaction (0 if never
    /// compacted).
    pub post_gc_nodes: u64,
    /// Completed collections: [`Manager::compact`] calls.
    pub gc_runs: u64,
    /// Nodes dropped across all compactions.
    pub gc_nodes_freed: u64,
    /// Total wall-clock time spent compacting, microseconds.
    pub gc_pause_us: u64,
    /// Longest single compaction, microseconds (tail latency: one bad
    /// pause hides inside `gc_pause_us / gc_runs`).
    pub gc_pause_max_us: u64,
    /// Unique-table lookups (one per `mk` after the reduction rule).
    pub unique_lookups: u64,
    /// Unique-table lookups that found an existing node.
    pub unique_hits: u64,
    /// Times the unique table doubled.
    pub unique_grows: u64,
    /// Apply-cache (computed-table) lookups, negations included.
    pub apply_lookups: u64,
    /// Apply-cache hits.
    pub apply_hits: u64,
    /// Canonical rule-BDD cache lookups (the symbolic layer's per-space
    /// memo for ACL rule conditions / prefix-matcher folds; filled in by
    /// the driver, zero when read straight off a [`Manager`]).
    pub rule_cache_lookups: u64,
    /// Canonical rule-BDD cache hits.
    pub rule_cache_hits: u64,
    /// Semantic-diff path pairs actually visited (driver-filled; see
    /// `campion-core`'s `DiffPruneStats`).
    pub pairs_examined: u64,
    /// Semantic-diff path pairs skipped by disagreement-set pruning.
    pub pairs_pruned: u64,
    /// Semantic-diff inner loops cut short by the remainder early exit.
    pub early_exits: u64,
}

impl ManagerStats {
    /// Apply-cache hit rate in `[0, 1]` (0 when no lookups).
    pub fn apply_hit_rate(&self) -> f64 {
        rate(self.apply_hits, self.apply_lookups)
    }

    /// Rule-BDD cache hit rate in `[0, 1]` (0 when no lookups).
    pub fn rule_cache_hit_rate(&self) -> f64 {
        rate(self.rule_cache_hits, self.rule_cache_lookups)
    }

    /// Unique-table hit rate in `[0, 1]` (share of `mk` calls answered by
    /// an existing node).
    pub fn unique_hit_rate(&self) -> f64 {
        rate(self.unique_hits, self.unique_lookups)
    }

    /// Accumulate another manager's counters into this one. (Counters sum;
    /// for per-pair managers the summed `peak_nodes` is the aggregate
    /// allocation high-water mark across disjoint arenas.)
    pub fn merge(&mut self, other: &ManagerStats) {
        self.nodes += other.nodes;
        self.peak_nodes += other.peak_nodes;
        self.post_gc_nodes += other.post_gc_nodes;
        self.gc_runs += other.gc_runs;
        self.gc_nodes_freed += other.gc_nodes_freed;
        self.gc_pause_us += other.gc_pause_us;
        self.gc_pause_max_us = self.gc_pause_max_us.max(other.gc_pause_max_us);
        self.unique_lookups += other.unique_lookups;
        self.unique_hits += other.unique_hits;
        self.unique_grows += other.unique_grows;
        self.apply_lookups += other.apply_lookups;
        self.apply_hits += other.apply_hits;
        self.rule_cache_lookups += other.rule_cache_lookups;
        self.rule_cache_hits += other.rule_cache_hits;
        self.pairs_examined += other.pairs_examined;
        self.pairs_pruned += other.pairs_pruned;
        self.early_exits += other.early_exits;
    }
}

fn rate(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The BDD manager: owns all nodes and provides every operation.
///
/// The variable order is fixed at construction: variable `0` is the topmost
/// decision level. Campion's symbolic layer chooses an order that keeps
/// related header bits adjacent (most-significant destination-IP bit first),
/// which keeps prefix constraints linear-sized.
///
/// `Clone` snapshots the whole arena. Node indices are preserved, so every
/// [`Bdd`] handle valid in the original is valid in the clone and denotes
/// the same function. A clone can run throwaway queries (the benchmark's
/// traced replay localizes on one) and be dropped wholesale afterwards.
#[derive(Clone)]
pub struct Manager {
    num_vars: u32,
    nodes: Vec<Node>,
    unique: UniqueTable,
    apply_cache: DirectCache,
    /// Live count right after the last compaction.
    live_after_gc: usize,
    /// High-water mark of live nodes.
    peak_live: usize,
    gc_runs: u64,
    gc_nodes_freed: u64,
    gc_pause_us: u64,
    gc_pause_max_us: u64,
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("num_vars", &self.num_vars)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Manager {
    /// Create a manager over `num_vars` boolean variables, ordered `0..num_vars`.
    pub fn new(num_vars: u32) -> Self {
        // Index 0 and 1 are reserved for the terminals. Their stored `var` is
        // `num_vars` (one past the last real level) so that terminal `var`
        // compares greater than every decision level.
        let terminal = Node {
            var: num_vars,
            low: Bdd::FALSE,
            high: Bdd::FALSE,
        };
        Manager {
            num_vars,
            nodes: vec![
                terminal,
                Node {
                    var: num_vars,
                    low: Bdd::TRUE,
                    high: Bdd::TRUE,
                },
            ],
            unique: UniqueTable::new(),
            apply_cache: DirectCache::new(APPLY_CACHE_BITS),
            live_after_gc: 0,
            peak_live: 2,
            gc_runs: 0,
            gc_nodes_freed: 0,
            gc_pause_us: 0,
            gc_pause_max_us: 0,
        }
    }

    /// Number of variables in this manager's order.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of live nodes, including the two terminals. Useful for
    /// benchmarks and scalability reporting.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Snapshot of the internal hot-path counters.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            nodes: self.node_count() as u64,
            peak_nodes: self.peak_live as u64,
            post_gc_nodes: self.live_after_gc as u64,
            gc_runs: self.gc_runs,
            gc_nodes_freed: self.gc_nodes_freed,
            gc_pause_us: self.gc_pause_us,
            gc_pause_max_us: self.gc_pause_max_us,
            unique_lookups: self.unique.lookups,
            unique_hits: self.unique.hits,
            unique_grows: self.unique.grows,
            apply_lookups: self.apply_cache.lookups,
            apply_hits: self.apply_cache.hits,
            // Filled in by the driver layer; the manager itself has no view
            // of the symbolic rule caches or the diff pruning counters.
            rule_cache_lookups: 0,
            rule_cache_hits: 0,
            pairs_examined: 0,
            pairs_pruned: 0,
            early_exits: 0,
        }
    }

    /// Is `f` the constant true?
    pub fn is_true(&self, f: Bdd) -> bool {
        f.is_const_true()
    }

    /// Is `f` the constant false?
    pub fn is_false(&self, f: Bdd) -> bool {
        f.is_const_false()
    }

    fn var_of(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    fn low_of(&self, f: Bdd) -> Bdd {
        self.nodes[f.0 as usize].low
    }

    fn high_of(&self, f: Bdd) -> Bdd {
        self.nodes[f.0 as usize].high
    }

    /// Get-or-create the node `(var, low, high)`, applying the ROBDD
    /// reduction rule (`low == high` collapses to the child). `var` must sit
    /// above both children's variables.
    pub(crate) fn mk(&mut self, var: u32, low: Bdd, high: Bdd) -> Bdd {
        debug_assert!(var < self.num_vars, "variable {var} out of range");
        debug_assert!(var < self.var_of(low) && var < self.var_of(high));
        if low == high {
            return low;
        }
        match self.unique.find(&self.nodes, var, low, high) {
            Ok(existing) => Bdd(existing),
            Err(slot) => {
                let idx = u32::try_from(self.nodes.len()).expect("BDD arena overflow");
                assert!(idx != EMPTY, "BDD arena overflow");
                self.nodes.push(Node { var, low, high });
                self.unique.insert(slot, idx, &self.nodes);
                self.peak_live = self.peak_live.max(self.nodes.len());
                Bdd(idx)
            }
        }
    }

    /// The function `var = 1` (a single positive literal).
    pub fn var(&mut self, var: u32) -> Bdd {
        self.mk(var, Bdd::FALSE, Bdd::TRUE)
    }

    /// The function `var = 0` (a single negative literal).
    pub fn nvar(&mut self, var: u32) -> Bdd {
        self.mk(var, Bdd::TRUE, Bdd::FALSE)
    }

    /// A literal: positive if `value`, else negative.
    pub fn literal(&mut self, var: u32, value: bool) -> Bdd {
        if value {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// Boolean negation, computed as `true ∖ f`.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.apply(Op::Diff, Bdd::TRUE, f)
    }

    fn apply(&mut self, op: Op, f: Bdd, g: Bdd) -> Bdd {
        if let Some(r) = op.terminal(f, g) {
            return r;
        }
        let (f, g) = if op.commutative() && g < f {
            (g, f)
        } else {
            (f, g)
        };
        let key = (op as u8, f, g);
        let hash = fx_mix(
            fx_mix(fx_mix(0, u64::from(op as u8)), u64::from(f.0)),
            u64::from(g.0),
        );
        if let Some(r) = self.apply_cache.get(hash, key) {
            return r;
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let var = vf.min(vg);
        let (fl, fh) = if vf == var {
            (self.low_of(f), self.high_of(f))
        } else {
            (f, f)
        };
        let (gl, gh) = if vg == var {
            (self.low_of(g), self.high_of(g))
        } else {
            (g, g)
        };
        let low = self.apply(op, fl, gl);
        let high = self.apply(op, fh, gh);
        let r = self.mk(var, low, high);
        self.apply_cache.put(hash, key, r);
        r
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::And, f, g)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Xor, f, g)
    }

    /// Set difference `f ∧ ¬g` — the workhorse of `SemanticDiff` and
    /// `HeaderLocalize` (remainder sets, excluded prefixes).
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Diff, f, g)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let d = self.diff(f, g);
        self.not(d)
    }

    /// Disjunction over many operands (false for the empty list).
    ///
    /// Reduces pairwise as a balanced tree rather than a linear fold:
    /// combining operands of similar size keeps intermediate BDDs small,
    /// the classic multi-operand strategy in mature packages. Exits early
    /// once a partial disjunction is `true`.
    pub fn or_all(&mut self, fs: &[Bdd]) -> Bdd {
        if fs.is_empty() {
            return Bdd::FALSE;
        }
        let mut layer: Vec<Bdd> = fs.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for chunk in layer.chunks(2) {
                let r = if chunk.len() == 2 {
                    self.or(chunk[0], chunk[1])
                } else {
                    chunk[0]
                };
                if r.is_const_true() {
                    return Bdd::TRUE;
                }
                next.push(r);
            }
            layer = next;
        }
        layer[0]
    }

    /// Cofactor of `f` with variable `var` fixed to `value`: the oracle the
    /// tests check [`Manager::exists`] against.
    #[cfg(test)]
    pub(crate) fn restrict(&mut self, f: Bdd, var: u32, value: bool) -> Bdd {
        if f.is_const() {
            return f;
        }
        let v = self.var_of(f);
        if v > var {
            // `var` does not appear in `f` (it is below the restricted level).
            return f;
        }
        if v == var {
            return if value {
                self.high_of(f)
            } else {
                self.low_of(f)
            };
        }
        // v < var: rebuild, unmemoized (test inputs are small).
        let (low, high) = (self.low_of(f), self.high_of(f));
        let l = self.restrict(low, var, value);
        let h = self.restrict(high, var, value);
        self.mk(v, l, h)
    }

    /// Existential quantification of a set of variables:
    /// `∃ vars . f = f[var↦0] ∨ f[var↦1]` for each var, applied bottom-up.
    ///
    /// `vars` must be sorted ascending. Memoized per call — quantification
    /// over shared subgraphs is linear in the BDD size.
    pub fn exists(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
        let mut memo = HashMap::new();
        self.exists_rec(f, vars, &mut memo)
    }

    fn exists_rec(&mut self, f: Bdd, vars: &[u32], memo: &mut HashMap<Bdd, Bdd>) -> Bdd {
        if f.is_const() || vars.is_empty() {
            return f;
        }
        let v = self.var_of(f);
        // Drop quantified variables above f's top level: they are free in f.
        // (Memo entries stay valid: a node's result only depends on the
        // variables at or below its own level.)
        let mut rest = vars;
        while let Some((&first, tail)) = rest.split_first() {
            if first < v {
                rest = tail;
            } else {
                break;
            }
        }
        if rest.is_empty() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (low, high) = (self.low_of(f), self.high_of(f));
        let r = if rest[0] == v {
            let l = self.exists_rec(low, &rest[1..], memo);
            let h = self.exists_rec(high, &rest[1..], memo);
            self.or(l, h)
        } else {
            let l = self.exists_rec(low, rest, memo);
            let h = self.exists_rec(high, rest, memo);
            self.mk(v, l, h)
        };
        memo.insert(f, r);
        r
    }

    /// Number of satisfying assignments over the full variable set.
    ///
    /// Uses `u128` counts, sufficient for the ≤ 120-variable layouts the
    /// symbolic layer uses (the route-advertisement layout is < 80 variables).
    ///
    /// # Panics
    /// Panics if `num_vars > 127` and the count would overflow `u128`.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        assert!(
            self.num_vars <= 127,
            "sat_count supports at most 127 variables"
        );
        let mut memo: HashMap<Bdd, u128> = HashMap::new();
        // sat_count_rec(f) counts assignments to the variables strictly below
        // f's level (i.e. levels var_of(f)..num_vars exclusive of var_of(f)
        // itself for non-terminals). Scale up for the levels above the root.
        let below = self.sat_count_rec(f, &mut memo);
        below << self.var_of(f)
    }

    /// Counts satisfying assignments of `f` over variable levels
    /// `var_of(f) .. num_vars`.
    fn sat_count_rec(&self, f: Bdd, memo: &mut HashMap<Bdd, u128>) -> u128 {
        if f.is_const_false() {
            return 0;
        }
        if f.is_const_true() {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let node = self.nodes[f.0 as usize];
        let cl = self.sat_count_rec(node.low, memo) << (self.var_of(node.low) - node.var - 1);
        let ch = self.sat_count_rec(node.high, memo) << (self.var_of(node.high) - node.var - 1);
        let total = cl + ch;
        memo.insert(f, total);
        total
    }

    /// Evaluate `f` under a complete assignment.
    pub fn eval(&self, f: Bdd, assignment: &Assignment) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let node = self.nodes[cur.0 as usize];
            cur = if assignment.get(node.var) {
                node.high
            } else {
                node.low
            };
        }
        cur.is_const_true()
    }

    /// The cofactor of `f` on a cube of literals `(var, value)`, found by
    /// walking down `f`: it creates no node. The cube's variables ascend
    /// and cover every variable `f` tests above the cube's last one, so the
    /// walk never has to split a node.
    ///
    /// # Panics
    /// Panics if `f` tests a variable the cube skips.
    pub fn cofactor(&self, f: Bdd, cube: impl IntoIterator<Item = (u32, bool)>) -> Bdd {
        let mut cur = f;
        for (var, value) in cube {
            let node = self.nodes[cur.0 as usize];
            assert!(
                node.var >= var,
                "cofactor: f tests variable {} above the cube's literal {var}",
                node.var
            );
            if node.var == var {
                cur = if value { node.high } else { node.low };
            }
        }
        cur
    }

    /// Is `f` satisfiable? (Constant time.)
    pub fn is_sat(&self, f: Bdd) -> bool {
        !f.is_const_false()
    }

    /// The lexicographically-first satisfying cube: at each node prefer the
    /// `low` (false) branch when it can still reach `true`. Variables skipped
    /// on the path are unconstrained (`None` in the cube).
    ///
    /// Returns `None` when `f` is unsatisfiable.
    pub fn first_sat(&self, f: Bdd) -> Option<Cube> {
        if f.is_const_false() {
            return None;
        }
        let mut values: Vec<Option<bool>> = vec![None; self.num_vars as usize];
        let mut cur = f;
        while !cur.is_const() {
            let node = self.nodes[cur.0 as usize];
            if !node.low.is_const_false() {
                values[node.var as usize] = Some(false);
                cur = node.low;
            } else {
                values[node.var as usize] = Some(true);
                cur = node.high;
            }
        }
        Some(Cube::new(values))
    }

    /// The lexicographically-first *complete* satisfying assignment
    /// (unconstrained variables resolved to `false`).
    pub fn first_sat_assignment(&self, f: Bdd) -> Option<Assignment> {
        self.first_sat(f).map(|c| c.complete_with(false))
    }

    /// Like [`Manager::first_sat`], but preferring the `high` (true) branch
    /// at each node. Campion's example extraction uses this so the first
    /// listed atom appears in the example (matching the paper's Table 2(b),
    /// which shows `10:10` rather than `10:11`).
    pub fn first_sat_preferring_true(&self, f: Bdd) -> Option<Cube> {
        if f.is_const_false() {
            return None;
        }
        let mut values: Vec<Option<bool>> = vec![None; self.num_vars as usize];
        let mut cur = f;
        while !cur.is_const() {
            let node = self.nodes[cur.0 as usize];
            if !node.high.is_const_false() {
                values[node.var as usize] = Some(true);
                cur = node.high;
            } else {
                values[node.var as usize] = Some(false);
                cur = node.low;
            }
        }
        Some(Cube::new(values))
    }

    /// Iterate over all satisfying cubes of `f` in deterministic
    /// (lexicographic, low-first) order. Each yielded [`Cube`] is a disjoint
    /// path to `true`; the cubes partition the satisfying set.
    pub fn sat_cubes(&self, f: Bdd) -> CubeIter<'_> {
        CubeIter::new(self, f)
    }

    /// The set of variables on which `f` actually depends, ascending.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.0 as usize];
            vars.insert(node.var);
            stack.push(node.low);
            stack.push(node.high);
        }
        vars.into_iter().collect()
    }

    pub(crate) fn node(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        (n.var, n.low, n.high)
    }

    /// Rebuild the arena from the nodes `roots` reach and rewrite each
    /// root in place to its handle there; every other handle is invalid
    /// afterwards. The node array and the unique table are rebuilt
    /// bottom-up with `mk` (the old ones are freed), and the computed
    /// table, whose entries name old indices, is cleared.
    ///
    /// Counters stay cumulative and `peak_nodes` stays the lifetime
    /// high-water mark. A compaction is this manager's only collection:
    /// it counts as one `gc_runs`, its wall time goes to `gc_pause_us`,
    /// and, when the trace collector is on, it shows up as a `bdd.gc` span
    /// with the freed and live node counts.
    pub fn compact(&mut self, roots: &mut [Bdd]) {
        let t0 = std::time::Instant::now();
        let mut span = campion_trace::span("bdd.gc");
        let terminals = self.nodes[..2].to_vec();
        let old = std::mem::replace(&mut self.nodes, terminals);
        self.unique = UniqueTable {
            lookups: self.unique.lookups,
            hits: self.unique.hits,
            grows: self.unique.grows,
            ..UniqueTable::new()
        };
        self.apply_cache.clear();
        // Old index → new index, memoized for this call.
        let mut moved = vec![EMPTY; old.len()];
        for r in roots.iter_mut() {
            *r = self.copy_from(&old, &mut moved, *r);
        }
        let (live, freed) = (self.node_count(), old.len() - self.node_count());
        self.gc_runs += 1;
        self.gc_nodes_freed += freed as u64;
        self.live_after_gc = live;
        let pause_us = t0.elapsed().as_micros() as u64;
        self.gc_pause_us += pause_us;
        self.gc_pause_max_us = self.gc_pause_max_us.max(pause_us);
        span.counter("freed_nodes", freed as i64);
        span.counter("live_nodes", live as i64);
    }

    /// The node `f` of the `old` arena, rebuilt in this one.
    fn copy_from(&mut self, old: &[Node], moved: &mut [u32], f: Bdd) -> Bdd {
        if f.is_const() {
            return f;
        }
        if moved[f.0 as usize] != EMPTY {
            return Bdd(moved[f.0 as usize]);
        }
        let n = old[f.0 as usize];
        let low = self.copy_from(old, moved, n.low);
        let high = self.copy_from(old, moved, n.high);
        let r = self.mk(n.var, low, high);
        moved[f.0 as usize] = r.0;
        r
    }
}

/// No-op stand-ins for the entry points of the mark/sweep collector that
/// [`Manager::compact`] replaced. Kept only for campbench's traced replay,
/// which still calls them; nothing else may.
impl Manager {
    /// Kept only for campbench's traced replay: does nothing.
    pub fn protect(&mut self, _f: Bdd) {}

    /// Kept only for campbench's traced replay: does nothing.
    pub fn unprotect(&mut self, _f: Bdd) {}

    /// Kept only for campbench's traced replay: does nothing.
    pub fn gc_checkpoint(&mut self) {}

    /// Kept only for campbench's traced replay: does nothing.
    pub fn set_gc_policy(&mut self, _policy: ()) {}
}
