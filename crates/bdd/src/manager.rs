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
//!   key match and every sweep scrubs out entries that reference a freed
//!   slot, so entries can never dangle onto a recycled arena slot. The
//!   constant encoders of [`crate::bits`] need no memo: they build their
//!   node chains bottom-up with `mk`.
//!
//! ## Garbage collection (reachable-mark, CUDD-style safe points)
//!
//! Long-lived managers reclaim dead nodes with a reachable-mark collector:
//!
//! * **Root set** — callers declare the BDDs they keep alive across
//!   operations with [`Manager::protect`] / [`Manager::unprotect`]
//!   (refcounted, so the same handle may be protected from several
//!   owners). The two terminals are implicitly always rooted.
//! * **Mark** — a DFS from the protected roots over the arena.
//! * **Sweep** — unmarked slots are poisoned and pushed on a free list
//!   (recycled by `mk`, so *live node indices never move* and outstanding
//!   rooted handles stay valid), the open-addressing unique table is
//!   rebuilt in place over the survivors, and the computed table is
//!   scrubbed: entries naming only surviving nodes stay warm (indices
//!   are stable), entries naming a freed slot are dropped (they could
//!   otherwise alias a recycled slot).
//! * **Trigger policy** — [`Manager::gc`] collects immediately;
//!   [`Manager::gc_checkpoint`] consults the configured [`GcPolicy`]:
//!   automatic mode collects at safe points once the in-use arena has
//!   outgrown the live set of the previous collection, and skips the
//!   sweep (keeping the computed table warm) when marking finds little
//!   garbage.
//!
//! Checkpoints are **safe points**: callers may only invoke
//! `gc_checkpoint` when every BDD they need afterwards is protected.
//! Operations never collect on their own, so intermediate handles held
//! across plain operation calls are always safe.
//!
//! Every table keeps hit/probe counters, surfaced through
//! [`Manager::stats`] so benchmarks (the `scalability` bin) can report
//! cache behavior, GC activity and peak/post-GC node counts alongside
//! wall-clock numbers.

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

/// `var` value poisoning a freed arena slot. Distinct from every decision
/// level and from the terminals' `var == num_vars`, so table rebuilds can
/// skip dead slots and debug traversals of dangling handles fail loudly.
const POISON: u32 = u32::MAX;

/// The node written into a freed arena slot.
const POISON_NODE: Node = Node {
    var: POISON,
    low: Bdd::FALSE,
    high: Bdd::FALSE,
};

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
    /// Probe steps beyond the home slot (collision walk length).
    collisions: u64,
    /// Number of times the table doubled.
    grows: u64,
}

impl UniqueTable {
    /// An empty table of 64 slots, the floor the sweep's rebuild keeps too.
    fn new() -> Self {
        let capacity = 64;
        UniqueTable {
            slots: vec![EMPTY; capacity],
            mask: capacity - 1,
            len: 0,
            hits: 0,
            lookups: 0,
            collisions: 0,
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
            self.collisions += 1;
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

    /// Double the table and rehash every live non-terminal node.
    fn grow(&mut self, nodes: &[Node]) {
        self.grows += 1;
        self.rehash(nodes, self.slots.len() * 2);
    }

    /// Rebuild the table at `new_cap` slots (a power of two) from the live
    /// (non-poisoned) nodes of the arena — used by both growth and the
    /// post-sweep rebuild, which may also *shrink* the table.
    fn rehash(&mut self, nodes: &[Node], new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        self.mask = new_cap - 1;
        self.slots.clear();
        self.slots.resize(new_cap, EMPTY);
        self.len = 0;
        for (i, n) in nodes.iter().enumerate().skip(2) {
            if n.var == POISON {
                continue;
            }
            let mut slot = slot_of(node_hash(n.var, n.low, n.high), self.mask);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = u32::try_from(i).expect("BDD arena overflow");
            self.len += 1;
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

    /// Drop every entry for which `keep` returns false. The sweep uses
    /// this to scrub out entries naming freed slots while leaving results
    /// over surviving nodes warm (live indices never move).
    fn retain(&mut self, keep: impl Fn(&ApplyKey, Bdd) -> bool) {
        for e in &mut self.entries {
            if let Some((k, v)) = e {
                if !keep(k, *v) {
                    *e = None;
                }
            }
        }
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
/// last-level cache each lookup becomes a DRAM miss. Collections scrub the
/// table but never resize it.
const APPLY_CACHE_BITS: u32 = 14;

/// When (if ever) [`Manager::gc_checkpoint`] actually collects.
///
/// Checkpoints are placed by callers at *safe points* — moments when every
/// BDD needed later is protected — so the policy only decides frequency,
/// never safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcPolicy {
    /// Never collect automatically (a manual [`Manager::gc`] still works).
    /// The default: short-lived managers are cheapest when dropped whole.
    #[default]
    Disabled,
    /// Collect at a checkpoint once the in-use arena has grown past
    /// `growth_factor ×` the live set left by the previous collection
    /// (with `min_nodes` as the absolute floor, so small managers never
    /// pay for marking). If the mark pass then finds under ~12.5% garbage
    /// the sweep is skipped and the trigger backs off instead.
    Automatic {
        /// Arena-growth multiple that arms the trigger (≥ 2 recommended).
        growth_factor: usize,
        /// Never collect below this many in-use nodes.
        min_nodes: usize,
    },
    /// Collect (mark *and* sweep) at every checkpoint. For differential
    /// tests that must prove GC transparency; ruinous for throughput.
    Aggressive,
}

impl GcPolicy {
    /// The recommended automatic policy: collect when the arena doubles
    /// past the previous live set, never under 64k in-use nodes. Doubling
    /// bounds peak memory at ~2× the live set (plus within-item growth
    /// between checkpoints) while cache scrubbing keeps the sweeps cheap
    /// (measured in EXPERIMENTS.md §5.4).
    pub fn automatic() -> GcPolicy {
        GcPolicy::Automatic {
            growth_factor: 2,
            min_nodes: 1 << 16,
        }
    }
}

/// A point-in-time snapshot of a manager's internal counters, for
/// benchmarks and scalability reporting. Obtain via [`Manager::stats`];
/// merge across managers with [`ManagerStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Live (in-use) nodes, including the two terminals. Equals
    /// allocated-ever only when the manager has never swept.
    pub nodes: u64,
    /// High-water mark of live nodes over the manager's lifetime.
    pub peak_nodes: u64,
    /// Live nodes right after the most recent sweep (0 if never swept).
    pub post_gc_nodes: u64,
    /// Completed collections (sweeps; skipped-sweep checkpoints excluded).
    pub gc_runs: u64,
    /// Nodes freed across all collections.
    pub gc_nodes_freed: u64,
    /// GC pauses: entries into the collector, including mark-only passes
    /// that skipped the sweep (a superset of `gc_runs`).
    pub gc_pauses: u64,
    /// Total wall-clock time spent paused in the collector, microseconds.
    pub gc_pause_us: u64,
    /// Longest single collector pause, microseconds (tail latency: one bad
    /// pause hides inside `gc_pause_us / gc_pauses`).
    pub gc_pause_max_us: u64,
    /// Unique-table lookups (one per `mk` after the reduction rule).
    pub unique_lookups: u64,
    /// Unique-table lookups that found an existing node.
    pub unique_hits: u64,
    /// Probe steps beyond the home slot across all unique-table lookups.
    pub unique_collisions: u64,
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

    /// Mean probe steps beyond the home slot per unique-table lookup.
    pub fn unique_collisions_per_lookup(&self) -> f64 {
        if self.unique_lookups == 0 {
            0.0
        } else {
            self.unique_collisions as f64 / self.unique_lookups as f64
        }
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
        self.gc_pauses += other.gc_pauses;
        self.gc_pause_us += other.gc_pause_us;
        self.gc_pause_max_us = self.gc_pause_max_us.max(other.gc_pause_max_us);
        self.unique_lookups += other.unique_lookups;
        self.unique_hits += other.unique_hits;
        self.unique_collisions += other.unique_collisions;
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
/// [`Bdd`] handle (and protect refcount) valid in the original is valid in
/// the clone and denotes the same function. A clone can run throwaway
/// queries (the benchmark's traced replay localizes on one) and be dropped
/// wholesale afterwards.
#[derive(Clone)]
pub struct Manager {
    num_vars: u32,
    nodes: Vec<Node>,
    unique: UniqueTable,
    apply_cache: DirectCache,
    /// Freed arena slots awaiting reuse, ascending (pop recycles the
    /// highest index first — deterministic for a fixed operation/GC
    /// sequence).
    free: Vec<u32>,
    /// Protect-refcounts per rooted node index (terminals are implicit).
    roots: HashMap<u32, u32>,
    gc_policy: GcPolicy,
    /// Live count right after the last sweep (or mark-only back-off).
    live_after_gc: usize,
    /// High-water mark of live nodes.
    peak_live: usize,
    gc_runs: u64,
    gc_nodes_freed: u64,
    gc_pauses: u64,
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
            free: Vec::new(),
            roots: HashMap::new(),
            gc_policy: GcPolicy::Disabled,
            live_after_gc: 0,
            peak_live: 2,
            gc_runs: 0,
            gc_nodes_freed: 0,
            gc_pauses: 0,
            gc_pause_us: 0,
            gc_pause_max_us: 0,
        }
    }

    /// Number of variables in this manager's order.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of live (in-use) nodes, including the two terminals —
    /// allocated minus freed-and-not-yet-recycled. Useful for benchmarks
    /// and scalability reporting.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Snapshot of the internal hot-path counters.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            nodes: self.node_count() as u64,
            peak_nodes: self.peak_live as u64,
            post_gc_nodes: self.live_after_gc as u64,
            gc_runs: self.gc_runs,
            gc_nodes_freed: self.gc_nodes_freed,
            gc_pauses: self.gc_pauses,
            gc_pause_us: self.gc_pause_us,
            gc_pause_max_us: self.gc_pause_max_us,
            unique_lookups: self.unique.lookups,
            unique_hits: self.unique.hits,
            unique_collisions: self.unique.collisions,
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
                let node = Node { var, low, high };
                // Recycle a swept slot when one is available so handles stay
                // dense; otherwise extend the arena. The free list is rebuilt
                // in ascending index order by every sweep, so `pop` hands out
                // the highest free index first — deterministic across runs.
                let idx = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = node;
                        i
                    }
                    None => {
                        let idx = u32::try_from(self.nodes.len()).expect("BDD arena overflow");
                        assert!(idx != EMPTY, "BDD arena overflow");
                        self.nodes.push(node);
                        idx
                    }
                };
                self.unique.insert(slot, idx, &self.nodes);
                let live = self.nodes.len() - self.free.len();
                if live > self.peak_live {
                    self.peak_live = live;
                }
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

    // === Garbage collection =================================================

    /// Add `f` to the root set. Roots (and everything reachable from them)
    /// survive collection; every other node is swept. Protecting the same
    /// handle more than once is reference-counted, so nested callers can
    /// protect/unprotect independently. Terminals are always live and need
    /// no protection.
    pub fn protect(&mut self, f: Bdd) {
        if f.is_const() {
            return;
        }
        debug_assert!((f.0 as usize) < self.nodes.len());
        debug_assert!(
            self.nodes[f.0 as usize].var != POISON,
            "protecting a dead handle"
        );
        *self.roots.entry(f.0).or_insert(0) += 1;
    }

    /// Drop one protection reference from `f` (the inverse of
    /// [`Manager::protect`]). The node only becomes collectable once every
    /// protect call has been balanced by an unprotect.
    pub fn unprotect(&mut self, f: Bdd) {
        if f.is_const() {
            return;
        }
        match self.roots.get_mut(&f.0) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                self.roots.remove(&f.0);
            }
            None => debug_assert!(false, "unprotect without matching protect"),
        }
    }

    /// Number of distinct protected handles (for tests and diagnostics).
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Install a collection trigger policy. The default is
    /// [`GcPolicy::Disabled`]; see the policy docs for the trigger math.
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = policy;
    }

    /// The currently-installed trigger policy.
    pub fn gc_policy(&self) -> GcPolicy {
        self.gc_policy
    }

    /// Force a full mark/sweep collection now, regardless of policy.
    /// Returns the number of nodes freed. Every `Bdd` handle not reachable
    /// from the root set is invalid afterwards — see the module docs for
    /// the safe-point contract.
    pub fn gc(&mut self) -> usize {
        self.collect(true)
    }

    /// A safe point: run a collection here if (and only if) the installed
    /// [`GcPolicy`] asks for one. Returns whether a sweep ran. Callers place
    /// this between logical work items, after protecting everything they
    /// hold across the call.
    pub fn gc_checkpoint(&mut self) -> bool {
        match self.gc_policy {
            GcPolicy::Disabled => false,
            GcPolicy::Aggressive => {
                self.collect(true);
                true
            }
            GcPolicy::Automatic {
                growth_factor,
                min_nodes,
            } => {
                let in_use = self.nodes.len() - self.free.len();
                let floor = self.live_after_gc.max(min_nodes);
                if in_use >= floor.saturating_mul(growth_factor.max(1)) {
                    self.collect(false) > 0
                } else {
                    false
                }
            }
        }
    }

    /// Mark every node reachable from the root set. Returns the mark bitmap
    /// (bit per arena index, terminals always set) and the live count.
    fn mark_reachable(&self) -> (Vec<u64>, usize) {
        let words = self.nodes.len().div_ceil(64);
        let mut marks = vec![0u64; words];
        marks[0] |= 0b11; // terminals are always live
        let mut live = 2usize;
        let mut stack: Vec<u32> = self.roots.keys().copied().collect();
        while let Some(i) = stack.pop() {
            let (word, bit) = (i as usize / 64, i as usize % 64);
            if marks[word] & (1 << bit) != 0 {
                continue;
            }
            marks[word] |= 1 << bit;
            live += 1;
            let node = &self.nodes[i as usize];
            debug_assert!(node.var != POISON, "marked a dead node");
            if !node.low.is_const() {
                stack.push(node.low.0);
            }
            if !node.high.is_const() {
                stack.push(node.high.0);
            }
        }
        (marks, live)
    }

    /// Pause-accounting wrapper around [`Manager::collect_inner`]: every
    /// collector entry (sweeps *and* mark-only back-offs) counts as one GC
    /// pause, its wall time accumulates into `gc_pause_us`, and — when the
    /// trace collector is on — the pause shows up as a `bdd.gc` span on the
    /// worker's track with the freed-node count attached.
    fn collect(&mut self, force: bool) -> usize {
        let t0 = std::time::Instant::now();
        let mut span = campion_trace::span("bdd.gc");
        let freed = self.collect_inner(force);
        self.gc_pauses += 1;
        let pause_us = t0.elapsed().as_micros() as u64;
        self.gc_pause_us += pause_us;
        self.gc_pause_max_us = self.gc_pause_max_us.max(pause_us);
        span.counter("freed_nodes", freed as i64);
        span.counter("live_nodes", self.node_count() as i64);
        freed
    }

    /// The mark/sweep engine behind [`Manager::gc`] and
    /// [`Manager::gc_checkpoint`]. When `force` is false (automatic trigger)
    /// and less than 1/8 of the in-use nodes are garbage, the sweep is
    /// skipped — marking already paid the traversal, so we just raise the
    /// trigger floor and return. Returns the number of nodes freed.
    fn collect_inner(&mut self, force: bool) -> usize {
        let in_use = self.nodes.len() - self.free.len();
        let (marks, live) = self.mark_reachable();
        let garbage = in_use - live;
        if !force && garbage * 8 < in_use {
            // Not enough garbage to be worth rebuilding the unique table.
            // Remember the live count so the automatic trigger backs off
            // instead of re-marking at every checkpoint.
            self.live_after_gc = live;
            return 0;
        }

        // Sweep: poison every unmarked slot and rebuild the free list in
        // ascending index order (deterministic reuse; see `mk`).
        self.free.clear();
        for i in 2..self.nodes.len() {
            let (word, bit) = (i / 64, i % 64);
            if marks[word] & (1 << bit) == 0 {
                self.nodes[i] = POISON_NODE;
                self.free.push(i as u32);
            }
        }

        // Rebuild the unique table over the survivors, shrinking it when the
        // live set no longer justifies the grown capacity (keep ≤ 3/4 load).
        let live_nonterminal = live - 2;
        let target = live_nonterminal
            .saturating_mul(4)
            .div_ceil(3)
            .next_power_of_two()
            .max(1 << 6);
        self.unique.rehash(&self.nodes, target);

        // Scrub the computed table instead of dropping it wholesale: an
        // entry whose operands and result all survived is still exact
        // (indices never move), and keeping it warm avoids recomputing
        // shared subresults after every collection. Entries naming a freed
        // slot must go — they would alias whatever `mk` later recycles into
        // that slot.
        let alive =
            |b: Bdd| b.is_const() || marks[b.0 as usize / 64] & (1 << (b.0 as usize % 64)) != 0;
        self.apply_cache
            .retain(|&(_, f, g), r| alive(f) && alive(g) && alive(r));

        self.gc_runs += 1;
        self.gc_nodes_freed += garbage as u64;
        self.live_after_gc = live;
        garbage
    }

    /// Check the structural invariants that must hold immediately after a
    /// collection: the unique table indexes exactly the reachable
    /// non-terminal nodes, dead slots are poisoned and on the free list, and
    /// canonicity (each live node findable at its own index) is intact.
    /// Intended for tests; panics on violation.
    pub fn assert_gc_invariants(&mut self) {
        let (marks, live) = self.mark_reachable();
        let marked = |i: usize| marks[i / 64] & (1 << (i % 64)) != 0;

        assert_eq!(self.node_count(), live, "live count out of sync");
        assert_eq!(
            self.unique.len,
            live - 2,
            "unique table population != reachable non-terminals"
        );

        let mut free_set: Vec<bool> = vec![false; self.nodes.len()];
        for &i in &self.free {
            assert!(!marked(i as usize), "reachable node on the free list");
            assert!(
                self.nodes[i as usize].var == POISON,
                "free-list node not poisoned"
            );
            assert!(!free_set[i as usize], "duplicate free-list entry");
            free_set[i as usize] = true;
        }

        let mut seen = HashMap::new();
        #[allow(clippy::needless_range_loop)] // indexes nodes, marks and free_set alike
        for i in 2..self.nodes.len() {
            let node = self.nodes[i];
            if !marked(i) {
                assert!(
                    node.var == POISON && free_set[i],
                    "dead node {i} neither poisoned nor freed"
                );
                continue;
            }
            assert!(node.var != POISON, "reachable node is poisoned");
            // Canonicity: the triple must be unique among live nodes and the
            // table must resolve it back to this exact index.
            let prev = seen.insert((node.var, node.low, node.high), i);
            assert!(prev.is_none(), "duplicate live node for {node:?}");
            match self.unique.find(&self.nodes, node.var, node.low, node.high) {
                Ok(found) => assert_eq!(found as usize, i, "unique table aliases node {i}"),
                Err(_) => panic!("live node {i} missing from unique table"),
            }
        }
    }
}
