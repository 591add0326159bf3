//! HeaderLocalize (§3.2): express a difference's input set minimally in
//! terms of the prefix ranges appearing in the configurations.
//!
//! The algorithm mirrors the paper exactly:
//!
//! 1. extract every prefix range from the two configurations, add the
//!    universe `U = (0.0.0.0/0, 0-32)`, and close the set under
//!    intersection;
//! 2. build the ddNF DAG: one node per distinct range *set* (structurally
//!    different ranges denoting the same set share a node), with a cover
//!    edge `(m, n)` exactly when `λ(n) ⊂ λ(m)` with nothing in between;
//! 3. run the recursive `GetMatch` over the DAG: a node's *remainder* (its
//!    range minus its children) is either inside or outside the target set
//!    `S`, which drives inclusion of the node's range minus the non-matching
//!    children (computed by recursing with `¬S`);
//! 4. remove *nested differences* in a single pass:
//!    `C − (F − G)` becomes `{C − F, G}`.
//!
//! ## How the DAG is built fast
//!
//! Everything the builder needs to decide — emptiness, set equality
//! (dedup), containment — is decidable *structurally* on the ranges
//! themselves, without touching the BDD engine:
//!
//! * In a route space a range denotes its **member prefixes**, and
//!   [`PrefixRange::canonical_members`] is a perfect set key:
//!   [`PrefixRange::member_superset`] decides containment exactly.
//! * In a packet-address space a range denotes the **addresses** under its
//!   covering prefix, so the key is the prefix and containment is
//!   [`Prefix::contains`].
//!
//! [`RangeEncoder::semantics`] says which reading applies. The build is
//! therefore purely structural: it encodes no BDD at all, and a
//! [`PrefixTrie`] over the node prefixes supplies each node's possible
//! partners (only prefix-nested ranges can be related) instead of a
//! per-call BTreeMap scan with sort/dedup. The pre-trie, BDD-deciding
//! builder is kept under `#[cfg(test)]` as `oracle::build_ddnf_oracle`; a
//! property suite asserts both produce identical DAGs, node order included.
//!
//! ## How localization queries are kept cheap
//!
//! A pair's DAG has thousands of nodes, but a difference usually meets
//! only a few of them. Localization work is kept in proportion to that:
//!
//! * **Overlap pruning.** `GetMatch` first tests `λ(n) ∩ S`. A node that
//!   misses `S` contributes no terms and is not recursed into: its
//!   descendants are subsets of it, so they miss `S` as well and cannot
//!   split a cell either. A query visits the root and the children of
//!   the nodes that actually meet `S`.
//! * **Lazy materialization.** Node sets and remainders (`λ(n) −
//!   children`) are encoded the first time a query needs them, in the
//!   space that is localizing, and rooted there until
//!   [`RangeDag::release`]. A node's set is needed for its overlap test;
//!   its remainder only once the node is known to meet `S`.
//! * **Reuse across queries.** A pair's DAG serves ~10 difference queries,
//!   which overlap heavily: materialized sets stay for the next query,
//!   `GetMatch` results are memoized per `(node, S)` on the DAG (`¬S`
//!   recursions hit the same table), and `¬S` itself is computed once per
//!   localize call, not once per included node.
//!
//! The eager, unpruned `GetMatch` (every set and remainder encoded up
//! front, every node visited) is kept under `#[cfg(test)]` as
//! `oracle::header_localize_eager`; a property suite asserts both return
//! the same terms and `exact` flag.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use campion_bdd::{Bdd, Manager};
use campion_net::{Prefix, PrefixRange, PrefixTrie};
use campion_symbolic::{PacketSpace, RouteSpace};

/// What set a prefix range denotes in a given encoder — selects the
/// structural set key the ddNF builder dedups and orders nodes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSemantics {
    /// The range's member prefixes (route spaces: address **and** length
    /// dimensions both matter).
    Members,
    /// The addresses under the range's covering prefix (packet spaces: the
    /// length bounds are irrelevant).
    Addresses,
}

/// Abstracts "a BDD space in which a prefix range denotes a set", so the
/// same ddNF machinery serves route maps (prefix + length dimensions) and
/// ACLs (pure address dimensions for source or destination).
pub trait RangeEncoder {
    /// The underlying manager.
    fn manager(&mut self) -> &mut Manager;
    /// The set denoted by a prefix range in this space.
    fn encode(&mut self, r: &PrefixRange) -> Bdd;
    /// Which structural reading of a range [`RangeEncoder::encode`]
    /// implements. Must agree with `encode`: two ranges with equal set keys
    /// must encode to the same BDD, and key containment must match BDD
    /// containment.
    fn semantics(&self) -> RangeSemantics;
}

impl RangeEncoder for RouteSpace {
    fn manager(&mut self) -> &mut Manager {
        &mut self.manager
    }
    fn encode(&mut self, r: &PrefixRange) -> Bdd {
        self.prefix_range_bdd(r)
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Members
    }
}

/// Destination-address view of a packet space: a range `(P, lo-hi)` denotes
/// the packets whose destination lies under `P` (length bounds are
/// irrelevant for address sets).
pub struct DstAddrSpace<'a>(pub &'a mut PacketSpace);

impl RangeEncoder for DstAddrSpace<'_> {
    fn manager(&mut self) -> &mut Manager {
        &mut self.0.manager
    }
    fn encode(&mut self, r: &PrefixRange) -> Bdd {
        self.0.dst_prefix_bdd(&r.prefix)
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Addresses
    }
}

/// Source-address view of a packet space.
pub struct SrcAddrSpace<'a>(pub &'a mut PacketSpace);

impl RangeEncoder for SrcAddrSpace<'_> {
    fn manager(&mut self) -> &mut Manager {
        &mut self.0.manager
    }
    fn encode(&mut self, r: &PrefixRange) -> Bdd {
        self.0.src_prefix_bdd(&r.prefix)
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Addresses
    }
}

/// A range's denoted set, as a hashable structural key. Under either
/// semantics the key is in bijection with the denoted set (and hence with
/// the encoded BDD): canonical member representatives for route spaces,
/// the covering prefix for address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SetKey {
    Members(PrefixRange),
    Addr(Prefix),
}

impl SetKey {
    /// The key of `r`'s denoted set, or `None` when that set is empty
    /// (address sets never are).
    fn of(sem: RangeSemantics, r: &PrefixRange) -> Option<SetKey> {
        match sem {
            RangeSemantics::Members => r.canonical_members().map(SetKey::Members),
            RangeSemantics::Addresses => Some(SetKey::Addr(r.prefix)),
        }
    }

    /// Exact set containment: `other ⊆ self`. Keys of different semantics
    /// never meet (one builder, one encoder).
    fn contains(&self, other: &SetKey) -> bool {
        match (self, other) {
            (SetKey::Members(a), SetKey::Members(b)) => a.member_superset(b),
            (SetKey::Addr(a), SetKey::Addr(b)) => a.contains(b),
            _ => unreachable!("mixed range semantics in one ddNF"),
        }
    }
}

/// One term of the final representation: a base range minus zero or more
/// excluded ranges (all nesting already removed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTerm {
    /// The included range.
    pub base: PrefixRange,
    /// Ranges subtracted from it.
    pub minus: Vec<PrefixRange>,
}

impl std::fmt::Display for RangeTerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.base)?;
        for m in &self.minus {
            write!(f, " − ({m})")?;
        }
        Ok(())
    }
}

/// The result of header localization: `S = ⋃ terms`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeaderLocalization {
    /// The union of difference terms.
    pub terms: Vec<RangeTerm>,
    /// True when the ddNF decomposition was exact (every cell was fully
    /// inside or outside `S`). Always true for sets built from the
    /// configurations' own ranges; retained as a safety signal.
    pub exact: bool,
}

impl HeaderLocalization {
    /// All included (base) ranges, for the report's "Included Prefixes" row.
    pub fn included(&self) -> Vec<PrefixRange> {
        self.terms.iter().map(|t| t.base).collect()
    }

    /// All excluded ranges, for the "Excluded Prefixes" row.
    pub fn excluded(&self) -> Vec<PrefixRange> {
        self.terms
            .iter()
            .flat_map(|t| t.minus.iter().copied())
            .collect()
    }
}

impl std::fmt::Display for HeaderLocalization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

/// `GetMatch` memo table: `(node, S) → (terms, exact)`.
type GetMatchMemo = HashMap<(usize, Bdd), (Vec<NestedTerm>, bool)>;

/// The ddNF DAG over prefix ranges. Build it once per compared pair with
/// [`RangeDag::build`] and localize many difference sets against it.
///
/// The build is structural; node sets and remainders are encoded on first
/// use, in the space passed to [`header_localize_with`], and rooted there,
/// so every query against one DAG value must pass that same space. The
/// driver localizes all of a pair's differences in the pair's own space.
/// Cloning a DAG alongside a clone of that space yields an independent
/// snapshot whose materialized handles (and memo entries) remain valid in
/// the cloned arena; the benchmark's traced replay localizes on such
/// clones. Each snapshot materializes what its own queries read.
#[derive(Clone)]
pub struct RangeDag {
    /// Node ranges (label function λ).
    ranges: Vec<PrefixRange>,
    /// Cover-edge children per node.
    children: Vec<Vec<usize>>,
    /// Node BDDs (the denoted prefix sets), once materialized.
    bdds: Vec<Cell<Option<Bdd>>>,
    /// Per-node remainders (`λ(n) − children`), once materialized.
    remainders: Vec<Cell<Option<Bdd>>>,
    /// Index of the universe node.
    root: usize,
    /// Poison flag: [`RangeDag::release`] drops the GC roots, after which
    /// localizing against this DAG would read collectable BDDs.
    released: Cell<bool>,
    /// `GetMatch` memo: `(node, S) → (terms, exact)`. Valid for one GC
    /// generation — a sweep may recycle node indices, so the table is
    /// cleared whenever the manager's GC run count moves past `memo_gen`.
    memo: RefCell<GetMatchMemo>,
    memo_gen: Cell<u64>,
}

impl RangeDag {
    /// Build the ddNF over the given configuration ranges (plus the
    /// universe, closed under intersection). Only `space`'s
    /// [`RangeEncoder::semantics`] is consulted: no BDD is encoded here.
    pub fn build<E: RangeEncoder>(space: &mut E, ranges: &[PrefixRange]) -> RangeDag {
        campion_trace::span!("headerloc.ddnf");
        build_ddnf(space.semantics(), ranges)
    }

    /// A DAG over closed, deduplicated `ranges` with the given cover edges;
    /// nothing materialized yet.
    fn from_parts(ranges: Vec<PrefixRange>, children: Vec<Vec<usize>>) -> RangeDag {
        let n = ranges.len();
        let root = ranges
            .iter()
            .position(|r| *r == PrefixRange::universe())
            .expect("universe inserted first");
        RangeDag {
            ranges,
            children,
            bdds: vec![Cell::new(None); n],
            remainders: vec![Cell::new(None); n],
            root,
            released: Cell::new(false),
            memo: RefCell::new(HashMap::new()),
            memo_gen: Cell::new(u64::MAX),
        }
    }

    /// Number of nodes (for diagnostics).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Drop the GC roots this DAG holds: every node set and remainder that
    /// localization materialized and rooted, so the DAG survives any
    /// collection run between queries. Pass the manager those queries ran
    /// in (a DAG that never localized holds no roots). A caller that drops
    /// the whole space with the DAG need not release it. The DAG must not
    /// be used for localization afterwards (debug-asserted).
    pub fn release(&self, manager: &mut Manager) {
        debug_assert!(!self.released.get(), "RangeDag released twice");
        self.released.set(true);
        for b in self.bdds.iter().chain(&self.remainders) {
            if let Some(b) = b.get() {
                manager.unprotect(b);
            }
        }
    }

    /// True when only the universe node exists.
    pub fn is_empty(&self) -> bool {
        self.ranges.len() <= 1
    }

    /// `λ(n)`, encoded in `space` and rooted on first use.
    fn node_bdd<E: RangeEncoder>(&self, space: &mut E, n: usize) -> Bdd {
        if let Some(b) = self.bdds[n].get() {
            return b;
        }
        let b = space.encode(&self.ranges[n]);
        debug_assert!(!space.manager().is_false(b), "nonempty key, empty set");
        space.manager().protect(b);
        self.bdds[n].set(Some(b));
        b
    }

    /// `λ(n) − ⋃ children(n)` (the node's cell; `λ(n)` itself at leaves),
    /// computed in `space` and rooted on first use.
    fn remainder<E: RangeEncoder>(&self, space: &mut E, n: usize) -> Bdd {
        if let Some(r) = self.remainders[n].get() {
            return r;
        }
        let mut rem = self.node_bdd(space, n);
        for &k in &self.children[n] {
            let kb = self.node_bdd(space, k);
            rem = space.manager().diff(rem, kb);
        }
        space.manager().protect(rem);
        self.remainders[n].set(Some(rem));
        rem
    }
}

type Ddnf = RangeDag;

/// Close a range set under intersection, deduplicating by denoted set via
/// structural keys; the trie answers partner queries for the fixpoint loop.
fn closed_ranges(
    sem: RangeSemantics,
    ranges: &[PrefixRange],
) -> (Vec<PrefixRange>, Vec<SetKey>, PrefixTrie) {
    let mut out: Vec<PrefixRange> = Vec::new();
    let mut keys: Vec<SetKey> = Vec::new();
    let mut trie = PrefixTrie::new();
    let mut seen: std::collections::HashSet<SetKey> = std::collections::HashSet::new();
    let mut push = |out: &mut Vec<PrefixRange>,
                    keys: &mut Vec<SetKey>,
                    trie: &mut PrefixTrie,
                    r: PrefixRange| {
        let Some(key) = SetKey::of(sem, &r) else {
            return; // denotes ∅ — e.g. length bounds under the prefix's bits
        };
        if seen.insert(key) {
            trie.insert(out.len(), &r.prefix);
            out.push(r);
            keys.push(key);
        }
    };
    push(&mut out, &mut keys, &mut trie, PrefixRange::universe());
    for r in ranges {
        push(&mut out, &mut keys, &mut trie, *r);
    }
    // Fixpoint closure under pairwise intersection, with the trie supplying
    // each node's possible partners (only prefix-nested ranges intersect)
    // instead of an all-pairs scan. Range intersection is again a range, so
    // this terminates; candidates come back in ascending order, so pushes
    // happen in the same order the plain `for j < i` loop produced.
    let mut i = 0;
    while i < out.len() {
        for j in trie.candidates(&out[i].prefix) {
            if j >= i {
                break;
            }
            if let Some(x) = out[i].intersect(&out[j]) {
                push(&mut out, &mut keys, &mut trie, x);
            }
        }
        i += 1;
    }
    (out, keys, trie)
}

/// Build the ddNF DAG from the closed range set, deciding containment on
/// the structural set keys.
fn build_ddnf(sem: RangeSemantics, ranges: &[PrefixRange]) -> Ddnf {
    let (ranges, keys, trie) = {
        campion_trace::span!("headerloc.ddnf.close");
        closed_ranges(sem, ranges)
    };
    campion_trace::span!("headerloc.ddnf.edges");
    let n = ranges.len();
    // containers[c] = nodes whose set strictly contains node c's set
    // (structurally different but equal ranges were already merged, so
    // strictness is just key inequality). The trie narrows each node's
    // possible containers to its prefix-nested partners, making this
    // near-linear for the sparse range sets real configurations produce.
    let mut containers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for m in trie.candidates(&ranges[c].prefix) {
            if c == m || ranges[c].intersect(&ranges[m]).is_none() {
                continue;
            }
            if keys[m].contains(&keys[c]) {
                containers[c].push(m);
            }
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (c, cs) in containers.iter().enumerate() {
        // Cover edges: minimal containers of c (no other container of c
        // sits strictly between). `set(k) ⊆ set(m)` is one structural
        // check, replacing the former `containers[k].contains(&m)` scan.
        for &m in cs {
            let covered = cs.iter().any(|&k| k != m && keys[m].contains(&keys[k]));
            if !covered {
                children[m].push(c);
            }
        }
    }
    RangeDag::from_parts(ranges, children)
}

/// `GetMatch` (paper §3.2): returns terms representing `S ∩ set(node)`,
/// assuming every ddNF cell is inside or outside `S`. Terms may be nested
/// (a minus item carrying its own minus list) until the cleanup pass.
#[derive(Debug, Clone)]
struct NestedTerm {
    base: PrefixRange,
    minus: Vec<NestedTerm>,
}

/// One `GetMatch` node visit, memoized per `(node, s)` on the DAG. `not_s`
/// is `¬s`, threaded down so the include-branch recursion (which queries
/// the complement) costs no `not()` calls; the roles swap on recursion
/// since `¬¬s = s` is free in a canonical BDD.
fn get_match<E: RangeEncoder>(
    space: &mut E,
    ddnf: &Ddnf,
    s: Bdd,
    not_s: Bdd,
    node: usize,
    exact: &mut bool,
) -> Vec<NestedTerm> {
    if let Some((terms, sub_exact)) = ddnf.memo.borrow().get(&(node, s)).cloned() {
        if !sub_exact {
            *exact = false;
        }
        return terms;
    }
    let range_bdd = ddnf.node_bdd(space, node);
    let overlap = space.manager().and(range_bdd, s);
    if space.manager().is_false(overlap) {
        // λ(n) misses S, and every descendant is a subset of λ(n): the
        // whole subtree contributes no term and splits no cell.
        ddnf.memo.borrow_mut().insert((node, s), (Vec::new(), true));
        return Vec::new();
    }
    let kids = &ddnf.children[node];
    let remainder = ddnf.remainder(space, node);
    let mut sub_exact = true;
    let rem_outside = space.manager().diff(remainder, s);
    // Include-branch: the remainder is inside S (an empty remainder counts,
    // since the range overlaps S).
    let terms = if space.manager().is_false(rem_outside) {
        // Remainder ⊆ S: include the range minus the children not in S.
        let mut minus = Vec::new();
        for &k in kids {
            minus.extend(get_match(space, ddnf, not_s, s, k, &mut sub_exact));
        }
        vec![NestedTerm {
            base: ddnf.ranges[node],
            minus,
        }]
    } else {
        if space.manager().is_sat(remainder) {
            let rem_inside = space.manager().and(remainder, s);
            if space.manager().is_sat(rem_inside) {
                sub_exact = false; // cell splits S: decomposition inexact
            }
        }
        let mut out = Vec::new();
        for &k in kids {
            out.extend(get_match(space, ddnf, s, not_s, k, &mut sub_exact));
        }
        out
    };
    if !sub_exact {
        *exact = false;
    }
    ddnf.memo
        .borrow_mut()
        .insert((node, s), (terms.clone(), sub_exact));
    terms
}

/// Remove nested differences in one pass: `C − (F − G)` → `{C − F, G}`.
fn flatten(terms: Vec<NestedTerm>) -> Vec<RangeTerm> {
    let mut out = Vec::new();
    for t in terms {
        let mut minus = Vec::new();
        let mut extra = Vec::new();
        for m in t.minus {
            minus.push(m.base);
            // Whatever the minus-term itself subtracted belongs back in S.
            extra.extend(flatten(m.minus));
        }
        out.push(RangeTerm {
            base: t.base,
            minus,
        });
        out.extend(extra);
    }
    out
}

/// Flatten `GetMatch`'s nested terms into a [`HeaderLocalization`] in
/// deterministic order, deduplicated: a shared DAG node can be reached
/// through several parents and must be reported once.
fn localization(nested: Vec<NestedTerm>, exact: bool) -> HeaderLocalization {
    let mut terms = flatten(nested);
    for t in &mut terms {
        t.minus.sort();
        t.minus.dedup();
    }
    terms.sort_by(|a, b| (a.base, &a.minus).cmp(&(b.base, &b.minus)));
    terms.dedup();
    HeaderLocalization { terms, exact }
}

/// Header localization entry point: decompose a predicate `s` (already
/// projected onto this encoder's range dimensions) over the prefix ranges
/// mentioned by the two compared components (the paper's `R`).
pub fn header_localize<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    config_ranges: &[PrefixRange],
) -> HeaderLocalization {
    let ddnf = RangeDag::build(space, config_ranges);
    let loc = header_localize_with(space, s, &ddnf);
    ddnf.release(space.manager());
    loc
}

/// As [`header_localize`], against a prebuilt [`RangeDag`] — the fast path
/// when one component pair produces several differences.
pub fn header_localize_with<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    ddnf: &RangeDag,
) -> HeaderLocalization {
    campion_trace::span!("headerloc.localize");
    debug_assert!(
        !ddnf.released.get(),
        "localize against a released RangeDag (its node BDDs are unrooted)"
    );
    // Memo entries name arena indices, which stay put between sweeps and
    // may be recycled by one: key the table to the manager's GC run count.
    // (No sweep can happen inside this call — collection only runs at
    // explicit checkpoints, and there are none below.)
    let gc_gen = space.manager().stats().gc_runs;
    if ddnf.memo_gen.get() != gc_gen {
        ddnf.memo.borrow_mut().clear();
        ddnf.memo_gen.set(gc_gen);
    }
    let mut exact = true;
    let not_s = space.manager().not(s);
    let nested = get_match(space, ddnf, s, not_s, ddnf.root, &mut exact);
    let loc = localization(nested, exact);
    debug_assert!(
        !loc.exact
            || reencode(space, &loc) == {
                let u = space.encode(&PrefixRange::universe());
                space.manager().and(s, u)
            },
        "HeaderLocalize must re-encode to exactly S"
    );
    loc
}

/// Re-encode a localization back into a BDD (the correctness check used by
/// the property tests). The result is intersected with the universe range's
/// own encoding, which carries the validity constraint (length ≤ 32) in
/// route spaces.
pub fn reencode<E: RangeEncoder>(space: &mut E, loc: &HeaderLocalization) -> Bdd {
    let mut acc = Bdd::FALSE;
    let valid = space.encode(&PrefixRange::universe());
    for t in &loc.terms {
        let mut b = space.encode(&t.base);
        for m in &t.minus {
            let mb = space.encode(m);
            b = space.manager().diff(b, mb);
        }
        acc = space.manager().or(acc, b);
    }
    space.manager().and(acc, valid)
}

/// Test-only oracles for the structural ddNF builder and the lazy, pruned
/// `GetMatch`: the pre-trie, BDD-deciding builder and its prefix index, the
/// eager, unpruned `GetMatch`, plus accessors for node-order-included DAG
/// equality and for what a query materialized.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::Cell;
    use std::collections::HashMap;

    use campion_bdd::Bdd;
    use campion_net::PrefixRange;

    use super::{localization, HeaderLocalization, NestedTerm, RangeDag, RangeEncoder};

    /// The pre-trie `closed_ranges`: BDD-keyed dedup plus a BTreeMap prefix
    /// index. Retained verbatim as the differential oracle for the structural
    /// builder (`tests::ddnf` asserts identical DAGs).
    fn closed_ranges_oracle<E: RangeEncoder>(
        space: &mut E,
        ranges: &[PrefixRange],
    ) -> (Vec<PrefixRange>, Vec<Bdd>, RangeIndex) {
        let mut out: Vec<PrefixRange> = Vec::new();
        let mut bdds: Vec<Bdd> = Vec::new();
        let mut seen: std::collections::HashSet<Bdd> = std::collections::HashSet::new();
        let mut push =
            |space: &mut E, out: &mut Vec<PrefixRange>, bdds: &mut Vec<Bdd>, r: PrefixRange| {
                let b = space.encode(&r);
                if space.manager().is_false(b) {
                    return;
                }
                if seen.insert(b) {
                    space.manager().protect(b);
                    out.push(r);
                    bdds.push(b);
                }
            };
        push(space, &mut out, &mut bdds, PrefixRange::universe());
        for r in ranges {
            push(space, &mut out, &mut bdds, *r);
        }
        let mut index = RangeIndex::new();
        for (id, r) in out.iter().enumerate() {
            index.insert(id, r);
        }
        let mut i = 0;
        while i < out.len() {
            for j in index.candidates(&out[i]) {
                if j >= i {
                    break;
                }
                if let Some(x) = out[i].intersect(&out[j]) {
                    let before = out.len();
                    push(space, &mut out, &mut bdds, x);
                    if out.len() > before {
                        index.insert(before, &out[before]);
                    }
                }
            }
            i += 1;
        }
        (out, bdds, index)
    }

    /// The pre-trie DAG builder, deciding containment with BDD `diff`: the
    /// differential-testing oracle for [`RangeDag::build`].
    pub(crate) fn build_ddnf_oracle<E: RangeEncoder>(
        space: &mut E,
        ranges: &[PrefixRange],
    ) -> RangeDag {
        let (ranges, bdds, index) = closed_ranges_oracle(space, ranges);
        let n = ranges.len();
        let mut containers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in 0..n {
            for m in index.candidates(&ranges[c]) {
                if c == m || ranges[c].intersect(&ranges[m]).is_none() {
                    continue;
                }
                let extra = space.manager().diff(bdds[c], bdds[m]);
                if space.manager().is_false(extra) {
                    containers[c].push(m);
                }
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in 0..n {
            for &m in &containers[c] {
                let covered = containers[c]
                    .iter()
                    .any(|&k| k != m && containers[k].contains(&m));
                if !covered {
                    children[m].push(c);
                }
            }
        }
        // Its node sets are already encoded and rooted: hand them over as
        // materialized, so `release` drops those roots.
        let dag = RangeDag::from_parts(ranges, children);
        for (cell, b) in dag.bdds.iter().zip(bdds) {
            cell.set(Some(b));
        }
        dag
    }

    /// Materialize (and root) every node set and remainder of `dag` in
    /// `space`, returning them in node order — the state the pre-lazy
    /// builder produced eagerly.
    fn materialize_all<E: RangeEncoder>(space: &mut E, dag: &RangeDag) -> (Vec<Bdd>, Vec<Bdd>) {
        let bdds = (0..dag.len()).map(|n| dag.node_bdd(space, n)).collect();
        let remainders = (0..dag.len()).map(|n| dag.remainder(space, n)).collect();
        (bdds, remainders)
    }

    /// The DAG's full skeleton `(ranges, bdds, children, remainders, root)`,
    /// every node set and remainder materialized in `space`, for the
    /// differential suite's node-order-included equality assertions (two
    /// builds in one manager must agree on every node handle too).
    #[allow(clippy::type_complexity)]
    pub(crate) fn dag_structure<E: RangeEncoder>(
        space: &mut E,
        dag: &RangeDag,
    ) -> (Vec<PrefixRange>, Vec<Bdd>, Vec<Vec<usize>>, Vec<Bdd>, usize) {
        let (bdds, remainders) = materialize_all(space, dag);
        (
            dag.ranges.clone(),
            bdds,
            dag.children.clone(),
            remainders,
            dag.root,
        )
    }

    /// The cover edges and root, without materializing anything.
    pub(crate) fn skeleton(dag: &RangeDag) -> (&[PrefixRange], &[Vec<usize>], usize) {
        (&dag.ranges, &dag.children, dag.root)
    }

    /// The nodes whose set, and the nodes whose remainder, have been
    /// materialized so far, ascending.
    pub(crate) fn materialized(dag: &RangeDag) -> (Vec<usize>, Vec<usize>) {
        let set = |cells: &[Cell<Option<Bdd>>]| {
            (0..cells.len())
                .filter(|&n| cells[n].get().is_some())
                .collect()
        };
        (set(&dag.bdds), set(&dag.remainders))
    }

    /// The pre-pruning `header_localize_with`: every node set and remainder
    /// materialized up front, and `GetMatch` visiting every node (no overlap
    /// test). Retained as the differential oracle for the pruned, lazy
    /// query (`tests::ddnf` asserts equal terms and `exact` flags).
    pub(crate) fn header_localize_eager<E: RangeEncoder>(
        space: &mut E,
        s: Bdd,
        dag: &RangeDag,
    ) -> HeaderLocalization {
        let (bdds, remainders) = materialize_all(space, dag);
        let mut eager = EagerDag {
            dag,
            bdds,
            remainders,
            memo: HashMap::new(),
        };
        let mut exact = true;
        let not_s = space.manager().not(s);
        let nested = eager.get_match(space, s, not_s, dag.root, &mut exact);
        localization(nested, exact)
    }

    /// A DAG with every set and remainder at hand, and a per-query memo.
    struct EagerDag<'a> {
        dag: &'a RangeDag,
        bdds: Vec<Bdd>,
        remainders: Vec<Bdd>,
        memo: HashMap<(usize, Bdd), (Vec<NestedTerm>, bool)>,
    }

    impl EagerDag<'_> {
        /// `GetMatch` as it was before overlap pruning.
        fn get_match<E: RangeEncoder>(
            &mut self,
            space: &mut E,
            s: Bdd,
            not_s: Bdd,
            node: usize,
            exact: &mut bool,
        ) -> Vec<NestedTerm> {
            if let Some((terms, sub_exact)) = self.memo.get(&(node, s)).cloned() {
                if !sub_exact {
                    *exact = false;
                }
                return terms;
            }
            let dag = self.dag;
            let range_bdd = self.bdds[node];
            let kids = &dag.children[node];
            let remainder = self.remainders[node];
            let mut sub_exact = true;
            let rem_outside = space.manager().diff(remainder, s);
            let overlaps_s = {
                let x = space.manager().and(range_bdd, s);
                space.manager().is_sat(x)
            };
            let terms = if space.manager().is_false(rem_outside) && overlaps_s {
                let mut minus = Vec::new();
                for &k in kids {
                    minus.extend(self.get_match(space, not_s, s, k, &mut sub_exact));
                }
                vec![NestedTerm {
                    base: dag.ranges[node],
                    minus,
                }]
            } else {
                if space.manager().is_sat(remainder) {
                    let rem_inside = space.manager().and(remainder, s);
                    if space.manager().is_sat(rem_inside) {
                        sub_exact = false;
                    }
                }
                let mut out = Vec::new();
                for &k in kids {
                    out.extend(self.get_match(space, s, not_s, k, &mut sub_exact));
                }
                out
            };
            if !sub_exact {
                *exact = false;
            }
            self.memo.insert((node, s), (terms.clone(), sub_exact));
            terms
        }
    }

    /// Candidate-pair index for the oracle's closure and containment scans.
    ///
    /// Two prefix ranges can intersect only when one's prefix is a truncation
    /// of the other's (`PrefixRange::intersect` demands the shorter prefix's
    /// bits match the longer's), so node `i`'s possible partners all carry
    /// either a truncation of `ranges[i].prefix` — found by exact lookup at
    /// each length — or an extension of it — found by scanning `i`'s address
    /// block in a map ordered by `(bits, len)`. The result is a superset of
    /// the true partner set (the caller still runs `intersect`), returned in
    /// ascending node order so scan order matches the plain nested loops
    /// exactly (node order flows into report rendering order).
    /// [`PrefixTrie`] answers the same query without the per-call sort/dedup.
    struct RangeIndex {
        by_prefix: std::collections::BTreeMap<(u32, u8), Vec<usize>>,
    }

    impl RangeIndex {
        fn new() -> Self {
            RangeIndex {
                by_prefix: std::collections::BTreeMap::new(),
            }
        }

        fn insert(&mut self, id: usize, r: &PrefixRange) {
            self.by_prefix
                .entry((r.prefix.bits(), r.prefix.len()))
                .or_default()
                .push(id);
        }

        fn candidates(&self, r: &PrefixRange) -> Vec<usize> {
            let p = &r.prefix;
            let mut out = Vec::new();
            // Strict truncations of p (p itself falls inside the block scan).
            for len in 0..p.len() {
                let bits = if len == 0 {
                    0
                } else {
                    p.bits() & (u32::MAX << (32 - u32::from(len)))
                };
                if let Some(v) = self.by_prefix.get(&(bits, len)) {
                    out.extend_from_slice(v);
                }
            }
            // Everything whose bits lie inside p's address block: all
            // extensions of p (plus p itself, plus a few same-block keys the
            // intersect re-check weeds out).
            let block_end = p.bits() | (((1u64 << (32 - u64::from(p.len()))) - 1) as u32);
            for (_, v) in self
                .by_prefix
                .range((p.bits(), p.len())..=(block_end, 32u8))
            {
                out.extend_from_slice(v);
            }
            out.sort_unstable();
            out.dedup();
            out
        }
    }
}
