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
//! Everything the builders need to decide — emptiness, set equality
//! (dedup), containment — is decidable *structurally* on the ranges
//! themselves, so neither encodes a BDD. [`RangeEncoder::semantics`] says
//! which reading of a range applies, and each reading has its own builder:
//!
//! * In a packet-address space ([`RangeSemantics::Addresses`]) a range
//!   denotes the addresses under its covering prefix, whatever its length
//!   bounds. Any two prefixes nest or are disjoint, so closing the set
//!   under intersection adds no node and a node's only cover is its
//!   deepest ancestor prefix. The builder dedups by prefix in input order
//!   (the universe first), sorts the nodes by `(bits, len)` — every
//!   ancestor then precedes its descendants and a block's descendants are
//!   contiguous — and takes each node's parent from a stack of the
//!   current ancestor chain, in one pass.
//! * In a route space ([`RangeSemantics::Members`]) a range denotes its
//!   member prefixes, intersections are new sets, and a node can have
//!   several covers. [`PrefixRange::canonical_members`] is a perfect set
//!   key and [`PrefixRange::member_superset`] decides containment exactly.
//!   The builder closes the set under intersection by fixpoint and wires
//!   each node to its minimal containers, with a [`PrefixTrie`] over the
//!   node prefixes supplying each node's possible partners (only
//!   prefix-nested ranges can be related).
//!
//! The pre-trie, BDD-deciding builder is kept under `#[cfg(test)]` as
//! `oracle::build_ddnf_oracle`; a property suite asserts both builders
//! produce identical DAGs, node order included, on the `or_longer` ranges
//! the driver passes, and another asserts the address DAG is the Hasse
//! diagram of the encoded address sets for arbitrary length bounds.
//!
//! ## How localization queries are kept cheap
//!
//! A pair's DAG has thousands of nodes, but a difference usually meets
//! only a few of them. Localization work is kept in proportion to that,
//! and no query encodes a node's set:
//!
//! * **Overlap by walking.** `GetMatch` first asks whether `λ(n)` meets
//!   `S` ([`RangeEncoder::meets`]): it walks `S` down `λ(n)`'s prefix bits
//!   over the space's own address run ([`Manager::cofactor`], which
//!   creates no node), and a route space then meets the node it reached
//!   with `λ(n)`'s length interval. The test is exact because both targets
//!   `GetMatch` passes down, `S` and `¬S = λ(root) − S`, lie inside
//!   `λ(root)`, so the canonical-prefix constraint (the rest of a route
//!   range's set) holds on them already.
//! * **Overlap pruning.** A node that misses `S` contributes no terms and
//!   is not recursed into: its descendants are subsets of it, so they miss
//!   `S` as well and cannot split a cell either. `GetMatch` tests a child's
//!   overlap before it recurses, and stores nothing for a missed child,
//!   since the walk costs less than a call and a memo entry. A query walks
//!   the root and the children of the nodes that actually meet `S`; those
//!   are memoized for the query, so a missed node is walked at most once
//!   per edge into it and target.
//! * **Witness points.** `GetMatch` never builds a cell to ask whether it
//!   lies inside `S`. The DAG is closed under intersection, so its cells
//!   are the atoms of the algebra the configurations' ranges generate,
//!   and a target built from those ranges is a union of cells: one member
//!   of a cell then answers for all of it. Each node reached gets one
//!   member of its cell, its *witness* ([`PrefixRange::member_outside`]
//!   over its children, every range read as `(P, 32, 32)` in an address
//!   space), or none when the cell is empty, and `S` is evaluated there
//!   ([`RangeEncoder::holds`], a walk over the range variables that
//!   creates no node). An empty cell takes the include branch, as a cell
//!   inside `S` does.
//! * **An honest `exact` flag.** A target that is not a union of cells (a
//!   caller-built set, or an ACL wildcard past the cover cap) can make a
//!   witness stand for a cell that splits it. Every term is a union of
//!   cells, so the terms re-encode to `S` exactly when `S` is one, and
//!   every query checks that: the union of the minus-free terms in one
//!   structural pass ([`RangeEncoder::union`]), one more per term with a
//!   minus list. On a mismatch the query runs again on cells, with a fresh
//!   memo: each node reached builds its cell ([`RangeEncoder::cell`]) and
//!   tests it against `S` with `diff` and `and`, which also finds the
//!   cells that split `S`. Either way the terms and `exact` flag are those
//!   of the cell-deciding query. The `headerloc.localize` span counts the
//!   nodes decided by a witness (`points`), the cells built (`cells`) and
//!   the fallbacks (`fallback`).
//! * **A memo per query, witnesses per DAG.** A route-space node can have
//!   several parents, and `GetMatch` reaches it once per path. The result
//!   of every node that meets its target is memoized per `(node, S)` for
//!   the query (`¬S` recursions hit the same table), which bounds a query
//!   to one visit per node and target, and is dropped when the query
//!   returns. The DAG keeps only plain data, its witnesses included, so
//!   it holds no BDD handle and no compaction of its space can stale it.
//!   `¬S` itself is `diff(cell(universe, []), S)`, computed once per
//!   query, not once per included node. The universe is always node 0,
//!   where every query starts. A caller whose targets repeat asks each
//!   distinct one once: the driver does, per DAG.
//!
//! The eager, unpruned `GetMatch` (every node set encoded up front as a
//! cell with no children, every cell folded with `diff`, every node
//! visited, overlap tested with `and`) is kept under `#[cfg(test)]` as
//! `oracle::header_localize_eager`; a property suite asserts both return
//! the same terms and `exact` flag.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

use campion_bdd::{bits, Bdd, Manager};
use campion_net::{Prefix, PrefixRange, PrefixTrie};
use campion_symbolic::{PacketSpace, RouteSpace, DST_VARS, LEN_VARS, PREFIX_VARS, SRC_VARS};

/// What set a prefix range denotes in a given encoder — selects the ddNF
/// builder and the structural set key it dedups nodes by.
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
    /// Which structural reading of a range [`RangeEncoder::cell`]
    /// implements. Must agree with it: two ranges with equal set keys must
    /// have the same `cell(r, &[])`, the range's own set, and key
    /// containment must match set containment.
    fn semantics(&self) -> RangeSemantics;
    /// The variables a range's set is decided on: the space's 32 address
    /// variables, most significant bit first, then (route spaces) the
    /// length variables. Localization targets are projected onto these.
    fn range_vars(&self) -> Range<u32>;
    /// Does `r`'s set meet `s`? `s` must lie inside the universe range's
    /// set. Walks `s` down `r`'s prefix bits over the address run, which
    /// creates no node.
    fn meets(&mut self, r: &PrefixRange, s: Bdd) -> bool {
        let start = self.range_vars().start;
        !walk(self.manager(), s, start, &r.prefix).is_const_false()
    }
    /// The cell `range − ⋃ children`, built in one structural pass; each
    /// child's set lies inside `range`'s. With no children it is the set
    /// the range denotes in this space.
    fn cell(&mut self, range: &PrefixRange, children: &[PrefixRange]) -> Bdd;
    /// The union of `ranges`' sets. Here the universe less the cell with
    /// `ranges` for children, which an address space builds in one pass.
    fn union(&mut self, ranges: &[PrefixRange]) -> Bdd {
        let universe = self.cell(&PrefixRange::universe(), &[]);
        let rest = self.cell(&PrefixRange::universe(), ranges);
        self.manager().diff(universe, rest)
    }
    /// Does `s` hold at `point`, a witness ([`PrefixRange::member_outside`])
    /// in this space's reading? `s` must depend on the range variables
    /// only. Walks `s` over them, which creates no node: here the address
    /// run, pinned to `point`'s 32 bits.
    fn holds(&mut self, s: Bdd, point: &Prefix) -> bool {
        let start = self.range_vars().start;
        let at = self.manager().cofactor(s, pin(start, 32, point.bits()));
        at.is_const_true()
    }
}

/// `s` walked down `p`'s bits over the address run starting at variable
/// `start` ([`Manager::cofactor`]).
fn walk(m: &Manager, s: Bdd, start: u32, p: &Prefix) -> Bdd {
    let bits = p.bits();
    m.cofactor(
        s,
        (0..u32::from(p.len())).map(|i| (start + i, (bits >> (31 - i)) & 1 == 1)),
    )
}

/// The literals pinning the `width` variables from `start` on to the low
/// `width` bits of `value`, most significant first.
fn pin(start: u32, width: u32, value: u32) -> impl Iterator<Item = (u32, bool)> {
    (0..width).map(move |i| (start + i, (value >> (width - 1 - i)) & 1 == 1))
}

impl RangeEncoder for RouteSpace {
    fn manager(&mut self) -> &mut Manager {
        &mut self.manager
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Members
    }
    fn range_vars(&self) -> Range<u32> {
        PREFIX_VARS.start..LEN_VARS.end
    }
    /// The walk, then the reached node met with `r`'s length interval.
    /// `s` is canonical already, so the rest of `r`'s set (the
    /// canonical-prefix constraint) needs no test.
    fn meets(&mut self, r: &PrefixRange, s: Bdd) -> bool {
        let reached = walk(&self.manager, s, PREFIX_VARS.start, &r.prefix);
        if reached.is_const_false() {
            return false;
        }
        let len_vars: Vec<u32> = LEN_VARS.collect();
        let lens = bits::range_const(
            &mut self.manager,
            &len_vars,
            r.min_len.into(),
            r.max_len.into(),
        );
        !self.manager.and(reached, lens).is_const_false()
    }
    /// One first-match build: the children as deny entries ahead of
    /// `range` as a permit.
    fn cell(&mut self, range: &PrefixRange, children: &[PrefixRange]) -> Bdd {
        let entries: Vec<(bool, PrefixRange)> = children
            .iter()
            .map(|&k| (false, k))
            .chain([(true, *range)])
            .collect();
        self.first_match_bdd(&entries)
    }
    /// One first-match build with every range a permit entry.
    fn union(&mut self, ranges: &[PrefixRange]) -> Bdd {
        let entries: Vec<(bool, PrefixRange)> = ranges.iter().map(|&r| (true, r)).collect();
        self.first_match_bdd(&entries)
    }
    /// The advertisement of `point`: its 32 address bits, zero past its
    /// length, then its length in the 6 big-endian length variables.
    fn holds(&mut self, s: Bdd, point: &Prefix) -> bool {
        let addr = pin(PREFIX_VARS.start, 32, point.bits());
        let len = pin(LEN_VARS.start, 6, point.len().into());
        self.manager.cofactor(s, addr.chain(len)).is_const_true()
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
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Addresses
    }
    fn range_vars(&self) -> Range<u32> {
        DST_VARS
    }
    fn cell(&mut self, range: &PrefixRange, children: &[PrefixRange]) -> Bdd {
        addr_cell(&mut self.0.manager, DST_VARS, range, children)
    }
}

/// Source-address view of a packet space.
pub struct SrcAddrSpace<'a>(pub &'a mut PacketSpace);

impl RangeEncoder for SrcAddrSpace<'_> {
    fn manager(&mut self) -> &mut Manager {
        &mut self.0.manager
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Addresses
    }
    fn range_vars(&self) -> Range<u32> {
        SRC_VARS
    }
    fn cell(&mut self, range: &PrefixRange, children: &[PrefixRange]) -> Bdd {
        addr_cell(&mut self.0.manager, SRC_VARS, range, children)
    }
}

/// An address cell: the addresses under `range`'s prefix outside its
/// children's prefixes, over the address run `vars`.
fn addr_cell(
    m: &mut Manager,
    vars: Range<u32>,
    range: &PrefixRange,
    children: &[PrefixRange],
) -> Bdd {
    let vars: Vec<u32> = vars.collect();
    let holes: Vec<(u32, u8)> = children
        .iter()
        .map(|k| (k.prefix.bits(), k.prefix.len()))
        .collect();
    bits::prefix_minus(m, &vars, range.prefix.bits(), range.prefix.len(), &holes)
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
    /// inside or outside `S`), so the terms re-encode to `S`. Always true
    /// for sets built from the configurations' own ranges. Every query
    /// checks it by re-encoding its terms, in every build.
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

/// One query's `GetMatch` memo: `(node, S) → (terms, exact)`.
type GetMatchMemo = HashMap<(usize, Bdd), (Vec<NestedTerm>, bool)>;

/// The ddNF DAG over prefix ranges. Build it once per compared pair with
/// [`RangeDag::build`] and localize many difference sets against it.
///
/// The build is structural, and no query encodes a node's set: overlap is
/// decided by walking the target, and whether a node's cell lies inside
/// the target by evaluating it at a witness of the cell, found on first
/// use and kept. The DAG is plain data and holds no BDD handle, so a query
/// may pass any space of the DAG's semantics, compacted or not, and a
/// clone is an independent copy; the benchmark's traced replay localizes
/// on a clone of the DAG in a clone of the pair's space.
#[derive(Clone)]
pub struct RangeDag {
    /// Node ranges (label function λ).
    ranges: Vec<PrefixRange>,
    /// Cover-edge children per node.
    children: Vec<Vec<usize>>,
    /// The reading the DAG was built for, which its witnesses follow.
    semantics: RangeSemantics,
    /// Per-node cell witnesses (`None`: the cell is empty), once found.
    witnesses: Vec<OnceCell<Option<Prefix>>>,
}

impl RangeDag {
    /// Build the ddNF over the given configuration ranges (plus the
    /// universe, closed under intersection). Only `space`'s
    /// [`RangeEncoder::semantics`] is consulted: no BDD is encoded here.
    pub fn build<E: RangeEncoder>(space: &mut E, ranges: &[PrefixRange]) -> RangeDag {
        campion_trace::span!("headerloc.ddnf");
        let (ranges, children) = match space.semantics() {
            RangeSemantics::Members => build_member_ddnf(ranges),
            RangeSemantics::Addresses => build_address_ddnf(ranges),
        };
        RangeDag::from_parts(space.semantics(), ranges, children)
    }

    /// A DAG in `semantics` over closed, deduplicated `ranges`, the
    /// universe first, with the given cover edges; no witness found yet.
    fn from_parts(
        semantics: RangeSemantics,
        ranges: Vec<PrefixRange>,
        children: Vec<Vec<usize>>,
    ) -> RangeDag {
        debug_assert!(
            ranges.first() == Some(&PrefixRange::universe()),
            "node 0 must be the universe"
        );
        let n = ranges.len();
        RangeDag {
            ranges,
            children,
            semantics,
            witnesses: vec![OnceCell::new(); n],
        }
    }

    /// Number of nodes (for diagnostics).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when only the universe node exists.
    pub fn is_empty(&self) -> bool {
        self.ranges.len() <= 1
    }

    /// One member of node `n`'s cell `λ(n) − ⋃ children(n)`, or `None`
    /// when the cell is empty; found on first use. An address space reads
    /// each range as the addresses under its prefix, `(P, 32, 32)`.
    fn witness(&self, n: usize) -> Option<Prefix> {
        *self.witnesses[n].get_or_init(|| {
            let read = |r: PrefixRange| match self.semantics {
                RangeSemantics::Members => r,
                RangeSemantics::Addresses => PrefixRange::new(r.prefix, 32, 32),
            };
            let kids = self.children[n].iter().map(|&k| read(self.ranges[k]));
            read(self.ranges[n]).member_outside(kids)
        })
    }

    /// Node `n`'s cell, built in `space`: the fallback's test.
    fn cell<E: RangeEncoder>(&self, space: &mut E, n: usize) -> Bdd {
        let kids: Vec<PrefixRange> = self.children[n].iter().map(|&k| self.ranges[k]).collect();
        space.cell(&self.ranges[n], &kids)
    }
}

/// The address-set ddNF: nodes are the distinct prefixes in input order,
/// the universe first, and each node hangs under its deepest ancestor
/// prefix, whatever either range's length bounds. Two address sets nest
/// or are disjoint, so this is the whole Hasse diagram, and no
/// intersection is a new set.
fn build_address_ddnf(ranges: &[PrefixRange]) -> (Vec<PrefixRange>, Vec<Vec<usize>>) {
    let mut seen = HashSet::new();
    let nodes: Vec<PrefixRange> = std::iter::once(PrefixRange::universe())
        .chain(ranges.iter().copied())
        .filter(|r| seen.insert(r.prefix))
        .collect();
    // Sorted by (bits, len), each node follows all its ancestors and its
    // descendants follow it contiguously, so after the pops the stack
    // holds exactly the current node's ancestor chain. Node 0, the
    // universe, sorts first and is never popped.
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_unstable_by_key(|&i| (nodes[i].prefix.bits(), nodes[i].prefix.len()));
    let mut parent = vec![0; nodes.len()];
    let mut stack = vec![0];
    for &i in &order[1..] {
        parent[i] = loop {
            let top = *stack.last().expect("the universe contains every prefix");
            if nodes[top].prefix.contains(&nodes[i].prefix) {
                break top;
            }
            stack.pop();
        };
        stack.push(i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (c, &p) in parent.iter().enumerate().skip(1) {
        children[p].push(c);
    }
    (nodes, children)
}

/// Close a member-range set under intersection, deduplicating by denoted
/// set via canonical member ranges (ranges denoting ∅ are dropped); the
/// trie answers partner queries for the fixpoint loop.
fn closed_member_ranges(
    ranges: &[PrefixRange],
) -> (Vec<PrefixRange>, Vec<PrefixRange>, PrefixTrie) {
    let mut out: Vec<PrefixRange> = Vec::new();
    let mut keys: Vec<PrefixRange> = Vec::new();
    let mut trie = PrefixTrie::new();
    let mut seen: HashSet<PrefixRange> = HashSet::new();
    let mut push = |out: &mut Vec<PrefixRange>,
                    keys: &mut Vec<PrefixRange>,
                    trie: &mut PrefixTrie,
                    r: PrefixRange| {
        let Some(key) = r.canonical_members() else {
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

/// The member-set ddNF: the closed range set, with containment decided on
/// the canonical member ranges.
fn build_member_ddnf(ranges: &[PrefixRange]) -> (Vec<PrefixRange>, Vec<Vec<usize>>) {
    let (ranges, keys, trie) = {
        campion_trace::span!("headerloc.ddnf.close");
        closed_member_ranges(ranges)
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
            if keys[m].member_superset(&keys[c]) {
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
            let covered = cs
                .iter()
                .any(|&k| k != m && keys[m].member_superset(&keys[k]));
            if !covered {
                children[m].push(c);
            }
        }
    }
    (ranges, children)
}

/// `GetMatch` (paper §3.2): returns terms representing `S ∩ set(node)`,
/// assuming every ddNF cell is inside or outside `S`. Terms may be nested
/// (a minus item carrying its own minus list) until the cleanup pass.
#[derive(Debug, Clone)]
struct NestedTerm {
    base: PrefixRange,
    minus: Vec<NestedTerm>,
}

/// How one query decided "cell ⊆ S", counted on its `headerloc.localize`
/// span.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Decisions {
    /// Nodes decided by evaluating the target at their cell's witness.
    pub(crate) points: u64,
    /// Cells built, by the fallback.
    pub(crate) cells: u64,
    /// Whether the witnesses' terms failed the re-encode check, so the
    /// query runs again on cells.
    pub(crate) fallback: bool,
}

/// One `GetMatch` node visit: the terms of `s ∩ λ(node)` and whether they
/// are exact. `λ(node)` meets `s`, and the result is memoized per
/// `(node, s)` in the query's `memo`. A child that misses its target is
/// skipped before the call and stores nothing: its descendants are subsets
/// of it, so its whole subtree contributes no term and splits no cell.
/// `not_s` is `¬s = λ(root) − s`, threaded down so the include-branch
/// recursion (which queries the complement) computes no complement; the
/// roles swap on recursion since `λ(root) − (λ(root) − s) = s` for
/// `s ⊆ λ(root)`.
///
/// Until `tally` records a fallback, a node's cell is inside `s` when it is
/// empty or `s` holds at its witness, and the terms are taken as exact; in
/// the fallback, the node's cell is built and tested, and a cell that
/// splits `s` makes them inexact.
fn get_match<E: RangeEncoder>(
    space: &mut E,
    ddnf: &RangeDag,
    memo: &mut GetMatchMemo,
    tally: &mut Decisions,
    s: Bdd,
    not_s: Bdd,
    node: usize,
) -> (Vec<NestedTerm>, bool) {
    if let Some(hit) = memo.get(&(node, s)) {
        return hit.clone();
    }
    let mut exact = true;
    let inside = if tally.fallback {
        tally.cells += 1;
        let cell = ddnf.cell(space, node);
        let m = space.manager();
        let outside = m.diff(cell, s);
        let inside = m.is_false(outside);
        if !inside && !m.and(cell, s).is_const_false() {
            exact = false; // cell splits S: decomposition inexact
        }
        inside
    } else {
        tally.points += 1;
        ddnf.witness(node).is_none_or(|p| space.holds(s, &p))
    };
    // A cell inside S (an empty cell counts, since the range overlaps S)
    // includes the range minus its children's terms for ¬S; otherwise the
    // node's terms are its children's for S.
    let (kid_s, kid_not_s) = if inside { (not_s, s) } else { (s, not_s) };
    let mut terms = Vec::new();
    for &k in &ddnf.children[node] {
        if !space.meets(&ddnf.ranges[k], kid_s) {
            continue;
        }
        let (kid_terms, kid_exact) = get_match(space, ddnf, memo, tally, kid_s, kid_not_s, k);
        terms.extend(kid_terms);
        exact &= kid_exact;
    }
    if inside {
        terms = vec![NestedTerm {
            base: ddnf.ranges[node],
            minus: terms,
        }];
    }
    memo.insert((node, s), (terms.clone(), exact));
    (terms, exact)
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

/// Header localization entry point: decompose a predicate `s` over the
/// prefix ranges mentioned by the two compared components (the paper's
/// `R`).
///
/// `s` must be projected onto the space's range dimensions
/// ([`RangeEncoder::range_vars`]) and lie inside the universe range's set;
/// every caller's projected difference does. Debug builds assert it.
pub fn header_localize<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    config_ranges: &[PrefixRange],
) -> HeaderLocalization {
    let ddnf = RangeDag::build(space, config_ranges);
    header_localize_with(space, s, &ddnf)
}

/// As [`header_localize`], against a prebuilt [`RangeDag`] — the fast path
/// when one component pair produces several differences. The same
/// precondition holds on `s`: it is projected onto the space's range
/// dimensions and lies inside the universe range's set, which makes the
/// walking overlap test exact. Every call runs the whole query, with a
/// memo of its own, and keeps only the witnesses it found on the DAG: a
/// caller whose targets repeat asks each distinct target once.
pub fn header_localize_with<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    ddnf: &RangeDag,
) -> HeaderLocalization {
    let mut span = campion_trace::span("headerloc.localize");
    let (loc, decisions) = localize(space, s, ddnf);
    span.counter("points", decisions.points as i64);
    span.counter("cells", decisions.cells as i64);
    span.counter("fallback", i64::from(decisions.fallback));
    loc
}

/// [`header_localize_with`], returning how the query decided.
pub(crate) fn localize<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    ddnf: &RangeDag,
) -> (HeaderLocalization, Decisions) {
    let universe = space.cell(&PrefixRange::universe(), &[]);
    debug_assert!(
        {
            let vars = space.range_vars();
            let m = space.manager();
            m.support(s).iter().all(|v| vars.contains(v)) && m.diff(s, universe).is_const_false()
        },
        "the target must be projected onto the range variables and lie inside the universe range"
    );
    let not_s = space.manager().diff(universe, s);
    let mut decisions = Decisions::default();
    // One `GetMatch` run from the root, with a memo of its own that is
    // dropped when the run returns.
    let run = |space: &mut E, tally: &mut Decisions| {
        let (nested, exact) = if space.meets(&ddnf.ranges[0], s) {
            get_match(space, ddnf, &mut HashMap::new(), tally, s, not_s, 0)
        } else {
            (Vec::new(), true)
        };
        localization(nested, exact)
    };
    let loc = run(space, &mut decisions);
    if union_of(space, &loc) == s {
        return (loc, decisions);
    }
    // S is no union of cells, so some witness stood for a cell that splits
    // it.
    decisions.fallback = true;
    let loc = run(space, &mut decisions);
    debug_assert!(!loc.exact, "a visited cell must split S");
    (loc, decisions)
}

/// `⋃ loc.terms`: the minus-free terms' bases in one [`RangeEncoder::union`],
/// then each term with a minus list built as its own cell (its minus
/// ranges lie inside its base).
fn union_of<E: RangeEncoder>(space: &mut E, loc: &HeaderLocalization) -> Bdd {
    let bases: Vec<PrefixRange> = loc
        .terms
        .iter()
        .filter(|t| t.minus.is_empty())
        .map(|t| t.base)
        .collect();
    let mut union = space.union(&bases);
    for t in loc.terms.iter().filter(|t| !t.minus.is_empty()) {
        let term = space.cell(&t.base, &t.minus);
        union = space.manager().or(union, term);
    }
    union
}

/// Re-encode a localization back into a BDD (the correctness check used by
/// the property tests). The result is intersected with the universe range's
/// own encoding, which carries the validity constraint (length ≤ 32) in
/// route spaces.
pub fn reencode<E: RangeEncoder>(space: &mut E, loc: &HeaderLocalization) -> Bdd {
    let mut acc = Bdd::FALSE;
    let valid = space.cell(&PrefixRange::universe(), &[]);
    for t in &loc.terms {
        let mut b = space.cell(&t.base, &[]);
        for m in &t.minus {
            let mb = space.cell(m, &[]);
            b = space.manager().diff(b, mb);
        }
        acc = space.manager().or(acc, b);
    }
    space.manager().and(acc, valid)
}

/// Test-only oracles for the structural ddNF builder and the pruned,
/// witness-deciding `GetMatch`: the pre-trie, BDD-deciding builder and its
/// prefix index, the eager, unpruned `GetMatch` over node sets it encodes
/// itself and cells it folds with `diff`, plus accessors for
/// node-order-included DAG equality and for what a query left on the DAG.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::HashMap;

    use campion_bdd::Bdd;
    use campion_net::{Prefix, PrefixRange};

    use super::{localization, HeaderLocalization, NestedTerm, RangeDag, RangeEncoder};

    /// The pre-trie intersection closure: BDD-keyed dedup plus a BTreeMap
    /// prefix index. Retained as the differential oracle for the structural
    /// builders (`tests::ddnf` asserts identical DAGs).
    fn closed_ranges_oracle<E: RangeEncoder>(
        space: &mut E,
        ranges: &[PrefixRange],
    ) -> (Vec<PrefixRange>, Vec<Bdd>, RangeIndex) {
        let mut out: Vec<PrefixRange> = Vec::new();
        let mut bdds: Vec<Bdd> = Vec::new();
        let mut seen: std::collections::HashSet<Bdd> = std::collections::HashSet::new();
        let mut push =
            |space: &mut E, out: &mut Vec<PrefixRange>, bdds: &mut Vec<Bdd>, r: PrefixRange| {
                let b = space.cell(&r, &[]);
                if space.manager().is_false(b) {
                    return;
                }
                if seen.insert(b) {
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
        RangeDag::from_parts(space.semantics(), ranges, children)
    }

    /// Every node set of `dag`, encoded in `space`, in node order.
    fn node_sets<E: RangeEncoder>(space: &mut E, dag: &RangeDag) -> Vec<Bdd> {
        dag.ranges.iter().map(|r| space.cell(r, &[])).collect()
    }

    /// Every cell of `dag` as the `diff` chain `λ(n) − λ(k₁) − …` over
    /// the node sets, in node order: the reference for
    /// [`RangeEncoder::cell`].
    pub(crate) fn diff_chain_cells<E: RangeEncoder>(space: &mut E, dag: &RangeDag) -> Vec<Bdd> {
        let sets = node_sets(space, dag);
        (0..dag.len())
            .map(|n| {
                let mut rem = sets[n];
                for &k in &dag.children[n] {
                    rem = space.manager().diff(rem, sets[k]);
                }
                rem
            })
            .collect()
    }

    /// The DAG's full skeleton `(ranges, sets, children, cells)`: node sets
    /// encoded as cells with no children, every cell as the fallback builds
    /// it, for the differential suite's
    /// node-order-included equality assertions (two builds in one manager
    /// must agree on every node handle too). The root is node 0.
    #[allow(clippy::type_complexity)]
    pub(crate) fn dag_structure<E: RangeEncoder>(
        space: &mut E,
        dag: &RangeDag,
    ) -> (Vec<PrefixRange>, Vec<Bdd>, Vec<Vec<usize>>, Vec<Bdd>) {
        let sets = node_sets(space, dag);
        let cells = (0..dag.len()).map(|n| dag.cell(space, n)).collect();
        (dag.ranges.clone(), sets, dag.children.clone(), cells)
    }

    /// The node ranges and cover edges, without encoding anything.
    pub(crate) fn skeleton(dag: &RangeDag) -> (&[PrefixRange], &[Vec<usize>]) {
        (&dag.ranges, &dag.children)
    }

    /// The nodes whose witness has been found so far, ascending, with it.
    pub(crate) fn found_witnesses(dag: &RangeDag) -> Vec<(usize, Option<Prefix>)> {
        (0..dag.len())
            .filter_map(|n| dag.witnesses[n].get().map(|&w| (n, w)))
            .collect()
    }

    /// Node `n`'s witness, found now if no query has yet.
    pub(crate) fn witness(dag: &RangeDag, n: usize) -> Option<Prefix> {
        dag.witness(n)
    }

    /// The pre-pruning `header_localize_with`: every node set encoded and
    /// every cell folded with `diff` up front, `¬S` as the full complement,
    /// and `GetMatch` visiting every node, with overlap tested by `and`.
    /// Retained as the differential oracle for the pruned, lazy query
    /// (`tests::ddnf` asserts equal terms and `exact` flags).
    pub(crate) fn header_localize_eager<E: RangeEncoder>(
        space: &mut E,
        s: Bdd,
        dag: &RangeDag,
    ) -> HeaderLocalization {
        let bdds = node_sets(space, dag);
        let remainders = diff_chain_cells(space, dag);
        let mut eager = EagerDag {
            dag,
            bdds,
            remainders,
            memo: HashMap::new(),
        };
        let mut exact = true;
        let not_s = space.manager().not(s);
        let nested = eager.get_match(space, s, not_s, 0, &mut exact);
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
