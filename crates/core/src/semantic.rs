//! SemanticDiff (§3.1): path equivalence classes and their pairwise
//! comparison.
//!
//! Both ACLs and route policies are sequences of *if-then-else* guards, so
//! the space of inputs partitions by which guards fire. Each class carries
//! the BDD predicate selecting it, the composed [`ActionEffect`] of its
//! path, and the spans of the clauses on the path (for text
//! localization). Comparing two components is then a pairwise intersection:
//! classes with a nonempty intersection and different effects are
//! behavioral differences — the quintuples `(i, a₁, a₂, t₁, t₂)` of the
//! paper.

use campion_bdd::{Bdd, Manager};
use campion_cfg::Span;
use campion_ir::{AclIr, AclRuleIr, RoutePolicy, Terminal};
use campion_net::{PortRange, WildcardMask};
use campion_symbolic::{ActionEffect, PacketSpace, RouteSpace, RuleKey};

pub use crate::replay_shims::release_paths;

/// One path equivalence class through a component.
#[derive(Debug, Clone)]
pub struct PolicyPath {
    /// Inputs taking this path (already intersected with the universe).
    pub predicate: Bdd,
    /// The path's composed, normalized effect.
    pub effect: ActionEffect,
    /// Spans of the clauses that fired on this path (empty for the
    /// implicit default).
    pub spans: Vec<Span>,
    /// Whether the policy's implicit default decided this path.
    pub is_default: bool,
    /// Whether any fired clause matched on a non-prefix field (community,
    /// tag, metric, protocol). Drives the paper's "single example for other
    /// fields" presentation rule.
    pub non_prefix_match: bool,
}

/// Safety valve: fall-through-heavy policies can in principle produce
/// exponentially many paths; beyond this many live states we give up rather
/// than hang (never reached by realistic configurations).
const MAX_PATHS: usize = 65_536;

/// Enumerate the path equivalence classes of a route policy.
///
/// Fall-through clauses (JunOS non-terminating terms, `next term`, Cisco
/// `continue`) fork the exploration: the symbolic route state carries their
/// rewrites forward so later matches observe them.
///
/// # Panics
/// Panics if the policy exceeds `MAX_PATHS` (65 536) classes.
pub fn policy_paths(
    space: &mut RouteSpace,
    policy: &RoutePolicy,
    universe: Bdd,
) -> Vec<PolicyPath> {
    campion_trace::span!("semdiff.policy_paths");
    struct Frame {
        idx: usize,
        predicate: Bdd,
        effect: ActionEffect,
        state: campion_symbolic::SymbolicRoute,
        spans: Vec<Span>,
        non_prefix: bool,
    }
    let mut out = Vec::new();
    let initial = space.initial_state();
    let mut stack = vec![Frame {
        idx: 0,
        predicate: universe,
        effect: ActionEffect::default(),
        state: initial,
        spans: Vec::new(),
        non_prefix: false,
    }];
    while let Some(f) = stack.pop() {
        assert!(
            out.len() + stack.len() < MAX_PATHS,
            "policy {} exceeds {MAX_PATHS} path classes",
            policy.name
        );
        if space.manager.is_false(f.predicate) {
            // Dead branch: nothing to emit.
        } else if f.idx == policy.clauses.len() {
            // Implicit default.
            let mut effect = f.effect;
            effect.accept = policy.default_terminal == Terminal::Accept;
            out.push(PolicyPath {
                predicate: f.predicate,
                effect: effect.normalized(),
                spans: f.spans,
                is_default: true,
                non_prefix_match: f.non_prefix,
            });
        } else {
            let clause = &policy.clauses[f.idx];
            let mut cond = Bdd::TRUE;
            for m in &clause.matches {
                let b = space.match_bdd(m, &f.state);
                cond = space.manager.and(cond, b);
            }
            let fire = space.manager.and(f.predicate, cond);
            let skip = space.manager.diff(f.predicate, cond);
            // Non-matching branch: continue with unchanged state.
            if space.manager.is_sat(skip) {
                stack.push(Frame {
                    idx: f.idx + 1,
                    predicate: skip,
                    effect: f.effect.clone(),
                    state: f.state.clone(),
                    spans: f.spans.clone(),
                    non_prefix: f.non_prefix,
                });
            }
            // Matching branch.
            if space.manager.is_sat(fire) {
                let mut effect = f.effect;
                effect.apply_all(&clause.sets);
                let mut spans = f.spans;
                spans.push(clause.span);
                let non_prefix = f.non_prefix
                    || clause
                        .matches
                        .iter()
                        .any(|m| !matches!(m, campion_ir::Match::Prefix(_)));
                match clause.terminal {
                    Terminal::Accept | Terminal::Reject => {
                        effect.accept = clause.terminal == Terminal::Accept;
                        out.push(PolicyPath {
                            predicate: fire,
                            effect: effect.normalized(),
                            spans,
                            is_default: false,
                            non_prefix_match: non_prefix,
                        });
                    }
                    Terminal::Fallthrough => {
                        let mut state = f.state;
                        space.apply_sets(&mut state, &clause.sets);
                        stack.push(Frame {
                            idx: f.idx + 1,
                            predicate: fire,
                            effect,
                            state,
                            spans,
                            non_prefix,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Enumerate the path equivalence classes of an ACL (rules are always
/// terminal, so this is linear: one class per reachable rule plus the
/// implicit trailing deny).
pub fn acl_paths(space: &mut PacketSpace, acl: &AclIr, universe: Bdd) -> Vec<PolicyPath> {
    acl_paths_within(space, acl, universe, None)
}

/// Difference-restricted path enumeration for an ACL *pair* — the fast
/// path behind [`crate::driver::compare_routers`]'s ACL diffs.
///
/// [`acl_paths`] materializes every class predicate against the full
/// universe, so its `remaining`-chain applys run on BDDs that grow with the
/// ACL — the dominant cost at 10k rules, even though the diff only ever
/// consumes the sliver of each class where the two sides disagree. Real
/// comparison targets are near-identical, so this variant first *aligns*
/// the two rule lists — purely syntactically, on canonical match content
/// plus action ([`RuleKey`]); equal keys encode to the same condition BDD
/// by construction, so no BDD needs to exist before alignment. A rule pair
/// common to an order-preserving alignment decides every packet it
/// first-matches identically on both sides, so disagreements live entirely
/// inside `R` = the union of the *unaligned* rules' conditions — a small
/// set when the configs are close, and the only conditions that get
/// encoded up front. Both sides' classes are then enumerated restricted to
/// `R`, keeping every chain op small; rules structurally disjoint from all
/// of `R`'s generators are skipped without encoding them at all.
///
/// Every difference reported by [`semantic_diff`] satisfies
/// `input = p₁ ∧ p₂ ⊆ R`, and restricting both sides' predicates to `R`
/// leaves each such intersection — and by hash-consing its handle —
/// unchanged, so feeding these paths to [`semantic_diff`] yields
/// byte-identical differences to the full enumeration. (Any sound
/// alignment gives a correct superset `R`; the syntactic one may align
/// slightly less than the old handle-keyed one, never more than soundness
/// allows.) Classes with an empty restriction are exactly the ones the
/// pruned diff would skip. When the alignment finds little in common, `R`
/// falls back to the universe and this degrades to plain [`acl_paths`].
///
/// `jobs` is accepted and ignored: both sides enumerate sequentially on the
/// one manager.
pub fn acl_diff_paths(
    space: &mut PacketSpace,
    a1: &AclIr,
    a2: &AclIr,
    _jobs: usize,
) -> (Vec<PolicyPath>, Vec<PolicyPath>) {
    campion_trace::span!("semdiff.acl_paths");
    let unaligned: Option<Vec<&AclRuleIr>> = {
        campion_trace::span!("semdiff.align");
        let k1 = syn_keys(a1);
        let k2 = syn_keys(a2);
        let (common1, common2) = align_common(&k1, &k2);
        // Distinct-content unaligned rules of either side: the generator
        // set of R.
        let mut seen = std::collections::HashSet::new();
        let mut rules = Vec::new();
        for (acl, keys, common) in [(a1, &k1, &common1), (a2, &k2, &common2)] {
            for (i, rule) in acl.rules.iter().enumerate() {
                if !common[i] && seen.insert(&keys[i].0) {
                    rules.push(rule);
                }
            }
        }
        // A wide restriction set costs more to build and subtract against
        // than it saves; past a quarter of the rules, enumerate the full
        // universe.
        if rules.len() * 4 > a1.rules.len() + a2.rules.len() {
            None
        } else {
            Some(rules)
        }
    };
    let restrict = match &unaligned {
        Some(rules) => {
            let mut seen = std::collections::HashSet::new();
            let mut conds = Vec::new();
            for rule in rules {
                let c = space.rule_bdd(rule);
                if seen.insert(c) {
                    conds.push(c);
                }
            }
            space.manager.or_all(&conds)
        }
        None => space.universe(),
    };
    // Structural-skip generators: only worth screening against when the
    // set is small (the screen is O(rules × generators)).
    let gens: Option<&[&AclRuleIr]> = match &unaligned {
        Some(rules) if rules.len() <= SKIP_GEN_MAX => Some(rules),
        _ => None,
    };
    let (paths1, paths2) = {
        campion_trace::span!("semdiff.enumerate");
        (
            acl_paths_within(space, a1, restrict, gens),
            acl_paths_within(space, a2, restrict, gens),
        )
    };
    (paths1, paths2)
}

/// Syntactic identity of each rule: canonical match content plus action.
/// Equal keys ⇔ behaviorally identical rules (their condition BDDs are
/// equal by construction) — so alignment needs no BDDs at all.
fn syn_keys(acl: &AclIr) -> Vec<(RuleKey, bool)> {
    acl.rules
        .iter()
        .map(|r| (RuleKey::of(r), r.permit))
        .collect()
}

/// Middle-segment size product under which the exact quadratic LCS runs
/// directly (also the patience recursion's base case).
const LCS_BASE: usize = 1 << 12;

/// Generator-set cap for the structural-disjointness screen in
/// [`acl_paths_within`]; past it the per-rule screen costs more than the
/// BDD work it avoids.
const SKIP_GEN_MAX: usize = 64;

/// Order-preserving alignment of two key sequences, as per-side
/// covered-by-the-alignment flags: common prefix + suffix trim, then a
/// positional pass over equal-length middles (the in-place-edit shape
/// real config pairs overwhelmingly take), else patience anchoring on
/// keys unique to both middles with an LCS base case for small segments.
/// Hashing only — `O(n log n)` in practice — replacing the former
/// quadratic LCS over condition handles (the `semdiff.align` hotspot at
/// 10k rules). Alignment quality only tunes the size of `R`; any common
/// subsequence is sound.
pub(crate) fn align_common<T: Eq + std::hash::Hash>(a: &[T], b: &[T]) -> (Vec<bool>, Vec<bool>) {
    let mut common1 = vec![false; a.len()];
    let mut common2 = vec![false; b.len()];
    let mut p = 0;
    while p < a.len() && p < b.len() && a[p] == b[p] {
        common1[p] = true;
        common2[p] = true;
        p += 1;
    }
    let mut s = 0;
    while s < a.len() - p && s < b.len() - p && a[a.len() - 1 - s] == b[b.len() - 1 - s] {
        common1[a.len() - 1 - s] = true;
        common2[b.len() - 1 - s] = true;
        s += 1;
    }
    let (m1, m2) = (p..a.len() - s, p..b.len() - s);
    if m1.len() == m2.len() {
        // Equal-length middles: the positional pass nails the in-place-edit
        // shape, but a balanced insert+delete shifts everything between the
        // two edits off-position. Run patience too and keep whichever
        // aligns more (ties go positional).
        let pos_pairs: Vec<(usize, usize)> = m1
            .clone()
            .zip(m2.clone())
            .filter(|&(i, j)| a[i] == b[j])
            .collect();
        let mut t1 = vec![false; a.len()];
        let mut t2 = vec![false; b.len()];
        patience_mark(a, b, m1.clone(), m2.clone(), &mut t1, &mut t2);
        if pos_pairs.len() >= t1.iter().filter(|&&x| x).count() {
            for (i, j) in pos_pairs {
                common1[i] = true;
                common2[j] = true;
            }
        } else {
            for i in m1 {
                common1[i] |= t1[i];
            }
            for j in m2 {
                common2[j] |= t2[j];
            }
        }
    } else {
        patience_mark(a, b, m1, m2, &mut common1, &mut common2);
    }
    (common1, common2)
}

/// Patience-diff marking pass over one segment pair: trim equal ends, LCS
/// small segments exactly, otherwise anchor on keys occurring exactly once
/// in both segments (longest increasing chain of anchor pairs) and recurse
/// between consecutive anchors. Segments with no unique common key stay
/// unaligned — sound (they only widen `R`) and the degenerate case the
/// universe fallback already covers.
fn patience_mark<T: Eq + std::hash::Hash>(
    a: &[T],
    b: &[T],
    r1: std::ops::Range<usize>,
    r2: std::ops::Range<usize>,
    common1: &mut [bool],
    common2: &mut [bool],
) {
    let (mut lo1, mut lo2) = (r1.start, r2.start);
    let (mut hi1, mut hi2) = (r1.end, r2.end);
    while lo1 < hi1 && lo2 < hi2 && a[lo1] == b[lo2] {
        common1[lo1] = true;
        common2[lo2] = true;
        lo1 += 1;
        lo2 += 1;
    }
    while hi1 > lo1 && hi2 > lo2 && a[hi1 - 1] == b[hi2 - 1] {
        common1[hi1 - 1] = true;
        common2[hi2 - 1] = true;
        hi1 -= 1;
        hi2 -= 1;
    }
    if lo1 == hi1 || lo2 == hi2 {
        return;
    }
    if (hi1 - lo1) * (hi2 - lo2) <= LCS_BASE {
        for (i, j) in lcs_pairs(&a[lo1..hi1], &b[lo2..hi2]) {
            common1[lo1 + i] = true;
            common2[lo2 + j] = true;
        }
        return;
    }
    #[derive(Default)]
    struct Occ {
        na: usize,
        ia: usize,
        nb: usize,
        ib: usize,
    }
    let mut occ: std::collections::HashMap<&T, Occ> = std::collections::HashMap::new();
    for (i, key) in a.iter().enumerate().take(hi1).skip(lo1) {
        let e = occ.entry(key).or_default();
        e.na += 1;
        e.ia = i;
    }
    for (j, key) in b.iter().enumerate().take(hi2).skip(lo2) {
        let e = occ.entry(key).or_default();
        e.nb += 1;
        e.ib = j;
    }
    let mut anchors: Vec<(usize, usize)> = occ
        .values()
        .filter(|o| o.na == 1 && o.nb == 1)
        .map(|o| (o.ia, o.ib))
        .collect();
    anchors.sort_unstable();
    let chain = lis_chain(&anchors);
    if chain.is_empty() {
        return;
    }
    let (mut prev1, mut prev2) = (lo1, lo2);
    for &(i, j) in &chain {
        patience_mark(a, b, prev1..i, prev2..j, common1, common2);
        common1[i] = true;
        common2[j] = true;
        prev1 = i + 1;
        prev2 = j + 1;
    }
    patience_mark(a, b, prev1..hi1, prev2..hi2, common1, common2);
}

/// Longest chain of anchor pairs increasing in both coordinates (`pairs`
/// arrives sorted by the first; classic patience/LIS on the second, with
/// backpointers).
fn lis_chain(pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut tails: Vec<usize> = Vec::new();
    let mut back: Vec<Option<usize>> = vec![None; pairs.len()];
    for (idx, &(_, j)) in pairs.iter().enumerate() {
        let pos = tails.partition_point(|&t| pairs[t].1 < j);
        back[idx] = if pos > 0 { Some(tails[pos - 1]) } else { None };
        if pos == tails.len() {
            tails.push(idx);
        } else {
            tails[pos] = idx;
        }
    }
    let mut chain = Vec::new();
    let mut cur = tails.last().copied();
    while let Some(i) = cur {
        chain.push(pairs[i]);
        cur = back[i];
    }
    chain.reverse();
    chain
}

/// Conservative structural overlap test on two rules' match conditions:
/// `false` *proves* the conditions disjoint (some field's constraint sets
/// cannot both hold — exact in that direction); `true` means "maybe".
/// Mirrors `rule_bdd`'s encoding, including the TCP/UDP gate a
/// port-qualified rule carries.
pub(crate) fn rules_may_overlap(a: &AclRuleIr, b: &AclRuleIr) -> bool {
    /// Effective protocol set (`None` = unconstrained): the listed numbers
    /// (an unnumbered "any" alternative unconstrains), narrowed to
    /// TCP/UDP when the rule is port-qualified.
    fn protos(r: &AclRuleIr) -> Option<Vec<u8>> {
        let base: Option<Vec<u8>> = if r.protocols.is_empty() {
            None
        } else {
            r.protocols.iter().map(|p| p.number()).collect()
        };
        let gated = !r.src_ports.is_empty() || !r.dst_ports.is_empty();
        match (base, gated) {
            (Some(s), true) => Some(s.into_iter().filter(|n| *n == 6 || *n == 17).collect()),
            (Some(s), false) => Some(s),
            (None, true) => Some(vec![6, 17]),
            (None, false) => None,
        }
    }
    if let (Some(pa), Some(pb)) = (protos(a), protos(b)) {
        if !pa.iter().any(|x| pb.contains(x)) {
            return false;
        }
    }
    // Two wildcard terms overlap iff their fixed bits agree wherever both
    // care; empty alternative lists are unconstrained.
    fn addrs_overlap(xs: &[WildcardMask], ys: &[WildcardMask]) -> bool {
        if xs.is_empty() || ys.is_empty() {
            return true;
        }
        xs.iter().any(|x| {
            ys.iter()
                .any(|y| (x.addr ^ y.addr) & !x.wildcard & !y.wildcard == 0)
        })
    }
    if !addrs_overlap(&a.src, &b.src) || !addrs_overlap(&a.dst, &b.dst) {
        return false;
    }
    fn ports_overlap(xs: &[PortRange], ys: &[PortRange]) -> bool {
        if xs.is_empty() || ys.is_empty() {
            return true;
        }
        xs.iter()
            .any(|x| ys.iter().any(|y| x.lo <= y.hi && y.lo <= x.hi))
    }
    ports_overlap(&a.src_ports, &b.src_ports) && ports_overlap(&a.dst_ports, &b.dst_ports)
}

/// Index pairs of one longest common subsequence (classic quadratic DP;
/// callers bound the input product). Retained as the exact base case of
/// [`patience_mark`] and as the reference oracle the alignment proptests
/// compare against.
pub(crate) fn lcs_pairs<T: Eq>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
    let (n, m) = (a.len(), b.len());
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let at = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[at(i, j)] = if a[i] == b[j] {
                dp[at(i + 1, j + 1)] + 1
            } else {
                dp[at(i + 1, j)].max(dp[at(i, j + 1)])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if dp[at(i + 1, j)] >= dp[at(i, j + 1)] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// The ACL enumeration behind [`acl_paths`] and [`acl_diff_paths`]: the
/// chain restricted to `within`, so class predicates come out as
/// `predicate ∧ within`. A rule whose condition already appeared is
/// shadowed and fires on nothing, and once the restriction set is
/// exhausted every later class would restrict to ∅, so both are skipped.
///
/// When `generators` carries the rules whose conditions union to `within`,
/// a rule structurally disjoint from every generator is skipped without
/// being encoded: `remaining ⊆ within = ⋃ generators`, so such a rule's
/// restricted fire set is empty and subtracting it is a no-op — the
/// resulting paths (and `remaining` chain) are identical.
fn acl_paths_within(
    space: &mut PacketSpace,
    acl: &AclIr,
    within: Bdd,
    generators: Option<&[&AclRuleIr]>,
) -> Vec<PolicyPath> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut remaining = within;
    for rule in &acl.rules {
        if !space.manager.is_sat(remaining) {
            break;
        }
        if let Some(gens) = generators {
            if !gens.iter().any(|g| rules_may_overlap(rule, g)) {
                continue;
            }
        }
        let cond = space.rule_bdd(rule);
        if !seen.insert(cond) {
            continue;
        }
        let fire = space.manager.and(remaining, cond);
        remaining = space.manager.diff(remaining, cond);
        if space.manager.is_sat(fire) {
            out.push(PolicyPath {
                predicate: fire,
                effect: ActionEffect::terminal(rule.permit),
                spans: vec![rule.span],
                is_default: false,
                non_prefix_match: true,
            });
        }
    }
    if space.manager.is_sat(remaining) {
        out.push(PolicyPath {
            predicate: remaining,
            effect: ActionEffect::terminal(false),
            spans: Vec::new(),
            is_default: true,
            non_prefix_match: true,
        });
    }
    out
}

/// One behavioral difference between two components: the paper's quintuple
/// `(i, a₁, a₂, t₁, t₂)`.
#[derive(Debug, Clone)]
pub struct SemanticDifference {
    /// The impacted inputs.
    pub input: Bdd,
    /// Action taken by the first component.
    pub effect1: ActionEffect,
    /// Action taken by the second component.
    pub effect2: ActionEffect,
    /// Spans on the first component's path.
    pub spans1: Vec<Span>,
    /// Spans on the second component's path.
    pub spans2: Vec<Span>,
    /// Whether each side's implicit default decided.
    pub default1: bool,
    /// See `default1`.
    pub default2: bool,
    /// Whether either side's path matched on a non-prefix field.
    pub non_prefix_match: bool,
}

/// Counters describing how much of the path-pair cross product the pruned
/// [`semantic_diff`] actually had to look at. Merged into
/// [`campion_bdd::ManagerStats`] by the driver so `--stats` and the
/// scalability bench can report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffPruneStats {
    /// Inner-loop `(p1, p2)` visits actually performed.
    pub pairs_examined: u64,
    /// Pairs skipped without a visit (`|paths1|·|paths2|` minus examined):
    /// whole rows cut by the disagreement pre-filter plus inner-loop tails
    /// cut by the remainder early exit.
    pub pairs_pruned: u64,
    /// Inner loops that exited before exhausting `paths2` because the
    /// remainder set emptied.
    pub early_exits: u64,
}

/// Pairwise comparison of two components' path classes, output-sensitive.
///
/// Both inputs must be *partitions* of a common universe — exactly what
/// [`policy_paths`] and [`acl_paths`] produce (disjoint classes covering
/// every input). The naive comparison intersects all `|paths1|·|paths2|`
/// pairs; this implementation only pays for pairs that can actually
/// disagree, in three steps (the *selective symbolic simulation* idea —
/// restrict exploration to inputs where behavior can differ):
///
/// 1. **Disagreement pre-filter.** One linear pass builds, per distinct
///    side-2 [`ActionEffect`], the union of its class predicates; the
///    disagreement set `D = ⋃ p1 ∧ ¬union2[p1.effect]` then contains
///    exactly the inputs the two sides treat differently (for a two-effect
///    ACL this degenerates to `permit₁ XOR permit₂`). A row whose
///    `p1.predicate ∧ D` is empty is skipped with that single `and`.
/// 2. **Partition-aware early exit.** A surviving row tracks its remainder
///    `rem = p1.predicate ∧ D` and subtracts each intersecting `p2`; since
///    side-2 classes are disjoint, `rem` empties as soon as every
///    overlapping class has been seen and the inner loop breaks — its cost
///    is the number of *overlapping* classes, not `|paths2|`.
/// 3. Equal-effect pairs need no subtraction at all: their intersection is
///    disjoint from `D` by construction.
///
/// Every emitted intersection equals `p1.predicate ∧ p2.predicate` as a
/// function, so hash-consing makes the result — quintuples, order, and BDD
/// handles — identical to the all-pairs loop (kept as a `#[cfg(test)]`
/// reference oracle below).
pub fn semantic_diff(
    manager: &mut Manager,
    paths1: &[PolicyPath],
    paths2: &[PolicyPath],
) -> Vec<SemanticDifference> {
    semantic_diff_jobs(manager, paths1, paths2, &mut DiffPruneStats::default(), 1)
}

/// [`semantic_diff`] with pruning counters reported through `stats`
/// (counters accumulate, so one instance can span several components).
/// `jobs` is accepted and ignored: the rows run sequentially on `manager`.
pub fn semantic_diff_jobs(
    manager: &mut Manager,
    paths1: &[PolicyPath],
    paths2: &[PolicyPath],
    stats: &mut DiffPruneStats,
    _jobs: usize,
) -> Vec<SemanticDifference> {
    campion_trace::span!("semdiff.diff");
    let total_pairs = paths1.len() as u64 * paths2.len() as u64;
    let examined_before = stats.pairs_examined;

    let disagree = {
        campion_trace::span!("semdiff.disagreement");
        // Step 1a: per-effect predicate unions of side 2, in first-seen
        // order. The number of distinct effects is tiny (2 for ACLs), so a
        // linear scan beats imposing Hash/Ord on ActionEffect.
        let mut groups: Vec<(&ActionEffect, Vec<Bdd>)> = Vec::new();
        for p2 in paths2 {
            match groups.iter_mut().find(|(e, _)| **e == p2.effect) {
                Some((_, preds)) => preds.push(p2.predicate),
                None => groups.push((&p2.effect, vec![p2.predicate])),
            }
        }
        let unions: Vec<(&ActionEffect, Bdd)> = groups
            .iter()
            .map(|(e, preds)| (*e, manager.or_all(preds)))
            .collect();

        // Step 1b: the disagreement set D.
        let mut terms = Vec::with_capacity(paths1.len());
        for p1 in paths1 {
            let same = unions
                .iter()
                .find(|(e, _)| **e == p1.effect)
                .map_or(Bdd::FALSE, |(_, u)| *u);
            terms.push(manager.diff(p1.predicate, same));
        }
        manager.or_all(&terms)
    };

    let mut out = Vec::new();
    for p1 in paths1 {
        diff_row(manager, p1, paths2, disagree, stats, &mut out);
    }
    stats.pairs_pruned += total_pairs - (stats.pairs_examined - examined_before);
    out
}

/// One row of the pruned comparison: `p1` against every side-2 class, with
/// the remainder early exit.
fn diff_row(
    manager: &mut Manager,
    p1: &PolicyPath,
    paths2: &[PolicyPath],
    disagree: Bdd,
    stats: &mut DiffPruneStats,
    out: &mut Vec<SemanticDifference>,
) {
    // Step 2: the row remainder. Empty ⇒ no p2 can disagree with p1.
    let mut rem = manager.and(p1.predicate, disagree);
    if manager.is_sat(rem) {
        for p2 in paths2 {
            stats.pairs_examined += 1;
            if p1.effect == p2.effect {
                // rem ∧ p2 = ∅: equal-effect intersections never meet D.
                continue;
            }
            // rem ⊆ p1 minus already-subtracted (disjoint) classes, and
            // differing-effect intersections lie inside D, so this is
            // exactly p1.predicate ∧ p2.predicate.
            let inter = manager.and(rem, p2.predicate);
            if manager.is_sat(inter) {
                out.push(SemanticDifference {
                    input: inter,
                    effect1: p1.effect.clone(),
                    effect2: p2.effect.clone(),
                    spans1: p1.spans.clone(),
                    spans2: p2.spans.clone(),
                    default1: p1.is_default,
                    default2: p2.is_default,
                    non_prefix_match: p1.non_prefix_match || p2.non_prefix_match,
                });
                rem = manager.diff(rem, inter);
                if manager.is_false(rem) {
                    stats.early_exits += 1;
                    break;
                }
            }
        }
    }
}

/// The original all-pairs comparison, retained verbatim as the reference
/// oracle for the pruned [`semantic_diff`]: proptests assert the two return
/// identical difference lists (same handles, spans, effects) for
/// random policy/ACL pairs.
#[cfg(test)]
pub(crate) fn semantic_diff_all_pairs(
    manager: &mut Manager,
    paths1: &[PolicyPath],
    paths2: &[PolicyPath],
) -> Vec<SemanticDifference> {
    let mut out = Vec::new();
    for p1 in paths1 {
        for p2 in paths2 {
            if p1.effect == p2.effect {
                continue;
            }
            let inter = manager.and(p1.predicate, p2.predicate);
            if manager.is_sat(inter) {
                out.push(SemanticDifference {
                    input: inter,
                    effect1: p1.effect.clone(),
                    effect2: p2.effect.clone(),
                    spans1: p1.spans.clone(),
                    spans2: p2.spans.clone(),
                    default1: p1.is_default,
                    default2: p2.is_default,
                    non_prefix_match: p1.non_prefix_match || p2.non_prefix_match,
                });
            }
        }
    }
    out
}
