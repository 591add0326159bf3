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
use campion_ir::{AclIr, AclRuleIr, Clause, RoutePolicy, Terminal};
use campion_net::{PortRange, PrefixRange, PrefixTrie, WildcardMask};
use campion_symbolic::{ActionEffect, ClauseKey, PacketSpace, RouteSpace, RuleKey, SymbolicRoute};

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
/// This is the unrestricted enumeration: `policy_diff_paths` falls back to
/// it, and the restriction oracles compare against it.
///
/// # Panics
/// Panics if the policy exceeds `MAX_PATHS` (65 536) classes.
pub fn policy_paths(
    space: &mut RouteSpace,
    policy: &RoutePolicy,
    universe: Bdd,
) -> Vec<PolicyPath> {
    campion_trace::span!("semdiff.policy_paths");
    policy_paths_within(space, policy, universe, None).0
}

/// The condition of `clause` under the symbolic `state`: the conjunction of
/// its matches.
fn clause_cond(space: &mut RouteSpace, clause: &Clause, state: &SymbolicRoute) -> Bdd {
    let mut cond = Bdd::TRUE;
    for m in &clause.matches {
        let b = space.match_bdd(m, state);
        cond = space.manager.and(cond, b);
    }
    cond
}

/// The route-policy enumeration behind [`policy_paths`] and
/// [`policy_diff_paths`]: classes of inputs inside `within`, and how many
/// clauses `skip` passed over. A frame asks `skip` about its clause only
/// when it reaches it with inputs left, and on `true` passes the clause
/// over without encoding it; `skip` answers `true` only for a clause that
/// provably fires on nothing inside `within`. With no fall-through clause
/// one frame at most reaches each clause.
pub(crate) fn policy_paths_within(
    space: &mut RouteSpace,
    policy: &RoutePolicy,
    within: Bdd,
    skip: Option<&dyn Fn(usize) -> bool>,
) -> (Vec<PolicyPath>, usize) {
    struct Frame {
        idx: usize,
        predicate: Bdd,
        effect: ActionEffect,
        state: SymbolicRoute,
        spans: Vec<Span>,
        non_prefix: bool,
    }
    let mut out = Vec::new();
    let mut skipped = 0;
    let initial = space.initial_state();
    let mut stack = vec![Frame {
        idx: 0,
        predicate: within,
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
        } else if skip.is_some_and(|skip| skip(f.idx)) {
            // Fires on nothing here: the whole frame skips the clause.
            skipped += 1;
            stack.push(Frame {
                idx: f.idx + 1,
                ..f
            });
        } else {
            let clause = &policy.clauses[f.idx];
            let cond = clause_cond(space, clause, &f.state);
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
    (out, skipped)
}

/// Enumerate the path equivalence classes of an ACL (rules are always
/// terminal, so this is linear: one class per reachable rule plus the
/// implicit trailing deny).
pub fn acl_paths(space: &mut PacketSpace, acl: &AclIr, universe: Bdd) -> Vec<PolicyPath> {
    acl_paths_within(space, acl, universe, None).0
}

// ------------------------------------------------------------- alignment
//
// Real comparison targets are near-identical, so both pair kinds first
// *align* their item lists — purely syntactically, on keys ([`RuleKey`]
// plus action for ACL rules, [`ClauseKey`] for route-policy clauses). Equal
// keys encode to the same condition and carry the same effect, so no BDD
// needs to exist before alignment. Outside `R`, the union of the unaligned
// items' conditions, an input first-matches an aligned item on each side,
// and an order-preserving alignment makes it the same pair of equal items:
// the sides agree there, unless the input reaches both defaults and they
// differ, or a fall-through clause carried state into the match. Both sides
// are therefore enumerated inside `R` only, and an item the enumeration
// reaches is skipped unencoded when a screen proves it misses `R`.

/// Why a pair was enumerated over the whole universe instead of inside `R`.
/// Each `semdiff.align` span counts its pair under one of these names.
#[derive(Debug, Clone, Copy)]
enum Fallback {
    /// No fall-back: the pair was restricted to `R`.
    None,
    /// A fall-through clause carries rewrites to later clauses, so an
    /// aligned clause need not see the same route on both sides.
    Fallthrough,
    /// The defaults differ and no aligned match-all clause hides them, so
    /// inputs outside `R` can disagree.
    Defaults,
    /// More than a quarter of the items are unaligned: a wide `R` costs
    /// more to build and subtract against than it saves.
    Wide,
}

impl Fallback {
    fn counter(self) -> &'static str {
        match self {
            Fallback::None => "fallback.none",
            Fallback::Fallthrough => "fallback.fallthrough",
            Fallback::Defaults => "fallback.defaults",
            Fallback::Wide => "fallback.wide",
        }
    }
}

/// What a pair's enumeration covers, decided from keys alone.
enum Scope {
    /// Both sides over the whole universe.
    Universe(Fallback),
    /// Both sides inside `R`, the union of these generators' conditions:
    /// the distinct-key unaligned items, as `(side, index)`, side 0 first.
    /// With every item aligned there is none, `R` is empty and no path is
    /// built.
    Within(Vec<(usize, usize)>),
}

/// The defaults rule of alignment: routes that reach no unaligned clause
/// are decided alike when the two default terminals agree, or when an
/// aligned terminating match-all clause keeps every route from reaching
/// either default. `aligned` are one side's aligned clause keys.
fn defaults_agree<'k>(
    p1: &RoutePolicy,
    p2: &RoutePolicy,
    aligned: impl IntoIterator<Item = &'k ClauseKey>,
) -> bool {
    p1.default_terminal == p2.default_terminal
        || aligned
            .into_iter()
            .any(|k| k.matches_all() && k.terminal() != Terminal::Fallthrough)
}

/// Whether alignment proves a policy pair identical: equal clause-key
/// sequences (so every clause aligns) and [`defaults_agree`]. The driver
/// drops such a pair before dispatching it.
pub(crate) fn policies_identical(p1: &RoutePolicy, p2: &RoutePolicy) -> bool {
    let k1: Vec<ClauseKey> = p1.clauses.iter().map(ClauseKey::of).collect();
    p1.clauses.len() == p2.clauses.len()
        && p2
            .clauses
            .iter()
            .zip(&k1)
            .all(|(c, k)| ClauseKey::of(c) == *k)
        && defaults_agree(p1, p2, &k1)
}

/// Whether alignment proves an ACL pair identical: equal rule-key
/// sequences (both defaults deny). The driver drops such a pair before
/// dispatching it.
pub(crate) fn acls_identical(a1: &AclIr, a2: &AclIr) -> bool {
    a1.rules.len() == a2.rules.len()
        && a1
            .rules
            .iter()
            .zip(&a2.rules)
            .all(|(x, y)| x.permit == y.permit && RuleKey::of(x) == RuleKey::of(y))
}

/// Align two key sequences, choose the pair's scope and record the
/// alignment's counters on `span`: `aligned` (one side's aligned items),
/// `unaligned` (both sides' others) and one `fallback.*`. `defaults_agree`
/// gets side 0's aligned flags; `fallthrough` says some item carries state
/// to later ones.
fn align<K: Eq + std::hash::Hash>(
    k1: &[K],
    k2: &[K],
    fallthrough: bool,
    defaults_agree: impl FnOnce(&[bool]) -> bool,
    span: &mut campion_trace::SpanGuard,
) -> Scope {
    let (common1, common2) = align_common(k1, k2);
    let scope = if fallthrough {
        Scope::Universe(Fallback::Fallthrough)
    } else if !defaults_agree(&common1) {
        Scope::Universe(Fallback::Defaults)
    } else {
        let mut seen = std::collections::HashSet::new();
        let mut gens = Vec::new();
        for (side, (keys, common)) in [(k1, &common1), (k2, &common2)].into_iter().enumerate() {
            for (i, key) in keys.iter().enumerate() {
                if !common[i] && seen.insert(key) {
                    gens.push((side, i));
                }
            }
        }
        if gens.len() * 4 > k1.len() + k2.len() {
            Scope::Universe(Fallback::Wide)
        } else {
            Scope::Within(gens)
        }
    };
    if span.is_active() {
        let aligned = common1.iter().filter(|&&c| c).count();
        span.counter("aligned", aligned as i64);
        span.counter("unaligned", (k1.len() + k2.len() - 2 * aligned) as i64);
        let fallback = match scope {
            Scope::Universe(reason) => reason,
            Scope::Within(_) => Fallback::None,
        };
        span.counter(fallback.counter(), 1);
    }
    scope
}

/// `R`: the union of the generators' conditions `conds`, inside `universe`.
fn restriction(manager: &mut Manager, universe: Bdd, conds: &[Bdd]) -> Bdd {
    let union = manager.or_all(conds);
    manager.and(universe, union)
}

/// The generators' permit ranges, for the route-policy range screen. Two
/// ranges share a member only when one covering prefix is a truncation of
/// the other and their length intervals meet, so a query asks the trie for
/// the generator ranges whose covering prefixes nest with its own and
/// checks their member lengths.
struct RangeScreen {
    trie: PrefixTrie,
    /// Per trie id: the mask of the generator range's member lengths.
    lens: Vec<u64>,
}

/// Mask of a range's member lengths.
fn len_mask(r: &PrefixRange) -> u64 {
    (u64::MAX >> (63 - r.max_len)) & (u64::MAX << r.min_len)
}

impl RangeScreen {
    fn new(ranges: impl IntoIterator<Item = PrefixRange>) -> Self {
        let mut trie = PrefixTrie::new();
        let mut lens = Vec::new();
        for r in ranges {
            trie.insert(lens.len(), &r.prefix);
            lens.push(len_mask(&r));
        }
        RangeScreen { trie, lens }
    }

    /// Whether `r` may share a member with a generator range; `false`
    /// proves it shares none.
    fn meets(&self, r: &PrefixRange) -> bool {
        let want = len_mask(r);
        self.trie
            .candidates(&r.prefix)
            .iter()
            .any(|&id| self.lens[id] & want != 0)
    }

    /// Whether a clause keyed `key` provably fires on nothing inside `R`:
    /// it has permit ranges and none meets a generator range.
    fn misses(&self, key: &ClauseKey) -> bool {
        key.permit_ranges()
            .is_some_and(|mut rs| !rs.any(|r| self.meets(&r)))
    }
}

/// Difference-restricted path enumeration for an ACL *pair* — the fast
/// path behind [`crate::driver::compare_routers`]'s ACL diffs.
///
/// [`acl_paths`] materializes every class predicate against the full
/// universe, so its `remaining`-chain applys run on BDDs that grow with the
/// ACL — the dominant cost at 10k rules, even though the diff only ever
/// consumes the sliver of each class where the two sides disagree. This
/// variant aligns the two rule lists on [`RuleKey`] plus action (see the
/// alignment notes above) and enumerates both sides inside `R`; a rule the
/// enumeration reaches is skipped unencoded when it is structurally
/// disjoint from every generator.
///
/// Every difference reported by [`semantic_diff`] satisfies
/// `input = p₁ ∧ p₂ ⊆ R`, and restricting both sides' predicates to `R`
/// leaves each such intersection — and by hash-consing its handle —
/// unchanged, so feeding these paths to [`semantic_diff`] yields
/// byte-identical differences to the full enumeration. Classes with an
/// empty restriction are exactly the ones the pruned diff would skip. When
/// the alignment finds little in common, `R` falls back to the universe and
/// this degrades to plain [`acl_paths`].
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
    let acls = [a1, a2];
    let scope = {
        let mut span = campion_trace::span("semdiff.align");
        let [k1, k2] = acls.map(|acl| {
            let keys = acl.rules.iter().map(|r| (RuleKey::of(r), r.permit));
            keys.collect::<Vec<_>>()
        });
        align(&k1, &k2, false, |_| true, &mut span)
    };
    let universe = space.universe();
    let (within, screen) = match &scope {
        Scope::Universe(_) => (universe, None),
        Scope::Within(gens) => {
            let gens: Vec<&AclRuleIr> = gens.iter().map(|&(s, i)| &acls[s].rules[i]).collect();
            let conds: Vec<Bdd> = gens.iter().map(|r| space.rule_bdd(r)).collect();
            let within = restriction(&mut space.manager, universe, &conds);
            // The structural screen costs O(generators) per rule reached:
            // only worth it while the generator set is small. It needs one
            // generator per condition, and an action flip leaves two.
            let screen = (gens.len() <= SKIP_GEN_MAX).then(|| {
                let distinct = (0..gens.len()).filter(|&k| !conds[..k].contains(&conds[k]));
                distinct.map(|k| gens[k]).collect::<Vec<_>>()
            });
            (within, screen)
        }
    };
    let mut span = campion_trace::span("semdiff.enumerate");
    let mut screened = 0;
    let [paths1, paths2] = acls.map(|acl| {
        let skip = |i: usize| {
            let rule = &acl.rules[i];
            screen
                .as_ref()
                .is_some_and(|gens| !gens.iter().any(|g| rules_may_overlap(rule, g)))
        };
        let (paths, skipped) =
            acl_paths_within(space, acl, within, screen.is_some().then_some(&skip));
        screened += skipped;
        paths
    });
    span.counter("screened", screened as i64);
    (paths1, paths2)
}

/// Difference-restricted path enumeration for a route-policy *pair*: the
/// route-policy counterpart of [`acl_diff_paths`], behind the driver's
/// policy diffs. The clause lists align on [`ClauseKey`] and both sides are
/// enumerated inside `R` with the [`policy_paths`] loop, by the same
/// argument and with the same byte-identical differences.
///
/// It enumerates over the universe instead when either side has a
/// fall-through clause, when the default terminals differ and no aligned
/// terminating match-all clause hides them, or when more than a quarter of
/// the clauses are unaligned. Inside `R`, a clause the enumeration reaches
/// whose permit ranges miss every generator's permit ranges fires on
/// nothing and is skipped unencoded; the screen is off when some generator
/// has no prefix condition.
pub(crate) fn policy_diff_paths(
    space: &mut RouteSpace,
    p1: &RoutePolicy,
    p2: &RoutePolicy,
) -> (Vec<PolicyPath>, Vec<PolicyPath>) {
    let mut span = campion_trace::span("semdiff.policy_paths");
    let policies = [p1, p2];
    let (keys, scope) = {
        let mut span = campion_trace::span("semdiff.align");
        let keys = policies.map(|p| p.clauses.iter().map(ClauseKey::of).collect::<Vec<_>>());
        let fallthrough = keys
            .iter()
            .flatten()
            .any(|k| k.terminal() == Terminal::Fallthrough);
        let scope = align(
            &keys[0],
            &keys[1],
            fallthrough,
            |common1| {
                let aligned = keys[0].iter().zip(common1).filter(|(_, &c)| c);
                defaults_agree(p1, p2, aligned.map(|(k, _)| k))
            },
            &mut span,
        );
        (keys, scope)
    };
    let universe = space.universe();
    let (within, screen) = match &scope {
        Scope::Universe(_) => (universe, None),
        Scope::Within(gens) => {
            let initial = space.initial_state();
            let conds: Vec<Bdd> = gens
                .iter()
                .map(|&(s, i)| clause_cond(space, &policies[s].clauses[i], &initial))
                .collect();
            let ranges: Option<Vec<_>> = gens
                .iter()
                .map(|&(s, i)| keys[s][i].permit_ranges())
                .collect();
            let within = restriction(&mut space.manager, universe, &conds);
            (
                within,
                ranges.map(|r| RangeScreen::new(r.into_iter().flatten())),
            )
        }
    };
    let mut screened = 0;
    let [paths1, paths2] = [0, 1].map(|side| {
        let skip = |i: usize| screen.as_ref().is_some_and(|s| s.misses(&keys[side][i]));
        let (paths, skipped) = policy_paths_within(
            space,
            policies[side],
            within,
            screen.is_some().then_some(&skip),
        );
        screened += skipped;
        paths
    });
    span.counter("screened", screened as i64);
    (paths1, paths2)
}

/// Middle-segment size product under which the exact quadratic LCS runs
/// directly (also the patience recursion's base case).
const LCS_BASE: usize = 1 << 12;

/// Generator-set cap for the structural-disjointness screen of
/// [`acl_diff_paths`]; past it the per-rule screen costs more than the BDD
/// work it avoids.
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
    // The address test runs first: it allocates nothing and rejects most
    // pairs, and the enumeration screens each rule it reaches against
    // every generator.
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
/// `predicate ∧ within`, and how many rules `skip` passed over. A rule
/// whose condition already appeared is shadowed and fires on nothing, and
/// once the restriction set is exhausted every later class would restrict
/// to ∅, so both are skipped.
///
/// The loop asks `skip` about a rule only when it reaches it with inputs
/// left, and on `true` passes it over without encoding it.
/// [`acl_diff_paths`] answers `true` for a rule structurally disjoint from
/// every generator of `within`: `remaining ⊆ within = ⋃ generators`, so
/// such a rule's restricted fire set is empty and subtracting it is a no-op
/// — the resulting paths (and `remaining` chain) are identical.
pub(crate) fn acl_paths_within(
    space: &mut PacketSpace,
    acl: &AclIr,
    within: Bdd,
    skip: Option<&dyn Fn(usize) -> bool>,
) -> (Vec<PolicyPath>, usize) {
    let mut out = Vec::new();
    let mut skipped = 0;
    let mut seen = std::collections::HashSet::new();
    let mut remaining = within;
    for (i, rule) in acl.rules.iter().enumerate() {
        if !space.manager.is_sat(remaining) {
            break;
        }
        if skip.is_some_and(|skip| skip(i)) {
            skipped += 1;
            continue;
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
    (out, skipped)
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
