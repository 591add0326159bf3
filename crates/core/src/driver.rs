//! The ConfigDiff driver (§3): MatchPolicies → Diff → Present.
//!
//! Matched policy and ACL pairs are independent — each gets its own BDD
//! manager and variable space — so the driver fans them out over a small
//! work-stealing pool (`std::thread::scope`, no external dependencies).
//! Results are merged back in the original pair order, so the rendered
//! report is byte-identical to a sequential run regardless of the worker
//! count. A compare with at most one such pair never leaves the calling
//! thread. StructuralDiff (§3.3) is an exact walk over the IR, microseconds
//! per family, and runs inline after the pool joins.
//!
//! A pair's BDD arena is compacted once, right after SemanticDiff, to the
//! differences' inputs: localization reads nothing else, and builds what
//! it needs in what is left. Differences that project to the same target
//! share one localization per ddNF.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use campion_bdd::{Bdd, ManagerStats};
use campion_cfg::Span;
use campion_ir::{AclIr, RoutePolicy, RouterIr};
use campion_net::PrefixRange;
use campion_symbolic::{PacketSpace, RouteSpace};

use crate::headerloc::{
    self, DstAddrSpace, HeaderLocalization, RangeDag, RangeEncoder, SrcAddrSpace,
};
use crate::matching::{match_policies, PolicyPair};
use crate::report::{CampionReport, PolicyDiffReport};
use crate::semantic::{
    acl_diff_paths, acls_identical, policies_identical, policy_diff_paths, semantic_diff_jobs,
    DiffPruneStats, SemanticDifference,
};
use crate::structural;

/// Options controlling a comparison run.
#[derive(Debug, Clone)]
pub struct CampionOptions {
    /// Run StructuralDiff: compare static routes, connected routes, BGP
    /// properties and OSPF attributes structurally.
    pub check_structural: bool,
    /// Compare route maps semantically.
    pub check_route_maps: bool,
    /// Compare ACLs semantically.
    pub check_acls: bool,
    /// Report the *exhaustive* community conditions of each route-map
    /// difference instead of a single example (the §3.2 extension; off by
    /// default to match the paper's output format).
    pub exhaustive_communities: bool,
    /// Worker threads for the policy and ACL pairs; `0` means one per
    /// available hardware thread. The report is identical for every value.
    pub jobs: usize,
}

impl Default for CampionOptions {
    fn default() -> Self {
        CampionOptions {
            check_structural: true,
            check_route_maps: true,
            check_acls: true,
            exhaustive_communities: false,
            jobs: 0,
        }
    }
}

impl CampionOptions {
    /// The effective worker count: `jobs` clamped to the machine's
    /// available parallelism (more workers than hardware threads only adds
    /// scheduling overhead), or that parallelism itself when `jobs == 0`.
    pub fn effective_jobs(&self) -> usize {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if self.jobs != 0 {
            self.jobs.min(hw)
        } else {
            hw
        }
    }
}

/// One policy or ACL pair: the pool's unit of work. Each builds a private
/// BDD manager and variable space.
enum WorkItem<'a> {
    Policy(&'a PolicyPair),
    Acl(&'a str),
}

/// Diff, localize and present one pair; returns its report rows and the
/// pair's BDD-engine counters.
fn run_item(
    r1: &RouterIr,
    r2: &RouterIr,
    item: &WorkItem<'_>,
    opts: &CampionOptions,
) -> (Vec<PolicyDiffReport>, ManagerStats) {
    match item {
        WorkItem::Policy(pair) => diff_policy_pair(r1, r2, pair, opts),
        WorkItem::Acl(name) => diff_acl_pair(r1, r2, &r1.acls[*name], &r2.acls[*name]),
    }
}

/// Whether alignment alone proves the item's two components identical:
/// such an item yields no report row, so it is never dispatched.
fn proven_identical(r1: &RouterIr, r2: &RouterIr, item: &WorkItem<'_>) -> bool {
    match item {
        WorkItem::Policy(pair) => {
            policies_identical(&resolve(r1, &pair.name1), &resolve(r2, &pair.name2))
        }
        WorkItem::Acl(name) => acls_identical(&r1.acls[*name], &r2.acls[*name]),
    }
}

/// The policy a pair side names, or the permit-all policy it compares as
/// when the name is absent or undefined.
fn resolve<'a>(router: &'a RouterIr, name: &Option<String>) -> Cow<'a, RoutePolicy> {
    match name {
        Some(n) => router.policies.get(n).map_or_else(
            || Cow::Owned(RoutePolicy::permit_all(n.as_str())),
            Cow::Borrowed,
        ),
        None => Cow::Owned(RoutePolicy::permit_all("(no policy)")),
    }
}

/// Close a pair's accounting: the manager's counters plus the two it
/// cannot see — the space's rule-BDD cache and the diff's pruning — with
/// their deltas since `entry` attached to the pair's item span (BDD arena
/// growth, cache traffic, compaction effort, pruning).
fn pair_stats(
    span: &mut campion_trace::SpanGuard,
    entry: &ManagerStats,
    mut stats: ManagerStats,
    (rule_cache_lookups, rule_cache_hits): (u64, u64),
    prune: &DiffPruneStats,
) -> ManagerStats {
    stats.rule_cache_lookups = rule_cache_lookups;
    stats.rule_cache_hits = rule_cache_hits;
    stats.pairs_examined = prune.pairs_examined;
    stats.pairs_pruned = prune.pairs_pruned;
    stats.early_exits = prune.early_exits;
    if span.is_active() {
        for (name, after, before) in [
            ("bdd_nodes", stats.nodes, entry.nodes),
            ("peak_nodes", stats.peak_nodes, entry.peak_nodes),
            ("unique_lookups", stats.unique_lookups, entry.unique_lookups),
            ("apply_lookups", stats.apply_lookups, entry.apply_lookups),
            ("apply_hits", stats.apply_hits, entry.apply_hits),
            ("gc_runs", stats.gc_runs, entry.gc_runs),
            ("gc_pause_us", stats.gc_pause_us, entry.gc_pause_us),
            ("gc_nodes_freed", stats.gc_nodes_freed, entry.gc_nodes_freed),
            (
                "rule_cache_lookups",
                rule_cache_lookups,
                entry.rule_cache_lookups,
            ),
            ("rule_cache_hits", rule_cache_hits, entry.rule_cache_hits),
            ("pairs_examined", prune.pairs_examined, entry.pairs_examined),
            ("pairs_pruned", prune.pairs_pruned, entry.pairs_pruned),
            ("early_exits", prune.early_exits, entry.early_exits),
        ] {
            span.counter(name, after as i64 - before as i64);
        }
    }
    stats
}

/// Work-stealing fan-out shared by the pair pool, the fleet daemon's pair
/// scheduler, and external batch drivers such as `campion-fuzz`: `workers`
/// scoped threads (always spawned, even for one worker) claim indices
/// `0..n` from a shared cursor, so a slow item never serializes the rest.
/// Outputs come back in index order, making the callers' merges
/// byte-identical to a sequential run regardless of the worker count.
/// `on_start` runs on each worker thread before any work (trace-track
/// assignment).
pub fn steal_indexed<T>(
    workers: usize,
    n: usize,
    on_start: impl Fn(usize) + Sync,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let f = &f;
                let on_start = &on_start;
                scope.spawn(move || {
                    on_start(w);
                    // Per-worker utilization: how many items this worker
                    // claimed and how long it spent inside them, vs. the
                    // worker's total lifetime (the `pool.worker` span).
                    let mut worker_span = campion_trace::span("pool.worker");
                    let timed = worker_span.is_active();
                    let mut claimed = 0i64;
                    let mut busy_ns = 0u64;
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if timed {
                            claimed += 1;
                            let t0 = std::time::Instant::now();
                            done.push((i, f(i)));
                            busy_ns += t0.elapsed().as_nanos() as u64;
                        } else {
                            done.push((i, f(i)));
                        }
                    }
                    if timed {
                        worker_span.counter("claimed", claimed);
                        worker_span.counter("busy_ns", busy_ns as i64);
                    }
                    drop(worker_span);
                    // Hand the buffered span events over before the scope
                    // observes this closure as finished — the thread-local
                    // backstop flush would race a drain that runs right
                    // after the join.
                    campion_trace::flush();
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("diff worker panicked") {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("work item never claimed"))
        .collect()
}

/// The top-level ConfigDiff algorithm: pair components, diff each pair, and
/// present the localized differences.
pub fn compare_routers(r1: &RouterIr, r2: &RouterIr, opts: &CampionOptions) -> CampionReport {
    campion_trace::span!("core.compare");
    let mut report = CampionReport {
        router1: r1.name.clone(),
        router2: r2.name.clone(),
        ..CampionReport::default()
    };
    let matched = {
        campion_trace::span!("core.match");
        match_policies(r1, r2)
    };
    report.unmatched = matched.unmatched.clone();

    // The pool's items, in report order: policy pairs, then ACL pairs.
    let mut items: Vec<WorkItem<'_>> = Vec::new();
    if opts.check_route_maps {
        items.extend(matched.policy_pairs.iter().map(WorkItem::Policy));
    }
    if opts.check_acls {
        items.extend(matched.acl_pairs.iter().map(|n| WorkItem::Acl(n)));
    }
    items.retain(|item| !proven_identical(r1, r2, item));

    let jobs = opts.effective_jobs().min(items.len()).max(1);
    let outputs = if jobs <= 1 {
        items.iter().map(|it| run_item(r1, r2, it, opts)).collect()
    } else {
        steal_indexed(
            jobs,
            items.len(),
            // Each worker gets its own trace track (lane in the Chrome
            // trace); track 0 is the coordinating thread.
            |w| campion_trace::set_track(w as u32 + 1),
            |i| run_item(r1, r2, &items[i], opts),
        )
    };

    // Merge in item order: identical to the sequential driver's appends.
    for (item, (diffs, stats)) in items.iter().zip(outputs) {
        match item {
            WorkItem::Policy(_) => report.route_map_diffs.extend(diffs),
            WorkItem::Acl(_) => report.acl_diffs.extend(diffs),
        }
        report.bdd_stats.merge(&stats);
    }

    // StructuralDiff (§3.3), on this thread in its traditional family
    // order: each family is an exact walk over both routers' IR.
    if opts.check_structural {
        for diff in [
            structural::diff_static_routes,
            structural::diff_connected_routes,
            structural::diff_bgp_properties,
            structural::diff_ospf,
        ] {
            campion_trace::span!("item.structural");
            report.structural.extend(diff(r1, r2));
        }
    }
    report
}

/// Parse, lower and compare two raw configuration texts. The fleet tests
/// and the benchmark use it as the reference report for a pair. The CLI
/// (`load_file`) and fleetd (`parse_one`) parse and lower on their own,
/// then call [`compare_routers`] and the same renderers, so all three
/// print the same bytes; `fleetd-smoke` in CI and the fleet tests check
/// that.
pub fn compare_config_texts(
    text1: &str,
    text2: &str,
    opts: &CampionOptions,
) -> Result<CampionReport, String> {
    let load = |text: &str| -> Result<RouterIr, String> {
        let cfg = campion_cfg::parse_config(text).map_err(|e| e.to_string())?;
        campion_ir::lower(&cfg).map_err(|e| e.to_string())
    };
    Ok(compare_routers(&load(text1)?, &load(text2)?, opts))
}

/// Text localization for one side of a difference: quote the fired clauses'
/// source lines, or describe the implicit default.
fn side_text(router: &RouterIr, spans: &[Span], is_default: bool, policy: &RoutePolicy) -> String {
    if is_default {
        return match policy.default_terminal {
            campion_ir::Terminal::Accept => {
                format!("(policy {}: default accept)", policy.name)
            }
            _ => format!("(policy {}: implicit deny)", policy.name),
        };
    }
    spans
        .iter()
        .map(|s| router.snippet(*s))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run SemanticDiff + HeaderLocalize + Present for one policy pair.
/// Returns the localized differences plus the pair's BDD-engine counters.
fn diff_policy_pair(
    r1: &RouterIr,
    r2: &RouterIr,
    pair: &PolicyPair,
    opts: &CampionOptions,
) -> (Vec<PolicyDiffReport>, ManagerStats) {
    let mut item_span = campion_trace::span("item.policy_pair");
    let (p1, p2) = (resolve(r1, &pair.name1), resolve(r2, &pair.name2));
    let mut space = RouteSpace::for_policies(&[&p1, &p2]);
    let stats_at_entry = space.manager.stats();
    // Pair-aware enumeration, as for ACLs: both sides' classes inside the
    // union of the unaligned clauses' conditions.
    let (paths1, paths2) = policy_diff_paths(&mut space, &p1, &p2);
    let mut prune = DiffPruneStats::default();
    let mut diffs = semantic_diff_jobs(&mut space.manager, &paths1, &paths2, &mut prune, 1);
    drop((paths1, paths2));

    // The range universe R: every range in either configuration (§3.2).
    // The ddNF over R is built once, after the arena is compacted to the
    // differences' inputs, and every difference is localized against it,
    // in order, in the pair's own space. An equivalent pair has nothing to
    // localize: it compacts nothing and builds no ddNF.
    let out = if diffs.is_empty() {
        Vec::new()
    } else {
        keep_inputs(&mut diffs, |roots| space.compact(roots));
        let mut ranges: Vec<PrefixRange> = p1.prefix_ranges();
        ranges.extend(p2.prefix_ranges());
        let mut dag = Localizer::new(RangeDag::build(&mut space, &ranges));
        diffs
            .iter()
            .map(|d| present_policy_diff(r1, r2, &mut space, &mut dag, &p1, &p2, pair, d, opts))
            .collect()
    };
    let stats = pair_stats(
        &mut item_span,
        &stats_at_entry,
        space.manager.stats(),
        space.rule_cache_stats(),
        &prune,
    );
    (out, stats)
}

/// A pair's ddNF and the localization of every distinct target asked of it
/// so far. Its keys are handles in the pair's compacted arena, which is not
/// compacted again while the pair localizes, so a repeated target is a
/// repeated key.
struct Localizer {
    dag: RangeDag,
    found: HashMap<Bdd, HeaderLocalization>,
}

impl Localizer {
    fn new(dag: RangeDag) -> Self {
        Localizer {
            dag,
            found: HashMap::new(),
        }
    }

    /// The localization of the projected target `s`, queried on its first
    /// request only.
    fn localize<E: RangeEncoder>(&mut self, space: &mut E, s: Bdd) -> &HeaderLocalization {
        let dag = &self.dag;
        self.found
            .entry(s)
            .or_insert_with(|| headerloc::header_localize_with(space, s, dag))
    }
}

/// Compact a pair's arena to the differences' inputs with `compact`, and
/// rewrite each input to its handle in the compacted arena.
fn keep_inputs(diffs: &mut [SemanticDifference], compact: impl FnOnce(&mut [Bdd])) {
    let mut inputs: Vec<Bdd> = diffs.iter().map(|d| d.input).collect();
    compact(&mut inputs);
    for (d, input) in diffs.iter_mut().zip(inputs) {
        d.input = input;
    }
}

/// Present one route-map difference: localize its input over the pair's
/// ddNF and render the report row.
#[allow(clippy::too_many_arguments)]
fn present_policy_diff(
    r1: &RouterIr,
    r2: &RouterIr,
    space: &mut RouteSpace,
    dag: &mut Localizer,
    p1: &RoutePolicy,
    p2: &RoutePolicy,
    pair: &PolicyPair,
    d: &SemanticDifference,
    opts: &CampionOptions,
) -> PolicyDiffReport {
    campion_trace::span!("present.localize");
    let projected = space.project_to_prefix(d.input);
    let loc = dag.localize(space, projected);
    let example = if opts.exhaustive_communities {
        let cl = crate::commloc::community_localize(space, d.input);
        if cl.is_unconstrained() {
            None
        } else {
            Some(format!("Communities: {cl}"))
        }
    } else {
        non_prefix_example(space, d)
    };
    PolicyDiffReport {
        context: pair.context.clone(),
        name1: p1.name.clone(),
        name2: p2.name.clone(),
        included: loc.included(),
        excluded: loc.excluded(),
        example,
        action1: d.effect1.to_string(),
        action2: d.effect2.to_string(),
        text1: side_text(r1, &d.spans1, d.default1, p1),
        text2: side_text(r2, &d.spans2, d.default2, p2),
        spans1: d.spans1.clone(),
        spans2: d.spans2.clone(),
        default1: d.default1,
        default2: d.default2,
    }
}

/// At most this many disagreeing communities are listed in a report's
/// Example cell; past the cap the list is truncated with a `(+N more)`
/// marker so a pathological difference cannot flood the table.
const COMMUNITY_LIST_CAP: usize = 8;

/// Campion reports exhaustive prefix information for the prefix dimension;
/// for other route fields the paper shows a single example (§3.2). The
/// community line goes further (the commloc extension): it lists the
/// *complete* set of communities the difference disagrees on — every atom
/// the difference predicate depends on — bounded at
/// [`COMMUNITY_LIST_CAP`]. Tag/metric/protocol still come from one
/// satisfying example.
fn non_prefix_example(space: &mut RouteSpace, d: &SemanticDifference) -> Option<String> {
    // Only when a fired clause actually matched on a non-prefix field — a
    // difference localized purely by prefixes (Table 2a) shows no example.
    if !d.non_prefix_match {
        return None;
    }
    let support = space.manager.support(d.input);
    let constrains_other = support
        .iter()
        .any(|v| *v >= campion_symbolic::PROTO_VARS.start);
    if !constrains_other {
        return None;
    }
    // Prefer-true extraction so the example carries the first listed atom
    // (the paper's Table 2(b) shows `10:10`).
    let a = space
        .manager
        .first_sat_preferring_true(d.input)?
        .complete_with(false);
    let ex = space.concretize(&a);
    let mut parts = Vec::new();
    let disagreeing = crate::commloc::disagreeing_communities(space, d.input);
    if !disagreeing.is_empty() {
        let mut cs: Vec<String> = disagreeing
            .iter()
            .take(COMMUNITY_LIST_CAP)
            .map(|c| c.to_string())
            .collect();
        if disagreeing.len() > COMMUNITY_LIST_CAP {
            cs.push(format!(
                "(+{} more)",
                disagreeing.len() - COMMUNITY_LIST_CAP
            ));
        }
        parts.push(format!("Community: {}", cs.join(", ")));
    }
    if let Some(t) = ex.tag {
        parts.push(format!("Tag: {t}"));
    }
    if let Some(m) = ex.metric {
        parts.push(format!("Metric: {m}"));
    }
    if parts.is_empty() {
        // Constrained only on protocol: name it.
        parts.push(format!("Protocol: {}", ex.protocol));
    }
    Some(parts.join("\n"))
}

/// Present one ACL difference: destination/source address localization,
/// port localization, and an example packet.
#[allow(clippy::too_many_arguments)]
fn present_acl_diff(
    r1: &RouterIr,
    r2: &RouterIr,
    space: &mut PacketSpace,
    dst_dag: &mut Localizer,
    src_dag: &mut Localizer,
    a1: &AclIr,
    a2: &AclIr,
    d: &SemanticDifference,
) -> PolicyDiffReport {
    campion_trace::span!("present.localize");
    let dst_proj = space.project_to_dst(d.input);
    let dst_loc = dst_dag.localize(&mut DstAddrSpace(space), dst_proj);
    let src_proj = space.project_to_src(d.input);
    let src_loc = src_dag.localize(&mut SrcAddrSpace(space), src_proj);
    // Render address sets as prefixes (drop the length dimension, which
    // is meaningless for packets).
    let as_addr = |rs: Vec<PrefixRange>| -> Vec<PrefixRange> {
        rs.into_iter()
            .map(|r| PrefixRange::new(r.prefix, 32, 32))
            .collect()
    };
    let example = {
        let a = space.manager.first_sat_assignment(d.input);
        a.map(|a| space.concretize(&a).to_string())
    };
    let fmt_addr = |loc: &[PrefixRange]| {
        loc.iter()
            .map(|r| r.prefix.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let included = as_addr(dst_loc.included());
    let excluded = as_addr(dst_loc.excluded());
    let src_inc = fmt_addr(&src_loc.included());
    let src_exc = fmt_addr(&src_loc.excluded());
    let mut example_text = format!("srcIP: {src_inc}");
    if !src_exc.is_empty() {
        example_text.push_str(&format!(" excluding {src_exc}"));
    }
    // Port localization (extension; see portloc): exhaustive intervals
    // when the difference constrains destination ports.
    if let Some(ports) = crate::portloc::dst_port_localize(space, d.input) {
        let ps: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
        example_text.push_str(&format!("\ndstPort: {}", ps.join(", ")));
    }
    if let Some(e) = example {
        example_text.push_str(&format!("\nexample packet: {e}"));
    }
    let text_for = |router: &RouterIr, spans: &[Span], is_default: bool| {
        if is_default {
            "(implicit deny at end of ACL)".to_string()
        } else {
            spans
                .iter()
                .map(|s| router.snippet(*s))
                .collect::<Vec<_>>()
                .join("\n")
        }
    };
    PolicyDiffReport {
        context: format!("ACL {}", a1.name),
        name1: a1.name.clone(),
        name2: a2.name.clone(),
        included,
        excluded,
        example: Some(example_text),
        action1: d.effect1.to_string(),
        action2: d.effect2.to_string(),
        text1: text_for(r1, &d.spans1, d.default1),
        text2: text_for(r2, &d.spans2, d.default2),
        spans1: d.spans1.clone(),
        spans2: d.spans2.clone(),
        default1: d.default1,
        default2: d.default2,
    }
}

/// Run SemanticDiff + address localization + Present for one ACL pair.
/// Returns the localized differences plus the pair's BDD-engine counters.
fn diff_acl_pair(
    r1: &RouterIr,
    r2: &RouterIr,
    a1: &AclIr,
    a2: &AclIr,
) -> (Vec<PolicyDiffReport>, ManagerStats) {
    let mut item_span = campion_trace::span("item.acl_pair");
    let mut space = PacketSpace::new();
    let stats_at_entry = space.manager.stats();
    // Pair-aware enumeration: both sides' classes restricted to the
    // disagreement set, so the chain never materializes predicates the
    // diff would prune anyway (the 10k-rule hot path).
    let (paths1, paths2) = acl_diff_paths(&mut space, a1, a2, 1);
    let mut prune = DiffPruneStats::default();
    let mut diffs = semantic_diff_jobs(&mut space.manager, &paths1, &paths2, &mut prune, 1);
    drop((paths1, paths2));

    // As for route maps: an equivalent pair compacts nothing and builds no
    // ddNF; otherwise the arena keeps only the differences' inputs, and
    // every difference is presented in the pair's own space.
    let out = if diffs.is_empty() {
        Vec::new()
    } else {
        keep_inputs(&mut diffs, |roots| space.compact(roots));
        let (dst_ranges, src_ranges) = acl_address_ranges(a1, a2);
        let mut dst_dag =
            Localizer::new(RangeDag::build(&mut DstAddrSpace(&mut space), &dst_ranges));
        let mut src_dag =
            Localizer::new(RangeDag::build(&mut SrcAddrSpace(&mut space), &src_ranges));
        diffs
            .iter()
            .map(|d| present_acl_diff(r1, r2, &mut space, &mut dst_dag, &mut src_dag, a1, a2, d))
            .collect()
    };
    let stats = pair_stats(
        &mut item_span,
        &stats_at_entry,
        space.manager.stats(),
        space.rule_cache_stats(),
        &prune,
    );
    (out, stats)
}

/// Address universes from both ACLs' matchers, `(destination, source)`.
/// Non-contiguous wildcard masks decompose into their covering prefixes
/// (capped — past the cap a matcher contributes only its single enclosing
/// prefix and localization may go inexact), so differences confined to a
/// non-contiguous region still land on ddNF cells instead of vanishing
/// from the included set.
pub(crate) fn acl_address_ranges(a1: &AclIr, a2: &AclIr) -> (Vec<PrefixRange>, Vec<PrefixRange>) {
    const WILDCARD_COVER_CAP: usize = 256;
    let mut src_ranges = Vec::new();
    let mut dst_ranges = Vec::new();
    for acl in [a1, a2] {
        for rule in &acl.rules {
            for w in &rule.src {
                src_ranges.extend(
                    w.cover_prefixes(WILDCARD_COVER_CAP)
                        .into_iter()
                        .map(PrefixRange::or_longer),
                );
            }
            for w in &rule.dst {
                dst_ranges.extend(
                    w.cover_prefixes(WILDCARD_COVER_CAP)
                        .into_iter()
                        .map(PrefixRange::or_longer),
                );
            }
        }
    }
    (dst_ranges, src_ranges)
}
