//! The parallel driver must be invisible in the output: for any worker
//! count, the rendered `CampionReport` is byte-identical to a sequential
//! run. Exercised on the Table 6 scenario generators, which produce
//! many-component router pairs (route maps, ACLs, structural families) —
//! enough distinct work items that the jobs=8 run genuinely interleaves.

use campion::cfg::parse_config;
use campion::core::semantic::{acl_diff_paths, release_paths, semantic_diff_jobs, DiffPruneStats};
use campion::core::{compare_routers, CampionOptions, GcMode};
use campion::gen::{scenario1, scenario2, scenario3};
use campion::ir::{lower, RouterIr};
use campion::symbolic::PacketSpace;

fn load(text: &str) -> RouterIr {
    lower(&parse_config(text).expect("generated config parses")).expect("generated config lowers")
}

fn opts_with_jobs(jobs: usize) -> CampionOptions {
    CampionOptions {
        jobs,
        ..CampionOptions::default()
    }
}

/// Render every scenario pair under the given worker count and GC mode,
/// concatenated.
fn render_all_gc(pairs: &[campion::gen::ScenarioPair], jobs: usize, gc: GcMode) -> String {
    let opts = CampionOptions {
        jobs,
        gc,
        ..CampionOptions::default()
    };
    let mut out = String::new();
    for p in pairs {
        let report = compare_routers(&load(&p.cisco), &load(&p.juniper), &opts);
        out.push_str(&format!("### {}\n{report}\n", p.name));
    }
    out
}

/// Render every scenario pair under the given worker count, concatenated.
fn render_all(pairs: &[campion::gen::ScenarioPair], jobs: usize) -> String {
    render_all_gc(pairs, jobs, GcMode::default())
}

#[test]
fn scenario1_reports_identical_across_worker_counts() {
    let pairs = scenario1(8, 11);
    let sequential = render_all(&pairs, 1);
    let parallel = render_all(&pairs, 8);
    assert_eq!(sequential, parallel);
    assert!(!sequential.is_empty());
}

#[test]
fn scenario2_reports_identical_across_worker_counts() {
    let pairs = scenario2(6, 22);
    assert_eq!(render_all(&pairs, 1), render_all(&pairs, 8));
}

#[test]
fn scenario3_reports_identical_across_worker_counts() {
    let pairs = scenario3(4, 60, 33);
    assert_eq!(render_all(&pairs, 1), render_all(&pairs, 8));
}

#[test]
fn auto_jobs_matches_sequential() {
    // jobs = 0 (auto: one worker per hardware thread) must also render
    // identically — this is the default every CLI run takes.
    let pairs = scenario3(3, 40, 44);
    assert_eq!(render_all(&pairs, 1), render_all(&pairs, 0));
}

#[test]
fn reports_identical_across_gc_modes_and_worker_counts() {
    // Garbage collection must be semantically invisible: for every GC mode
    // (including collecting at *every* safe point) and any worker count,
    // the rendered report is byte-identical. This is the golden-report
    // regression for the reachable-mark collector — a GC bug that frees a
    // live node or breaks canonicity shows up here as a diverging report.
    let pairs = scenario2(4, 17);
    let baseline = render_all_gc(&pairs, 1, GcMode::Off);
    for gc in [GcMode::Off, GcMode::Auto, GcMode::Aggressive] {
        for jobs in [1, 8] {
            assert_eq!(
                baseline,
                render_all_gc(&pairs, jobs, gc),
                "report diverged under gc={gc:?} jobs={jobs}"
            );
        }
    }
    assert!(!baseline.is_empty());
}

#[test]
fn single_pair_intra_parallelism_is_deterministic() {
    // One semantic work item only (the other component kind and the
    // structural checks off), so the pool has more workers than items and
    // nothing to spread: the pair runs whole on one worker, presenting its
    // differences in order in its own space. Several differences share
    // that space and its ddNF, so each localization runs against the
    // node sets and memo entries the ones before it left behind — which
    // must not change any report, at any worker count or GC mode. Covered
    // for an ACL pair and a route-map pair.
    let (c, j) = campion::gen::capirca_acl_pair(300, 10, 7);
    let acl = (load(&c), load(&j));
    let rmap = (
        load(include_str!("../testdata/figure1_cisco.cfg")),
        load(include_str!("../testdata/figure1_juniper.cfg")),
    );
    for (kind, (r1, r2), acls) in [("ACL", &acl, true), ("route-map", &rmap, false)] {
        let run = |jobs: usize, gc: GcMode| {
            let opts = CampionOptions {
                jobs,
                gc,
                check_acls: acls,
                check_route_maps: !acls,
                check_static_routes: false,
                check_connected_routes: false,
                check_bgp_properties: false,
                check_ospf: false,
                ..CampionOptions::default()
            };
            compare_routers(r1, r2, &opts).to_string()
        };
        let baseline = run(1, GcMode::Off);
        assert!(
            baseline.matches("Difference ").count() >= 2,
            "{kind} pair must carry several differences to share its ddNF:\n{baseline}"
        );
        for jobs in [1, 4] {
            for gc in [GcMode::Off, GcMode::Auto, GcMode::Aggressive] {
                assert_eq!(
                    baseline,
                    run(jobs, gc),
                    "single {kind} pair diverged under jobs={jobs} gc={gc:?}"
                );
            }
        }
    }
}

#[test]
fn pair_stats_count_presentation() {
    // A pair's counters cover the whole pair: SemanticDiff, then the ddNF
    // node sets and GetMatch work of presenting every difference in the
    // same arena. Replay the pair's SemanticDiff alone on a fresh space,
    // exactly as the driver runs it (same GC policy and safe point), and
    // the report must show more nodes and more apply traffic than that.
    let (c, j) = campion::gen::capirca_acl_pair(300, 10, 7);
    let (r1, r2) = (load(&c), load(&j));
    let opts = CampionOptions {
        gc: GcMode::Off,
        check_route_maps: false,
        check_static_routes: false,
        check_connected_routes: false,
        check_bgp_properties: false,
        check_ospf: false,
        ..CampionOptions::default()
    };
    let report = compare_routers(&r1, &r2, &opts);
    assert!(!report.acl_diffs.is_empty(), "the pair must differ");

    let (name, a1) = r1.acls.iter().next().expect("one ACL");
    let a2 = &r2.acls[name];
    let mut space = PacketSpace::new();
    space.manager.set_gc_policy(opts.effective_gc().policy());
    let (paths1, paths2) = acl_diff_paths(&mut space, a1, a2, 1);
    let mut prune = DiffPruneStats::default();
    let diffs = semantic_diff_jobs(&mut space.manager, &paths1, &paths2, &mut prune, 1);
    release_paths(&mut space.manager, &paths1);
    release_paths(&mut space.manager, &paths2);
    space.manager.gc_checkpoint();
    assert_eq!(diffs.len(), report.acl_diffs.len());

    let (pair, diff_only) = (&report.bdd_stats, space.manager.stats());
    assert!(
        pair.nodes > diff_only.nodes,
        "nodes: pair {} vs SemanticDiff alone {}",
        pair.nodes,
        diff_only.nodes
    );
    assert!(
        pair.apply_lookups > diff_only.apply_lookups,
        "apply lookups: pair {} vs SemanticDiff alone {}",
        pair.apply_lookups,
        diff_only.apply_lookups
    );
}

#[test]
fn bdd_stats_aggregate_deterministically() {
    // Per-pair managers are private, so the merged counters are a pure
    // function of the workload — equal for any worker count.
    let pairs = scenario3(3, 50, 55);
    let (c, j) = (&pairs[0].cisco, &pairs[0].juniper);
    let seq = compare_routers(&load(c), &load(j), &opts_with_jobs(1));
    let par = compare_routers(&load(c), &load(j), &opts_with_jobs(8));
    // gc_pause_us and gc_pause_max_us are wall-clock times, not counters
    // — the only fields that legitimately vary between two runs of the
    // same workload (visible under CAMPION_GC_AGGRESSIVE, where the pauses
    // are numerous enough to time differently). Mask them; everything else
    // must match exactly.
    let (mut seq_stats, mut par_stats) = (seq.bdd_stats, par.bdd_stats);
    for s in [&mut seq_stats, &mut par_stats] {
        s.gc_pause_us = 0;
        s.gc_pause_max_us = 0;
    }
    assert_eq!(seq_stats, par_stats);
    assert!(
        seq.bdd_stats.apply_lookups > 0,
        "semantic diff exercises the apply cache"
    );
}
