//! The §5.4 scalability experiment: SemanticDiff runtime on Capirca-like
//! generated ACL pairs with 10 injected differences, across sizes —
//! plus parsing time, which the paper reports as comparable.
//!
//! Paper (2.2 GHz CPU): <1 s at 1 000 rules, ~15 s at 10 000 rules,
//! parsing ~13 s at 10 000. Absolute numbers differ across hosts; the
//! shape to match is superlinear growth with the 1 000→10 000 ratio ≫ 10×
//! and parse time in the same order as the diff.
//!
//! Each size also records the front end per layer: Cisco and JunOS parse
//! throughput (MB/s, 10⁶ bytes) and the time to lower both configs.
//!
//! A second section measures the parallel driver: one router pair holding
//! many independent ACLs, compared at `jobs=1` and `jobs=4`. Pass `--json`
//! to additionally write machine-readable results (timings plus BDD
//! cache-hit counters) to `BENCH_campion.json`.

use std::fmt::Write as _;
use std::time::Instant;

use campion_bench::{load, print_rows};
use campion_cfg::parse_config;
use campion_core::{compare_routers, CampionOptions, CampionReport};
use campion_fleet::{gen as fleet_gen, Daemon};
use campion_gen::capirca_acl_pair;
use campion_ir::lower;

/// Per-size measurement for the JSON report.
struct SizeResult {
    rules: usize,
    /// Parse plus lower of both configs.
    parse_s: f64,
    parse_cisco_mb_s: f64,
    parse_juniper_mb_s: f64,
    /// Lowering both parsed configs.
    lower_s: f64,
    semdiff_s: f64,
    diffs_found: usize,
    nodes: u64,
    peak_nodes: u64,
    post_gc_nodes: u64,
    gc_runs: u64,
    gc_pauses: u64,
    gc_pause_us: u64,
    apply_hit_rate: f64,
    unique_hit_rate: f64,
    pairs_examined: u64,
    pairs_pruned: u64,
    rule_cache_hit_rate: f64,
    /// Per-phase timing breakdown (`Trace::phases_json`), captured for the
    /// CI-gated sizes only.
    phases: Option<String>,
    /// Localization share of the whole comparison: (`headerloc.ddnf` +
    /// `present.localize`) ÷ `core.compare` wall seconds — the nested
    /// `headerloc.localize` spans ride inside `present.localize`. CI gates
    /// the 10 000-rule value at ≤ 0.9.
    headerloc_share: Option<f64>,
}

/// The sizes whose per-phase breakdown lands in `BENCH_campion.json` —
/// the two workloads the CI regression gate watches.
const PHASE_SIZES: [usize; 2] = [1000, 10000];

fn opts_with_jobs(jobs: usize) -> CampionOptions {
    CampionOptions {
        jobs,
        ..CampionOptions::default()
    }
}

/// Concatenate `pairs` renamed copies of a generated ACL pair into one
/// Cisco and one Juniper configuration, so a single `compare_routers`
/// call carries `pairs` independent semantic work items.
fn multi_acl_pair(pairs: usize, rules: usize, seed: u64) -> (String, String) {
    let mut cisco = String::new();
    let mut juniper = String::new();
    for i in 0..pairs {
        let (c, j) = capirca_acl_pair(rules, 10.min(rules / 2), seed + i as u64);
        cisco.push_str(&c.replace("ACL-GEN", &format!("ACL-GEN-{i}")));
        juniper.push_str(&j.replace("ACL-GEN", &format!("ACL-GEN-{i}")));
    }
    (cisco, juniper)
}

fn timed_compare(cisco: &str, juniper: &str, opts: &CampionOptions) -> (f64, CampionReport) {
    let rc = load(cisco);
    let rj = load(juniper);
    let t = Instant::now();
    let report = compare_routers(&rc, &rj, opts);
    (t.elapsed().as_secs_f64(), report)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    println!("Reproducing §5.4 — SemanticDiff scalability on generated ACLs\n");
    let sizes = [100usize, 500, 1000, 5000, 10000];
    let mut rows = Vec::new();
    let mut times = Vec::new();
    let mut size_results = Vec::new();
    for &n in &sizes {
        let diffs = 10.min(n / 2);
        let (cisco, juniper) = capirca_acl_pair(n, diffs, 0xC0FFEE + n as u64);

        // Trace the CI-gated sizes so the JSON report carries a per-phase
        // breakdown. The collector's hot path is a relaxed atomic load plus
        // a handful of events per work item, so it does not move the timing
        // columns measurably.
        let traced = PHASE_SIZES.contains(&n);
        if traced {
            campion_trace::enable();
        }

        let t0 = Instant::now();
        let cc = parse_config(&cisco).expect("generated Cisco parses");
        let parse_cisco_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let jc = parse_config(&juniper).expect("generated JunOS parses");
        let parse_juniper_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rc = lower(&cc).expect("lowerable");
        let rj = lower(&jc).expect("lowerable");
        let lower_s = t.elapsed().as_secs_f64();
        let parse_time = t0.elapsed();
        let mb_s = |bytes: usize, secs: f64| bytes as f64 / 1e6 / secs.max(1e-9);
        let parse_cisco_mb_s = mb_s(cisco.len(), parse_cisco_s);
        let parse_juniper_mb_s = mb_s(juniper.len(), parse_juniper_s);

        // Single pair ⇒ a single semantic work item: this section times the
        // BDD engine itself, so run it on one worker.
        let t1 = Instant::now();
        let report = compare_routers(&rc, &rj, &opts_with_jobs(1));
        let diff_time = t1.elapsed();

        let (phases, headerloc_share) = if traced {
            campion_trace::disable();
            let trace = campion_trace::drain();
            println!("--- per-phase breakdown at {n} rules ---");
            print!("{}", trace.render_table());
            println!();
            let stats = trace.phase_stats();
            let phase = |name: &str| stats.iter().find(|s| s.name == name);
            let total_s = |name: &str| phase(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);
            // `present.localize` wraps the nested `headerloc.localize`
            // spans, so the localization wall is ddNF builds plus the
            // per-difference presentation spans — adding the nested spans
            // on top would double-count them.
            let loc_s = total_s("headerloc.ddnf") + total_s("present.localize");
            let compare_s = total_s("core.compare");
            let share = if compare_s > 0.0 {
                loc_s / compare_s
            } else {
                0.0
            };
            println!("localization share of core.compare: {share:.3}\n");
            (Some(trace.phases_json()), Some(share))
        } else {
            (None, None)
        };

        times.push(diff_time.as_secs_f64());
        let s = &report.bdd_stats;
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", parse_time.as_secs_f64()),
            format!("{parse_cisco_mb_s:.1}"),
            format!("{parse_juniper_mb_s:.1}"),
            format!("{lower_s:.4}"),
            format!("{:.3}", diff_time.as_secs_f64()),
            report.acl_diffs.len().to_string(),
            s.peak_nodes.to_string(),
            s.post_gc_nodes.to_string(),
            format!("{:.1}%", s.apply_hit_rate() * 100.0),
            format!("{}/{}", s.pairs_pruned, s.pairs_pruned + s.pairs_examined),
        ]);
        size_results.push(SizeResult {
            rules: n,
            parse_s: parse_time.as_secs_f64(),
            parse_cisco_mb_s,
            parse_juniper_mb_s,
            lower_s,
            semdiff_s: diff_time.as_secs_f64(),
            diffs_found: report.acl_diffs.len(),
            nodes: s.nodes,
            peak_nodes: s.peak_nodes,
            post_gc_nodes: s.post_gc_nodes,
            gc_runs: s.gc_runs,
            gc_pauses: s.gc_pauses,
            gc_pause_us: s.gc_pause_us,
            apply_hit_rate: s.apply_hit_rate(),
            unique_hit_rate: s.unique_hit_rate(),
            pairs_examined: s.pairs_examined,
            pairs_pruned: s.pairs_pruned,
            rule_cache_hit_rate: s.rule_cache_hit_rate(),
            phases,
            headerloc_share,
        });
    }
    print_rows(
        "SemanticDiff runtime vs ACL size (10 injected differences)",
        &[
            "rules",
            "parse+lower (s)",
            "Cisco parse MB/s",
            "JunOS parse MB/s",
            "lower (s)",
            "SemanticDiff (s)",
            "differences found",
            "peak nodes",
            "post-GC nodes",
            "apply-cache hits",
            "pairs pruned/total",
        ],
        &rows,
    );
    let ratio = times[times.len() - 1] / times[2].max(1e-9);
    println!("\n1 000 → 10 000 rules runtime ratio: {ratio:.1}x (paper: <1 s → ~15 s)");

    // Parallel driver: one comparison spanning many independent ACL pairs.
    // The speedup scales with real cores — on a single-core host the two
    // runs time-slice the same CPU and the ratio stays ≈1.
    const PAIRS: usize = 12;
    const PAIR_RULES: usize = 1000;
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "\nParallel driver — {PAIRS} ACL pairs of {PAIR_RULES} rules each \
         ({hw} hardware thread(s) available)"
    );
    let (cisco, juniper) = multi_acl_pair(PAIRS, PAIR_RULES, 0xBEEF);
    let (t_seq, rep_seq) = timed_compare(&cisco, &juniper, &opts_with_jobs(1));
    // On a single-core host a multi-job run just time-slices the same CPU
    // (and the driver now clamps to one worker anyway), so a "speedup"
    // number is pure noise — skip the parallel runs and say so.
    let par = if hw < 2 {
        println!("  jobs=1: {t_seq:.3} s   (parallel runs skipped: single hardware thread)");
        None
    } else {
        let (t_2, rep_2) = timed_compare(&cisco, &juniper, &opts_with_jobs(2));
        let (t_4, rep_4) = timed_compare(&cisco, &juniper, &opts_with_jobs(4));
        for rep in [&rep_2, &rep_4] {
            assert_eq!(
                rep_seq.to_string(),
                rep.to_string(),
                "parallel report must be byte-identical"
            );
        }
        let speedup2 = t_seq / t_2.max(1e-9);
        let speedup4 = t_seq / t_4.max(1e-9);
        println!(
            "  jobs=1: {t_seq:.3} s   jobs=2: {t_2:.3} s ({speedup2:.2}x)   \
             jobs=4: {t_4:.3} s ({speedup4:.2}x)"
        );
        Some((t_2, speedup2, t_4, speedup4))
    };
    println!(
        "  {} differences; {} BDD nodes across pair managers",
        rep_seq.acl_diffs.len(),
        rep_seq.bdd_stats.nodes
    );

    // Tracing overhead: the observability bar is that the collector costs
    // nothing when idle and close to nothing when armed. One 10k-rule pair,
    // min-of-3 each way in the same process (min, not mean — the floor is
    // the honest cost once the allocator and caches are warm). CI gates the
    // enabled/disabled ratio at ≤ 1.02.
    const OVERHEAD_RULES: usize = 10000;
    let (cisco1, juniper1) = capirca_acl_pair(OVERHEAD_RULES, 10, 0xC0FFEE + OVERHEAD_RULES as u64);
    let (rc1, rj1) = (load(&cisco1), load(&juniper1));
    let min_of_3 = |traced: bool| -> f64 {
        (0..3)
            .map(|_| {
                if traced {
                    campion_trace::enable();
                }
                let t = Instant::now();
                let rep = compare_routers(&rc1, &rj1, &opts_with_jobs(1));
                let dt = t.elapsed().as_secs_f64();
                if traced {
                    campion_trace::disable();
                    let _ = campion_trace::drain();
                }
                assert!(!rep.acl_diffs.is_empty());
                dt
            })
            .fold(f64::INFINITY, f64::min)
    };
    let _ = min_of_3(false); // warm-up, discarded
    let overhead_off = min_of_3(false);
    let overhead_on = min_of_3(true);
    let overhead_ratio = overhead_on / overhead_off.max(1e-9);
    println!(
        "\nTracing overhead — {OVERHEAD_RULES}-rule pair, min of 3:\n  \
         collector off: {overhead_off:.3} s   on: {overhead_on:.3} s   \
         ratio: {overhead_ratio:.3}x"
    );

    // Fleet daemon incrementality: a cold whole-fleet ingest vs a warm
    // re-ingest with one router perturbed. The warm path recomputes one
    // pair and answers the rest from the store, so its wall time tracks a
    // single compare plus hashing — the §2h service-mode speedup.
    const FLEET_PAIRS: usize = 12;
    const FLEET_RULES: usize = 400;
    println!("\nFleet incremental ingest — {FLEET_PAIRS} pairs of {FLEET_RULES}-rule ACLs");
    let store_dir =
        std::env::temp_dir().join(format!("campion-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut daemon = Daemon::open(&store_dir, opts_with_jobs(0)).expect("open fleet store");
    let cold_input = fleet_gen::fleet_input("cold", FLEET_PAIRS, FLEET_RULES, 10, 0xF1EE7, None);
    let t_cold = Instant::now();
    let cold = daemon.ingest(&cold_input).expect("cold ingest");
    let cold_s = t_cold.elapsed().as_secs_f64();
    let warm_input = fleet_gen::fleet_input("warm", FLEET_PAIRS, FLEET_RULES, 10, 0xF1EE7, Some(0));
    let t_warm = Instant::now();
    let warm = daemon.ingest(&warm_input).expect("warm ingest");
    let warm_s = t_warm.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&store_dir);
    assert_eq!(
        (cold.pairs_computed, warm.pairs_computed, warm.pairs_cached),
        (FLEET_PAIRS, 1, FLEET_PAIRS - 1),
        "incrementality broke: warm ingest must recompute exactly the touched pair"
    );
    let fleet_speedup = cold_s / warm_s.max(1e-9);
    println!(
        "  cold: {cold_s:.3} s ({} pairs computed)   warm: {warm_s:.3} s \
         ({} computed, {} cached)   speedup: {fleet_speedup:.1}x",
        cold.pairs_computed, warm.pairs_computed, warm.pairs_cached
    );

    if json {
        let mut out = String::from("{\n  \"sizes\": [\n");
        for (i, r) in size_results.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rules\": {}, \"parse_s\": {:.6}, \"parse_cisco_mb_s\": {:.3}, \
                 \"parse_juniper_mb_s\": {:.3}, \"lower_s\": {:.6}, \"semdiff_s\": {:.6}, \
                 \"diffs_found\": {}, \"bdd_nodes\": {}, \"peak_nodes\": {}, \
                 \"post_gc_nodes\": {}, \"gc_runs\": {}, \"gc_pauses\": {}, \
                 \"gc_pause_us\": {}, \"apply_hit_rate\": {:.4}, \
                 \"unique_hit_rate\": {:.4}, \"pairs_examined\": {}, \
                 \"pairs_pruned\": {}, \"rule_cache_hit_rate\": {:.4}}}",
                r.rules,
                r.parse_s,
                r.parse_cisco_mb_s,
                r.parse_juniper_mb_s,
                r.lower_s,
                r.semdiff_s,
                r.diffs_found,
                r.nodes,
                r.peak_nodes,
                r.post_gc_nodes,
                r.gc_runs,
                r.gc_pauses,
                r.gc_pause_us,
                r.apply_hit_rate,
                r.unique_hit_rate,
                r.pairs_examined,
                r.pairs_pruned,
                r.rule_cache_hit_rate
            );
            out.push_str(if i + 1 < size_results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let par_timing = match par {
            Some((t_2, speedup2, t_4, speedup4)) => format!(
                "\"jobs2_s\": {t_2:.6}, \"jobs2_speedup\": {speedup2:.3}, \
                 \"jobs4_s\": {t_4:.6}, \"speedup\": {speedup4:.3}, \
                 \"parallel_speedup\": {speedup4:.3}"
            ),
            None => "\"skipped_single_core\": true".to_string(),
        };
        // Per-phase breakdowns for the gated sizes, keyed by rule count.
        out.push_str("  ],\n  \"phases\": {\n");
        let phase_entries: Vec<String> = size_results
            .iter()
            .filter_map(|r| {
                r.phases
                    .as_ref()
                    .map(|p| format!("    \"{}\": {p}", r.rules))
            })
            .collect();
        out.push_str(&phase_entries.join(",\n"));
        out.push_str("\n  },\n");
        // Localization metrics for the gated sizes, as their own top-level
        // maps (the CI per-phase walker expects every `phases` value to be
        // a dict of span stats, so these must not live inside it).
        let share_entries: Vec<String> = size_results
            .iter()
            .filter_map(|r| {
                r.headerloc_share
                    .map(|s| format!("    \"{}\": {s:.4}", r.rules))
            })
            .collect();
        out.push_str("  \"headerloc_share\": {\n");
        out.push_str(&share_entries.join(",\n"));
        out.push_str("\n  },\n");
        let _ = write!(
            out,
            "  \"fleet_incremental\": {{\n    \
             \"pairs\": {FLEET_PAIRS}, \"rules_per_pair\": {FLEET_RULES}, \
             \"cold_s\": {cold_s:.6}, \"warm_s\": {warm_s:.6}, \
             \"warm_pairs_computed\": {}, \"warm_pairs_cached\": {}, \
             \"warm_parses_skipped\": {}, \"speedup\": {fleet_speedup:.3}\n  }},\n",
            warm.pairs_computed, warm.pairs_cached, warm.router_parses_skipped
        );
        let _ = write!(
            out,
            "  \"trace_overhead\": {{\n    \
             \"rules\": {OVERHEAD_RULES}, \"untraced_s\": {overhead_off:.6}, \
             \"traced_s\": {overhead_on:.6}, \"ratio\": {overhead_ratio:.4}\n  }},\n"
        );
        let _ = write!(
            out,
            "  \"ratio_1k_to_10k\": {ratio:.2},\n  \"parallel\": {{\n    \
             \"acl_pairs\": {PAIRS}, \"rules_per_pair\": {PAIR_RULES}, \
             \"jobs1_s\": {t_seq:.6}, {par_timing}, \
             \"hardware_threads\": {hw},\n    \
             \"apply_hit_rate\": {:.4}, \"unique_hit_rate\": {:.4}\n  }}\n}}\n",
            rep_seq.bdd_stats.apply_hit_rate(),
            rep_seq.bdd_stats.unique_hit_rate()
        );
        std::fs::write("BENCH_campion.json", &out).expect("write BENCH_campion.json");
        println!("\nWrote BENCH_campion.json");
    }
}
