//! Observability must be free and invisible: enabling the trace collector
//! cannot change any rendered report, per-phase totals must account for
//! (almost all of) the end-to-end wall time, and the Chrome export must be
//! structurally valid with one track per driver worker.
//!
//! The collector is a process-global singleton, so every test here takes
//! `COLLECTOR` first — tests in this binary serialize, while other test
//! binaries run in their own processes and cannot interfere.

use std::sync::{Mutex, MutexGuard};

use campion::cfg::parse_config;
use campion::core::{compare_routers, CampionOptions, CampionReport, GcMode};
use campion::gen::{capirca_acl_pair, scenario2};
use campion::ir::{lower, RouterIr};
use campion::trace;
use campion::trace::json::validate_chrome_trace;

static COLLECTOR: Mutex<()> = Mutex::new(());

/// Serialize on the global collector; a panic in another test must not
/// poison the rest of the suite.
fn collector() -> MutexGuard<'static, ()> {
    let g = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    // Clear any state a previous (possibly panicked) test left behind.
    trace::disable();
    let _ = trace::drain();
    g
}

fn load(text: &str) -> RouterIr {
    lower(&parse_config(text).expect("config parses")).expect("config lowers")
}

fn opts(jobs: usize, gc: GcMode) -> CampionOptions {
    CampionOptions {
        jobs,
        gc,
        ..CampionOptions::default()
    }
}

/// Concatenate `pairs` renamed copies of a generated ACL pair so one
/// `compare_routers` call carries `pairs` independent work items — enough
/// to keep several workers busy.
fn multi_acl_pair(pairs: usize, rules: usize, seed: u64) -> (RouterIr, RouterIr) {
    let mut cisco = String::new();
    let mut juniper = String::new();
    for i in 0..pairs {
        let (c, j) = capirca_acl_pair(rules, 5.min(rules / 2), seed + i as u64);
        cisco.push_str(&c.replace("ACL-GEN", &format!("ACL-GEN-{i}")));
        juniper.push_str(&j.replace("ACL-GEN", &format!("ACL-GEN-{i}")));
    }
    (load(&cisco), load(&juniper))
}

fn render_scenarios(
    pairs: &[campion::gen::ScenarioPair],
    jobs: usize,
    gc: GcMode,
    traced: bool,
) -> String {
    if traced {
        trace::enable();
    }
    let o = opts(jobs, gc);
    let mut out = String::new();
    for p in pairs {
        let report = compare_routers(&load(&p.cisco), &load(&p.juniper), &o);
        out.push_str(&format!("### {}\n{report}\n", p.name));
    }
    if traced {
        trace::disable();
        let t = trace::drain();
        assert!(!t.is_empty(), "traced run must record spans");
    }
    out
}

#[test]
fn reports_byte_identical_with_tracing_on_or_off() {
    let _g = collector();
    // The full matrix: tracing {off,on} × jobs {1,4} × gc
    // {Off,Auto,Aggressive} — every cell renders the same bytes.
    let pairs = scenario2(4, 17);
    let baseline = render_scenarios(&pairs, 1, GcMode::Off, false);
    assert!(!baseline.is_empty());
    for traced in [false, true] {
        for jobs in [1, 4] {
            for gc in [GcMode::Off, GcMode::Auto, GcMode::Aggressive] {
                assert_eq!(
                    baseline,
                    render_scenarios(&pairs, jobs, gc, traced),
                    "report diverged under traced={traced} jobs={jobs} gc={gc:?}"
                );
            }
        }
    }
}

#[test]
fn tracing_keeps_tracks_and_utilization_sane() {
    let _g = collector();
    let (r1, r2) = multi_acl_pair(6, 50, 0xC0DE);
    let o = opts(4, GcMode::Auto);
    let untraced = compare_routers(&r1, &r2, &o).to_string();
    trace::enable();
    let report = compare_routers(&r1, &r2, &o);
    trace::disable();
    let t = trace::drain();
    assert_eq!(report.to_string(), untraced, "tracing perturbed the report");
    validate_chrome_trace(&t.chrome_json()).expect("chrome trace validates");
    // Per-worker utilization derived from `pool.worker` spans: busy time
    // cannot exceed the worker's wall time, every worker lives on a driver
    // worker track, and anything claimed was actually worked on.
    for w in t.worker_stats() {
        assert!(
            w.busy_ns <= w.wall_ns,
            "{}: busy {} > wall {}",
            w.label,
            w.busy_ns,
            w.wall_ns
        );
        assert!(w.utilization() <= 1.0);
        assert!(
            (1..trace::ANON_TRACK_BASE).contains(&w.track),
            "{}",
            w.track
        );
        if w.claimed > 0 {
            assert!(w.busy_ns > 0, "{}: claimed items but no busy time", w.label);
        }
    }
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if hw > 1 {
        assert!(
            !t.worker_stats().is_empty(),
            "multi-worker run must produce pool.worker utilization"
        );
    }
}

#[test]
fn top_level_spans_cover_the_wall_clock() {
    let _g = collector();
    let (r1, r2) = multi_acl_pair(2, 120, 0xACE);
    trace::enable();
    let report = compare_routers(&r1, &r2, &opts(1, GcMode::default()));
    trace::disable();
    let t = trace::drain();
    assert!(
        !report.acl_diffs.is_empty(),
        "workload produces differences"
    );
    let wall = t.wall_ns();
    let covered = t.top_level_coverage_ns();
    assert!(wall > 0);
    // Acceptance bar: the per-phase account explains the end-to-end wall
    // to within 10% — no large untimed gaps.
    assert!(
        covered as f64 >= wall as f64 * 0.9,
        "top-level spans cover {covered} of {wall} ns (<90%)"
    );
}

#[test]
fn chrome_export_is_valid_with_one_track_per_worker() {
    let _g = collector();
    let (r1, r2) = multi_acl_pair(8, 60, 0xD1CE);
    trace::enable();
    let report = compare_routers(&r1, &r2, &opts(4, GcMode::Aggressive));
    trace::disable();
    let t = trace::drain();
    let json = t.chrome_json();
    let check = validate_chrome_trace(&json).expect("chrome trace validates");
    assert!(check.events > 0);
    assert!(check.spans > 0, "B/E events pair into spans");
    // The driver clamps workers to the hardware thread count and runs
    // inline (no spawned threads, main's track only) when that leaves a
    // single worker; otherwise every worker is its own track next to
    // main's coordinating track.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = 4.min(hw);
    let expected_tracks = if workers <= 1 { 1 } else { 1 + workers };
    assert_eq!(
        check.tracks, expected_tracks,
        "one metadata-named track per worker plus main:\n{check}"
    );
    for name in ["item.acl_pair", "semdiff.acl_paths", "bdd.gc"] {
        assert!(json.contains(name), "trace missing phase {name}");
    }
    assert!(!report.acl_diffs.is_empty());
}

#[test]
fn phase_stats_explain_item_spans() {
    let _g = collector();
    let (r1, r2) = multi_acl_pair(3, 40, 0xFEED);
    trace::enable();
    let _ = compare_routers(&r1, &r2, &opts(1, GcMode::default()));
    trace::disable();
    let t = trace::drain();
    let stats = t.phase_stats();
    let item = stats
        .iter()
        .find(|s| s.name == "item.acl_pair")
        .expect("acl work items traced");
    assert_eq!(item.count, 3, "one span per ACL pair");
    assert!(item.p50_ns <= item.max_ns);
    assert!(item.total_ns >= item.max_ns);
    // Counter deltas ride on the work-item spans: the BDD allocation the
    // report's merged stats saw must equal the sum over item spans.
    let span_nodes: i64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "item.acl_pair")
        .filter_map(|s| {
            s.counters
                .iter()
                .find(|(n, _)| *n == "bdd_nodes")
                .map(|(_, v)| *v)
        })
        .sum();
    assert!(span_nodes > 0, "item spans carry bdd_nodes counters");
}

#[test]
fn disabled_collector_stays_empty_through_a_compare() {
    let _g = collector();
    let (r1, r2) = multi_acl_pair(1, 30, 0xB0B);
    let report: CampionReport = compare_routers(&r1, &r2, &opts(2, GcMode::Aggressive));
    let t = trace::drain();
    assert!(
        t.is_empty(),
        "spans recorded while disabled: {} events",
        t.events.len()
    );
    assert!(report.total_differences() > 0);
}
