//! The traced run: replay a workload's pairs and snapshots in-process
//! through each layer's public functions, in `compare_routers`' order, with one
//! span per call, and derive the per-layer metrics from those spans.
//!
//! The replay must do the program's work: for every pair it checks that
//! the differences it finds, and each one's localized ranges, equal what
//! `compare_routers` reports for the same pair.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use campion_core::headerloc::{header_localize_with, DstAddrSpace, RangeDag, SrcAddrSpace};
use campion_core::semantic::{
    acl_diff_paths, policy_paths, release_paths, semantic_diff_jobs, DiffPruneStats,
};
use campion_core::{
    compare_routers, match_policies, report_json, CampionOptions, CampionReport, MatchedComponents,
};
use campion_fleet::http::{Request, Response};
use campion_fleet::{api, Daemon, FleetStore, SnapshotInput};
use campion_ir::{RoutePolicy, RouterIr};
use campion_net::PrefixRange;
use campion_symbolic::{PacketSpace, RouteSpace};

use crate::fleet::{self, Clients};
use crate::inputs::{Fleet, Pair};
use crate::oracle::{self, Tally};
use crate::stats::{median, secs};
use crate::tracer::{self, Span, Tracer};
use crate::{Metric, Outcome};

/// Mirrors `campion_core`'s cap on the prefixes a non-contiguous wildcard
/// contributes to an ACL's address universe.
const WILDCARD_COVER_CAP: usize = 256;

/// Span groups of compare-path pair replays start here, clear of the
/// fleet replay's request groups.
const COMPARE_GROUPS: u64 = 10_000_000;

/// Traced passes stop once this many spans are held: validating the
/// written trace with the program's own checker costs time quadratic in
/// its size.
const MAX_COMPARE_SPANS: usize = 1200;

/// Localized ranges of one difference: `(included, excluded)`.
type Loc = (Vec<PrefixRange>, Vec<PrefixRange>);

/// Counters one pair replay reads from the program rather than from spans.
#[derive(Debug, Clone, Default)]
struct PairCounts {
    cisco_bytes: usize,
    juniper_bytes: usize,
    ddnf_nodes: usize,
    cpu: Duration,
    bdd: campion_bdd::ManagerStats,
}

fn parse(text: &str, who: &str) -> Result<campion_cfg::VendorConfig, String> {
    campion_cfg::parse_config(text).map_err(|e| format!("{who}: {e}"))
}

fn lower(cfg: &campion_cfg::VendorConfig, who: &str) -> Result<RouterIr, String> {
    campion_ir::lower(cfg).map_err(|e| format!("{who}: {e}"))
}

/// SemanticDiff, ddNF build and GetMatch for every route-map pair, as
/// `compare_routers` runs them (sequential presentation on a snapshot clone).
fn replay_policies(
    tr: &mut Tracer,
    g: u64,
    (r1, r2): (&RouterIr, &RouterIr),
    matched: &MatchedComponents,
    opts: &CampionOptions,
    nodes: &mut usize,
) -> Vec<Loc> {
    let mut out = Vec::new();
    for pair in &matched.policy_pairs {
        let pick = |r: &RouterIr, n: &Option<String>| match n {
            Some(n) => r.policy_or_permit(n),
            None => RoutePolicy::permit_all("(no policy)"),
        };
        let (p1, p2) = (pick(r1, &pair.name1), pick(r2, &pair.name2));
        let mut space = RouteSpace::for_policies(&[&p1, &p2]);
        space.manager.set_gc_policy(opts.effective_gc().policy());
        let universe = space.universe();
        space.manager.protect(universe);
        let (paths1, paths2) = tr.span("semantic.paths", g, |_| {
            (
                policy_paths(&mut space, &p1, universe),
                policy_paths(&mut space, &p2, universe),
            )
        });
        let diffs = tr.span("semantic.diff", g, |_| {
            let mut prune = DiffPruneStats::default();
            semantic_diff_jobs(
                &mut space.manager,
                &paths1,
                &paths2,
                &mut prune,
                opts.effective_jobs(),
            )
        });
        release_paths(&mut space.manager, &paths1);
        release_paths(&mut space.manager, &paths2);
        space.manager.gc_checkpoint();
        let mut ranges = p1.prefix_ranges();
        ranges.extend(p2.prefix_ranges());
        let dag = tr.span("headerloc.ddnf", g, |_| {
            RangeDag::build(&mut space, &ranges)
        });
        *nodes += dag.len();
        space.manager.gc_checkpoint();
        if !diffs.is_empty() {
            let (mut sp, dg) = tr.span("replay.clone", g, |_| (space.clone(), dag.clone()));
            for d in &diffs {
                let s = tr.span("headerloc.project", g, |_| sp.project_to_prefix(d.input));
                let loc = tr.span("headerloc.getmatch", g, |_| {
                    header_localize_with(&mut sp, s, &dg)
                });
                out.push((loc.included(), loc.excluded()));
            }
            for d in &diffs {
                space.manager.unprotect(d.input);
            }
            space.manager.gc_checkpoint();
        }
        dag.release(&mut space.manager);
        space.manager.unprotect(universe);
    }
    out
}

/// The same for every ACL pair: both address dimensions are localized.
fn replay_acls(
    tr: &mut Tracer,
    g: u64,
    (r1, r2): (&RouterIr, &RouterIr),
    matched: &MatchedComponents,
    opts: &CampionOptions,
    nodes: &mut usize,
) -> Vec<Loc> {
    let mut out = Vec::new();
    for name in &matched.acl_pairs {
        let (a1, a2) = (&r1.acls[name], &r2.acls[name]);
        let mut space = PacketSpace::new();
        space.manager.set_gc_policy(opts.effective_gc().policy());
        let (paths1, paths2) = tr.span("semantic.paths", g, |_| {
            acl_diff_paths(&mut space, a1, a2, opts.effective_jobs())
        });
        let diffs = tr.span("semantic.diff", g, |_| {
            let mut prune = DiffPruneStats::default();
            semantic_diff_jobs(
                &mut space.manager,
                &paths1,
                &paths2,
                &mut prune,
                opts.effective_jobs(),
            )
        });
        release_paths(&mut space.manager, &paths1);
        release_paths(&mut space.manager, &paths2);
        space.manager.gc_checkpoint();
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for rule in a1.rules.iter().chain(&a2.rules) {
            for (side, ws) in [(&mut src, &rule.src), (&mut dst, &rule.dst)] {
                for w in ws {
                    side.extend(
                        w.cover_prefixes(WILDCARD_COVER_CAP)
                            .into_iter()
                            .map(PrefixRange::or_longer),
                    );
                }
            }
        }
        let ddag = tr.span("headerloc.ddnf", g, |_| {
            RangeDag::build(&mut DstAddrSpace(&mut space), &dst)
        });
        let sdag = tr.span("headerloc.ddnf", g, |_| {
            RangeDag::build(&mut SrcAddrSpace(&mut space), &src)
        });
        *nodes += ddag.len() + sdag.len();
        space.manager.gc_checkpoint();
        if !diffs.is_empty() {
            let (mut sp, dd, sd) = tr.span("replay.clone", g, |_| {
                (space.clone(), ddag.clone(), sdag.clone())
            });
            let as_addr = |rs: Vec<PrefixRange>| -> Vec<PrefixRange> {
                rs.into_iter()
                    .map(|r| PrefixRange::new(r.prefix, 32, 32))
                    .collect()
            };
            for d in &diffs {
                let s = tr.span("headerloc.project", g, |_| sp.project_to_dst(d.input));
                let loc = tr.span("headerloc.getmatch", g, |_| {
                    header_localize_with(&mut DstAddrSpace(&mut sp), s, &dd)
                });
                let s = tr.span("headerloc.project", g, |_| sp.project_to_src(d.input));
                tr.span("headerloc.getmatch", g, |_| {
                    black_box(header_localize_with(&mut SrcAddrSpace(&mut sp), s, &sd))
                });
                out.push((as_addr(loc.included()), as_addr(loc.excluded())));
            }
            for d in &diffs {
                space.manager.unprotect(d.input);
            }
            space.manager.gc_checkpoint();
        }
        ddag.release(&mut space.manager);
        sdag.release(&mut space.manager);
    }
    out
}

/// Check the replay found the report's differences with the same ranges.
fn same_answer(report: &CampionReport, policies: &[Loc], acls: &[Loc]) -> Result<(), String> {
    for (what, got, want) in [
        ("route-map", policies, &report.route_map_diffs),
        ("ACL", acls, &report.acl_diffs),
    ] {
        if got.len() != want.len() {
            return Err(format!(
                "{} {what} differences replayed, {} reported",
                got.len(),
                want.len()
            ));
        }
        for (i, ((inc, exc), d)) in got.iter().zip(want.iter()).enumerate() {
            if *inc != d.included || *exc != d.excluded {
                return Err(format!(
                    "{what} difference {i}: localized ranges differ from the report"
                ));
            }
        }
    }
    Ok(())
}

/// Replay one pair under span group `g`: parse, lower, hash, the full
/// compare, rendering, then `compare_routers`' stages one call at a time.
fn replay_pair(tr: &mut Tracer, g: u64, pair: &Pair) -> Result<PairCounts, String> {
    let opts = CampionOptions::default();
    tr.span("pair", g, |tr| {
        let c = tr.span("cfg.parse_cisco", g, |_| parse(&pair.cisco, "cisco"))?;
        let j = tr.span("cfg.parse_juniper", g, |_| parse(&pair.juniper, "juniper"))?;
        let r1 = tr.span("ir.lower", g, |_| lower(&c, "cisco"))?;
        let r2 = tr.span("ir.lower", g, |_| lower(&j, "juniper"))?;
        tr.span("ir.hash", g, |_| {
            black_box((
                campion_ir::hash::text_hash(&pair.cisco),
                campion_ir::hash::text_hash(&pair.juniper),
                campion_ir::hash::hash_router(&r1),
                campion_ir::hash::hash_router(&r2),
            ))
        });
        let cpu0 = crate::proc::self_cpu();
        let report = tr.span("core.compare", g, |_| compare_routers(&r1, &r2, &opts));
        let cpu = crate::proc::self_cpu().saturating_sub(cpu0);
        tr.span("report.render", g, |_| {
            black_box((format!("{report}\n"), report_json(&report)))
        });
        let mut nodes = 0;
        let (policies, acls) = tr.span("replay", g, |tr| {
            let matched = tr.span("core.match", g, |_| match_policies(&r1, &r2));
            (
                replay_policies(tr, g, (&r1, &r2), &matched, &opts, &mut nodes),
                replay_acls(tr, g, (&r1, &r2), &matched, &opts, &mut nodes),
            )
        });
        same_answer(&report, &policies, &acls).map_err(|e| format!("pair {}: {e}", pair.name))?;
        Ok(PairCounts {
            cisco_bytes: pair.cisco.len(),
            juniper_bytes: pair.juniper.len(),
            ddnf_nodes: nodes,
            cpu,
            bdd: report.bdd_stats,
        })
    })
}

/// Calls and total seconds per span name.
type NameTimes = BTreeMap<&'static str, (usize, f64)>;

/// Per-name span time within each group.
fn by_group(spans: &[Span]) -> BTreeMap<u64, NameTimes> {
    let mut out: BTreeMap<u64, NameTimes> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.group).or_default().entry(s.name).or_default();
        e.0 += 1;
        e.1 += secs(s.dur());
    }
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Compare-path per-layer metrics from the traced passes' spans and the
/// per-pair counters, each the median over pair replays.
fn compare_metrics(
    spans: &[Span],
    counts: &BTreeMap<u64, PairCounts>,
    overhead: &[f64],
) -> Vec<Metric> {
    let groups = by_group(spans);
    let per = |f: &dyn Fn(&NameTimes, &PairCounts) -> f64| -> f64 {
        let v: Vec<f64> = counts
            .iter()
            .filter_map(|(g, c)| groups.get(g).map(|m| f(m, c)))
            .collect();
        median(&v)
    };
    let t = |m: &NameTimes, name: &str| m.get(name).map_or(0.0, |e| e.1);
    let n = |m: &NameTimes, name: &str| m.get(name).map_or(0, |e| e.0) as f64;
    let getmatch: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "headerloc.getmatch")
        .map(|s| secs(s.dur()))
        .collect();
    let (cpu, wall) = counts.iter().fold((0.0, 0.0), |(c, w), (g, pc)| {
        (
            c + secs(pc.cpu),
            w + groups.get(g).map_or(0.0, |m| t(m, "core.compare")),
        )
    });
    vec![
        Metric::new(
            "cfg.parse_cisco_mb_s",
            per(&|m, c| ratio(c.cisco_bytes as f64 / 1e6, t(m, "cfg.parse_cisco"))),
            "MB/s",
        ),
        Metric::new(
            "cfg.parse_juniper_mb_s",
            per(&|m, c| ratio(c.juniper_bytes as f64 / 1e6, t(m, "cfg.parse_juniper"))),
            "MB/s",
        ),
        Metric::new("ir.lower_s", per(&|m, _| t(m, "ir.lower")), "s"),
        Metric::new("ir.hash_s", per(&|m, _| t(m, "ir.hash")), "s"),
        Metric::new(
            "symbolic.rule_cache_hit_rate",
            per(&|_, c| c.bdd.rule_cache_hit_rate()),
            "ratio",
        ),
        Metric::new(
            "bdd.apply_lookups",
            per(&|_, c| c.bdd.apply_lookups as f64),
            "count",
        ),
        Metric::new(
            "bdd.apply_hit_rate",
            per(&|_, c| c.bdd.apply_hit_rate()),
            "ratio",
        ),
        Metric::new(
            "bdd.unique_hit_rate",
            per(&|_, c| c.bdd.unique_hit_rate()),
            "ratio",
        ),
        Metric::new(
            "bdd.peak_nodes",
            per(&|_, c| c.bdd.peak_nodes as f64),
            "count",
        ),
        Metric::new("bdd.gc_runs", per(&|_, c| c.bdd.gc_runs as f64), "count"),
        Metric::new(
            "bdd.gc_pause_s",
            per(&|_, c| c.bdd.gc_pause_us as f64 / 1e6),
            "s",
        ),
        Metric::new("semantic.paths_s", per(&|m, _| t(m, "semantic.paths")), "s"),
        Metric::new("semantic.diff_s", per(&|m, _| t(m, "semantic.diff")), "s"),
        Metric::new(
            "semantic.pruned_share",
            per(&|_, c| {
                ratio(
                    c.bdd.pairs_pruned as f64,
                    (c.bdd.pairs_pruned + c.bdd.pairs_examined) as f64,
                )
            }),
            "ratio",
        ),
        Metric::new("headerloc.ddnf_s", per(&|m, _| t(m, "headerloc.ddnf")), "s"),
        Metric::new(
            "headerloc.ddnf_nodes",
            per(&|_, c| c.ddnf_nodes as f64),
            "count",
        ),
        Metric::new(
            "headerloc.getmatch_calls",
            per(&|m, _| n(m, "headerloc.getmatch")),
            "count",
        ),
        Metric::new(
            "headerloc.getmatch_s",
            per(&|m, _| t(m, "headerloc.getmatch")),
            "s",
        ),
        Metric::new("headerloc.getmatch_p50_s", median(&getmatch), "s"),
        Metric::new(
            "headerloc.share",
            per(&|m, _| {
                ratio(
                    t(m, "headerloc.ddnf") + t(m, "headerloc.getmatch"),
                    t(m, "core.compare"),
                )
            }),
            "ratio",
        ),
        Metric::new("core.compare_s", per(&|m, _| t(m, "core.compare")), "s"),
        Metric::new("driver.cpu_per_wall", ratio(cpu, wall), "ratio"),
        Metric::new("report.render_s", per(&|m, _| t(m, "report.render")), "s"),
        Metric::new("trace.overhead_ratio", median(overhead), "ratio"),
    ]
}

/// Replay `pairs` in passes until `budget` runs out or enough spans are
/// held, alternating untraced and traced passes (at least one of each). Returns the traced spans, the
/// per-replay counters, and each traced pass's time over the untraced
/// pass before it.
fn compare_passes(
    tr: &mut Tracer,
    pairs: &[Pair],
    budget: Duration,
) -> Result<(BTreeMap<u64, PairCounts>, Vec<f64>), String> {
    let deadline = Instant::now() + budget;
    let mut counts = BTreeMap::new();
    let mut overhead = Vec::new();
    let mut untraced = None;
    let mut pass = 0u64;
    while pass < 2 || (Instant::now() < deadline && tr.spans().len() < MAX_COMPARE_SPANS) {
        let traced = pass % 2 == 1;
        tr.set_enabled(traced);
        let t0 = Instant::now();
        for (i, p) in pairs.iter().enumerate() {
            let g = COMPARE_GROUPS + pass * 1000 + i as u64;
            let c = replay_pair(tr, g, p)?;
            if traced {
                counts.insert(g, c);
            }
        }
        let dt = secs(t0.elapsed());
        match (traced, untraced) {
            (false, _) => untraced = Some(dt),
            (true, Some(u)) => overhead.push(ratio(dt, u)),
            (true, None) => {}
        }
        pass += 1;
    }
    tr.set_enabled(true);
    Ok((counts, overhead))
}

/// What the in-process fleet replay measured.
#[derive(Debug, Default)]
struct FleetCounts {
    /// Per warm POST: (group, body bytes, cached share, parse-skip share).
    posts: Vec<(u64, usize, f64, f64)>,
    /// Snapshot records after each warm ingest, saved again afterwards.
    records: Vec<campion_fleet::SnapshotRecord>,
}

/// Group of a request from its `?rid=` tag (0 when untagged).
fn rid(path: &str) -> u64 {
    path.split_once("?rid=")
        .and_then(|(_, r)| r.parse().ok())
        .unwrap_or(0)
}

/// The daemon's request handling, one public call per layer: a snapshot
/// POST is decoded (`SnapshotInput::from_json`) and ingested
/// (`Daemon::ingest`) as `api::handle` would; every other request goes
/// through `api::handle`.
fn handle(
    tr: &mut Tracer,
    daemon: &mut Daemon,
    counts: &mut FleetCounts,
    req: &Request,
) -> (Response, bool) {
    let g = rid(&req.path);
    if req.method != "POST" || !req.path.starts_with("/api/v1/snapshot") {
        return tr.span("http.handle", g, |_| api::handle(daemon, req));
    }
    tr.span("fleet.post", g, |tr| {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return (Response::error(400, "snapshot body is not UTF-8"), false);
        };
        let input = tr.span("fleet.decode", g, |_| SnapshotInput::from_json(body));
        let ingested = input.and_then(|i| {
            let s = tr.span("fleet.ingest", g, |_| daemon.ingest(&i))?;
            Ok((i.configs.len(), s))
        });
        match ingested {
            Ok((routers, s)) => {
                if g >= fleet::writer_group(0) {
                    counts.posts.push((
                        g,
                        body.len(),
                        ratio(s.pairs_cached as f64, s.pairs_total as f64),
                        ratio(s.router_parses_skipped as f64, routers as f64),
                    ));
                    counts.records.extend(daemon.latest().cloned());
                }
                (Response::json(200, s.to_json()), false)
            }
            Err(e) => (Response::error(400, &e), false),
        }
    })
}

/// Serve the fleet in-process over loopback with the workload's clients
/// for `budget`, then re-save each warm snapshot record into a side store.
/// Returns the fleet per-layer metrics; spans go to `tracers`.
fn fleet_replay(
    work: &Path,
    f: &Fleet,
    budget: Duration,
    epoch: Instant,
    tracers: &mut Vec<Tracer>,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut daemon = Daemon::open(&work.join("replay-store"), CampionOptions::default())?;
    let bodies = fleet::warm_bodies(f);
    let cold = f.snapshot("cold", None).to_json();
    campion_trace::enable();
    let (server, w, r) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut tr = Tracer::new(true, epoch, 1);
            let mut counts = FleetCounts::default();
            let served = campion_fleet::http::serve(&listener, |req| {
                handle(&mut tr, &mut daemon, &mut counts, req)
            });
            (tr, counts, served)
        });
        let n = f.pairs.len();
        let cold_post = fleet::http(addr, "POST", "/api/v1/snapshot?rid=999999", cold.as_bytes());
        tally.check(
            cold_post.and_then(|(st, b)| oracle::post_summary(st, &b, n, n)),
            "replay cold POST",
        );
        let start = Instant::now() + Duration::from_millis(20);
        let clients = Clients {
            addr,
            fleet: f,
            bodies: &bodies,
            start,
            deadline: start + budget,
            tag: true,
        };
        let (w, r) = std::thread::scope(|c| {
            let writer = c.spawn(|| {
                let mut tr = Tracer::new(true, epoch, 2);
                let out = clients.writer(&mut tr);
                (tr, out)
            });
            let reader = c.spawn(|| {
                let mut tr = Tracer::new(true, epoch, 3);
                let out = clients.reader(&mut tr);
                (tr, out)
            });
            (
                writer.join().expect("writer thread panicked"),
                reader.join().expect("reader thread panicked"),
            )
        });
        let stop = fleet::http(addr, "POST", "/api/v1/shutdown", b"");
        tally.check(stop.map(|_| ()), "replay shutdown");
        (server.join().expect("server thread panicked"), w, r)
    });
    campion_trace::disable();
    drop(campion_trace::drain());
    let (server_tr, counts, served) = server;
    served.map_err(|e| format!("serve: {e}"))?;
    let ((wtr, wout), (rtr, rout)) = (w, r);
    for t in [wout.tally, rout.tally] {
        tally.attempted += t.attempted;
        tally.failures.extend(t.failures);
    }

    // Store writes, timed on their own.
    let mut side = Tracer::new(true, epoch, 4);
    let store = FleetStore::open(&work.join("side-store"))?;
    let mut bytes = Vec::new();
    for rec in &counts.records {
        let path = side.span("fleet.store_save", rec.seq, |_| store.save(rec))?;
        bytes.push(std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64);
    }
    drop(store);

    let durs = |t: &Tracer, name: &str, warm: bool| -> BTreeMap<u64, f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name && (s.group >= fleet::writer_group(0)) == warm)
            .map(|s| (s.group, secs(s.dur())))
            .collect()
    };
    let decode = durs(&server_tr, "fleet.decode", true);
    let handle = durs(&server_tr, "http.handle", false);
    let rates: Vec<f64> = counts
        .posts
        .iter()
        .filter_map(|(g, b, _, _)| decode.get(g).map(|d| ratio(*b as f64 / 1e6, *d)))
        .collect();
    let waits: Vec<f64> = rout
        .samples
        .iter()
        .filter_map(|(g, s)| handle.get(g).map(|h| (secs(s.latency) - h).max(0.0)))
        .collect();
    let saves: Vec<f64> = side.spans().iter().map(|s| secs(s.dur())).collect();
    let col = |i: usize| -> Vec<f64> { counts.posts.iter().map(|p| [p.2, p.3][i]).collect() };
    let values = |m: &BTreeMap<u64, f64>| m.values().copied().collect::<Vec<_>>();
    let metrics = fleet_metrics([
        median(&values(&decode)),
        median(&rates),
        median(&values(&durs(&server_tr, "fleet.ingest", true))),
        median(&col(0)),
        median(&col(1)),
        median(&saves),
        median(&bytes),
        median(&values(&handle)),
        median(&waits),
    ]);
    tracers.extend([server_tr, wtr, rtr, side]);
    Ok(metrics)
}

/// The fleet-path per-layer metrics, in `BENCHMARK.json` order.
const FLEET_METRICS: [(&str, &str); 9] = [
    ("fleet.decode_s", "s"),
    ("fleet.decode_mb_s", "MB/s"),
    ("fleet.ingest_s", "s"),
    ("fleet.cached_share", "ratio"),
    ("fleet.parse_skip_share", "ratio"),
    ("fleet.store_save_s", "s"),
    ("fleet.store_bytes", "bytes"),
    ("http.handle_s", "s"),
    ("http.queue_wait_s", "s"),
];

fn fleet_metrics(values: [f64; 9]) -> Vec<Metric> {
    FLEET_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

/// The traced run of any workload: the compare-path replay of its pairs
/// and, for `fleet-http`, the in-process fleet replay. Writes the Chrome
/// trace to `trace_path`.
pub fn run(
    work: &Path,
    pairs: &[Pair],
    fleet: Option<&Fleet>,
    seconds: u64,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut tracers = Vec::new();
    let total = Duration::from_secs(seconds);
    let fleet_metrics = match fleet {
        Some(f) => fleet_replay(work, f, total.mul_f64(0.7), epoch, &mut tracers, &mut tally)?,
        // The CLI workloads never reach the fleet layers.
        None => fleet_metrics([0.0; 9]),
    };
    let budget = total.saturating_sub(epoch.elapsed());
    let mut tr = Tracer::new(true, epoch, 0);
    let (counts, overhead) = compare_passes(&mut tr, pairs, budget)?;
    tally.attempted += counts.len() as u64;
    tracers.push(tr);
    let spans = tracer::merge(tracers);
    let mut metrics = compare_metrics(&spans, &counts, &overhead);
    let ovh = metrics.pop().expect("overhead metric is last");
    metrics.extend(fleet_metrics);
    metrics.push(ovh);

    let json = tracer::chrome_json(&spans);
    std::fs::write(trace_path, &json).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    tally.check(
        campion_trace::json::validate_chrome_trace(&json).map(|_| ()),
        "Chrome trace validates",
    );
    let mut lines = vec![format!(
        "trace: {} spans, {} pair replays matched compare_routers, written to {}",
        spans.len(),
        counts.len(),
        trace_path.display()
    )];
    lines.push("self time by span name (calls, total s, self s):".to_string());
    for (name, (n, total, own)) in tracer::totals(&spans) {
        lines.push(format!(
            "  {name:<22} {n:>6} {:>12.6} {:>12.6}",
            secs(total),
            secs(own)
        ));
    }
    Ok(Outcome {
        metrics,
        tally,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{capirca, rmap_inputs_sized, RmapSize};

    const TINY: RmapSize = RmapSize {
        lists: 6,
        entries: 5,
        clauses: 8,
        comms: 4,
    };

    fn tiny_acl_pair() -> Pair {
        let (_, cisco, juniper) = capirca(40, 2, 7, &mut Vec::new()).expect("generate");
        Pair {
            name: "acl".to_string(),
            cisco,
            juniper,
            divergences: Vec::new(),
        }
    }

    #[test]
    fn replay_reproduces_compare_routers_on_tiny_seeds() {
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let rmap = rmap_inputs_sized(7, TINY, 2).expect("generate");
        for (g, p) in rmap.pairs.iter().enumerate() {
            replay_pair(&mut tr, g as u64, p).expect("route-map replay matches the report");
        }
        let c = replay_pair(&mut tr, 9, &tiny_acl_pair()).expect("ACL replay matches the report");
        assert!(c.ddnf_nodes > 0 && c.bdd.apply_lookups > 0);
        // Two differences, each localized on both address dimensions.
        let getmatch = tr
            .spans()
            .iter()
            .filter(|s| s.group == 9 && s.name == "headerloc.getmatch");
        assert_eq!(getmatch.count(), 4);
    }

    #[test]
    fn a_replay_that_localizes_differently_is_rejected() {
        let p = tiny_acl_pair();
        let mut report =
            campion_core::compare_config_texts(&p.cisco, &p.juniper, &CampionOptions::default())
                .expect("compare");
        let found: Vec<Loc> = report
            .acl_diffs
            .iter()
            .map(|d| (d.included.clone(), d.excluded.clone()))
            .collect();
        assert!(same_answer(&report, &[], &found).is_ok());
        assert!(same_answer(&report, &[], &found[1..]).is_err());
        report.acl_diffs[0].included.push(PrefixRange::universe());
        assert!(same_answer(&report, &[], &found).is_err());
    }
}
