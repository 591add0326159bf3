//! campbench: the end-to-end and per-layer benchmark of Campion.
//!
//! ```text
//! campbench --bin-dir <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the release `campion` CLI and
//! `campion-fleetd` the way users do and prints the end-to-end metrics;
//! with `--trace 1` it replays the same inputs in-process through each
//! layer's public functions and prints the per-layer metrics. Either way
//! every output is checked against an answer the program did not produce,
//! and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! # Workloads
//!
//! | name | loop | why | loads heavily | loads lightly |
//! |---|---|---|---|---|
//! | `acl-10k` | closed, 1 client | the paper's §5.4 point: 10k-rule Capirca ACL pairs with 10 injected differences | `core::headerloc` (ddNF build, GetMatch), `cfg` (2.3 MB of JunOS) | `core::semantic`, `bdd` (one GC), route maps |
//! | `rmap-10k` | closed, 1 client | 10k prefix-list entries behind a 60-clause route map, three witness-verified divergences per pair, six pairs per run | `symbolic::RouteSpace`, `core::semantic` path enumeration, `bdd` apply/GC, `Members` ddNF | ACL alignment |
//! | `fleet-http` | open, writer + reader | the service path: HTTP body, snapshot decode, incremental ingest, store, served report | `fleet::snapshot` decode, `fleet::daemon`, `fleet::store`, the sequential accept loop | `core` compute (small pairs) |
//!
//! # Which per-layer metric should move which end-to-end metric
//!
//! | layer | per-layer metrics | should move | heavy / light workload |
//! |---|---|---|---|
//! | `cfg` | `cfg.parse_cisco_mb_s`, `cfg.parse_juniper_mb_s` | `verdict_p50_s` (compare) | acl-10k / rmap-10k |
//! | `ir` | `ir.lower_s` | `verdict_p50_s` (compare) | acl-10k / fleet-http |
//! | `ir::hash` | `ir.hash_s` | `verdict_p50_s` (ingest) | fleet-http / CLI workloads |
//! | `symbolic` | `symbolic.rule_cache_hit_rate` | `verdict_p50_s` (compare) | both CLI workloads |
//! | `bdd` | `bdd.apply_lookups`, `bdd.apply_hit_rate`, `bdd.unique_hit_rate`, `bdd.peak_nodes`, `bdd.gc_runs`, `bdd.gc_pause_s` | `verdict_p50_s` (compare), `peak_rss_mb` | rmap-10k / acl-10k |
//! | `core::semantic` | `semantic.paths_s`, `semantic.diff_s`, `semantic.pruned_share` | `verdict_p50_s` (compare) | rmap-10k / acl-10k |
//! | `core::headerloc` | `headerloc.ddnf_s`, `headerloc.ddnf_nodes`, `headerloc.getmatch_calls`, `headerloc.getmatch_s`, `headerloc.getmatch_p50_s`, `headerloc.share` | `verdict_p50_s`, `verdict_tail_s` (compare) | acl-10k / fleet-http |
//! | `core::driver` | `core.compare_s`, `driver.cpu_per_wall` | `verdict_p50_s` (compare) | acl-10k / rmap-10k |
//! | `core::report`, `core::json` | `report.render_s` | `verdict_p50_s` (compare and ingest) | rmap-10k / acl-10k |
//! | `fleet::snapshot` | `fleet.decode_s`, `fleet.decode_mb_s` | `verdict_p50_s` (ingest), query tail | fleet-http / unused by the CLI workloads |
//! | `fleet::daemon` | `fleet.ingest_s`, `fleet.cached_share`, `fleet.parse_skip_share` | `verdict_p50_s` (ingest) | fleet-http / unused by the CLI workloads |
//! | `fleet::store` | `fleet.store_save_s`, `fleet.store_bytes` | `verdict_p50_s` (ingest) | fleet-http / unused by the CLI workloads |
//! | `fleet::api`, `fleet::http` | `http.handle_s`, `http.queue_wait_s` | query p50 and tail | fleet-http / unused by the CLI workloads |
//! | `trace` | `trace.overhead_ratio` | none: it sizes the traced run's distortion | all |
//!
//! `verdict_*` is the workload's user-facing operation: one `campion
//! compare` from spawn to exit on the CLI workloads, and from a warm POST's
//! due time to the perturbed pair's new report being served on
//! `fleet-http`. A layer a workload never reaches reports 0 there.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod cli;
mod fleet;
mod inputs;
mod json;
mod oracle;
mod proc;
mod replay;
mod stats;
mod tracer;

use oracle::Tally;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Checks attempted and failed.
    pub tally: Tally,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["acl-10k", "rmap-10k", "fleet-http"];

struct Args {
    bin_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bin_dir = None;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(val()?)),
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(val()?.parse().map_err(|_| "--seconds needs an integer")?)
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// FNV-1a 64 over the program's sources (paths and contents, in path
/// order), identifying the code measured when no commit id is available.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    out.push(p);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    oracle::digest(&bytes)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let seconds = args.seconds;
    if args.trace {
        let out_dir = Path::new(".bench_out");
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let trace_path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let (pairs, fleet, notes) = match args.workload.as_str() {
            "fleet-http" => {
                let f = inputs::fleet_inputs(args.seed)?;
                let pairs = f.pairs.iter().map(|p| inputs::Pair {
                    name: format!("{}/{}", p.a, p.b),
                    cisco: f.configs[&p.a].clone(),
                    juniper: f.configs[&p.b].clone(),
                    divergences: Vec::new(),
                });
                (pairs.collect(), Some(f.clone()), f.notes)
            }
            "acl-10k" => {
                let i = inputs::acl_inputs(args.seed)?;
                (i.pairs, None, i.notes)
            }
            _ => {
                let i = inputs::rmap_inputs(args.seed)?;
                (i.pairs, None, i.notes)
            }
        };
        let mut out = replay::run(work, &pairs, fleet.as_ref(), seconds, &trace_path)?;
        out.lines.splice(0..0, notes);
        return Ok(out);
    }
    match args.workload.as_str() {
        "acl-10k" => cli::run(
            &args.bin_dir,
            work,
            &inputs::acl_inputs(args.seed)?,
            seconds,
        ),
        "rmap-10k" => cli::run(
            &args.bin_dir,
            work,
            &inputs::rmap_inputs(args.seed)?,
            seconds,
        ),
        _ => fleet::run(
            &args.bin_dir,
            work,
            &inputs::fleet_inputs(args.seed)?,
            seconds,
        ),
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed() == 0,
        out.tally.attempted.max(1),
        out.tally.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("campbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Gone only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "provenance: workload={} seed={} seconds={} trace={} hardware_threads={threads} commit={} source_fnv={:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        source_digest()
    );
    for l in &out.lines {
        println!("{l}");
    }
    println!(
        "fail_share = {} ({} of {} checks failed)",
        out.tally.failed() as f64 / out.tally.attempted.max(1) as f64,
        out.tally.failed(),
        out.tally.attempted
    );
    for f in &out.tally.failures {
        println!("FAILED {f}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut tally = Tally::default();
        tally.check(Ok(()), "a");
        tally.check(Err("wrong verdict".to_string()), "b");
        let out = Outcome {
            metrics: vec![Metric::new("setup_s", 0.8127, "s")],
            tally,
            lines: Vec::new(),
        };
        let doc = json::parse(&result_json(&out)).expect("valid JSON");
        let json::Value::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("correct").and_then(json::Value::as_bool),
            Some(false)
        );
        assert_eq!(doc.get("failed").and_then(json::Value::as_f64), Some(1.0));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(json::Value::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(json::Value::as_str), Some("s"));
    }
}
