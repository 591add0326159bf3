//! The `campion` command-line tool.
//!
//! ```text
//! campion compare <config1> <config2> [--no-acls] [--no-route-maps]
//!                 [--no-structural] [--exhaustive-communities] [--jobs N]
//!                 [--gc off|auto|aggressive]
//!                 [--stats] [--stats-json] [--metrics] [--trace <file>]
//!                 [--log <file|->] [--format text|json]
//! campion translate <config>            # emit the JunOS rewrite
//! campion baseline <config1> <config2>  # Minesweeper-style single cex
//! ```
//!
//! `compare` exits 0 when the two configurations are behaviorally
//! equivalent, 1 when differences were found, 2 on usage or parse errors —
//! so it drops straight into a change-management pipeline.
//!
//! Every command writes its output through one locked stdout. A reader
//! that goes away early (`campion compare a b | head -1`) is not an error:
//! the command stops writing and still exits with its verdict (0 or 1).
//! Any other stdout write error (a full disk, say) prints
//! `error: stdout: …` on stderr and exits 2.
//!
//! Observability: `--stats` appends the aggregate BDD-engine counters to
//! stdout (`--stats-json` the machine-readable twin, bench-JSON field
//! names); `--metrics` prints the per-phase timing table (count / total /
//! p50 / p90 / p99 / max plus counter deltas and per-worker utilization)
//! on **stderr**; `--trace <file>` writes Chrome trace-event JSON loadable
//! in `chrome://tracing` / Perfetto, one track per worker; `--log <file|->`
//! emits structured JSON-lines logs (`-` = stderr). None of them perturb
//! the report: the rendered comparison is byte-identical with or without
//! them.

use std::io::{self, StdoutLock, Write};
use std::process::ExitCode;

use campion::cfg::parse_config;
use campion::core::{compare_routers, CampionOptions, GcMode};
use campion::ir::{lower, to_junos, RouterIr};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  campion compare <config1> <config2> [--no-acls] [--no-route-maps]\n\
         \x20                 [--no-structural] [--exhaustive-communities] [--jobs N]\n\
         \x20                 [--gc off|auto|aggressive]\n\
         \x20                 [--stats] [--stats-json] [--metrics] [--trace <file>]\n\
         \x20                 [--log <file|->] [--format text|json]\n\
         \x20 campion translate <config>\n\
         \x20 campion baseline <config1> <config2>"
    );
    ExitCode::from(2)
}

/// Run `write` against one locked stdout, flush it, and exit with
/// `verdict`. A closed pipe (`BrokenPipe`) keeps the verdict; any other
/// write error is reported and exits 2.
fn emit(verdict: ExitCode, write: impl FnOnce(&mut StdoutLock) -> io::Result<()>) -> ExitCode {
    let mut out = io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: stdout: {e}");
            ExitCode::from(2)
        }
        _ => verdict,
    }
}

fn load_file(path: &str) -> Result<RouterIr, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cfg = parse_config(&text).map_err(|e| format!("{path}: {e}"))?;
    lower(&cfg).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut show_stats = false;
    let mut stats_json = false;
    let mut show_metrics = false;
    let mut json_format = false;
    let mut trace_path: Option<String> = None;
    let mut log_dest: Option<String> = None;
    let mut opts = CampionOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-acls" => opts.check_acls = false,
            "--no-route-maps" => opts.check_route_maps = false,
            "--no-structural" => {
                opts.check_static_routes = false;
                opts.check_connected_routes = false;
                opts.check_bgp_properties = false;
                opts.check_ospf = false;
            }
            "--exhaustive-communities" => opts.exhaustive_communities = true,
            "--stats" => show_stats = true,
            "--stats-json" => stats_json = true,
            "--metrics" => show_metrics = true,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => json_format = false,
                Some("json") => json_format = true,
                _ => {
                    eprintln!("--format requires one of: text, json");
                    return usage();
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => {
                    eprintln!("--trace requires an output file path");
                    return usage();
                }
            },
            "--log" => match it.next() {
                Some(p) => log_dest = Some(p.clone()),
                None => {
                    eprintln!("--log requires an output file path (or - for stderr)");
                    return usage();
                }
            },
            "--gc" => match it.next().map(String::as_str) {
                Some("off") => opts.gc = GcMode::Off,
                Some("auto") => opts.gc = GcMode::Auto,
                Some("aggressive") => opts.gc = GcMode::Aggressive,
                _ => {
                    eprintln!("--gc requires one of: off, auto, aggressive");
                    return usage();
                }
            },
            "--jobs" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => opts.jobs = n,
                _ => {
                    eprintln!("--jobs requires a numeric worker count");
                    return usage();
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
            path => paths.push(path.to_string()),
        }
    }
    let [p1, p2] = paths.as_slice() else {
        return usage();
    };
    // Tracing covers the whole pipeline — parse, lower, and compare — so
    // enable it before the first file loads. The report itself is rendered
    // identically either way; the sinks go to stderr / a side file.
    let tracing = show_metrics || trace_path.is_some();
    if tracing {
        campion::trace::enable();
    }
    if let Some(dest) = &log_dest {
        use campion::trace::log;
        if dest == "-" {
            log::init_stderr(log::Level::Info);
        } else if let Err(e) = log::init_file(log::Level::Info, std::path::Path::new(dest)) {
            eprintln!("error: {dest}: {e}");
            return ExitCode::from(2);
        }
        log::info(
            "compare.start",
            &[
                ("config1", log::Value::Str(p1)),
                ("config2", log::Value::Str(p2)),
            ],
        );
    }
    let (r1, r2) = match (load_file(p1), load_file(p2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = std::time::Instant::now();
    let report = compare_routers(&r1, &r2, &opts);
    if log_dest.is_some() {
        use campion::trace::log;
        log::info(
            "compare.done",
            &[
                (
                    "differences",
                    log::Value::U64(report.total_differences() as u64),
                ),
                ("equivalent", log::Value::Bool(report.is_equivalent())),
                ("dur_us", log::Value::U64(t0.elapsed().as_micros() as u64)),
                ("bdd_nodes", log::Value::U64(report.bdd_stats.nodes)),
            ],
        );
        log::shutdown();
    }
    let verdict = if report.is_equivalent() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    let code = emit(verdict, |out| {
        if json_format {
            // The same serializer the fleet daemon's store and API use, so
            // a cached fleet report and a fresh CLI run emit identical
            // documents.
            write!(out, "{}", campion::core::report_json(&report))?;
        } else {
            writeln!(out, "{report}")?;
        }
        if show_stats {
            writeln!(out, "{}", report.render_stats())?;
        }
        if stats_json {
            write!(out, "{}", campion::core::stats_json(&report.bdd_stats))?;
        }
        Ok(())
    });
    if tracing {
        campion::trace::disable();
        let trace = campion::trace::drain();
        if let Some(p) = &trace_path {
            if let Err(e) = std::fs::write(p, trace.chrome_json()) {
                eprintln!("error: {p}: {e}");
                return ExitCode::from(2);
            }
        }
        if show_metrics {
            eprint!("{}", trace.render_table());
        }
    }
    code
}

fn cmd_translate(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    match load_file(path).and_then(|r| to_junos(&r).map_err(|e| e.to_string())) {
        Ok(text) => emit(ExitCode::SUCCESS, |out| out.write_all(text.as_bytes())),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_baseline(args: &[String]) -> ExitCode {
    let [p1, p2] = args else { return usage() };
    let (r1, r2) = match (load_file(p1), load_file(p2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut found = Vec::new();
    // Compare same-named policies the way the §2 experiment does.
    for (name, pol1) in &r1.policies {
        if let Some(pol2) = r2.policies.get(name) {
            if let Some(cex) = campion::minesweeper::check_route_maps(pol1, pol2) {
                found.push(format!("policy {name}:\n{cex}\n"));
            }
        }
    }
    if let Some(cex) = campion::minesweeper::check_static_routes(&r1, &r2) {
        found.push(format!("static routes:\n{cex}\n"));
    }
    for (name, a1) in &r1.acls {
        if let Some(a2) = r2.acls.get(name) {
            if let Some(cex) = campion::minesweeper::check_acls(a1, a2) {
                found.push(format!("ACL {name}:\n{cex}\n"));
            }
        }
    }
    if found.is_empty() {
        emit(ExitCode::SUCCESS, |out| {
            writeln!(out, "no differences found")
        })
    } else {
        emit(ExitCode::FAILURE, |out| {
            found.iter().try_for_each(|cex| writeln!(out, "{cex}"))
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "compare" => cmd_compare(rest),
            "translate" => cmd_translate(rest),
            "baseline" => cmd_baseline(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
