//! `acl-10k` and `rmap-10k`: a closed loop with one client, running one
//! `campion compare <cisco> <juniper>` process at a time over the
//! workload's pair set, the way a change-management pipeline calls it.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::inputs::{CliInputs, Pair};
use crate::oracle::{self, Tally};
use crate::proc::{self, Finished};
use crate::stats::{self, secs};
use crate::{Metric, Outcome};

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;

/// A pair written to disk.
struct Files {
    pair: Pair,
    cisco: PathBuf,
    juniper: PathBuf,
}

fn write_pair(dir: &Path, pair: &Pair) -> Result<Files, String> {
    let cisco = dir.join(format!("{}-cisco.cfg", pair.name));
    let juniper = dir.join(format!("{}-juniper.cfg", pair.name));
    for (path, text) in [(&cisco, &pair.cisco), (&juniper, &pair.juniper)] {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Files {
        pair: pair.clone(),
        cisco,
        juniper,
    })
}

fn compare(campion: &Path, f: &Files, json: bool) -> Result<Finished, String> {
    let mut cmd = Command::new(campion);
    cmd.arg("compare").arg(&f.cisco).arg(&f.juniper);
    if json {
        cmd.args(["--format", "json"]);
    }
    proc::run(&mut cmd)
}

/// Run the workload for `seconds` after set-up and return its metrics.
pub fn run(
    bin_dir: &Path,
    work: &Path,
    inputs: &CliInputs,
    seconds: u64,
) -> Result<Outcome, String> {
    let campion = bin_dir.join("campion");
    let mut tally = Tally::default();
    let mut lines = inputs.notes.clone();
    let control = write_pair(work, &inputs.control)?;
    let pairs: Vec<Files> = inputs
        .pairs
        .iter()
        .map(|p| write_pair(work, p))
        .collect::<Result<_, _>>()?;
    let mut rss_kb = 0u64;

    // Set-up, timed as `setup_s` (median of the rounds): the control
    // check (must compare equivalent) and the warm-up compare of the first
    // pair, whose report must repeat from round to round.
    let mut reference: Vec<u64> = Vec::new();
    let mut setup = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let f = compare(&campion, &control, false)?;
        rss_kb = rss_kb.max(f.maxrss_kb);
        tally.check(oracle::cli_verdict(&f, true), "set-up control pair");
        let f = compare(&campion, &pairs[0], false)?;
        rss_kb = rss_kb.max(f.maxrss_kb);
        let what = format!("set-up round {round} warm-up compare");
        tally.check(oracle::cli_verdict(&f, false), &what);
        match reference.first() {
            None => reference.push(oracle::digest(&f.stdout)),
            Some(&r) => tally.check(oracle::same_report(&f, r), &what),
        }
        setup.push(secs(t0.elapsed()));
    }
    // The remaining pairs' set-up reports, which timed runs must repeat.
    for p in &pairs[1..] {
        let f = compare(&campion, p, false)?;
        rss_kb = rss_kb.max(f.maxrss_kb);
        tally.check(
            oracle::cli_verdict(&f, false),
            &format!("set-up report of pair {}", p.pair.name),
        );
        reference.push(oracle::digest(&f.stdout));
    }

    // Route-map witnesses, checked against the structured report.
    for p in pairs.iter().filter(|p| !p.pair.divergences.is_empty()) {
        let f = compare(&campion, p, true)?;
        let report = crate::json::parse(&String::from_utf8_lossy(&f.stdout));
        for d in &p.pair.divergences {
            let what = format!("witness of `{}` in pair {}", d.edit, p.pair.name);
            let r = match &report {
                Ok(doc) => oracle::witness_reported(doc, &d.witness),
                Err(e) => Err(format!("unreadable JSON report: {e}")),
            };
            tally.check(r, &what);
        }
    }

    // Timed closed loop.
    let mut walls = Vec::new();
    let mut per_pair: Vec<(Vec<f64>, u64)> = vec![(Vec::new(), 0); pairs.len()];
    let mut cpu = Duration::ZERO;
    let mut wall_sum = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut k = 0usize;
    while Instant::now() < deadline {
        let i = k % pairs.len();
        let f = compare(&campion, &pairs[i], false)?;
        let what = format!("timed compare {k} (pair {})", pairs[i].pair.name);
        tally.check(
            oracle::cli_verdict(&f, false).and_then(|()| oracle::same_report(&f, reference[i])),
            &what,
        );
        rss_kb = rss_kb.max(f.maxrss_kb);
        walls.push(secs(f.wall));
        per_pair[i].0.push(secs(f.wall));
        per_pair[i].1 = per_pair[i].1.max(f.maxrss_kb);
        cpu += f.cpu;
        wall_sum += f.wall;
        k += 1;
    }

    let p50 = stats::median(&walls);
    let tail = stats::tail(&walls);
    let setup_s = stats::median(&setup);
    let peak = rss_kb as f64 / 1024.0;
    for (p, (w, rss)) in pairs.iter().zip(&per_pair) {
        lines.push(format!(
            "pair {}: compare p50 {:.6} s over {} runs, peak RSS {:.1} MB",
            p.pair.name,
            stats::median(w),
            w.len(),
            *rss as f64 / 1024.0
        ));
    }
    lines.push(format!("compare_p50_s = {p50} s (n={})", walls.len()));
    lines.push(format!(
        "compare_tail_s = {} s (p{}, n={}, {} beyond)",
        tail.value, tail.pct, tail.n, tail.beyond
    ));
    let witnessed = pairs
        .iter()
        .filter(|p| !p.pair.divergences.is_empty())
        .count();
    let procs = 2 * SETUP_ROUNDS + pairs.len() - 1 + witnessed + walls.len();
    lines.push(format!(
        "peak_rss_mb = {peak} MB (max over the run's {procs} compare processes)"
    ));
    lines.push(format!(
        "setup_s = {setup_s} s (median of {SETUP_ROUNDS} rounds: {setup:?})"
    ));
    lines.push(format!(
        "compare cpu/wall = {:.3} over the timed compares",
        secs(cpu) / secs(wall_sum).max(1e-9)
    ));
    Ok(Outcome {
        metrics: vec![
            Metric::new("verdict_p50_s", p50, "s"),
            Metric::new("verdict_tail_s", tail.value, "s"),
            Metric::new("peak_rss_mb", peak, "MB"),
            Metric::new("setup_s", setup_s, "s"),
        ],
        tally,
        lines,
    })
}
