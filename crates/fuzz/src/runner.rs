//! The batch runner: deterministic parallel fan-out over case indices,
//! failure shrinking, and corpus writing.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::case::{build_case, FuzzCase, FuzzOptions};
use crate::corpus;
use crate::oracle::{run_case, Coverage, Failure};
use crate::shrink::shrink;

/// One failed case, after minimization.
#[derive(Debug)]
pub struct CaseFailure {
    /// Case index within the run.
    pub case: u64,
    /// The first oracle failure observed.
    pub failure: Failure,
    /// The minimized case.
    pub minimized: FuzzCase,
    /// Where the reproducer was written, when it was.
    pub reproducer: Option<PathBuf>,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Cases executed.
    pub cases: u64,
    /// Divergence-free cases (false-positive checks).
    pub clean: u64,
    /// Injected divergences per class name.
    pub injected: BTreeMap<&'static str, u64>,
    /// Total reported differences across all cases.
    pub differences: u64,
    /// Aggregate config-line coverage of the reported differences.
    pub coverage: Coverage,
    /// Failed cases (empty = all oracles green).
    pub failures: Vec<CaseFailure>,
}

impl RunSummary {
    /// Render the human-readable run summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campion-fuzz: {} cases ({} divergence-free, {} injected)\n",
            self.cases,
            self.clean,
            self.cases - self.clean
        ));
        for (class, n) in &self.injected {
            out.push_str(&format!("  {class:<12} {n}\n"));
        }
        out.push_str(&format!("differences reported: {}\n", self.differences));
        let pct = |hit: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * hit as f64 / total as f64
            }
        };
        out.push_str(&format!(
            "config-line coverage: cisco {}/{} ({:.1}%), juniper {}/{} ({:.1}%)\n",
            self.coverage.hit1,
            self.coverage.total1,
            pct(self.coverage.hit1, self.coverage.total1),
            self.coverage.hit2,
            self.coverage.total2,
            pct(self.coverage.hit2, self.coverage.total2),
        ));
        if self.failures.is_empty() {
            out.push_str("all oracles passed\n");
        } else {
            out.push_str(&format!("ORACLE FAILURES: {}\n", self.failures.len()));
            for f in &self.failures {
                out.push_str(&format!(
                    "  case {} [{}]: {}\n",
                    f.case,
                    f.failure.oracle.name(),
                    f.failure.detail
                ));
                if let Some(p) = &f.reproducer {
                    out.push_str(&format!("    reproducer: {}\n", p.display()));
                }
            }
        }
        out
    }
}

/// Execute a fuzz run: build and check every case across the driver's
/// work-stealing pool, then shrink and persist the first failures.
/// Deterministic from `opts.seed` — per-case RNG streams are derived from
/// `(seed, index)`, so neither worker count nor claim order changes any
/// case.
pub fn run(opts: &FuzzOptions) -> RunSummary {
    let _span = campion_trace::span("fuzz.run");
    let n = opts.cases as usize;
    let jobs = if opts.jobs != 0 {
        opts.jobs
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
    .min(n.max(1));

    struct PerCase {
        case: FuzzCase,
        outcome: crate::oracle::CaseOutcome,
    }
    let results: Vec<PerCase> = if jobs <= 1 {
        (0..n)
            .map(|i| {
                let case = build_case(opts.seed, i as u64, opts);
                let outcome = run_case(&case);
                PerCase { case, outcome }
            })
            .collect()
    } else {
        campion_core::steal_indexed(
            jobs,
            n,
            |w| campion_trace::set_track(w as u32 + 1),
            |i| {
                let case = build_case(opts.seed, i as u64, opts);
                let outcome = run_case(&case);
                PerCase { case, outcome }
            },
        )
    };

    let mut summary = RunSummary {
        cases: opts.cases,
        ..RunSummary::default()
    };
    let mut failing: Vec<(FuzzCase, Failure)> = Vec::new();
    for r in &results {
        if r.case.divs.is_empty() {
            summary.clean += 1;
        }
        for d in &r.case.divs {
            *summary.injected.entry(d.class().name()).or_default() += 1;
        }
        summary.differences += r.outcome.differences as u64;
        summary.coverage.merge(&r.outcome.coverage);
        if let Some(f) = r.outcome.failures.first() {
            failing.push((r.case.clone(), f.clone()));
        }
    }

    for (case, failure) in failing {
        let write = summary.failures.len() < opts.max_reproducers;
        let minimized = if write {
            shrink(&case, failure.oracle, 300)
        } else {
            case.clone()
        };
        let reproducer = if write {
            let name = format!(
                "repro-s{}-c{}-{}",
                case.seed,
                case.case,
                failure.oracle.name()
            );
            corpus::write_entry(
                &opts.corpus_dir,
                &name,
                &minimized,
                "default",
                &opts.classes,
                Some(failure.oracle),
                &failure.detail,
            )
            .ok()
        } else {
            None
        };
        summary.failures.push(CaseFailure {
            case: case.case,
            failure,
            minimized,
            reproducer,
        });
    }
    summary
}
