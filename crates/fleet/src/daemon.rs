//! The fleet daemon core: snapshot ingest with incremental recompute.
//!
//! Ingest is a pure function of the previous snapshot's hash records and
//! the new snapshot's texts:
//!
//! 1. **Text fast path** — a router whose raw-text hash is unchanged
//!    keeps its component hashes verbatim and is not re-parsed.
//! 2. **Pair keying** — each pair's key combines both routers' component
//!    digests; an unchanged key means the compare would read byte-for-byte
//!    identical inputs, so the stored result is served with provenance
//!    (`computed @ snapshot k`) instead of recomputed.
//! 3. **Recompute fan-out** — pairs whose key moved are compared on the
//!    work-stealing pool ([`campion_core::steal_indexed`]), one pair per
//!    task, reusing the one-shot `compare_routers` driver so a served
//!    report is byte-identical to a fresh `campion compare`.
//!
//! The daemon owns a [`FleetStore`]; every ingest persists one snapshot
//! document before the summary is returned, so a crash never loses an
//! acknowledged snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Instant, SystemTime};

use campion_core::{compare_routers, report_json, CampionOptions};
use campion_ir::hash::{fnv1a64, fnv1a64_combine, hash_router, text_hash, ComponentHashes};
use campion_ir::RouterIr;
use campion_trace::hist::Histogram;
use campion_trace::json::escape;
use campion_trace::log::{self, Value};
use campion_trace::prom::Exposition;
use campion_trace::Trace;

use crate::flight::FlightRecorder;
use crate::snapshot::SnapshotInput;
use crate::store::{
    FleetStore, PairRecord, PairResources, PairStatus, RouterRecord, SnapshotRecord,
};

/// Monotonic daemon-lifetime counters, exposed by `GET /api/v1/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Snapshots ingested.
    pub snapshots: u64,
    /// Pairs scheduled across all ingests.
    pub pairs_total: u64,
    /// Pairs actually run through the compare pipeline.
    pub pairs_computed: u64,
    /// Pairs served from the store (unchanged pair key).
    pub pairs_cached: u64,
    /// Routers parsed and lowered.
    pub routers_parsed: u64,
    /// Router parses skipped via the raw-text fast path.
    pub router_parses_skipped: u64,
}

/// What one ingest did, returned to the API caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestSummary {
    /// Sequence number assigned to the snapshot.
    pub seq: u64,
    /// Snapshot label.
    pub name: String,
    /// Pairs in the manifest.
    pub pairs_total: usize,
    /// Pairs recomputed this ingest.
    pub pairs_computed: usize,
    /// Pairs served from the store.
    pub pairs_cached: usize,
    /// Routers re-parsed (text changed, or needed for a recompute).
    pub routers_parsed: usize,
    /// Router parses skipped via the text fast path.
    pub router_parses_skipped: usize,
    /// Wall nanoseconds for the whole ingest.
    pub elapsed_ns: u64,
}

impl IngestSummary {
    /// JSON body of a successful `POST /api/v1/snapshot`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"name\": \"{}\", \"pairs_total\": {}, \"pairs_computed\": {}, \
             \"pairs_cached\": {}, \"routers_parsed\": {}, \"router_parses_skipped\": {}, \
             \"elapsed_ns\": {}}}\n",
            self.seq,
            escape(&self.name),
            self.pairs_total,
            self.pairs_computed,
            self.pairs_cached,
            self.routers_parsed,
            self.router_parses_skipped,
            self.elapsed_ns,
        )
    }
}

/// Aggregated per-phase timing, merged across every drained trace. The
/// histogram feeds the Prometheus exposition and the p50/p90/p99 columns
/// of `metrics_json`.
#[derive(Debug, Clone, Default)]
struct PhaseTotal {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    hist: Histogram,
}

/// The daemon: a store, the latest snapshot's records, counters, latency
/// histograms, and the flight recorder.
#[derive(Debug)]
pub struct Daemon {
    store: FleetStore,
    latest: Option<SnapshotRecord>,
    counters: Counters,
    opts: CampionOptions,
    phase_totals: BTreeMap<&'static str, PhaseTotal>,
    ingest_hist: Histogram,
    compute_hist: Histogram,
    http_hist: Histogram,
    http_codes: BTreeMap<u16, u64>,
    flight: FlightRecorder,
}

impl Daemon {
    /// Open a daemon over a store directory, resuming from the newest
    /// stored snapshot if one exists.
    pub fn open(store_dir: &Path, opts: CampionOptions) -> Result<Self, String> {
        let store = FleetStore::open(store_dir)?;
        let latest = store.latest()?;
        Ok(Daemon {
            store,
            latest,
            counters: Counters::default(),
            opts,
            phase_totals: BTreeMap::new(),
            ingest_hist: Histogram::new(),
            compute_hist: Histogram::new(),
            http_hist: Histogram::new(),
            http_codes: BTreeMap::new(),
            flight: FlightRecorder::new(store_dir),
        })
    }

    /// Override the flight recorder's latency SLO (milliseconds).
    pub fn set_slo_ms(&mut self, ms: u64) {
        self.flight.set_slo_ms(ms);
    }

    /// Record one served HTTP request for the exposition (status code
    /// counter plus the request-latency histogram).
    pub fn record_http(&mut self, status: u16, dur_ns: u64) {
        *self.http_codes.entry(status).or_insert(0) += 1;
        self.http_hist.record(dur_ns);
    }

    /// The stored flight artifact for one sequence number, if any.
    pub fn flight_dump(&self, seq: u64) -> Option<String> {
        self.flight.read(seq)
    }

    /// JSON body of `GET /api/v1/flight`: the dumps available on disk.
    pub fn flight_json(&self) -> String {
        let seqs: Vec<String> = self.flight.list().iter().map(u64::to_string).collect();
        format!(
            "{{\"slo_ms\": {}, \"dumps\": {}, \"available\": [{}]}}\n",
            self.flight.slo_ns() / 1_000_000,
            self.flight.dumps(),
            seqs.join(", "),
        )
    }

    /// The latest ingested snapshot, if any.
    pub fn latest(&self) -> Option<&SnapshotRecord> {
        self.latest.as_ref()
    }

    /// Daemon-lifetime counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Ingest one snapshot: hash, decide, recompute the changed pairs,
    /// persist, and return the summary. Either way the ingest's trace is
    /// drained into the daemon's aggregates, then offered to the flight
    /// recorder: an SLO-busting pair or an ingest error dumps it.
    pub fn ingest(&mut self, input: &SnapshotInput) -> Result<IngestSummary, String> {
        let result = self.ingest_inner(input);
        let trace = self.absorb_trace();
        match &result {
            Ok(summary) => {
                self.ingest_hist.record(summary.elapsed_ns);
                let slo = self.flight.slo_ns();
                let slow: Vec<(String, u64)> = self
                    .latest
                    .as_ref()
                    .map(|s| {
                        s.pairs
                            .iter()
                            .filter(|p| p.status == PairStatus::Computed && p.compute_ns >= slo)
                            .map(|p| (format!("{} vs {}", p.router1, p.router2), p.compute_ns))
                            .collect()
                    })
                    .unwrap_or_default();
                if let Some(path) = self.flight.maybe_dump(summary.seq, &trace, &slow, None) {
                    log::warn(
                        "fleet.flight.dump",
                        &[
                            ("seq", Value::U64(summary.seq)),
                            ("slow_pairs", Value::U64(slow.len() as u64)),
                            ("path", Value::Str(&path.display().to_string())),
                        ],
                    );
                }
                log::info(
                    "fleet.ingest",
                    &[
                        ("seq", Value::U64(summary.seq)),
                        ("pairs_total", Value::U64(summary.pairs_total as u64)),
                        ("pairs_computed", Value::U64(summary.pairs_computed as u64)),
                        ("pairs_cached", Value::U64(summary.pairs_cached as u64)),
                        ("elapsed_us", Value::U64(summary.elapsed_ns / 1_000)),
                    ],
                );
            }
            Err(e) => {
                // Key the error dump by the sequence number the snapshot
                // would have received.
                let seq = self.latest.as_ref().map_or(1, |s| s.seq + 1);
                let path = self.flight.maybe_dump(seq, &trace, &[], Some(e));
                log::error(
                    "fleet.ingest.error",
                    &[
                        ("seq", Value::U64(seq)),
                        ("error", Value::Str(e)),
                        ("flight", Value::Bool(path.is_some())),
                    ],
                );
            }
        }
        result
    }

    fn ingest_inner(&mut self, input: &SnapshotInput) -> Result<IngestSummary, String> {
        let t0 = Instant::now();
        let _ingest_span = campion_trace::span("fleet.ingest");
        input.validate()?;
        let seq = self.latest.as_ref().map_or(1, |s| s.seq + 1);

        // Phase 1: per-router text fast path. Routers whose raw text is
        // unchanged reuse their component hashes without parsing; the rest
        // parse now. `irs` holds lowered models for later compares.
        let mut irs: BTreeMap<String, RouterIr> = BTreeMap::new();
        let mut routers: BTreeMap<String, RouterRecord> = BTreeMap::new();
        let mut parses_skipped = 0usize;
        for (name, text) in &input.configs {
            let th = text_hash(text);
            let prev = self
                .latest
                .as_ref()
                .and_then(|s| s.routers.get(name))
                .filter(|r| r.text_hash == th);
            let components = match prev {
                Some(prev) => {
                    parses_skipped += 1;
                    prev.components.clone()
                }
                None => {
                    let ir = parse_one(name, text)?;
                    let c = hash_router(&ir);
                    irs.insert(name.clone(), ir);
                    c
                }
            };
            routers.insert(
                name.clone(),
                RouterRecord {
                    text_hash: th,
                    components,
                },
            );
        }

        // Phase 2: pair keying. Unchanged keys are served from the store.
        let mut pairs: Vec<PairRecord> = Vec::with_capacity(input.pairs.len());
        let mut compute: Vec<usize> = Vec::new();
        for (a, b) in &input.pairs {
            let key = pair_key(&routers[a].components, &routers[b].components);
            let prev = self.latest.as_ref().and_then(|s| s.find_pair(a, b));
            match prev.filter(|p| p.pair_key == key) {
                Some(p) => {
                    pairs.push(PairRecord {
                        status: PairStatus::Cached,
                        changed: Vec::new(),
                        compute_ns: 0,
                        ..p.clone()
                    });
                }
                None => {
                    let changed = match prev {
                        Some(_) => changed_components(&routers, self.latest.as_ref(), a, b),
                        None => Vec::new(),
                    };
                    compute.push(pairs.len());
                    pairs.push(PairRecord {
                        router1: a.clone(),
                        router2: b.clone(),
                        pair_key: key,
                        status: PairStatus::Computed,
                        computed_at: seq,
                        changed,
                        equivalent: false,
                        differences: 0,
                        compute_ns: 0,
                        resources: PairResources::default(),
                        report_text: String::new(),
                        report_json: String::new(),
                    });
                }
            }
        }

        // Phase 3: parse-on-demand. A text-unchanged router still needs
        // its lowered model if its partner changed and the pair recomputes.
        for &i in &compute {
            for name in [&pairs[i].router1, &pairs[i].router2] {
                if !irs.contains_key(name.as_str()) {
                    irs.insert(
                        name.clone(),
                        parse_one(name, &input.configs[name.as_str()])?,
                    );
                }
            }
        }
        let routers_parsed = irs.len();

        // Phase 4: fan the recomputes over the work-stealing pool. Each
        // pair runs the one-shot driver single-threaded; parallelism comes
        // from pair-level stealing, so reports stay byte-identical.
        let per_pair_opts = if compute.len() > 1 {
            CampionOptions {
                jobs: 1,
                ..self.opts.clone()
            }
        } else {
            self.opts.clone()
        };
        let workers = self.opts.effective_jobs().min(compute.len()).max(1);
        let results = campion_core::steal_indexed(
            workers,
            compute.len(),
            |_| {},
            |k| {
                let _span = campion_trace::span("fleet.compare");
                let p = &pairs[compute[k]];
                let t = Instant::now();
                let report = compare_routers(&irs[&p.router1], &irs[&p.router2], &per_pair_opts);
                (report, t.elapsed().as_nanos() as u64)
            },
        );
        for (k, (report, ns)) in results.into_iter().enumerate() {
            let p = &mut pairs[compute[k]];
            let s = &report.bdd_stats;
            p.equivalent = report.is_equivalent();
            p.differences = report.total_differences() as u64;
            p.compute_ns = ns;
            p.resources = PairResources {
                wall_ns: ns,
                bdd_nodes: s.nodes,
                peak_nodes: s.peak_nodes,
                post_gc_nodes: s.post_gc_nodes,
                gc_runs: s.gc_runs,
                gc_pauses: s.gc_runs,
                gc_pause_us: s.gc_pause_us,
                gc_pause_max_us: s.gc_pause_max_us,
                unique_lookups: s.unique_lookups,
                unique_hits: s.unique_hits,
                apply_lookups: s.apply_lookups,
                apply_hits: s.apply_hits,
                rule_cache_lookups: s.rule_cache_lookups,
                rule_cache_hits: s.rule_cache_hits,
            };
            self.compute_hist.record(ns);
            log::debug(
                "fleet.pair.computed",
                &[
                    ("router1", Value::Str(&p.router1)),
                    ("router2", Value::Str(&p.router2)),
                    ("differences", Value::U64(p.differences)),
                    ("wall_us", Value::U64(ns / 1_000)),
                    ("peak_nodes", Value::U64(s.peak_nodes)),
                ],
            );
            // The CLI prints the report with a trailing newline (println);
            // store exactly those bytes so `/text` is byte-identical.
            p.report_text = format!("{report}\n");
            p.report_json = report_json(&report);
        }

        // Phase 5: persist, then publish.
        let snap = SnapshotRecord {
            seq,
            name: input.name.clone(),
            ingested_unix: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            routers,
            pairs,
        };
        self.store.save(&snap)?;
        let summary = IngestSummary {
            seq,
            name: snap.name.clone(),
            pairs_total: snap.pairs.len(),
            pairs_computed: compute.len(),
            pairs_cached: snap.pairs.len() - compute.len(),
            routers_parsed,
            router_parses_skipped: parses_skipped,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
        };
        self.counters.snapshots += 1;
        self.counters.pairs_total += summary.pairs_total as u64;
        self.counters.pairs_computed += summary.pairs_computed as u64;
        self.counters.pairs_cached += summary.pairs_cached as u64;
        self.counters.routers_parsed += summary.routers_parsed as u64;
        self.counters.router_parses_skipped += summary.router_parses_skipped as u64;
        self.latest = Some(snap);
        Ok(summary)
    }

    /// Fold any drained trace into the daemon's per-phase totals and hand
    /// it back for the flight recorder to keep or drop.
    fn absorb_trace(&mut self) -> Trace {
        if !campion_trace::is_enabled() {
            return Trace::default();
        }
        campion_trace::flush();
        let trace = campion_trace::drain();
        for stat in trace.phase_stats() {
            let t = self.phase_totals.entry(stat.name).or_default();
            t.count += stat.count;
            t.total_ns += stat.total_ns;
            t.max_ns = t.max_ns.max(stat.max_ns);
            t.hist.merge(&stat.hist);
        }
        trace
    }

    /// JSON body of `GET /api/v1/status`.
    pub fn status_json(&self) -> String {
        let (seq, name, routers, pairs) = match &self.latest {
            Some(s) => (
                s.seq.to_string(),
                format!("\"{}\"", escape(&s.name)),
                s.routers.len(),
                s.pairs.len(),
            ),
            None => ("null".to_string(), "null".to_string(), 0, 0),
        };
        format!(
            "{{\"latest_seq\": {seq}, \"latest_name\": {name}, \"routers\": {routers}, \
             \"pairs\": {pairs}, \"stored_snapshots\": {}}}\n",
            self.store.seqs().map(|s| s.len()).unwrap_or(0),
        )
    }

    /// JSON body of `GET /api/v1/pairs`: every pair's status, one line of
    /// provenance each, reports omitted.
    pub fn pairs_json(&self) -> String {
        let mut o = String::from("{\"pairs\": [");
        if let Some(s) = &self.latest {
            let rows: Vec<String> = s.pairs.iter().map(pair_summary_json).collect();
            o.push_str(&rows.join(", "));
        }
        o.push_str("]}\n");
        o
    }

    /// JSON body of `GET /api/v1/pair/{a}/{b}`: summary plus the full
    /// structured report, embedded verbatim.
    pub fn pair_json(&self, r1: &str, r2: &str) -> Option<String> {
        let p = self.latest.as_ref()?.find_pair(r1, r2)?;
        let mut o = pair_summary_json(p);
        o.truncate(o.len() - 1); // re-open the summary object
        let _ = writeln!(o, ", \"report\": {}}}", p.report_json.trim_end());
        Some(o)
    }

    /// The stored structured report (`GET /api/v1/pair/{a}/{b}/report`) —
    /// byte-identical to `campion compare --format json`.
    pub fn pair_report_json(&self, r1: &str, r2: &str) -> Option<&str> {
        Some(&self.latest.as_ref()?.find_pair(r1, r2)?.report_json)
    }

    /// The stored text report (`GET /api/v1/pair/{a}/{b}/text`) —
    /// byte-identical to `campion compare`.
    pub fn pair_report_text(&self, r1: &str, r2: &str) -> Option<&str> {
        Some(&self.latest.as_ref()?.find_pair(r1, r2)?.report_text)
    }

    /// JSON body of `GET /api/v1/metrics`: lifetime counters plus the
    /// aggregated campion-trace per-phase statistics.
    pub fn metrics_json(&self) -> String {
        let c = &self.counters;
        let mut o = format!(
            "{{\"counters\": {{\"snapshots\": {}, \"pairs_total\": {}, \"pairs_computed\": {}, \
             \"pairs_cached\": {}, \"routers_parsed\": {}, \"router_parses_skipped\": {}}}, \
             \"phases\": [",
            c.snapshots,
            c.pairs_total,
            c.pairs_computed,
            c.pairs_cached,
            c.routers_parsed,
            c.router_parses_skipped,
        );
        let rows: Vec<String> = self
            .phase_totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \
                     \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                    escape(name),
                    t.count,
                    t.total_ns,
                    t.hist.quantile(0.50),
                    t.hist.quantile(0.90),
                    t.hist.quantile(0.99),
                    t.max_ns,
                )
            })
            .collect();
        o.push_str(&rows.join(", "));
        o.push_str("]}\n");
        o
    }

    /// The Prometheus text exposition (format 0.0.4) served at
    /// `GET /metrics`: lifetime counters, latest-snapshot gauges, and the
    /// latency histograms (ingest, per-pair compute, HTTP, per phase), all
    /// in seconds. The output passes [`campion_trace::prom`]'s linter —
    /// CI scrapes it and runs `promcheck`.
    pub fn prometheus(&self) -> String {
        let mut e = Exposition::new();
        let c = &self.counters;
        e.counter(
            "campion_fleet_snapshots_total",
            "Snapshots ingested over the daemon's lifetime.",
            c.snapshots,
        );
        e.counter(
            "campion_fleet_pairs_total",
            "Pairs scheduled across all ingests.",
            c.pairs_total,
        );
        e.counter(
            "campion_fleet_pairs_computed_total",
            "Pairs run through the compare pipeline.",
            c.pairs_computed,
        );
        e.counter(
            "campion_fleet_pairs_cached_total",
            "Pairs served from the store (unchanged pair key).",
            c.pairs_cached,
        );
        e.counter(
            "campion_fleet_routers_parsed_total",
            "Routers parsed and lowered.",
            c.routers_parsed,
        );
        e.counter(
            "campion_fleet_router_parses_skipped_total",
            "Router parses skipped via the raw-text fast path.",
            c.router_parses_skipped,
        );
        e.counter(
            "campion_fleet_flight_dumps_total",
            "Flight-recorder artifacts written (SLO breaches and errors).",
            self.flight.dumps(),
        );
        if !self.http_codes.is_empty() {
            let codes: Vec<String> = self.http_codes.keys().map(u16::to_string).collect();
            let labels: Vec<[(&str, &str); 1]> =
                codes.iter().map(|c| [("code", c.as_str())]).collect();
            let series: Vec<(&[(&str, &str)], u64)> = labels
                .iter()
                .zip(self.http_codes.values())
                .map(|(l, n)| (l.as_slice(), *n))
                .collect();
            e.counter_vec(
                "campion_fleet_http_requests_total",
                "HTTP requests served, by status code.",
                &series,
            );
        }
        let (seq, routers, pairs) = match &self.latest {
            Some(s) => (s.seq, s.routers.len(), s.pairs.len()),
            None => (0, 0, 0),
        };
        e.gauge(
            "campion_fleet_latest_snapshot_seq",
            "Sequence number of the newest ingested snapshot (0 when none).",
            seq as f64,
        );
        e.gauge(
            "campion_fleet_routers",
            "Routers in the latest snapshot.",
            routers as f64,
        );
        e.gauge(
            "campion_fleet_pairs",
            "Pairs in the latest snapshot.",
            pairs as f64,
        );
        e.gauge(
            "campion_fleet_peak_bdd_nodes",
            "Largest per-pair peak BDD node count in the latest snapshot.",
            self.latest
                .as_ref()
                .and_then(|s| s.pairs.iter().map(|p| p.resources.peak_nodes).max())
                .unwrap_or(0) as f64,
        );
        e.histogram(
            "campion_fleet_ingest_duration_seconds",
            "Wall time of whole snapshot ingests.",
            &self.ingest_hist,
            1e-9,
        );
        e.histogram(
            "campion_fleet_pair_compute_duration_seconds",
            "Wall time of individual pair compares.",
            &self.compute_hist,
            1e-9,
        );
        e.histogram(
            "campion_fleet_http_request_duration_seconds",
            "Wall time of served HTTP requests.",
            &self.http_hist,
            1e-9,
        );
        if !self.phase_totals.is_empty() {
            let series: Vec<(Vec<(&str, &str)>, &Histogram)> = self
                .phase_totals
                .iter()
                .map(|(name, t)| (vec![("phase", *name)], &t.hist))
                .collect();
            let series: Vec<(&[(&str, &str)], &Histogram)> = series
                .iter()
                .map(|(labels, h)| (labels.as_slice(), *h))
                .collect();
            e.histogram_vec(
                "campion_fleet_phase_duration_seconds",
                "Span durations per campion-trace phase.",
                &series,
                1e-9,
            );
        }
        e.finish()
    }
}

/// Parse and lower one router's configuration text.
fn parse_one(name: &str, text: &str) -> Result<RouterIr, String> {
    let _span = campion_trace::span("fleet.parse");
    let cfg = campion_cfg::parse_config(text).map_err(|e| format!("router {name:?}: {e}"))?;
    campion_ir::lower(&cfg).map_err(|e| format!("router {name:?}: {e}"))
}

/// The order-sensitive content key of one pair.
pub fn pair_key(c1: &ComponentHashes, c2: &ComponentHashes) -> u64 {
    fnv1a64_combine(
        fnv1a64_combine(fnv1a64(b"pair.v1"), c1.digest()),
        c2.digest(),
    )
}

/// The `"router: component"` provenance lines for a recomputed pair.
fn changed_components(
    routers: &BTreeMap<String, RouterRecord>,
    prev: Option<&SnapshotRecord>,
    r1: &str,
    r2: &str,
) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(prev) = prev {
        for name in [r1, r2] {
            if let (Some(now), Some(old)) = (routers.get(name), prev.routers.get(name)) {
                out.extend(
                    now.components
                        .changed_components(&old.components)
                        .into_iter()
                        .map(|c| format!("{name}: {c}")),
                );
            } else if !prev.routers.contains_key(name) {
                out.push(format!("{name}: new router"));
            }
        }
    }
    out
}

/// One pair as a JSON object, without the (large) report bodies.
fn pair_summary_json(p: &PairRecord) -> String {
    let changed: Vec<String> = p
        .changed
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect();
    format!(
        "{{\"router1\": \"{}\", \"router2\": \"{}\", \"status\": \"{}\", \
         \"computed_at\": {}, \"changed\": [{}], \"equivalent\": {}, \
         \"differences\": {}, \"compute_ns\": {}, \"resources\": {}}}",
        escape(&p.router1),
        escape(&p.router2),
        match p.status {
            PairStatus::Computed => "computed",
            PairStatus::Cached => "cached",
        },
        p.computed_at,
        changed.join(", "),
        p.equivalent,
        p.differences,
        p.compute_ns,
        p.resources.encode(),
    )
}
