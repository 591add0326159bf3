//! # campion-trace — span/metrics collection for the Campion pipeline
//!
//! A zero-dependency observability layer in the spirit of the workspace's
//! vendored offline shims: no external crates, just the API surface the
//! pipeline needs to answer "which stage burned the time".
//!
//! * **RAII spans.** [`span()`] (or the [`span!`] macro) opens a named span on
//!   the calling thread and closes it when the guard drops. Spans nest via a
//!   thread-local stack, so begin/end events always pair LIFO per thread.
//! * **Typed counters.** [`SpanGuard::counter`] attaches `(name, i64)`
//!   deltas to the span's end event — the driver snapshots
//!   `ManagerStats` at span entry/exit and attaches the differences.
//! * **Per-thread buffers.** Recording is lock-free in the hot path: each
//!   thread appends to its own buffer; a mutex is touched only on thread
//!   exit (flush) and at [`drain`]. The parallel driver labels worker
//!   threads with [`set_track`], and [`drain`] merges buffers in ascending
//!   `(track, first timestamp)` order, so the merged event list is
//!   deterministic for a deterministic schedule.
//! * **Zero cost when disabled.** All entry points first check one relaxed
//!   atomic load ([`is_enabled`]); until [`enable`] is called nothing is
//!   allocated, timed, or buffered, and the instrumented pipeline's
//!   rendered reports are byte-identical with tracing on or off.
//!
//! Three sinks consume a drained [`Trace`]:
//!
//! * [`Trace::render_table`] — the human-readable `--metrics` table
//!   (per-phase count / total / p50 / p90 / p99 / max plus counter deltas
//!   and per-worker utilization);
//! * [`Trace::chrome_json`] — Chrome trace-event JSON (`--trace <file>`),
//!   loadable in `chrome://tracing` / Perfetto, one track per worker;
//! * [`Trace::phases_json`] — the machine-readable `phases` object the
//!   scalability bench appends to `BENCH_campion.json` for CI gating.
//!
//! Sibling modules round out the observability layer: [`hist`] is the
//! log2-bucketed latency histogram behind the p90/p99 columns, [`log`] is a
//! structured leveled JSON-lines logger (span-context enriched,
//! rate-limited), and [`prom`] renders and lints Prometheus text exposition
//! for the fleet daemon's `GET /metrics`.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod hist;
pub mod json;
pub mod log;
pub mod prom;

#[cfg(test)]
mod tests;

use hist::Histogram;

/// Begin/end marker of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span entry (`"B"` in Chrome trace-event terms).
    Begin,
    /// Span exit (`"E"`), carrying the span's counters.
    End,
}

/// One recorded begin or end event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Track (thread lane) the event was recorded on: `0` is the thread
    /// that called [`enable`], `1..ANON_TRACK_BASE` are driver workers
    /// ([`set_track`]), and unlabeled threads get ids from
    /// [`ANON_TRACK_BASE`] up.
    pub track: u32,
    /// Span name (a static string so recording never allocates for it).
    pub name: &'static str,
    /// Begin or end.
    pub phase: Phase,
    /// Nanoseconds since the trace epoch ([`enable`] time), monotonic.
    pub t_ns: u64,
    /// Counter deltas attached to the span (end events only).
    pub counters: Vec<(&'static str, i64)>,
}

/// First track id handed to threads that never called [`set_track`].
pub const ANON_TRACK_BASE: u32 = 1000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static FLUSHED: Mutex<Vec<LocalBuf>> = Mutex::new(Vec::new());
static ANON_TRACK: AtomicU32 = AtomicU32::new(ANON_TRACK_BASE);

/// A thread's flushed event buffer, tagged with its track id.
struct LocalBuf {
    track: u32,
    events: Vec<Event>,
}

/// Per-thread recording state: the open-span stack and the event buffer.
/// Flushed into [`FLUSHED`] on thread exit (scoped workers end before the
/// driver joins, so their buffers are visible to the post-join [`drain`]).
struct LocalState {
    track: Option<u32>,
    stack: Vec<&'static str>,
    buf: Vec<Event>,
}

impl LocalState {
    const fn new() -> LocalState {
        LocalState {
            track: None,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn resolve_track(&mut self) -> u32 {
        *self
            .track
            .get_or_insert_with(|| ANON_TRACK.fetch_add(1, Ordering::Relaxed))
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let track = self.resolve_track();
        let events = std::mem::take(&mut self.buf);
        FLUSHED
            .lock()
            .expect("trace flush registry poisoned")
            .push(LocalBuf { track, events });
    }
}

impl Drop for LocalState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalState> = const { RefCell::new(LocalState::new()) };
}

fn now_ns() -> u64 {
    // `enable` initializes the epoch before setting the flag, so any thread
    // observing `ENABLED` also observes the epoch.
    EPOCH
        .get()
        .map(|e| e.elapsed().as_nanos() as u64)
        .unwrap_or(0)
}

/// Turn the collector on. The first call fixes the trace epoch (timestamp
/// zero); the calling thread becomes track `0`. Idempotent.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.track.is_none() {
            l.track = Some(0);
        }
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the collector off. Already-buffered events stay until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Is the collector on? One relaxed atomic load — the entire cost of the
/// instrumentation when tracing is disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Label the calling thread's track (the driver calls this with the worker
/// index + 1 so every worker gets its own lane in the Chrome trace). No-op
/// when the collector is disabled.
pub fn set_track(track: u32) {
    if !is_enabled() {
        return;
    }
    LOCAL.with(|l| l.borrow_mut().track = Some(track));
}

/// The calling thread's track label, if [`set_track`] assigned one (the
/// structured logger ([`log`]) stamps it onto every record).
pub fn track() -> Option<u32> {
    LOCAL.with(|l| l.borrow().track)
}

/// Name of the innermost open span on the calling thread, or `None` when
/// the collector is disabled or no span is open. The structured logger
/// ([`log`]) stamps this onto every record so log lines tie back to the
/// phase that emitted them.
pub fn current_span() -> Option<&'static str> {
    if !is_enabled() {
        return None;
    }
    LOCAL.with(|l| l.borrow().stack.last().copied())
}

/// RAII span guard returned by [`span()`]: records the end event (with any
/// attached counters) when dropped. Inactive — a no-op shell — when the
/// collector was disabled at construction.
pub struct SpanGuard {
    name: &'static str,
    active: bool,
    counters: Vec<(&'static str, i64)>,
}

impl SpanGuard {
    /// Attach a named counter delta to this span's end event.
    pub fn counter(&mut self, name: &'static str, value: i64) {
        if self.active {
            self.counters.push((name, value));
        }
    }

    /// Whether this guard is actually recording (collector was enabled).
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let t = now_ns();
        let counters = std::mem::take(&mut self.counters);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let popped = l.stack.pop();
            debug_assert_eq!(popped, Some(self.name), "span stack out of order");
            l.buf.push(Event {
                track: 0, // rewritten at flush
                name: self.name,
                phase: Phase::End,
                t_ns: t,
                counters,
            });
        });
    }
}

/// Open a span named `name` on the calling thread; it closes when the
/// returned guard drops. Guards must drop in reverse creation order per
/// thread (RAII scoping guarantees this), keeping begin/end events LIFO.
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            name,
            active: false,
            counters: Vec::new(),
        };
    }
    let t = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.push(name);
        l.buf.push(Event {
            track: 0, // rewritten at flush
            name,
            phase: Phase::Begin,
            t_ns: t,
            counters: Vec::new(),
        });
    });
    SpanGuard {
        name,
        active: true,
        counters: Vec::new(),
    }
}

/// Open a span for the rest of the enclosing scope:
/// `span!("semdiff.diff");` is `let _guard = campion_trace::span(...)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _campion_trace_span = $crate::span($name);
    };
}

/// Flush the calling thread's buffered events into the global registry.
///
/// Worker threads must call this at the *end of their closure* when the
/// spawner will [`drain`] right after joining them: `std::thread::scope`
/// observes a thread as finished once its closure returns, but the
/// thread-local destructor that would flush the buffer runs later, during
/// actual thread exit — so relying on the RAII backstop alone races the
/// join and can drop a whole track from the trace.
pub fn flush() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Collect every flushed buffer (plus the calling thread's) into one
/// [`Trace`], clearing the registry. Buffers merge in ascending
/// `(track, first timestamp)` order; within a buffer, recording order is
/// preserved, so per-track timestamps are monotonic.
pub fn drain() -> Trace {
    LOCAL.with(|l| l.borrow_mut().flush());
    let mut bufs = std::mem::take(&mut *FLUSHED.lock().expect("trace flush registry poisoned"));
    bufs.sort_by_key(|b| (b.track, b.events.first().map_or(0, |e| e.t_ns)));
    let mut events = Vec::with_capacity(bufs.iter().map(|b| b.events.len()).sum());
    for b in bufs {
        let track = b.track;
        events.extend(b.events.into_iter().map(|mut e| {
            e.track = track;
            e
        }));
    }
    Trace { events }
}

/// One closed span reconstructed from a begin/end event pair.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Track the span ran on.
    pub track: u32,
    /// Span name.
    pub name: &'static str,
    /// Nesting depth on its track (0 = top level).
    pub depth: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Counter deltas attached at span exit.
    pub counters: Vec<(&'static str, i64)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate statistics for one span name across a whole trace.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Span name.
    pub name: &'static str,
    /// Number of closed spans.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Median (lower) duration, nanoseconds — exact, from sorted samples.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds — estimated from the log2 histogram.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds — estimated from the log2 histogram.
    pub p99_ns: u64,
    /// Maximum duration, nanoseconds.
    pub max_ns: u64,
    /// Log2-bucketed duration histogram (the daemon merges these across
    /// drains into long-lived per-phase aggregates).
    pub hist: Histogram,
    /// Counter deltas summed across the phase's spans, in first-seen order.
    pub counters: Vec<(&'static str, i64)>,
}

/// Per-worker utilization derived from `pool.worker` spans (one per worker
/// per [`crate::span()`]-instrumented steal pool run).
#[derive(Debug, Clone)]
pub struct WorkerStat {
    /// Track the worker ran on.
    pub track: u32,
    /// Human label for the track (matches the Chrome trace lane name).
    pub label: String,
    /// Number of `pool.worker` spans (pool runs) on this track.
    pub spans: u64,
    /// Summed `pool.worker` span durations: time the worker existed.
    pub wall_ns: u64,
    /// Work items the worker claimed from the shared cursor.
    pub claimed: u64,
    /// Time spent inside item closures (the rest is steal/park overhead).
    pub busy_ns: u64,
}

impl WorkerStat {
    /// `busy_ns / wall_ns` as a fraction (0 when the worker never ran).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// A drained, merged event list plus its analyses.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Merged events, grouped by track, record order within each track.
    pub events: Vec<Event>,
}

impl Trace {
    /// No events recorded?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Reconstruct closed spans by pairing begin/end events per track.
    /// Events of unterminated spans (begin without end at drain time) are
    /// dropped.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        let mut tracks: Vec<(u32, Vec<(&'static str, u64)>)> = Vec::new();
        for e in &self.events {
            let stack = match tracks.iter_mut().find(|(t, _)| *t == e.track) {
                Some((_, s)) => s,
                None => {
                    tracks.push((e.track, Vec::new()));
                    &mut tracks.last_mut().expect("just pushed").1
                }
            };
            match e.phase {
                Phase::Begin => stack.push((e.name, e.t_ns)),
                Phase::End => {
                    let Some((name, start_ns)) = stack.pop() else {
                        debug_assert!(false, "end event without begin");
                        continue;
                    };
                    debug_assert_eq!(name, e.name, "mispaired span events");
                    out.push(SpanRecord {
                        track: e.track,
                        name,
                        depth: stack.len() as u32,
                        start_ns,
                        end_ns: e.t_ns,
                        counters: e.counters.clone(),
                    });
                }
            }
        }
        out
    }

    /// Per-phase aggregates, ordered by total time (descending; name breaks
    /// ties) so the table reads hottest-first.
    pub fn phase_stats(&self) -> Vec<PhaseStat> {
        let spans = self.spans();
        let mut durs: Vec<(&'static str, Vec<u64>)> = Vec::new();
        let mut counters: Vec<(&'static str, Vec<(&'static str, i64)>)> = Vec::new();
        for s in &spans {
            match durs.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => v.push(s.dur_ns()),
                None => durs.push((s.name, vec![s.dur_ns()])),
            }
            let sums = match counters.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, c)) => c,
                None => {
                    counters.push((s.name, Vec::new()));
                    &mut counters.last_mut().expect("just pushed").1
                }
            };
            for &(cname, v) in &s.counters {
                match sums.iter_mut().find(|(n, _)| *n == cname) {
                    Some((_, acc)) => *acc += v,
                    None => sums.push((cname, v)),
                }
            }
        }
        let mut out: Vec<PhaseStat> = durs
            .into_iter()
            .map(|(name, mut ds)| {
                ds.sort_unstable();
                let mut hist = Histogram::new();
                for &d in &ds {
                    hist.record(d);
                }
                PhaseStat {
                    name,
                    count: ds.len() as u64,
                    total_ns: ds.iter().sum(),
                    p50_ns: ds[(ds.len() - 1) / 2],
                    p90_ns: hist.quantile(0.90),
                    p99_ns: hist.quantile(0.99),
                    max_ns: *ds.last().expect("non-empty by construction"),
                    hist,
                    counters: counters
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, c)| c.clone())
                        .unwrap_or_default(),
                }
            })
            .collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        out
    }

    /// Trace extent: last event timestamp minus first, nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        let min = self.events.iter().map(|e| e.t_ns).min().unwrap_or(0);
        let max = self.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
        max - min
    }

    /// Length of the union of all top-level (depth-0) span intervals,
    /// across tracks, in nanoseconds: how much of [`Trace::wall_ns`] at
    /// least one top-level phase accounts for. Close to `wall_ns` means the
    /// per-phase table explains the end-to-end time.
    pub fn top_level_coverage_ns(&self) -> u64 {
        let mut iv: Vec<(u64, u64)> = self
            .spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    cur = Some((s, e));
                }
            }
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        covered
    }

    /// Per-worker utilization aggregated from `pool.worker` spans, ordered
    /// by track. Empty when no steal pool ran (e.g. `--jobs 1` inline path).
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        let mut out: Vec<WorkerStat> = Vec::new();
        for s in self.spans() {
            if s.name != "pool.worker" {
                continue;
            }
            let stat = match out.iter_mut().find(|w| w.track == s.track) {
                Some(w) => w,
                None => {
                    out.push(WorkerStat {
                        track: s.track,
                        label: track_label(s.track),
                        spans: 0,
                        wall_ns: 0,
                        claimed: 0,
                        busy_ns: 0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            stat.spans += 1;
            stat.wall_ns += s.dur_ns();
            for &(name, v) in &s.counters {
                match name {
                    "claimed" => stat.claimed += v.max(0) as u64,
                    "busy_ns" => stat.busy_ns += v.max(0) as u64,
                    _ => {}
                }
            }
        }
        out.sort_by_key(|w| w.track);
        out
    }

    /// The human-readable `--metrics` table: per-phase count / total / p50 /
    /// p90 / p99 / max, counter deltas, per-worker utilization, and a
    /// wall-clock coverage footer.
    pub fn render_table(&self) -> String {
        let stats = self.phase_stats();
        let mut out = String::from("=== campion per-phase metrics ===\n");
        if stats.is_empty() {
            out.push_str("(no spans recorded)\n");
            return out;
        }
        out.push_str(&format!(
            "{:<24} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
            "phase", "count", "total", "p50", "p90", "p99", "max"
        ));
        for s in &stats {
            out.push_str(&format!(
                "{:<24} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
                s.name,
                s.count,
                fmt_dur(s.total_ns),
                fmt_dur(s.p50_ns),
                fmt_dur(s.p90_ns),
                fmt_dur(s.p99_ns),
                fmt_dur(s.max_ns)
            ));
        }
        let with_counters: Vec<&PhaseStat> =
            stats.iter().filter(|s| !s.counters.is_empty()).collect();
        if !with_counters.is_empty() {
            out.push_str("counter deltas:\n");
            for s in with_counters {
                let cs: Vec<String> = s.counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
                out.push_str(&format!("  {:<22} {}\n", s.name, cs.join(" ")));
            }
        }
        let workers = self.worker_stats();
        if !workers.is_empty() {
            out.push_str("worker utilization:\n");
            for w in &workers {
                out.push_str(&format!(
                    "  {:<22} claimed={} busy={} / {} ({:.1}%)\n",
                    w.label,
                    w.claimed,
                    fmt_dur(w.busy_ns),
                    fmt_dur(w.wall_ns),
                    w.utilization() * 100.0
                ));
            }
        }
        let wall = self.wall_ns();
        let covered = self.top_level_coverage_ns();
        let pct = if wall == 0 {
            100.0
        } else {
            covered as f64 / wall as f64 * 100.0
        };
        out.push_str(&format!(
            "wall (first\u{2192}last event): {}\ntop-level span coverage: {} ({pct:.1}%)\n",
            fmt_dur(wall),
            fmt_dur(covered)
        ));
        out
    }

    /// Chrome trace-event JSON: `{"traceEvents": [...]}` with one `tid` per
    /// track, thread-name metadata, and `B`/`E` duration events whose `ts`
    /// is microseconds since the trace epoch. Loadable in `chrome://tracing`
    /// and Perfetto; checkable with [`json::validate_chrome_trace`].
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        emit(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"campion\"}}"
                .to_string(),
            &mut out,
        );
        let mut tracks: Vec<u32> = self.events.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in &tracks {
            emit(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    track_label(*t)
                ),
                &mut out,
            );
        }
        for e in &self.events {
            let ph = match e.phase {
                Phase::Begin => "B",
                Phase::End => "E",
            };
            let ts = e.t_ns as f64 / 1000.0;
            let mut line = format!(
                "{{\"name\":\"{}\",\"cat\":\"campion\",\"ph\":\"{ph}\",\
                 \"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}",
                json::escape(e.name),
                e.track
            );
            if !e.counters.is_empty() {
                let args: Vec<String> = e
                    .counters
                    .iter()
                    .map(|(n, v)| format!("\"{}\":{v}", json::escape(n)))
                    .collect();
                line.truncate(line.len() - 1);
                line.push_str(&format!(",\"args\":{{{}}}}}", args.join(",")));
            }
            emit(line, &mut out);
        }
        out.push_str("\n]}\n");
        out
    }

    /// The machine-readable `phases` object for `BENCH_campion.json`:
    /// `{"<phase>": {"count": N, "total_s": x, "p50_s": x, "p90_s": x,
    /// "p99_s": x, "max_s": x}}`, keys sorted by name for stable diffs.
    pub fn phases_json(&self) -> String {
        let mut stats = self.phase_stats();
        stats.sort_by(|a, b| a.name.cmp(b.name));
        let entries: Vec<String> = stats
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"count\": {}, \"total_s\": {:.6}, \
                     \"p50_s\": {:.6}, \"p90_s\": {:.6}, \"p99_s\": {:.6}, \
                     \"max_s\": {:.6}}}",
                    json::escape(s.name),
                    s.count,
                    s.total_ns as f64 / 1e9,
                    s.p50_ns as f64 / 1e9,
                    s.p90_ns as f64 / 1e9,
                    s.p99_ns as f64 / 1e9,
                    s.max_ns as f64 / 1e9
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

/// Human label for a track id (worker lanes in the Chrome trace).
fn track_label(track: u32) -> String {
    match track {
        0 => "main".to_string(),
        t if t >= ANON_TRACK_BASE => format!("thread-{}", t - ANON_TRACK_BASE),
        t => format!("worker-{t}"),
    }
}

/// Render a nanosecond duration with an adaptive unit.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} \u{b5}s", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}
