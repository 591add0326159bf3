//! The benchmark's own span recorder. Spans wrap calls into the program's
//! public functions from the outside (no span is added inside the
//! program); they stay in memory and are written once, at the end, as
//! Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `headerloc.getmatch`.
    pub name: &'static str,
    /// Track (thread lane) the call ran on.
    pub tid: u32,
    /// Id shared by every span of one pair, snapshot or request.
    pub group: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration of the call.
    pub fn dur(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// A per-thread recorder. When disabled, [`Tracer::span`] only runs the
/// closure, so the same replay code measures the untraced baseline.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for track `tid`, timing from `epoch`.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Tracer {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between calls.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for group `group`.
    pub fn span<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tid: self.tid,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a span whose endpoints were measured elsewhere (a client
    /// request, from send to answer).
    pub fn record(&mut self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                tid: self.tid,
                group,
                parent: self.open.last().copied(),
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the spans over, re-indexing parents past `offset` (for merging
    /// several recorders into one list).
    pub fn into_spans(self, offset: usize) -> Vec<Span> {
        self.spans
            .into_iter()
            .map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            })
            .collect()
    }
}

/// Merge several recorders' spans into one list.
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut all = Vec::new();
    for t in tracers {
        let offset = all.len();
        all.extend(t.into_spans(offset));
    }
    all
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children never overlap on one track).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut out: Vec<Duration> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur());
        }
    }
    out
}

/// Per-name totals: (calls, total time, total self time), by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
    for (s, self_t) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += self_t;
    }
    out
}

/// Chrome trace-event JSON (`B`/`E` pairs per track, properly nested, in
/// time order), the shape `tracecheck` validates. Each event carries its
/// group id and its parent's index.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut by_tid: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_tid.entry(s.tid).or_default().push(i);
    }
    let mut events = Vec::new();
    for (tid, mut idx) in by_tid {
        idx.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
        let mut stack: Vec<usize> = Vec::new();
        let mut emit = |ph: char, i: usize, ts: u64| {
            let s = &spans[i];
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"{ph}\", \"ts\": {:.3}, \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"id\": {i}, \"group\": {}, \"parent\": {parent}}}}}",
                s.name,
                ts as f64 / 1000.0,
                s.group,
            ));
        };
        for i in idx {
            while let Some(&top) = stack.last() {
                if spans[top].end_ns <= spans[i].start_ns {
                    emit('E', top, spans[top].end_ns);
                    stack.pop();
                } else {
                    break;
                }
            }
            emit('B', i, spans[i].start_ns);
            stack.push(i);
        }
        while let Some(top) = stack.pop() {
            emit('E', top, spans[top].end_ns);
        }
    }
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tid: 0,
            group: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pair", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("compare", Some(0), 40, 90),
            span("getmatch", Some(2), 50, 70),
        ];
        let st = self_times(&spans);
        let ns = Duration::from_nanos;
        assert_eq!(st, vec![ns(30), ns(20), ns(30), ns(20)]);
        let t = totals(&spans);
        assert_eq!(t["compare"], (1, ns(50), ns(30)));
    }

    #[test]
    fn recorder_nests_and_exports_a_valid_chrome_trace() {
        let mut tr = Tracer::new(true, Instant::now(), 3);
        let v = tr.span("outer", 1, |tr| {
            tr.span("inner", 1, |_| 5) + tr.span("inner", 1, |_| 1)
        });
        assert_eq!(v, 6);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        let json = chrome_json(spans);
        let check = campion_trace::json::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.spans, 3);

        let mut off = Tracer::new(false, Instant::now(), 0);
        assert_eq!(off.span("x", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn merge_reindexes_parents() {
        let mut a = Tracer::new(true, Instant::now(), 0);
        a.span("a", 0, |_| ());
        let mut b = Tracer::new(true, Instant::now(), 1);
        b.span("b", 0, |tr| tr.span("c", 0, |_| ()));
        let all = merge(vec![a, b]);
        assert_eq!(all[2].parent, Some(1));
    }
}
