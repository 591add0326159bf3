//! Unit tests for the collector. The collector is global state, so every
//! test that enables it serializes on [`TEST_LOCK`] and drains on exit.

use super::*;
use crate::json::Json;

/// Serializes tests that touch the global collector (cargo runs tests in
/// one process on many threads).
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Lock (surviving poisoning: an assert failure in one test must not take
/// down the rest), reset to a clean enabled state, and drain any leftovers.
fn locked_enabled() -> std::sync::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    enable();
    let _ = drain();
    guard
}

#[test]
fn disabled_records_nothing() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    disable();
    let _ = drain();
    {
        let mut s = span("never");
        s.counter("x", 1);
        assert!(!s.is_active());
    }
    span!("also-never");
    assert!(drain().is_empty(), "disabled collector buffered events");
}

#[test]
fn spans_nest_and_pair_in_order() {
    let _g = locked_enabled();
    {
        let _outer = span("outer");
        {
            span!("inner-1");
        }
        {
            span!("inner-2");
        }
    }
    disable();
    let trace = drain();
    let spans = trace.spans();
    // Spans close innermost-first.
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["inner-1", "inner-2", "outer"]);
    let depths: Vec<u32> = spans.iter().map(|s| s.depth).collect();
    assert_eq!(depths, [1, 1, 0]);
    for s in &spans {
        assert!(s.end_ns >= s.start_ns);
    }
    let outer = &spans[2];
    assert!(outer.start_ns <= spans[0].start_ns && outer.end_ns >= spans[1].end_ns);
    // Raw events alternate correctly and timestamps are monotonic.
    let ts: Vec<u64> = trace.events.iter().map(|e| e.t_ns).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
}

#[test]
fn counters_attach_to_end_events_and_sum() {
    let _g = locked_enabled();
    for v in [3i64, 4] {
        let mut s = span("counted");
        s.counter("nodes", v);
        s.counter("freed", -v);
    }
    disable();
    let stats = drain().phase_stats();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].count, 2);
    assert_eq!(stats[0].counters, vec![("nodes", 7), ("freed", -7)]);
}

#[test]
fn worker_buffers_merge_in_track_order() {
    let _g = locked_enabled();
    std::thread::scope(|scope| {
        for w in [3u32, 1, 2] {
            scope.spawn(move || {
                set_track(w);
                {
                    span!("work");
                }
                // Scoped joins don't wait for TLS destructors; hand the
                // buffer over explicitly (as the parallel driver does).
                flush();
            });
        }
    });
    disable();
    let trace = drain();
    let tracks: Vec<u32> = trace.events.iter().map(|e| e.track).collect();
    assert_eq!(tracks, [1, 1, 2, 2, 3, 3], "merge must sort by track");
    assert_eq!(trace.spans().len(), 3);
}

#[test]
fn phase_stats_aggregate_count_total_p50_max() {
    let mk = |name, track, start, end| {
        [
            Event {
                track,
                name,
                phase: Phase::Begin,
                t_ns: start,
                counters: Vec::new(),
            },
            Event {
                track,
                name,
                phase: Phase::End,
                t_ns: end,
                counters: Vec::new(),
            },
        ]
    };
    let mut events = Vec::new();
    events.extend(mk("a", 0, 0, 10));
    events.extend(mk("a", 0, 20, 50));
    events.extend(mk("a", 0, 60, 160));
    events.extend(mk("b", 1, 0, 5));
    let trace = Trace { events };
    let stats = trace.phase_stats();
    assert_eq!(stats[0].name, "a");
    assert_eq!(
        (
            stats[0].count,
            stats[0].total_ns,
            stats[0].p50_ns,
            stats[0].max_ns
        ),
        (3, 140, 30, 100)
    );
    assert_eq!(stats[1].name, "b");
    assert_eq!(trace.wall_ns(), 160);
    // Top-level coverage merges overlapping intervals across tracks:
    // [0,10]∪[0,5] = 10, [20,50] = 30, [60,160] = 100.
    assert_eq!(trace.top_level_coverage_ns(), 140);
    let table = trace.render_table();
    assert!(table.contains("phase"), "{table}");
    assert!(table.contains("top-level span coverage"), "{table}");
}

#[test]
fn chrome_export_validates_and_unpaired_events_fail() {
    let _g = locked_enabled();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            set_track(1);
            drop(span("worker-item"));
            flush();
        });
    });
    {
        let mut s = span("main-item");
        s.counter("delta", 42);
    }
    disable();
    let json_text = drain().chrome_json();
    let check = json::validate_chrome_trace(&json_text).expect("emitted trace is valid");
    assert_eq!(check.spans, 2);
    assert_eq!(check.tracks, 2, "one lane per worker:\n{json_text}");
    assert!(json_text.contains("\"delta\":42"), "{json_text}");
    assert!(json_text.contains("worker-1"), "{json_text}");

    // A lone B (no E) must be rejected.
    let bad = Trace {
        events: vec![Event {
            track: 0,
            name: "orphan",
            phase: Phase::Begin,
            t_ns: 0,
            counters: Vec::new(),
        }],
    };
    assert!(json::validate_chrome_trace(&bad.chrome_json()).is_err());
    // A lone E must be rejected too.
    let bad = Trace {
        events: vec![Event {
            track: 0,
            name: "orphan",
            phase: Phase::End,
            t_ns: 0,
            counters: Vec::new(),
        }],
    };
    assert!(json::validate_chrome_trace(&bad.chrome_json()).is_err());
    // Non-monotonic per-tid timestamps must be rejected.
    let bad = r#"{"traceEvents":[
        {"name":"x","ph":"B","ts":10.0,"pid":1,"tid":0},
        {"name":"x","ph":"E","ts":5.0,"pid":1,"tid":0}]}"#;
    let err = json::validate_chrome_trace(bad).unwrap_err();
    assert!(err.contains("monotonic"), "{err}");
}

#[test]
fn phases_json_is_parseable_and_sorted() {
    let _g = locked_enabled();
    {
        span!("b.second");
    }
    {
        span!("a.first");
    }
    disable();
    let text = drain().phases_json();
    let parsed = json::parse(&text).expect("phases JSON parses");
    let Json::Obj(members) = &parsed else {
        panic!("phases JSON is not an object: {text}")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["a.first", "b.second"], "keys sorted by name");
    for (_, v) in members {
        for field in ["count", "total_s", "p50_s", "p90_s", "p99_s", "max_s"] {
            assert!(v.get(field).and_then(Json::as_f64).is_some(), "{text}");
        }
    }
}

#[test]
fn phase_percentiles_come_from_the_histogram() {
    let mk = |start: u64, end: u64| {
        [
            Event {
                track: 0,
                name: "p",
                phase: Phase::Begin,
                t_ns: start,
                counters: Vec::new(),
            },
            Event {
                track: 0,
                name: "p",
                phase: Phase::End,
                t_ns: end,
                counters: Vec::new(),
            },
        ]
    };
    let mut events = Vec::new();
    let mut t = 0u64;
    // 99 fast spans (1us) and one slow outlier (1ms).
    for _ in 0..99 {
        events.extend(mk(t, t + 1_000));
        t += 2_000;
    }
    events.extend(mk(t, t + 1_000_000));
    let trace = Trace { events };
    let stats = trace.phase_stats();
    let p = stats.iter().find(|s| s.name == "p").expect("phase present");
    assert_eq!(p.count, 100);
    assert_eq!(p.p50_ns, 1_000, "p50 stays exact");
    assert_eq!(p.max_ns, 1_000_000);
    assert_eq!(p.hist.count(), 100);
    // p90 stays in the fast bucket; p99 must not yet reach the outlier,
    // which only the max (== quantile 1.0) reports exactly.
    assert!(p.p90_ns < 10_000, "p90 = {}", p.p90_ns);
    assert!(p.p99_ns < 1_000_000, "p99 = {}", p.p99_ns);
    assert_eq!(p.hist.quantile(1.0), 1_000_000);
    let table = trace.render_table();
    assert!(table.contains("p90"), "{table}");
    assert!(table.contains("p99"), "{table}");
}

#[test]
fn worker_stats_aggregate_pool_worker_spans() {
    let _g = locked_enabled();
    std::thread::scope(|scope| {
        for w in [1u32, 2] {
            scope.spawn(move || {
                set_track(w);
                {
                    let mut s = span("pool.worker");
                    s.counter("claimed", 3 + w as i64);
                    s.counter("busy_ns", 500);
                }
                flush();
            });
        }
    });
    disable();
    let trace = drain();
    let ws = trace.worker_stats();
    assert_eq!(ws.len(), 2);
    assert_eq!((ws[0].track, ws[0].claimed), (1, 4));
    assert_eq!((ws[1].track, ws[1].claimed), (2, 5));
    assert_eq!(ws[0].busy_ns, 500);
    assert!(ws[0].wall_ns >= ws[0].busy_ns || ws[0].utilization() >= 0.0);
    let table = trace.render_table();
    assert!(table.contains("worker utilization:"), "{table}");
    assert!(table.contains("worker-1"), "{table}");
}

#[test]
fn logger_writes_json_lines_with_span_context() {
    let _g = locked_enabled();
    let buf = log::init_buffer(log::Level::Debug);
    {
        span!("fleet.ingest");
        log::info(
            "test.event",
            &[("seq", log::Value::U64(7)), ("ok", log::Value::Bool(true))],
        );
    }
    log::debug("test.detail", &[("msg", log::Value::Str("a\"b"))]);
    log::shutdown();
    disable();
    let _ = drain();
    let text = buf.lock().expect("buffer").clone();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    let first = json::parse(lines[0]).expect("log line is JSON");
    assert_eq!(
        first.get("event").and_then(Json::as_str),
        Some("test.event")
    );
    assert_eq!(first.get("level").and_then(Json::as_str), Some("info"));
    assert_eq!(
        first.get("span").and_then(Json::as_str),
        Some("fleet.ingest"),
        "span context stamped: {text}"
    );
    assert_eq!(first.get("seq").and_then(Json::as_f64), Some(7.0));
    let second = json::parse(lines[1]).expect("second line is JSON");
    assert_eq!(second.get("msg").and_then(Json::as_str), Some("a\"b"));
    assert_eq!(second.get("span"), None, "no open span → no span field");
}

#[test]
fn logger_respects_level_and_rate_limit() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    disable();
    let _ = drain();
    let buf = log::init_buffer(log::Level::Warn);
    assert!(!log::enabled(log::Level::Info));
    assert!(log::enabled(log::Level::Error));
    log::info("dropped.event", &[]);
    // Overflow one event's per-second window: the excess is counted and
    // would surface as "suppressed" on the next record that passes.
    for _ in 0..(log::MAX_PER_WINDOW + 10) {
        log::warn("noisy.event", &[]);
    }
    log::shutdown();
    assert!(
        !log::enabled(log::Level::Error),
        "shutdown turns logging off"
    );
    log::error("after.shutdown", &[]);
    let text = buf.lock().expect("buffer").clone();
    assert!(!text.contains("dropped.event"), "{text}");
    assert!(!text.contains("after.shutdown"), "{text}");
    let noisy = text.lines().filter(|l| l.contains("noisy.event")).count();
    assert_eq!(noisy as u32, log::MAX_PER_WINDOW, "window caps emission");
}

#[test]
fn json_parser_round_trips_edge_cases() {
    let text = r#"{"a": [1, -2.5, 1e3], "b": "q\"\\\nA", "c": {"d": null, "e": [true, false]}}"#;
    let v = json::parse(text).expect("parses");
    assert_eq!(
        v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
        Some(3)
    );
    assert_eq!(v.get("b").and_then(Json::as_str), Some("q\"\\\nA"));
    assert_eq!(v.get("c").and_then(|c| c.get("d")), Some(&Json::Null));
    assert!(json::parse("{").is_err());
    assert!(json::parse("[1,]").is_err());
    assert!(json::parse("{}{}").is_err(), "trailing garbage");
    assert!(json::parse(r#"{"k": 01x}"#).is_err());
    assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    // Multi-byte scalars around escapes, and strings cut off mid-run.
    let v = json::parse(r#"["α→β\"γ", "ü\u00e9x", ""]"#).expect("parses");
    let strs: Vec<&str> = v
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(strs, ["α→β\"γ", "üéx", ""]);
    assert!(json::parse(r#"["abc"#).is_err());
    assert!(json::parse(r#"["ab\"#).is_err());
}
