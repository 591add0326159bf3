//! Fleet integration tests: store round-trips (property-based), the
//! committed v1 fixture (backwards compatibility), corruption handling,
//! and the end-to-end incrementality proof — both in-process against
//! [`campion_fleet::Daemon`] and over the real HTTP loop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use campion_core::{compare_config_texts, report_json, CampionOptions};
use campion_fleet::store::{PairRecord, PairResources, PairStatus, RouterRecord, SnapshotRecord};
use campion_fleet::{api, gen, http, Daemon, FleetStore, SnapshotInput};
use campion_ir::hash::ComponentHashes;
use campion_trace::json::validate_chrome_trace;
use campion_trace::prom::validate_exposition;
use proptest::prelude::*;

/// Serializes the tests that ingest snapshots: the trace collector is
/// process-global, so once the flight-recorder test enables it, concurrent
/// ingests would drain each other's spans.
static TRACE_MUX: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn trace_guard() -> std::sync::MutexGuard<'static, ()> {
    TRACE_MUX.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh per-test scratch directory (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "campion-fleet-{tag}-{}-{:p}",
        std::process::id(),
        &tag
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../testdata/fleet/{name}"))
}

/// The canonical v1 snapshot record behind the committed fixture.
fn v1_fixture_record() -> SnapshotRecord {
    let mut routers = BTreeMap::new();
    routers.insert(
        "r00-cisco".to_string(),
        RouterRecord {
            text_hash: 0x0123_4567_89ab_cdef,
            components: ComponentHashes {
                policies: BTreeMap::from([("POL".to_string(), 0xdead_beef_dead_beef)]),
                acls: BTreeMap::from([("ACL-GEN".to_string(), 0xfeed_face_feed_face)]),
                structural: 0x0fed_cba9_8765_4321,
            },
        },
    );
    routers.insert(
        "r00-juniper".to_string(),
        RouterRecord {
            text_hash: 0xffff_ffff_ffff_fffe,
            components: ComponentHashes {
                policies: BTreeMap::new(),
                acls: BTreeMap::from([("ACL-GEN".to_string(), 0x1111_2222_3333_4444)]),
                structural: 0x5555_6666_7777_8888,
            },
        },
    );
    SnapshotRecord {
        seq: 3,
        name: "fixture \"v1\" snapshot".to_string(),
        ingested_unix: 1_754_000_000,
        routers,
        pairs: vec![
            PairRecord {
                router1: "r00-cisco".to_string(),
                router2: "r00-juniper".to_string(),
                pair_key: 0xa5a5_a5a5_5a5a_5a5a,
                status: PairStatus::Cached,
                computed_at: 1,
                changed: Vec::new(),
                equivalent: false,
                differences: 2,
                compute_ns: 0,
                resources: PairResources::default(),
                report_text: "Action difference\n  lines 1-2\n".to_string(),
                report_json: "{\"equivalent\": false}\n".to_string(),
            },
            PairRecord {
                router1: "r00-juniper".to_string(),
                router2: "r00-cisco".to_string(),
                pair_key: 0x0000_0000_0000_0001,
                status: PairStatus::Computed,
                computed_at: 3,
                changed: vec!["r00-cisco: structural".to_string()],
                equivalent: true,
                differences: 0,
                compute_ns: 123_456,
                resources: PairResources::default(),
                report_text: String::new(),
                report_json: String::new(),
            },
        ],
    }
}

/// The canonical v2 snapshot record behind the committed fixture: the v1
/// record plus non-default per-pair resource attribution.
fn v2_fixture_record() -> SnapshotRecord {
    let mut snap = v1_fixture_record();
    snap.name = "fixture \"v2\" snapshot".to_string();
    snap.pairs[1].resources = PairResources {
        wall_ns: 123_456,
        bdd_nodes: 4_096,
        peak_nodes: 10_240,
        post_gc_nodes: 2_048,
        gc_runs: 3,
        gc_pauses: 5,
        gc_pause_us: 700,
        gc_pause_max_us: 250,
        unique_lookups: 90_000,
        unique_hits: 81_000,
        apply_lookups: 40_000,
        apply_hits: 30_000,
        rule_cache_lookups: 600,
        rule_cache_hits: 450,
    };
    snap
}

/// Regeneration tool for the committed current-format fixture — only for
/// a deliberate format bump:
/// `cargo test -p campion-fleet -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate_v2_fixture() {
    let path = fixture_path("snap-v2.json");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(&path, v2_fixture_record().encode()).expect("write fixture");
}

/// The backwards-compatibility gate: the committed v1 document (written
/// before per-pair resources existed) must stay decodable by every future
/// reader, bit-exactly, with resources defaulting to zero.
#[test]
fn committed_v1_fixture_decodes() {
    let text = std::fs::read_to_string(fixture_path("snap-v1.json")).expect("fixture present");
    let snap = SnapshotRecord::decode(&text).expect("v1 fixture must decode");
    assert_eq!(snap, v1_fixture_record());
    // Spot-check a full-width hash survived the hex-string encoding.
    assert_eq!(snap.routers["r00-juniper"].text_hash, 0xffff_ffff_ffff_fffe);
    assert_eq!(snap.pairs[1].resources, PairResources::default());
}

/// The committed v2 document round-trips, resources included.
#[test]
fn committed_v2_fixture_decodes() {
    let text = std::fs::read_to_string(fixture_path("snap-v2.json")).expect("fixture present");
    let snap = SnapshotRecord::decode(&text).expect("v2 fixture must decode");
    assert_eq!(snap, v2_fixture_record());
    assert_eq!(snap.pairs[1].resources.peak_nodes, 10_240);
}

#[test]
fn corrupted_documents_error_cleanly() {
    let good = v1_fixture_record().encode();
    let cases: Vec<(String, &str)> = vec![
        (good[..good.len() / 2].to_string(), "truncated"),
        ("not json at all".to_string(), "non-JSON"),
        ("{\"version\": 1}".to_string(), "missing format marker"),
        (
            good.replace("campion-fleet-snapshot", "other-format"),
            "wrong format marker",
        ),
        (
            good.replace("\"version\": 2", "\"version\": 99"),
            "future version",
        ),
        (
            good.replace("\"resources\"", "\"sprockets\""),
            "v2 without resources",
        ),
        (
            good.replace(
                "\"text_hash\": \"0123456789abcdef\"",
                "\"text_hash\": \"xyz\"",
            ),
            "malformed hash",
        ),
        (
            good.replace("\"routers\"", "\"sprockets\""),
            "missing routers",
        ),
    ];
    for (text, what) in cases {
        let r = SnapshotRecord::decode(&text);
        assert!(r.is_err(), "{what}: decode should fail");
    }
    // A future version must be named in the error, so operators know to
    // upgrade the reader rather than suspect corruption.
    let err = SnapshotRecord::decode(&good.replace("\"version\": 2", "\"version\": 99"))
        .expect_err("future version");
    assert!(err.contains("version 99"), "unhelpful error: {err}");
}

#[test]
fn store_load_of_corrupt_file_errors_cleanly() {
    let dir = scratch("corrupt");
    let store = FleetStore::open(&dir).expect("open");
    std::fs::write(dir.join("snap-000001.json"), "{\"truncated").expect("write");
    let err = store.load(1).expect_err("corrupt load must fail");
    assert!(
        err.contains("snap-000001.json"),
        "error names the file: {err}"
    );
    assert!(store.latest().is_err());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any snapshot record — arbitrary names, report bodies (newlines,
    /// quotes, multi-byte), and full-width 64-bit hashes — must round-trip
    /// bit-exactly through encode/decode.
    #[test]
    fn store_round_trip(
        name in "",
        seq in 1u64..1_000_000,
        routers in proptest::collection::vec(
            ("", 0u64..=u64::MAX, 0u64..=u64::MAX,
             proptest::collection::vec(("", 0u64..=u64::MAX), 0..3)),
            0..4),
        pairs in proptest::collection::vec(
            ("", "", 0u64..=u64::MAX, 0u64..1 << 50, proptest::collection::vec("", 0..3),
             ("", "")),
            0..4),
    ) {
        let mut snap = SnapshotRecord {
            seq,
            name,
            ingested_unix: seq * 7,
            routers: BTreeMap::new(),
            pairs: Vec::new(),
        };
        for (i, (rname, th, sh, pols)) in routers.into_iter().enumerate() {
            snap.routers.insert(
                format!("{rname}-{i}"), // disambiguate: map keys must be unique
                RouterRecord {
                    text_hash: th,
                    components: ComponentHashes {
                        policies: pols
                            .iter()
                            .enumerate()
                            .map(|(j, (p, h))| (format!("{p}-{j}"), *h))
                            .collect(),
                        acls: BTreeMap::new(),
                        structural: sh,
                    },
                },
            );
        }
        for (r1, r2, key, ns, changed, (text, json)) in pairs {
            // Resource counters are plain JSON numbers, so the encoder
            // bounds them below 2^53; derive full-range-but-bounded values.
            let bounded = |x: u64| x & ((1u64 << 50) - 1);
            snap.pairs.push(PairRecord {
                router1: r1,
                router2: r2,
                pair_key: key,
                status: if key % 2 == 0 { PairStatus::Computed } else { PairStatus::Cached },
                computed_at: seq,
                changed,
                equivalent: ns % 2 == 0,
                differences: ns % 17,
                compute_ns: ns,
                resources: PairResources {
                    wall_ns: ns,
                    bdd_nodes: bounded(key),
                    peak_nodes: bounded(key.rotate_left(13)),
                    post_gc_nodes: bounded(key.rotate_left(26)),
                    gc_runs: key % 11,
                    gc_pauses: key % 13,
                    gc_pause_us: bounded(ns.rotate_left(7)),
                    gc_pause_max_us: bounded(ns.rotate_left(17)),
                    unique_lookups: bounded(key.wrapping_mul(3)),
                    unique_hits: bounded(key.wrapping_mul(5)),
                    apply_lookups: bounded(key.wrapping_mul(7)),
                    apply_hits: bounded(key.wrapping_mul(11)),
                    rule_cache_lookups: bounded(key.wrapping_mul(13)),
                    rule_cache_hits: bounded(key.wrapping_mul(17)),
                },
                report_text: text,
                report_json: json,
            });
        }
        let decoded = SnapshotRecord::decode(&snap.encode()).expect("round trip");
        prop_assert_eq!(decoded, snap);
    }
}

/// The end-to-end incrementality proof, in process: ingest a fleet, then
/// the same fleet with one router perturbed — exactly the touched pair
/// recomputes, everything else is served from the store with provenance,
/// and every served report is byte-identical to a fresh one-shot compare.
#[test]
fn single_router_change_recomputes_only_touched_pair() {
    let _g = trace_guard();
    let dir = scratch("e2e");
    let opts = CampionOptions::default();
    let mut daemon = Daemon::open(&dir, opts.clone()).expect("open");

    let snap1 = gen::fleet_input("base", 4, 6, 1, 42, None);
    let s1 = daemon.ingest(&snap1).expect("ingest 1");
    assert_eq!((s1.seq, s1.pairs_computed, s1.pairs_cached), (1, 4, 0));
    assert_eq!(s1.routers_parsed, 8);

    let snap2 = gen::fleet_input("perturbed", 4, 6, 1, 42, Some(2));
    let s2 = daemon.ingest(&snap2).expect("ingest 2");
    assert_eq!((s2.seq, s2.pairs_computed, s2.pairs_cached), (2, 1, 3));
    // Only the changed router and its compare partner were parsed; the
    // other seven configs took the raw-text fast path.
    assert_eq!(s2.routers_parsed, 2);
    assert_eq!(s2.router_parses_skipped, 7);

    let latest = daemon.latest().expect("latest");
    for p in &latest.pairs {
        if p.router1 == "r02-cisco" {
            assert_eq!(p.status, PairStatus::Computed);
            assert_eq!(p.computed_at, 2);
            assert_eq!(p.changed, vec!["r02-cisco: structural".to_string()]);
        } else {
            assert_eq!(p.status, PairStatus::Cached, "{}", p.router1);
            assert_eq!(p.computed_at, 1, "{}", p.router1);
            assert!(p.changed.is_empty());
            assert_eq!(p.compute_ns, 0);
        }
        // Resource attribution rides along: the original compare's wall
        // time and BDD footprint survive even on cached pairs.
        assert!(p.resources.wall_ns > 0, "{}", p.router1);
        assert!(p.resources.peak_nodes > 0, "{}", p.router1);
        // Served or recomputed, the stored reports are byte-identical to
        // a fresh one-shot `campion compare` of the same two configs.
        let fresh = compare_config_texts(
            &snap2.configs[&p.router1],
            &snap2.configs[&p.router2],
            &opts,
        )
        .expect("fresh compare");
        assert_eq!(p.report_text, format!("{fresh}\n"), "{}", p.router1);
        assert_eq!(p.report_json, report_json(&fresh), "{}", p.router1);
    }

    // Counters accumulate across both ingests.
    let c = daemon.counters();
    assert_eq!(c.snapshots, 2);
    assert_eq!((c.pairs_computed, c.pairs_cached), (5, 3));

    // Restart: the daemon resumes from the store, and re-ingesting the
    // same snapshot computes nothing at all.
    drop(daemon);
    let mut daemon = Daemon::open(&dir, opts).expect("reopen");
    assert_eq!(daemon.latest().expect("resumed").seq, 2);
    let s3 = daemon.ingest(&snap2).expect("ingest 3");
    assert_eq!((s3.pairs_computed, s3.pairs_cached), (0, 4));
    assert_eq!(s3.routers_parsed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The same proof over the wire: real listener, real HTTP requests, the
/// exact handler the daemon binary runs.
#[test]
fn http_api_round_trip() {
    let _g = trace_guard();
    let dir = scratch("http");
    let opts = CampionOptions::default();
    let mut daemon = Daemon::open(&dir, opts.clone()).expect("open");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        http::serve(&listener, |req| api::handle(&mut daemon, req)).expect("serve");
    });

    let snap1 = gen::fleet_input("base", 2, 5, 1, 7, None);
    let (status, body) =
        http::request(addr, "POST", "/api/v1/snapshot", Some(&snap1.to_json())).expect("post 1");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"pairs_computed\": 2"), "{body}");

    let snap2 = gen::fleet_input("perturbed", 2, 5, 1, 7, Some(0));
    let (status, body) =
        http::request(addr, "POST", "/api/v1/snapshot", Some(&snap2.to_json())).expect("post 2");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"pairs_computed\": 1"), "{body}");
    assert!(body.contains("\"pairs_cached\": 1"), "{body}");

    // Status + pairs reflect the second snapshot.
    let (_, status_body) = http::request(addr, "GET", "/api/v1/status", None).expect("status");
    assert!(status_body.contains("\"latest_seq\": 2"), "{status_body}");
    let (_, pairs_body) = http::request(addr, "GET", "/api/v1/pairs", None).expect("pairs");
    assert!(
        pairs_body.contains("\"status\": \"cached\""),
        "{pairs_body}"
    );
    assert!(pairs_body.contains("\"computed_at\": 1"), "{pairs_body}");

    // The text endpoint serves exactly what the one-shot CLI would print.
    let fresh = compare_config_texts(
        &snap2.configs["r00-cisco"],
        &snap2.configs["r00-juniper"],
        &opts,
    )
    .expect("fresh");
    let (status, text) =
        http::request(addr, "GET", "/api/v1/pair/r00-cisco/r00-juniper/text", None).expect("text");
    assert_eq!(status, 200);
    assert_eq!(text, format!("{fresh}\n"));
    let (status, json) = http::request(
        addr,
        "GET",
        "/api/v1/pair/r00-cisco/r00-juniper/report",
        None,
    )
    .expect("report");
    assert_eq!(status, 200);
    assert_eq!(json, report_json(&fresh));

    // The embedded pair summary carries the resource attribution.
    let (status, pair) =
        http::request(addr, "GET", "/api/v1/pair/r00-cisco/r00-juniper", None).expect("pair");
    assert_eq!(status, 200);
    assert!(pair.contains("\"resources\": {\"wall_ns\": "), "{pair}");

    // Unknown pair → clean 404; metrics expose the counters.
    let (status, _) = http::request(addr, "GET", "/api/v1/pair/x/y", None).expect("404");
    assert_eq!(status, 404);
    let (_, metrics) = http::request(addr, "GET", "/api/v1/metrics", None).expect("metrics");
    assert!(metrics.contains("\"pairs_cached\": 1"), "{metrics}");

    // The Prometheus exposition is linter-clean and carries at least one
    // histogram family plus the ingest counters.
    let (status, prom) = http::request(addr, "GET", "/metrics", None).expect("prom");
    assert_eq!(status, 200);
    let report = validate_exposition(&prom).unwrap_or_else(|e| panic!("{e}\n{prom}"));
    assert!(report.histograms >= 1, "{prom}");
    assert!(prom.contains("campion_fleet_snapshots_total 2"), "{prom}");
    assert!(
        prom.contains("campion_fleet_http_requests_total{code=\"404\"} 1"),
        "{prom}"
    );

    let (status, _) = http::request(addr, "POST", "/api/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    server.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// The store lock file: a second daemon over the same directory fails with
/// an error naming the owning PID; a clean shutdown releases the lock.
#[test]
fn store_lock_rejects_second_daemon() {
    let dir = scratch("lock");
    let first = Daemon::open(&dir, CampionOptions::default()).expect("open");
    let err = Daemon::open(&dir, CampionOptions::default()).expect_err("locked");
    assert!(err.contains("locked"), "{err}");
    assert!(err.contains(&std::process::id().to_string()), "{err}");
    drop(first);
    let _again = Daemon::open(&dir, CampionOptions::default()).expect("lock released");
    std::fs::remove_dir_all(&dir).ok();
}

/// The flight recorder end to end: with the SLO forced to zero every
/// computed pair is "slow", so the ingest leaves a Chrome-trace artifact
/// behind, listed and served by the flight endpoints and valid under the
/// same checker CI runs on `--trace` output.
#[test]
fn slo_breach_produces_valid_flight_dump() {
    let _g = trace_guard();
    let dir = scratch("flight");
    campion_trace::enable();
    let mut daemon = Daemon::open(&dir, CampionOptions::default()).expect("open");
    daemon.set_slo_ms(0);
    let snap = gen::fleet_input("slow", 2, 5, 1, 11, None);
    let summary = daemon.ingest(&snap).expect("ingest");
    assert!(summary.pairs_computed > 0);

    let (inv, _) = api_get(&mut daemon, "/api/v1/flight");
    assert!(inv.contains("\"available\": [1]"), "{inv}");
    let (dump, status) = api_get(&mut daemon, "/api/v1/flight/1");
    assert_eq!(status, 200, "{dump}");
    let report = validate_chrome_trace(&dump).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.spans > 0);
    assert!(dump.contains("fleet.ingest"), "ingest span in the dump");

    // No artifact for a never-ingested sequence number.
    let (_, status) = api_get(&mut daemon, "/api/v1/flight/7");
    assert_eq!(status, 404);

    // A healthy SLO writes nothing on the next ingest.
    daemon.set_slo_ms(3_600_000);
    let snap2 = gen::fleet_input("fast", 2, 5, 1, 11, Some(0));
    daemon.ingest(&snap2).expect("ingest 2");
    let (inv, _) = api_get(&mut daemon, "/api/v1/flight");
    assert!(inv.contains("\"available\": [1]"), "{inv}");
    campion_trace::disable();
    std::fs::remove_dir_all(&dir).ok();
}

/// A JunOS term indented with one space, whose next line is indented with a
/// no-break space (two bytes, one character), ingests like any other config:
/// hashing and quoting it must not cut that character in half.
#[test]
fn multibyte_indentation_ingests_cleanly() {
    let _g = trace_guard();
    let dir = scratch("nbsp");
    let opts = CampionOptions::default();
    let mut daemon = Daemon::open(&dir, opts.clone()).expect("open");
    let cisco = "ip access-list extended F\n permit tcp any any eq 23\n";
    let junos = "firewall {\nfamily inet {\nfilter F {\n term t1 {\n\u{a0}from {\n  \
                 protocol tcp;\n  destination-port 22;\n  }\n  then accept;\n }\n}\n}\n}\n";
    let snap = SnapshotInput {
        name: "nbsp".to_string(),
        configs: BTreeMap::from([
            ("c".to_string(), cisco.to_string()),
            ("j".to_string(), junos.to_string()),
        ]),
        pairs: vec![("c".to_string(), "j".to_string())],
    };
    let summary = daemon.ingest(&snap).expect("ingest");
    assert_eq!((summary.pairs_total, summary.pairs_computed), (1, 1));
    let pair = &daemon.latest().expect("latest").pairs[0];
    assert!(!pair.equivalent);
    let fresh = compare_config_texts(cisco, junos, &opts).expect("fresh compare");
    assert_eq!(pair.report_text, format!("{fresh}\n"));
    std::fs::remove_dir_all(&dir).ok();
}

/// One in-process GET against the API router; returns (body, status).
fn api_get(daemon: &mut Daemon, path: &str) -> (String, u16) {
    let (resp, shutdown) = api::handle(
        daemon,
        &http::Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: Vec::new(),
        },
    );
    assert!(!shutdown);
    (
        String::from_utf8(resp.body).expect("utf8 body"),
        resp.status,
    )
}

/// Malformed ingest bodies are rejected with 400 and do not advance the
/// snapshot sequence.
#[test]
fn bad_snapshot_body_is_rejected() {
    let _g = trace_guard();
    let dir = scratch("bad");
    let mut daemon = Daemon::open(&dir, CampionOptions::default()).expect("open");
    for body in [
        "not json",
        "{\"configs\": {}, \"pairs\": []}",
        "{\"configs\": {\"a\": \"hostname a\\n\"}, \"pairs\": [[\"a\", \"ghost\"]]}",
    ] {
        let (resp, shutdown) = api::handle(
            &mut daemon,
            &http::Request {
                method: "POST".to_string(),
                path: "/api/v1/snapshot".to_string(),
                body: body.as_bytes().to_vec(),
            },
        );
        assert_eq!(resp.status, 400, "{body}");
        assert!(!shutdown);
    }
    assert!(daemon.latest().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot directory round-trips through the CLI-side loader into the
/// exact JSON the daemon ingests.
#[test]
fn written_fleet_directory_matches_input() {
    let dir = scratch("gen");
    gen::write_fleet(&dir, 2, 5, 1, 9, Some(1)).expect("write");
    let loaded = SnapshotInput::from_dir(&dir).expect("load");
    let mut expect = gen::fleet_input("x", 2, 5, 1, 9, Some(1));
    expect.name = loaded.name.clone(); // directory name wins
    assert_eq!(loaded, expect);
    std::fs::remove_dir_all(&dir).ok();
}
