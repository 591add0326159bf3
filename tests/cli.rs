//! CLI integration tests: run the compiled `campion` binary against the
//! checked-in testdata, covering exit codes and the translate pipeline.

use std::process::{Command, Stdio};

fn campion(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campion"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn compare_differs_exits_one() {
    let out = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 difference(s)"), "{stdout}");
    assert!(stdout.contains("Included Prefixes"));
}

#[test]
fn compare_equal_exits_zero() {
    let out = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_cisco.cfg",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("No behavioral differences"));
}

/// `campion compare` on Figure 1 (exit 1: the configs differ) with its
/// stdout sent to `stdout`; returns the exit code and stderr.
fn compare_figure1_into(stdout: impl Into<Stdio>) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_campion"))
        .args([
            "compare",
            "testdata/figure1_cisco.cfg",
            "testdata/figure1_juniper.cfg",
        ])
        .stdout(stdout)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn compare_into_a_closed_pipe_exits_with_the_verdict() {
    // The reader is gone before the child starts, so the first write
    // fails with EPIPE every time: the verdict must survive, silently.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let (code, stderr) = compare_figure1_into(writer);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn compare_into_a_full_device_exits_two() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let (code, stderr) = compare_figure1_into(full);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("error: stdout:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn compare_missing_file_exits_two() {
    let out = campion(&["compare", "testdata/figure1_cisco.cfg", "/nonexistent.cfg"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn flags_disable_checks() {
    let out = campion(&[
        "compare",
        "--no-route-maps",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(0), "only route maps differ here");
    let out = campion(&["compare", "--bogus", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
    // The shared concurrent BDD engine and its flag are gone.
    let out = campion(&[
        "compare",
        "--shared-manager",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --shared-manager"), "{stderr}");
}

#[test]
fn exhaustive_communities_flag() {
    let out = campion(&[
        "compare",
        "--exhaustive-communities",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("with 10:10; without 10:11"),
        "exhaustive community conditions must replace the single example:\n{stdout}"
    );
}

#[test]
fn format_json_emits_stable_structured_report() {
    let out = campion(&[
        "compare",
        "--format",
        "json",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1), "exit code still signals diffs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let doc = campion::trace::json::parse(&stdout).expect("valid JSON");
    use campion::trace::json::Json;
    assert_eq!(
        doc.get("router1").and_then(Json::as_str),
        Some("cisco_router")
    );
    assert_eq!(doc.get("equivalent").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("total_differences").and_then(Json::as_f64),
        Some(2.0)
    );
    // The CLI uses the same serializer as the fleet daemon's API: the
    // bytes must equal an in-process render of the same comparison.
    let load = |p: &str| {
        campion::ir::lower(
            &campion::cfg::parse_config(&std::fs::read_to_string(p).expect("read")).expect("parse"),
        )
        .expect("lower")
    };
    let report = campion::core::compare_routers(
        &load("testdata/figure1_cisco.cfg"),
        &load("testdata/figure1_juniper.cfg"),
        &campion::core::CampionOptions::default(),
    );
    assert_eq!(stdout, campion::core::report_json(&report));
    // An unknown format is a usage error.
    let out = campion(&["compare", "--format", "yaml", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn translate_then_compare_is_clean() {
    let out = campion(&["translate", "testdata/figure1_cisco.cfg"]);
    assert_eq!(out.status.code(), Some(0));
    let junos = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(junos.contains("policy-statement POL"));
    let tmp = std::env::temp_dir().join("campion_cli_translated.cfg");
    std::fs::write(&tmp, &junos).expect("write temp");
    let out = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        tmp.to_str().expect("utf8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "automated translation must be equivalent:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn set_style_juniper_compares_equal_to_its_brace_form() {
    let brace = "\
firewall {
    family inet {
        filter F {
            term ssh {
                from {
                    source-address 10.0.0.0/8;
                    protocol tcp;
                    destination-port 22;
                }
                then accept;
            }
            term rest {
                then discard;
            }
        }
    }
}
";
    // The same filter as `show configuration | display set` prints it.
    let set = "\
set firewall family inet filter F term ssh from source-address 10.0.0.0/8
set firewall family inet filter F term ssh from protocol tcp
set firewall family inet filter F term ssh from destination-port 22
set firewall family inet filter F term ssh then accept
set firewall family inet filter F term rest then discard
";
    let dir = std::env::temp_dir();
    let brace_path = dir.join("campion_cli_filter_brace.cfg");
    let set_path = dir.join("campion_cli_filter_set.cfg");
    std::fs::write(&brace_path, brace).expect("write temp");
    std::fs::write(&set_path, set).expect("write temp");
    let out = campion(&[
        "compare",
        brace_path.to_str().expect("utf8 path"),
        set_path.to_str().expect("utf8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "set-style JunOS must be read as JunOS:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn baseline_reports_single_counterexamples() {
    let out = campion(&[
        "baseline",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("policy POL"));
    assert!(stdout.contains("Route received"));

    let out = campion(&[
        "baseline",
        "testdata/static_cisco.cfg",
        "testdata/static_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("static routes"));
}

#[test]
fn usage_without_args() {
    let out = campion(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn stats_flag_renders_gc_counters() {
    let args = [
        "compare",
        "--stats",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ];
    let out = campion(&args);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== BDD engine statistics ==="), "{stdout}");
    for label in [
        "live nodes",
        "peak live nodes",
        "post-GC live nodes",
        "GC collections",
        "GC nodes freed",
        "cache resizes",
        "apply hit rate",
    ] {
        assert!(stdout.contains(label), "missing `{label}` in:\n{stdout}");
    }
    // Without the flag, no statistics block — and the report proper is
    // byte-identical: --stats only appends.
    let out_plain = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    let plain = String::from_utf8_lossy(&out_plain.stdout).into_owned();
    assert!(!plain.contains("BDD engine statistics"));
    assert!(
        stdout.starts_with(&plain),
        "--stats altered the report body"
    );
}

#[test]
fn stats_json_flag_emits_machine_readable_counters() {
    let args = [
        "compare",
        "--stats-json",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ];
    let out = campion(&args);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // The JSON block follows the report body; it is the machine twin of
    // `--stats` and uses the same field names as the bench baseline.
    let idx = stdout
        .find("{\n  \"bdd_nodes\"")
        .expect("stats JSON present");
    use campion::trace::json::Json;
    let doc = campion::trace::json::parse(&stdout[idx..]).expect("valid JSON");
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).expect("numeric field");
    assert!(num("bdd_nodes") > 0.0);
    assert!(num("unique_lookups") > 0.0);
    assert!((0.0..=1.0).contains(&num("unique_hit_rate")));
    assert!(num("gc_pause_max_us") <= num("gc_pause_us"));
    // The report proper is untouched: --stats-json only appends.
    let plain = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert!(stdout.starts_with(&String::from_utf8_lossy(&plain.stdout).into_owned()));
}

#[test]
fn log_flag_writes_json_lines_and_leaves_the_report_alone() {
    let plain = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    let tmp = std::env::temp_dir().join("campion_cli_log.jsonl");
    let _ = std::fs::remove_file(&tmp);
    let out = campion(&[
        "compare",
        "--log",
        tmp.to_str().expect("utf8 path"),
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        out.stdout, plain.stdout,
        "--log must not perturb the report"
    );
    let log = std::fs::read_to_string(&tmp).expect("log file written");
    for line in log.lines() {
        campion::trace::json::parse(line).expect("every log line is a JSON object");
    }
    assert!(log.contains("\"event\":\"compare.start\""), "{log}");
    assert!(log.contains("\"event\":\"compare.done\""), "{log}");
    assert!(log.contains("\"differences\":2"), "{log}");
    // `--log -` routes the same lines to stderr instead.
    let out = campion(&[
        "compare",
        "--log",
        "-",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"event\":\"compare.done\""), "{stderr}");
    // A missing destination is a usage error.
    let out = campion(&["compare", "--log"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn gc_flag_modes_accepted_and_equal() {
    let mut reports = Vec::new();
    for mode in ["off", "auto", "aggressive"] {
        let out = campion(&[
            "compare",
            "--gc",
            mode,
            "testdata/figure1_cisco.cfg",
            "testdata/figure1_juniper.cfg",
        ]);
        assert_eq!(out.status.code(), Some(1), "gc mode {mode}");
        reports.push(out.stdout);
    }
    assert_eq!(reports[0], reports[1], "off vs auto reports differ");
    assert_eq!(reports[1], reports[2], "auto vs aggressive reports differ");
    let out = campion(&["compare", "--gc", "sometimes", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn metrics_flag_reports_on_stderr_and_leaves_stdout_alone() {
    let plain = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    let out = campion(&[
        "compare",
        "--metrics",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        out.stdout, plain.stdout,
        "--metrics must not perturb the report"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("=== campion per-phase metrics ==="),
        "{stderr}"
    );
    for phase in ["core.compare", "item.policy_pair", "cfg.parse", "ir.lower"] {
        assert!(stderr.contains(phase), "missing phase `{phase}`:\n{stderr}");
    }
    assert!(stderr.contains("top-level span coverage"), "{stderr}");
}

#[test]
fn trace_flag_writes_valid_chrome_json() {
    let plain = campion(&[
        "compare",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    let tmp = std::env::temp_dir().join("campion_cli_trace.json");
    let out = campion(&[
        "compare",
        "--trace",
        tmp.to_str().expect("utf8 path"),
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        out.stdout, plain.stdout,
        "--trace must not perturb the report"
    );
    let json = std::fs::read_to_string(&tmp).expect("trace file written");
    let check = campion::trace::json::validate_chrome_trace(&json)
        .expect("chrome trace-event JSON validates");
    assert!(check.spans > 0, "trace records spans: {check}");
    // A missing output path is a usage error, not a silent no-op.
    let out = campion(&["compare", "--trace"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn aggressive_gc_env_override_is_byte_identical() {
    // CAMPION_GC_AGGRESSIVE=1 forces a collection at every safe point no
    // matter what the options say — the differential hook CI uses. The
    // subprocess isolates the env var from other tests.
    let args = [
        "compare",
        "--gc",
        "off",
        "testdata/figure1_cisco.cfg",
        "testdata/figure1_juniper.cfg",
    ];
    let plain = campion(&args);
    let forced = Command::new(env!("CARGO_BIN_EXE_campion"))
        .args(args)
        .env("CAMPION_GC_AGGRESSIVE", "1")
        .output()
        .expect("binary runs");
    assert_eq!(plain.status.code(), forced.status.code());
    assert_eq!(
        plain.stdout, forced.stdout,
        "env-forced aggressive GC changed the report"
    );
}
