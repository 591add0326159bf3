//! campion-fleetd: the fleet snapshot-diffing daemon.
//!
//! Serves the zero-dependency HTTP/1.1 JSON API (see `campion_fleet::api`)
//! over a sequential accept loop, with incremental recompute backed by a
//! versioned on-disk store. Observability is always on: tracing feeds the
//! Prometheus exposition at `GET /metrics` and the flight recorder, and
//! structured JSON logs go to stderr (or a file via `--log`).

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use campion_core::CampionOptions;
use campion_fleet::{api, flight, http, Daemon};
use campion_trace::log::{self, Level, Value};

const USAGE: &str = "\
usage: campion-fleetd --store <dir> [--addr <host:port>] [--jobs N] [--slo-ms N]
                      [--log <file|->] [--log-level debug|info|warn|error]

Options:
  --store <dir>      snapshot store directory (created if missing; required)
  --addr <hp>        listen address            [default: 127.0.0.1:8180]
  --jobs N           diff worker threads, 0 = one per hardware thread
  --slo-ms N         per-pair latency SLO; a slower computed pair dumps a
                     flight-recorder artifact  [default: 60000; 0 = always]
  --log <file|->     structured JSON log destination: a file path, or - for
                     stderr                    [default: -]
  --log-level LVL    minimum level to emit     [default: info]
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("campion-fleetd: {msg}");
    eprint!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut store: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:8180".to_string();
    let mut opts = CampionOptions::default();
    let mut slo_ms = flight::DEFAULT_SLO_MS;
    let mut log_dest = "-".to_string();
    let mut log_level = Level::Info;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => match args.next() {
                Some(v) => store = Some(PathBuf::from(v)),
                None => return fail("--store needs a directory"),
            },
            "--addr" => match args.next() {
                Some(v) => addr = v,
                None => return fail("--addr needs a host:port"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.jobs = v,
                None => return fail("--jobs needs a number"),
            },
            "--slo-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => slo_ms = v,
                None => return fail("--slo-ms needs a number of milliseconds"),
            },
            "--log" => match args.next() {
                Some(v) => log_dest = v,
                None => return fail("--log needs a file path or -"),
            },
            "--log-level" => match args.next().as_deref().and_then(Level::parse) {
                Some(v) => log_level = v,
                None => return fail("--log-level needs debug, info, warn, or error"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }
    let Some(store) = store else {
        return fail("--store is required");
    };

    campion_trace::enable();
    if log_dest == "-" {
        log::init_stderr(log_level);
    } else if let Err(e) = log::init_file(log_level, std::path::Path::new(&log_dest)) {
        return fail(&format!("open log file {log_dest}: {e}"));
    }
    let mut daemon = match Daemon::open(&store, opts) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    daemon.set_slo_ms(slo_ms);
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => return fail(&format!("bind {addr}: {e}")),
    };
    // The bound address matters when the caller asked for port 0.
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    println!(
        "campion-fleetd listening on http://{bound} (store: {}, resumed at seq {})",
        store.display(),
        daemon.latest().map_or(0, |s| s.seq),
    );
    log::info(
        "fleetd.start",
        &[
            ("addr", Value::Str(&bound)),
            ("store", Value::Str(&store.display().to_string())),
            ("slo_ms", Value::U64(slo_ms)),
            (
                "resumed_seq",
                Value::U64(daemon.latest().map_or(0, |s| s.seq)),
            ),
        ],
    );
    if let Err(e) = http::serve(&listener, |req| api::handle(&mut daemon, req)) {
        eprintln!("campion-fleetd: serve: {e}");
        log::error(
            "fleetd.serve.error",
            &[("error", Value::Str(&e.to_string()))],
        );
        log::shutdown();
        return ExitCode::FAILURE;
    }
    println!("campion-fleetd: shutdown requested, exiting");
    log::info("fleetd.stop", &[]);
    log::shutdown();
    ExitCode::SUCCESS
}
