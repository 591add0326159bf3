//! `fleet-http`: `campion-fleetd` on loopback, driven over HTTP by two
//! open-loop clients — a writer posting warm snapshots and a reader
//! fetching served reports — with at most one connection each.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::Fleet;
use crate::oracle::{self, Tally};
use crate::stats::{self, secs, OpenSample, Pacer};
use crate::tracer::Tracer;
use crate::{Metric, Outcome};

/// The writer posts one warm snapshot per period. Posting the ~77 KB
/// snapshot took about 0.13 s on 2 hardware threads, a quarter of the
/// period, so reads mostly find the accept loop idle; a 20 s run yields 40
/// ingests, enough for a p75 tail.
pub const WRITE_PERIOD: Duration = Duration::from_millis(500);
/// The reader fetches one report per period.
pub const READ_PERIOD: Duration = Duration::from_millis(50);
/// Set-up rounds (daemon spawn through cold ingest); `setup_s` is their
/// median.
pub const SETUP_ROUNDS: usize = 5;

/// One HTTP/1.1 request with `Connection: close`; returns status and body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(60));
    s.set_read_timeout(timeout).map_err(|e| e.to_string())?;
    s.set_write_timeout(timeout).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|()| s.write_all(body))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// A running `campion-fleetd`, stopped (and waited for) on drop.
pub struct Fleetd {
    child: Child,
    /// Kept open so the daemon's last status line cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Fleetd {
    /// Spawn with every option at its default except the store directory
    /// and an ephemeral loopback port; its log goes to `log`.
    pub fn spawn(bin: &Path, store: &Path, log: &Path) -> Result<Fleetd, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no stdout pipe")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut d = Fleetd {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                d.addr = addr;
                Ok(d)
            }
            _ => Err(format!(
                "campion-fleetd did not report its address (got {line:?})"
            )),
        }
    }

    /// Peak resident set so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(crate::proc::vm_hwm_kb(self.child.id())? as f64 / 1024.0)
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let r = http(self.addr, "POST", "/api/v1/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (r, status.success()) {
                    (Ok((200, _)), true) => Ok(()),
                    (r, _) => Err(format!("shutdown: {r:?}, daemon exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("campion-fleetd did not exit within 10 s of shutdown".to_string())
    }
}

impl Drop for Fleetd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Pair `i`'s served-report path.
fn pair_path(fleet: &Fleet, i: usize, leaf: &str) -> String {
    let p = &fleet.pairs[i];
    format!("/api/v1/pair/{}/{}/{leaf}", p.a, p.b)
}

/// The two open-loop clients against one daemon address. With `tag`, each
/// request path carries `?rid=<group>` so the server side of a traced run
/// can match its spans to the client's (the API ignores query strings).
pub struct Clients<'a> {
    /// Daemon address.
    pub addr: SocketAddr,
    /// The fleet being served.
    pub fleet: &'a Fleet,
    /// Warm snapshot bodies: body `p` perturbs pair `p`.
    pub bodies: &'a [String],
    /// First due time.
    pub start: Instant,
    /// No request is due at or after this.
    pub deadline: Instant,
    /// Tag requests with their span group.
    pub tag: bool,
}

/// Span group of writer request `k` (reader request `k` uses `k`).
pub fn writer_group(k: u32) -> u64 {
    1_000_000 + u64::from(k)
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriterOut {
    /// Due time to the perturbed pair's new report being served.
    pub samples: Vec<OpenSample>,
    /// Its checks.
    pub tally: Tally,
    /// The pair the last accepted snapshot perturbed.
    pub last: Option<usize>,
}

/// What the reader saw: `(group, sample)` per GET.
#[derive(Debug, Default)]
pub struct ReaderOut {
    /// Per-request latency from the due time.
    pub samples: Vec<(u64, OpenSample)>,
    /// Its checks.
    pub tally: Tally,
}

impl Clients<'_> {
    fn path(&self, base: String, group: u64) -> String {
        if self.tag {
            format!("{base}?rid={group}")
        } else {
            base
        }
    }

    /// Post warm snapshot `k` (perturbing pair `k mod n`), then fetch that
    /// pair's new text report; the sample spans both.
    pub fn writer(&self, tr: &mut Tracer) -> WriterOut {
        let pacer = Pacer::new(self.start, WRITE_PERIOD);
        let n = self.fleet.pairs.len();
        let mut out = WriterOut::default();
        let mut prev: Option<usize> = None;
        for k in 0.. {
            if pacer.due(k) >= self.deadline {
                break;
            }
            std::thread::sleep(pacer.wait(k, Instant::now()));
            let p = k as usize % n;
            let g = writer_group(k);
            let sent = Instant::now();
            let post = http(
                self.addr,
                "POST",
                &self.path("/api/v1/snapshot".to_string(), g),
                self.bodies[p].as_bytes(),
            );
            let computed = self.fleet.changed_pairs(prev, Some(p));
            let posted = post.and_then(|(st, b)| oracle::post_summary(st, &b, n, computed));
            let ok = posted.is_ok();
            out.tally
                .check(posted, &format!("warm POST {k} (perturbs pair {p})"));
            if ok {
                prev = Some(p);
                out.last = prev;
            }
            let get = http(
                self.addr,
                "GET",
                &self.path(pair_path(self.fleet, p, "text"), g),
                b"",
            );
            let done = Instant::now();
            tr.record("client.ingest", g, sent, done);
            out.tally.check(
                get.and_then(|(st, b)| oracle::perturbed_report(st, &b)),
                &format!("new report after warm POST {k}"),
            );
            out.samples.push(pacer.sample(k, sent, done));
        }
        out
    }

    /// Fetch reports round-robin, alternating `/text` and `/report`.
    pub fn reader(&self, tr: &mut Tracer) -> ReaderOut {
        let pacer = Pacer::new(self.start + READ_PERIOD / 2, READ_PERIOD);
        let n = self.fleet.pairs.len();
        let mut out = ReaderOut::default();
        for k in 0.. {
            if pacer.due(k) >= self.deadline {
                break;
            }
            std::thread::sleep(pacer.wait(k, Instant::now()));
            let leaf = if k % 2 == 0 { "text" } else { "report" };
            let g = u64::from(k);
            let path = self.path(pair_path(self.fleet, k as usize % n, leaf), g);
            let sent = Instant::now();
            let r = http(self.addr, "GET", &path, b"");
            let done = Instant::now();
            tr.record("client.query", g, sent, done);
            out.tally.check(
                r.and_then(|(st, b)| oracle::served_report(st, &b)),
                &format!("GET {path}"),
            );
            out.samples.push((g, pacer.sample(k, sent, done)));
        }
        out
    }
}

/// The body of every warm snapshot, indexed by the pair it perturbs.
pub fn warm_bodies(fleet: &Fleet) -> Vec<String> {
    (0..fleet.pairs.len())
        .map(|p| fleet.snapshot(&format!("warm-{p}"), Some(p)).to_json())
        .collect()
}

fn late_summary(samples: &[OpenSample]) -> String {
    let late: Vec<f64> = samples.iter().map(|s| secs(s.late)).collect();
    let half = late.len() / 2;
    format!(
        "median {:.6} s, max {:.6} s, first-half median {:.6} s, second-half median {:.6} s",
        stats::median(&late),
        late.iter().copied().fold(0.0, f64::max),
        stats::median(&late[..half]),
        stats::median(&late[half..])
    )
}

/// Run the workload for `seconds` after set-up and return its metrics.
pub fn run(bin_dir: &Path, work: &Path, fleet: &Fleet, seconds: u64) -> Result<Outcome, String> {
    let bin = bin_dir.join("campion-fleetd");
    let mut tally = Tally::default();
    let mut lines = fleet.notes.clone();
    let cold = fleet.snapshot("cold", None).to_json();
    let bodies = warm_bodies(fleet);
    let n = fleet.pairs.len();
    lines.push(format!(
        "fleet: {n} pairs, {} routers, cold snapshot {} bytes, warm {} bytes",
        fleet.configs.len(),
        cold.len(),
        bodies[0].len()
    ));

    // Set-up: spawn an empty-store daemon and ingest the cold snapshot;
    // the last round's daemon serves the timed phase.
    let mut setup = Vec::new();
    let mut daemon = None;
    for round in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let store = work.join(format!("store{round}"));
        let d = Fleetd::spawn(&bin, &store, &work.join(format!("fleetd{round}.log")))?;
        let post = http(d.addr, "POST", "/api/v1/snapshot", cold.as_bytes());
        setup.push(secs(t0.elapsed()));
        tally.check(
            post.and_then(|(st, b)| oracle::post_summary(st, &b, n, n)),
            &format!("set-up round {round} cold POST"),
        );
        let verdicts = http(d.addr, "GET", "/api/v1/pairs", b"");
        tally.check(
            verdicts.and_then(|(st, b)| oracle::served_verdicts(st, &b, fleet, None)),
            &format!("set-up round {round} served verdicts"),
        );
        if round + 1 < SETUP_ROUNDS {
            tally.check(d.shutdown(), &format!("set-up round {round} shutdown"));
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no set-up round ran")?;

    let start = Instant::now() + Duration::from_millis(20);
    let clients = Clients {
        addr: daemon.addr,
        fleet,
        bodies: &bodies,
        start,
        deadline: start + Duration::from_secs(seconds),
        tag: false,
    };
    let (w, r) = std::thread::scope(|s| {
        let writer = s.spawn(|| clients.writer(&mut Tracer::new(false, start, 2)));
        let reader = s.spawn(|| clients.reader(&mut Tracer::new(false, start, 3)));
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let verdicts = http(daemon.addr, "GET", "/api/v1/pairs", b"");
    tally.check(
        verdicts.and_then(|(st, b)| oracle::served_verdicts(st, &b, fleet, w.last)),
        "served verdicts after the timed phase",
    );
    let peak = daemon.peak_rss_mb()?;
    tally.check(daemon.shutdown(), "final shutdown");
    for t in [w.tally, r.tally] {
        tally.attempted += t.attempted;
        tally.failures.extend(t.failures);
    }

    let ingest: Vec<f64> = w.samples.iter().map(|s| secs(s.latency)).collect();
    let query: Vec<f64> = r.samples.iter().map(|(_, s)| secs(s.latency)).collect();
    let (it, qt) = (stats::tail(&ingest), stats::tail(&query));
    let (i50, q50, setup_s) = (
        stats::median(&ingest),
        stats::median(&query),
        stats::median(&setup),
    );
    lines.push("traffic crossed the loopback interface (127.0.0.1), not a real link".to_string());
    lines.push(format!("ingest_p50_s = {i50} s (n={})", ingest.len()));
    lines.push(format!(
        "ingest_tail_s = {} s (p{}, n={}, {} beyond)",
        it.value, it.pct, it.n, it.beyond
    ));
    lines.push(format!("query_p50_s = {q50} s (n={})", query.len()));
    lines.push(format!(
        "query_tail_s = {} s (p{}, n={}, {} beyond)",
        qt.value, qt.pct, qt.n, qt.beyond
    ));
    lines.push(format!("peak_rss_mb = {peak} MB (daemon VmHWM at the end)"));
    lines.push(format!(
        "setup_s = {setup_s} s (median of {SETUP_ROUNDS} rounds: {setup:?})"
    ));
    lines.push(format!(
        "writer: 1 per {:?}, lateness {}",
        WRITE_PERIOD,
        late_summary(&w.samples)
    ));
    let rs: Vec<OpenSample> = r.samples.iter().map(|(_, s)| *s).collect();
    lines.push(format!(
        "reader: 1 per {:?}, lateness {}",
        READ_PERIOD,
        late_summary(&rs)
    ));
    Ok(Outcome {
        metrics: vec![
            Metric::new("verdict_p50_s", i50, "s"),
            Metric::new("verdict_tail_s", it.value, "s"),
            Metric::new("peak_rss_mb", peak, "MB"),
            Metric::new("setup_s", setup_s, "s"),
        ],
        tally,
        lines,
    })
}
