//! Oracles that do not come from the program: exit codes against known
//! answers, report hashes against set-up reports, injected witnesses
//! against reported ranges, and fleetd responses against what the
//! generator implies. Every check is counted; every failure is named.

use campion_fuzz::RouteWitness;

use crate::inputs::Fleet;
use crate::json::Value;
use crate::proc::Finished;

/// Checks attempted and the failures among them.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one check; record `what` when it failed.
    pub fn check(&mut self, result: Result<(), String>, what: &str) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// FNV-1a 64 of a report, for comparing timed runs with set-up reports.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `campion compare` must exit 0 for an equivalent pair and 1 for a pair
/// with differences. Exit code 2 (usage or parse error) and signals always
/// fail.
pub fn cli_verdict(f: &Finished, equivalent: bool) -> Result<(), String> {
    let want = if equivalent { 0 } else { 1 };
    match f.code {
        Some(c) if c == want => Ok(()),
        _ => Err(format!("expected exit code {want}, got {}", f.describe())),
    }
}

/// A timed run must print byte-for-byte the set-up report.
pub fn same_report(f: &Finished, reference: u64) -> Result<(), String> {
    let d = digest(&f.stdout);
    if d == reference {
        Ok(())
    } else {
        Err(format!(
            "report digest {d:016x} differs from the set-up report {reference:016x}"
        ))
    }
}

/// A prefix range as the JSON report prints it (`"10.9.0.0/16 : 16-32"`),
/// parsed here rather than by the program's own parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    addr: u32,
    len: u8,
    lo: u8,
    hi: u8,
}

impl Range {
    /// Parse `a.b.c.d/len : lo-hi`.
    pub fn parse(s: &str) -> Result<Range, String> {
        let bad = || format!("bad prefix range {s:?}");
        let (prefix, lens) = s.split_once(':').ok_or_else(bad)?;
        let (addr, len) = prefix.trim().split_once('/').ok_or_else(bad)?;
        let addr: std::net::Ipv4Addr = addr.parse().map_err(|_| bad())?;
        let (lo, hi) = lens.trim().split_once('-').ok_or_else(bad)?;
        let num = |t: &str| t.trim().parse::<u8>().ok().filter(|&v| v <= 32);
        match (num(len), num(lo), num(hi)) {
            (Some(len), Some(lo), Some(hi)) => Ok(Range {
                addr: u32::from(addr),
                len,
                lo,
                hi,
            }),
            _ => Err(bad()),
        }
    }

    /// Is the route `addr/len` a member (first `self.len` bits agree, length
    /// within `lo..=hi`)?
    pub fn member(&self, addr: u32, len: u8) -> bool {
        let m = if self.len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(self.len))
        };
        addr & m == self.addr & m && (self.lo..=self.hi).contains(&len)
    }
}

fn ranges(diff: &Value, key: &str) -> Result<Vec<Range>, String> {
    diff.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("difference without `{key}`"))?
        .iter()
        .map(|r| {
            r.as_str()
                .ok_or("non-string range".to_string())
                .and_then(Range::parse)
        })
        .collect()
}

/// The witness route of an injected divergence must fall inside some
/// reported route-map difference's included ranges and outside that
/// difference's excluded ranges.
pub fn witness_reported(report: &Value, w: &RouteWitness) -> Result<(), String> {
    let diffs = report
        .get("route_map_diffs")
        .and_then(Value::as_arr)
        .ok_or("report has no `route_map_diffs`")?;
    for d in diffs {
        let inc = ranges(d, "included")?;
        let exc = ranges(d, "excluded")?;
        if inc.iter().any(|r| r.member(w.addr, w.len))
            && !exc.iter().any(|r| r.member(w.addr, w.len))
        {
            return Ok(());
        }
    }
    Err(format!(
        "witness route {}/{} lies in none of {} reported differences",
        std::net::Ipv4Addr::from(w.addr),
        w.len,
        diffs.len()
    ))
}

/// A POST of a snapshot must answer 200 with the computed/cached split the
/// generator implies.
pub fn post_summary(status: u16, body: &str, total: usize, computed: usize) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}: {}", body.trim()));
    }
    let doc = crate::json::parse(body)?;
    let field = |k: &str| doc.get(k).and_then(Value::as_f64).map(|v| v as usize);
    let got = (
        field("pairs_total"),
        field("pairs_computed"),
        field("pairs_cached"),
    );
    let want = (Some(total), Some(computed), Some(total - computed));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "expected total/computed/cached {want:?}, got {got:?}"
        ))
    }
}

/// Every pair's served verdict (`GET /api/v1/pairs`) must match its known
/// answer with pair `perturbed` carrying the edit. Returns one line per
/// mismatch.
pub fn served_verdicts(
    status: u16,
    body: &str,
    fleet: &Fleet,
    perturbed: Option<usize>,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let doc = crate::json::parse(body)?;
    let rows = doc
        .get("pairs")
        .and_then(Value::as_arr)
        .ok_or("no `pairs` array")?;
    if rows.len() != fleet.pairs.len() {
        return Err(format!(
            "{} pairs served, {} expected",
            rows.len(),
            fleet.pairs.len()
        ));
    }
    let mut wrong = Vec::new();
    for (i, (row, p)) in rows.iter().zip(&fleet.pairs).enumerate() {
        let name = row.get("router1").and_then(Value::as_str);
        let eq = row.get("equivalent").and_then(Value::as_bool);
        let want = fleet.expect_equivalent(i, perturbed);
        if name != Some(p.a.as_str()) || eq != Some(want) {
            wrong.push(format!(
                "{} vs {}: served {eq:?}, known answer {want}",
                p.a, p.b
            ));
        }
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join("; "))
    }
}

/// The perturbed pair's new text report must show the added static route.
pub fn perturbed_report(status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    if body.contains("203.0.113.0/24") {
        Ok(())
    } else {
        Err("report does not show the perturbation's static route 203.0.113.0/24".to_string())
    }
}

/// A reader's GET must answer 200 with a non-empty report.
pub fn served_report(status: u16, body: &str) -> Result<(), String> {
    if status == 200 && !body.trim().is_empty() {
        Ok(())
    } else {
        Err(format!("status {status}, {} bytes", body.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{fleet_inputs, FleetPair};

    fn finished(code: Option<i32>, signal: Option<i32>, out: &[u8]) -> Finished {
        Finished {
            code,
            signal,
            wall: std::time::Duration::ZERO,
            cpu: std::time::Duration::ZERO,
            maxrss_kb: 1,
            stdout: out.to_vec(),
        }
    }

    #[test]
    fn exit_codes_against_known_answers() {
        assert!(cli_verdict(&finished(Some(1), None, b""), false).is_ok());
        assert!(cli_verdict(&finished(Some(0), None, b""), true).is_ok());
        // A wrong verdict, a parse error and a crash all fail.
        assert!(cli_verdict(&finished(Some(0), None, b""), false).is_err());
        assert!(cli_verdict(&finished(Some(2), None, b""), false).is_err());
        assert!(cli_verdict(&finished(None, Some(11), b""), true).is_err());
        let r = finished(Some(1), None, b"report");
        assert!(same_report(&r, digest(b"report")).is_ok());
        assert!(same_report(&r, digest(b"other")).is_err());
    }

    #[test]
    fn witness_must_be_included_and_not_excluded() {
        let report = crate::json::parse(
            "{\"route_map_diffs\": [{\"included\": [\"10.0.0.0/8 : 8-24\"], \
             \"excluded\": [\"10.1.0.0/16 : 16-24\"]}]}",
        )
        .expect("parse");
        let w = |a: [u8; 4], len: u8| RouteWitness {
            addr: u32::from(std::net::Ipv4Addr::from(a)),
            len,
            comms: Vec::new(),
        };
        assert!(witness_reported(&report, &w([10, 2, 0, 0], 16)).is_ok());
        assert!(witness_reported(&report, &w([10, 1, 0, 0], 16)).is_err());
        assert!(witness_reported(&report, &w([10, 2, 0, 0], 25)).is_err());
        assert!(witness_reported(&report, &w([11, 0, 0, 0], 8)).is_err());
        assert!(Range::parse("10.0.0.0/8 : 9-8x").is_err());
    }

    #[test]
    fn post_split_is_checked() {
        let body = "{\"seq\": 2, \"pairs_total\": 15, \"pairs_computed\": 2, \"pairs_cached\": 13}";
        assert!(post_summary(200, body, 15, 2).is_ok());
        assert!(post_summary(200, body, 15, 1).is_err());
        assert!(post_summary(400, "{\"error\": \"x\"}", 15, 2).is_err());
    }

    #[test]
    fn a_wrong_served_verdict_counts_as_a_failure() {
        let fleet = Fleet {
            configs: Default::default(),
            pairs: vec![
                FleetPair {
                    a: "r1".into(),
                    b: "r2".into(),
                    equivalent: true,
                },
                FleetPair {
                    a: "r3".into(),
                    b: "r4".into(),
                    equivalent: false,
                },
            ],
            notes: Vec::new(),
        };
        let served = |eq1: bool| {
            format!(
                "{{\"pairs\": [{{\"router1\": \"r1\", \"equivalent\": {eq1}}}, \
                 {{\"router1\": \"r3\", \"equivalent\": false}}]}}"
            )
        };
        let mut tally = Tally::default();
        tally.check(served_verdicts(200, &served(true), &fleet, None), "cold");
        // Perturbing pair 0 makes it non-equivalent; serving the old
        // verdict is wrong.
        tally.check(served_verdicts(200, &served(true), &fleet, Some(0)), "warm");
        tally.check(
            served_verdicts(200, &served(false), &fleet, Some(0)),
            "warm",
        );
        assert_eq!((tally.attempted, tally.failed()), (3, 1));
        assert!(tally.failures[0].starts_with("warm: r1 vs r2"));
    }

    #[test]
    fn witness_oracle_holds_on_a_tiny_seed() {
        let size = crate::inputs::RmapSize {
            lists: 6,
            entries: 5,
            clauses: 8,
            comms: 4,
        };
        let inputs = crate::inputs::rmap_inputs_sized(3, size, 3).expect("generate");
        let opts = campion_core::CampionOptions::default();
        for p in &inputs.pairs {
            let report =
                campion_core::compare_config_texts(&p.cisco, &p.juniper, &opts).expect("compare");
            let doc = crate::json::parse(&campion_core::report_json(&report)).expect("report JSON");
            for d in &p.divergences {
                assert!(witness_reported(&doc, &d.witness).is_ok(), "{}", d.edit);
            }
        }
        let c = &inputs.control;
        let report =
            campion_core::compare_config_texts(&c.cisco, &c.juniper, &opts).expect("compare");
        assert!(report.is_equivalent());
    }

    #[test]
    fn fleet_oracles_on_a_tiny_daemon_catch_a_wrong_known_answer() {
        let f = fleet_inputs(5).expect("fleet");
        let n = f.pairs.len();
        let dir = std::env::temp_dir().join(format!("campbench-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut daemon = campion_fleet::Daemon::open(&dir, campion_core::CampionOptions::default())
            .expect("open");
        let cold = daemon
            .ingest(&f.snapshot("cold", None))
            .expect("cold ingest");
        let mut tally = Tally::default();
        tally.check(post_summary(200, &cold.to_json(), n, n), "cold POST");
        tally.check(
            served_verdicts(200, &daemon.pairs_json(), &f, None),
            "cold verdicts",
        );
        let warm = daemon
            .ingest(&f.snapshot("warm", Some(2)))
            .expect("warm ingest");
        tally.check(
            post_summary(200, &warm.to_json(), n, f.changed_pairs(None, Some(2))),
            "warm POST",
        );
        tally.check(
            served_verdicts(200, &daemon.pairs_json(), &f, Some(2)),
            "warm verdicts",
        );
        let text = daemon
            .pair_report_text(&f.pairs[2].a, &f.pairs[2].b)
            .expect("served");
        tally.check(perturbed_report(200, text), "perturbed report");
        assert_eq!(
            (tally.attempted, tally.failed()),
            (5, 0),
            "{:?}",
            tally.failures
        );
        // One deliberately wrong known answer must count as one failure.
        let mut wrong = f.clone();
        wrong.pairs[0].equivalent = !wrong.pairs[0].equivalent;
        tally.check(
            served_verdicts(200, &daemon.pairs_json(), &wrong, Some(2)),
            "wrong answer",
        );
        assert_eq!(tally.failed(), 1);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_known_answers_follow_the_generators() {
        let f = fleet_inputs(1).expect("fleet");
        let eq: Vec<bool> = f.pairs.iter().map(|p| p.equivalent).collect();
        // Capirca pairs alternate one difference / none; scenario 1 has
        // bugs in its first 7 of 8 pairs, scenario 2 in its first 4 of 5.
        assert_eq!(&eq[..4], &[false, true, false, true]);
        let mut want = vec![false; 7];
        want.push(true);
        want.extend([false, false, false, false, true]);
        assert_eq!(&eq[4..], want.as_slice());
        assert!(perturbed_report(200, "... 203.0.113.0/24 ...").is_ok());
        assert!(perturbed_report(200, "equivalent").is_err());
    }
}
