//! The versioned on-disk snapshot store.
//!
//! One self-contained document per ingested snapshot, written atomically
//! as `snap-<seq>.json` under the store directory. Every document starts
//! with an explicit format marker and version so a reader can refuse what
//! it does not understand instead of misreading it:
//!
//! ```json
//! { "format": "campion-fleet-snapshot", "version": 1, ... }
//! ```
//!
//! Hashes are 64-bit and stored as 16-digit hex **strings** — the decode
//! side parses JSON numbers as `f64`, which silently drops bits above
//! 2^53, so integers that must round-trip exactly never travel as
//! numbers. Resource-attribution counters (version 2) are plain numbers —
//! they are bounded workload counts, far below 2^53. Decoding uses the
//! workspace's hand-rolled JSON parser (`campion_trace::json`); corruption
//! surfaces as a clean `Err`, never a panic. Old documents are pinned by
//! committed fixtures (`testdata/fleet/snap-v1.json`, `snap-v2.json`) that
//! the current reader must always decode — the backwards-compatibility
//! gate. Version 1 predates per-pair resource attribution; its pairs
//! decode with zeroed [`PairResources`].
//!
//! The store directory is single-writer: [`FleetStore::open`] takes a
//! `lock` file (`create_new` + PID) so a second daemon pointed at the same
//! directory fails fast with a clear error instead of interleaving
//! snapshots; the lock is removed on drop (clean shutdown).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use campion_ir::hash::ComponentHashes;
use campion_trace::json::{escape, parse, Json};

/// The store format this build writes, and the newest it reads. Version
/// history: 1 = initial (PR 8); 2 adds per-pair `resources` (wall time,
/// BDD node/GC/cache counters).
pub const FORMAT_VERSION: u64 = 2;

/// The format marker every snapshot document carries.
pub const FORMAT_MARKER: &str = "campion-fleet-snapshot";

/// Per-router record: the raw-text hash (parse-skip fast path) plus the
/// per-component content hashes (recompute decisions and provenance).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouterRecord {
    /// FNV-1a64 of the configuration bytes.
    pub text_hash: u64,
    /// Per-component hashes of the lowered VI model.
    pub components: ComponentHashes,
}

/// How a pair's result entered this snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairStatus {
    /// The compare pipeline ran during this snapshot's ingest.
    Computed,
    /// Served from the store: no relevant component changed since the
    /// snapshot named by `computed_at`.
    Cached,
}

impl PairStatus {
    fn as_str(self) -> &'static str {
        match self {
            PairStatus::Computed => "computed",
            PairStatus::Cached => "cached",
        }
    }
}

/// Per-pair resource attribution: what one compare cost, captured from the
/// pair's `ManagerStats` at ingest and persisted so an operator can ask
/// "which pair is eating the fleet's memory/GC budget" long after the
/// compute happened. Cached pairs carry the figures of the ingest that
/// actually computed them (provenance: `computed_at`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairResources {
    /// Wall nanoseconds of the compare that produced this result (unlike
    /// `PairRecord::compute_ns`, not zeroed when served from the store).
    pub wall_ns: u64,
    /// Live BDD nodes when the compare finished.
    pub bdd_nodes: u64,
    /// Peak live BDD nodes during the compare.
    pub peak_nodes: u64,
    /// Live nodes right after the pair's compaction (0 if it never
    /// compacted).
    pub post_gc_nodes: u64,
    /// Completed collections: compactions, one per pair with differences.
    pub gc_runs: u64,
    /// GC pauses. Every collection is one pause, so the daemon writes
    /// `gc_runs` here; the field stays because store format v2 carries it.
    pub gc_pauses: u64,
    /// Total GC pause time, microseconds.
    pub gc_pause_us: u64,
    /// Longest single GC pause, microseconds.
    pub gc_pause_max_us: u64,
    /// Unique-table lookups / hits.
    pub unique_lookups: u64,
    /// Unique-table hits.
    pub unique_hits: u64,
    /// Apply-cache lookups.
    pub apply_lookups: u64,
    /// Apply-cache hits.
    pub apply_hits: u64,
    /// Rule-BDD cache lookups.
    pub rule_cache_lookups: u64,
    /// Rule-BDD cache hits.
    pub rule_cache_hits: u64,
}

impl PairResources {
    pub(crate) fn encode(&self) -> String {
        format!(
            "{{\"wall_ns\": {}, \"bdd_nodes\": {}, \"peak_nodes\": {}, \
             \"post_gc_nodes\": {}, \"gc_runs\": {}, \"gc_pauses\": {}, \
             \"gc_pause_us\": {}, \"gc_pause_max_us\": {}, \
             \"unique_lookups\": {}, \"unique_hits\": {}, \
             \"apply_lookups\": {}, \"apply_hits\": {}, \
             \"rule_cache_lookups\": {}, \"rule_cache_hits\": {}}}",
            self.wall_ns,
            self.bdd_nodes,
            self.peak_nodes,
            self.post_gc_nodes,
            self.gc_runs,
            self.gc_pauses,
            self.gc_pause_us,
            self.gc_pause_max_us,
            self.unique_lookups,
            self.unique_hits,
            self.apply_lookups,
            self.apply_hits,
            self.rule_cache_lookups,
            self.rule_cache_hits,
        )
    }

    fn decode(j: &Json) -> Result<PairResources, String> {
        Ok(PairResources {
            wall_ns: get_u64(j, "wall_ns")?,
            bdd_nodes: get_u64(j, "bdd_nodes")?,
            peak_nodes: get_u64(j, "peak_nodes")?,
            post_gc_nodes: get_u64(j, "post_gc_nodes")?,
            gc_runs: get_u64(j, "gc_runs")?,
            gc_pauses: get_u64(j, "gc_pauses")?,
            gc_pause_us: get_u64(j, "gc_pause_us")?,
            gc_pause_max_us: get_u64(j, "gc_pause_max_us")?,
            unique_lookups: get_u64(j, "unique_lookups")?,
            unique_hits: get_u64(j, "unique_hits")?,
            apply_lookups: get_u64(j, "apply_lookups")?,
            apply_hits: get_u64(j, "apply_hits")?,
            rule_cache_lookups: get_u64(j, "rule_cache_lookups")?,
            rule_cache_hits: get_u64(j, "rule_cache_hits")?,
        })
    }
}

/// One pair's result within a snapshot, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRecord {
    /// First router name (manifest order).
    pub router1: String,
    /// Second router name.
    pub router2: String,
    /// Combined content key of both routers' compared components.
    pub pair_key: u64,
    /// Computed this ingest, or served from the store.
    pub status: PairStatus,
    /// The snapshot sequence number whose ingest actually ran the compare
    /// (`computed @ snapshot k` provenance).
    pub computed_at: u64,
    /// The components whose hashes moved and forced the recompute
    /// (empty for cached pairs and for a fleet's first snapshot).
    pub changed: Vec<String>,
    /// Whether the pair was found behaviorally equivalent.
    pub equivalent: bool,
    /// Number of reported differences.
    pub differences: u64,
    /// Wall nanoseconds the compare took (0 when served from the store).
    pub compute_ns: u64,
    /// What the compare cost (carried along when served from the store).
    pub resources: PairResources,
    /// The rendered text report — byte-identical to `campion compare`.
    pub report_text: String,
    /// The structured JSON report — byte-identical to
    /// `campion compare --format json`.
    pub report_json: String,
}

/// One ingested snapshot: routers, their hashes, and every pair's result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotRecord {
    /// Monotonic sequence number, 1-based.
    pub seq: u64,
    /// Operator-facing snapshot label.
    pub name: String,
    /// Ingest wall-clock time, seconds since the Unix epoch.
    pub ingested_unix: u64,
    /// Per-router hash records.
    pub routers: BTreeMap<String, RouterRecord>,
    /// Pair results in manifest order.
    pub pairs: Vec<PairRecord>,
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

fn from_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hash {s:?}: {e}"))
}

fn hash_map_json(m: &BTreeMap<String, u64>) -> String {
    let parts: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), hex(*v)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    let n = j
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))?;
    if n < 0.0 || n > 2f64.powi(53) {
        return Err(format!("field {key:?} out of exact integer range: {n}"));
    }
    Ok(n as u64)
}

fn get_bool(j: &Json, key: &str) -> Result<bool, String> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean field {key:?}"))
}

fn get_hash(j: &Json, key: &str) -> Result<u64, String> {
    from_hex(get_str(j, key)?)
}

fn get_hash_map(j: &Json, key: &str) -> Result<BTreeMap<String, u64>, String> {
    match j.get(key) {
        Some(Json::Obj(members)) => {
            let mut out = BTreeMap::new();
            for (k, v) in members {
                let s = v
                    .as_str()
                    .ok_or_else(|| format!("hash map {key:?} entry {k:?} is not a string"))?;
                out.insert(k.clone(), from_hex(s)?);
            }
            Ok(out)
        }
        _ => Err(format!("missing object field {key:?}")),
    }
}

impl SnapshotRecord {
    /// Serialize as a self-contained, versioned JSON document.
    pub fn encode(&self) -> String {
        let mut o = String::from("{\n");
        let _ = write!(
            o,
            "  \"format\": \"{FORMAT_MARKER}\",\n  \"version\": {FORMAT_VERSION},\n"
        );
        let _ = writeln!(
            o,
            "  \"seq\": {}, \"name\": \"{}\", \"ingested_unix\": {},",
            self.seq,
            escape(&self.name),
            self.ingested_unix
        );
        o.push_str("  \"routers\": {\n");
        let routers: Vec<String> = self
            .routers
            .iter()
            .map(|(name, r)| {
                format!(
                    "    \"{}\": {{\"text_hash\": \"{}\", \"structural\": \"{}\", \
                     \"policies\": {}, \"acls\": {}}}",
                    escape(name),
                    hex(r.text_hash),
                    hex(r.components.structural),
                    hash_map_json(&r.components.policies),
                    hash_map_json(&r.components.acls),
                )
            })
            .collect();
        o.push_str(&routers.join(",\n"));
        o.push_str("\n  },\n  \"pairs\": [\n");
        let pairs: Vec<String> = self
            .pairs
            .iter()
            .map(|p| {
                let changed: Vec<String> = p
                    .changed
                    .iter()
                    .map(|c| format!("\"{}\"", escape(c)))
                    .collect();
                format!(
                    "    {{\"router1\": \"{}\", \"router2\": \"{}\", \"pair_key\": \"{}\", \
                     \"status\": \"{}\", \"computed_at\": {}, \"changed\": [{}], \
                     \"equivalent\": {}, \"differences\": {}, \"compute_ns\": {}, \
                     \"resources\": {}, \
                     \"report_text\": \"{}\", \"report_json\": \"{}\"}}",
                    escape(&p.router1),
                    escape(&p.router2),
                    hex(p.pair_key),
                    p.status.as_str(),
                    p.computed_at,
                    changed.join(", "),
                    p.equivalent,
                    p.differences,
                    p.compute_ns,
                    p.resources.encode(),
                    escape(&p.report_text),
                    escape(&p.report_json),
                )
            })
            .collect();
        o.push_str(&pairs.join(",\n"));
        o.push_str("\n  ]\n}\n");
        o
    }

    /// Decode a document, refusing unknown formats and newer versions.
    pub fn decode(text: &str) -> Result<Self, String> {
        let doc = parse(text).map_err(|e| format!("snapshot document: {e}"))?;
        match doc.get("format").and_then(Json::as_str) {
            Some(FORMAT_MARKER) => {}
            Some(other) => return Err(format!("not a fleet snapshot (format {other:?})")),
            None => return Err("not a fleet snapshot (no format marker)".to_string()),
        }
        let version = get_u64(&doc, "version")?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(format!(
                "unsupported snapshot format version {version} (this reader supports 1..={FORMAT_VERSION})"
            ));
        }
        let mut routers = BTreeMap::new();
        match doc.get("routers") {
            Some(Json::Obj(members)) => {
                for (name, r) in members {
                    routers.insert(
                        name.clone(),
                        RouterRecord {
                            text_hash: get_hash(r, "text_hash")?,
                            components: ComponentHashes {
                                structural: get_hash(r, "structural")?,
                                policies: get_hash_map(r, "policies")?,
                                acls: get_hash_map(r, "acls")?,
                            },
                        },
                    );
                }
            }
            _ => return Err("missing \"routers\" object".to_string()),
        }
        let mut pairs = Vec::new();
        for p in doc
            .get("pairs")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing \"pairs\" array".to_string())?
        {
            let status = match get_str(p, "status")? {
                "computed" => PairStatus::Computed,
                "cached" => PairStatus::Cached,
                other => return Err(format!("unknown pair status {other:?}")),
            };
            let changed = p
                .get("changed")
                .and_then(Json::as_arr)
                .ok_or_else(|| "missing \"changed\" array".to_string())?
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "non-string changed entry".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            // v1 predates resource attribution: decode those pairs with
            // zeroed resources instead of refusing the document.
            let resources = match p.get("resources") {
                Some(r) => PairResources::decode(r)?,
                None if version < 2 => PairResources::default(),
                None => return Err("missing \"resources\" object".to_string()),
            };
            pairs.push(PairRecord {
                router1: get_str(p, "router1")?.to_string(),
                router2: get_str(p, "router2")?.to_string(),
                pair_key: get_hash(p, "pair_key")?,
                status,
                computed_at: get_u64(p, "computed_at")?,
                changed,
                equivalent: get_bool(p, "equivalent")?,
                differences: get_u64(p, "differences")?,
                compute_ns: get_u64(p, "compute_ns")?,
                resources,
                report_text: get_str(p, "report_text")?.to_string(),
                report_json: get_str(p, "report_json")?.to_string(),
            });
        }
        Ok(SnapshotRecord {
            seq: get_u64(&doc, "seq")?,
            name: get_str(&doc, "name")?.to_string(),
            ingested_unix: get_u64(&doc, "ingested_unix")?,
            routers,
            pairs,
        })
    }

    /// Find a pair record by router names (manifest order).
    pub fn find_pair(&self, r1: &str, r2: &str) -> Option<&PairRecord> {
        self.pairs
            .iter()
            .find(|p| p.router1 == r1 && p.router2 == r2)
    }
}

/// A directory of snapshot documents. Single-writer: holds a PID lock
/// file for its lifetime (removed on drop).
#[derive(Debug)]
pub struct FleetStore {
    dir: PathBuf,
    lock_path: PathBuf,
}

impl FleetStore {
    /// Open (creating if needed) a store directory, taking its exclusive
    /// lock. Fails with a clear error naming the holder's PID when another
    /// process already owns the directory.
    pub fn open(dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let lock_path = dir.join("lock");
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut f) => {
                use std::io::Write as _;
                let _ = writeln!(f, "{}", std::process::id());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&lock_path)
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default();
                let holder = if holder.is_empty() {
                    "unknown pid".to_string()
                } else {
                    format!("pid {holder}")
                };
                return Err(format!(
                    "store {} is locked by another process ({holder});                      is a second campion-fleetd running? remove {} if it is stale",
                    dir.display(),
                    lock_path.display()
                ));
            }
            Err(e) => return Err(format!("{}: {e}", lock_path.display())),
        }
        Ok(FleetStore {
            dir: dir.to_path_buf(),
            lock_path,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snap_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:06}.json"))
    }

    /// All stored sequence numbers, ascending.
    pub fn seqs(&self) -> Result<Vec<u64>, String> {
        let mut out = Vec::new();
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        for entry in entries {
            let name = entry
                .map_err(|e| format!("{}: {e}", self.dir.display()))?
                .file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push(seq);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Load one snapshot by sequence number.
    pub fn load(&self, seq: u64) -> Result<SnapshotRecord, String> {
        let path = self.snap_path(seq);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        SnapshotRecord::decode(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Load the newest snapshot, if any.
    pub fn latest(&self) -> Result<Option<SnapshotRecord>, String> {
        match self.seqs()?.last() {
            Some(&seq) => Ok(Some(self.load(seq)?)),
            None => Ok(None),
        }
    }

    /// Persist a snapshot atomically (temp file + rename).
    pub fn save(&self, snap: &SnapshotRecord) -> Result<PathBuf, String> {
        let path = self.snap_path(snap.seq);
        let tmp = self.dir.join(format!(".snap-{:06}.tmp", snap.seq));
        std::fs::write(&tmp, snap.encode()).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for FleetStore {
    fn drop(&mut self) {
        // Clean shutdown releases the directory for the next daemon. A
        // crashed process leaves the lock behind on purpose: the error
        // message tells the operator which PID to check and what to remove.
        let _ = std::fs::remove_file(&self.lock_path);
    }
}
