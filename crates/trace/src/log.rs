//! Structured, leveled, rate-limited JSON-lines logging.
//!
//! The same zero-dependency philosophy as the span collector: one relaxed
//! atomic load is the whole cost when logging is off, and there is nothing
//! to configure beyond a level and a sink. Each record is a single JSON
//! object per line:
//!
//! ```text
//! {"ts_ms":1754649600123,"level":"info","event":"fleet.ingest","span":"fleet.ingest","track":0,"seq":3,"pairs_computed":1}
//! ```
//!
//! * **Span-context enriched.** If the calling thread has an open trace
//!   span, its name and track are stamped onto the record
//!   ([`crate::current_span`]), tying log lines to the phase that emitted
//!   them without the caller passing context around.
//! * **Rate-limited.** Each distinct event name may emit at most
//!   [`MAX_PER_WINDOW`] records per second; excess records are counted, not
//!   written, and the next record that passes carries a
//!   `"suppressed": N` field so nothing disappears silently.
//! * **Sinks.** Stderr (the daemon default), a file (`--log <path>`), or an
//!   in-memory buffer for tests. The sink is swappable at runtime so tests
//!   can capture output; writes take a mutex — logging is for edges
//!   (requests, ingests, errors), not per-item hot paths, which belong to
//!   the span collector.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
#[cfg(test)]
use std::sync::Arc;
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::escape;

/// Log severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-operation detail (per-pair recomputes); off by default.
    Debug = 1,
    /// Normal operational events (requests, ingests).
    Info = 2,
    /// Unexpected but handled conditions (SLO breaches, flight dumps).
    Warn = 3,
    /// Failed operations.
    Error = 4,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse `"debug" | "info" | "warn" | "error"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A typed field value; borrows strings so call sites never allocate just
/// to log.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// String field (JSON-escaped on write).
    Str(&'a str),
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Float field (written with up to 6 significant decimals).
    F64(f64),
    /// Boolean field.
    Bool(bool),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Max records per event name per one-second window before suppression.
pub const MAX_PER_WINDOW: u32 = 64;

enum Sink {
    Stderr,
    File(std::fs::File),
    #[cfg(test)]
    Buffer(Arc<Mutex<String>>),
}

struct RateState {
    window: u64,
    emitted: u32,
    suppressed: u64,
}

struct Logger {
    sink: Sink,
    limits: HashMap<&'static str, RateState>,
}

/// 0 = off; otherwise the minimum enabled `Level` discriminant. One relaxed
/// load gates every call site.
static LOG_LEVEL: AtomicU8 = AtomicU8::new(0);
static LOGGER: Mutex<Option<Logger>> = Mutex::new(None);
static START: OnceLock<Instant> = OnceLock::new();

fn init(level: Level, sink: Sink) {
    START.get_or_init(Instant::now);
    *LOGGER.lock().expect("logger poisoned") = Some(Logger {
        sink,
        limits: HashMap::new(),
    });
    LOG_LEVEL.store(level as u8, Ordering::SeqCst);
}

/// Route records at `level` and above to stderr.
pub fn init_stderr(level: Level) {
    init(level, Sink::Stderr);
}

/// Route records at `level` and above to `path` (append-created).
pub fn init_file(level: Level, path: &Path) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    init(level, Sink::File(f));
    Ok(())
}

/// Route records into an in-memory buffer and return it.
#[cfg(test)]
pub(crate) fn init_buffer(level: Level) -> Arc<Mutex<String>> {
    let buf = Arc::new(Mutex::new(String::new()));
    init(level, Sink::Buffer(buf.clone()));
    buf
}

/// Turn logging off and drop the sink (flushes file sinks via drop).
pub fn shutdown() {
    LOG_LEVEL.store(0, Ordering::SeqCst);
    *LOGGER.lock().expect("logger poisoned") = None;
}

/// Would a record at `level` be written? One relaxed atomic load — gate
/// any field computation on this.
#[inline]
pub fn enabled(level: Level) -> bool {
    let min = LOG_LEVEL.load(Ordering::Relaxed);
    min != 0 && level as u8 >= min
}

/// Write one record. `event` is a static name (it keys rate limiting);
/// `fields` are appended in order after the standard fields.
pub fn log(level: Level, event: &'static str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let uptime = START.get().map(|s| s.elapsed()).unwrap_or_default();
    let span = crate::current_span();
    let track = crate::track();

    let mut g = LOGGER.lock().expect("logger poisoned");
    let Some(logger) = g.as_mut() else { return };

    // Per-event token window keyed on uptime seconds.
    let window = uptime.as_secs();
    let state = logger.limits.entry(event).or_insert(RateState {
        window,
        emitted: 0,
        suppressed: 0,
    });
    if state.window != window {
        state.window = window;
        state.emitted = 0;
    }
    if state.emitted >= MAX_PER_WINDOW {
        state.suppressed += 1;
        return;
    }
    state.emitted += 1;
    let suppressed = std::mem::take(&mut state.suppressed);

    let mut line = String::with_capacity(128);
    let _ = write!(
        line,
        "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"event\":\"{}\"",
        level.as_str(),
        escape(event)
    );
    if let Some(name) = span {
        let _ = write!(line, ",\"span\":\"{}\"", escape(name));
    }
    if let Some(t) = track {
        let _ = write!(line, ",\"track\":{t}");
    }
    if suppressed > 0 {
        let _ = write!(line, ",\"suppressed\":{suppressed}");
    }
    for (k, v) in fields {
        let _ = write!(line, ",\"{}\":", escape(k));
        match v {
            Value::Str(s) => {
                let _ = write!(line, "\"{}\"", escape(s));
            }
            Value::U64(n) => {
                let _ = write!(line, "{n}");
            }
            Value::I64(n) => {
                let _ = write!(line, "{n}");
            }
            Value::F64(x) => {
                if x.is_finite() {
                    let _ = write!(line, "{x:.6}");
                } else {
                    line.push_str("null");
                }
            }
            Value::Bool(b) => {
                let _ = write!(line, "{b}");
            }
        }
    }
    line.push_str("}\n");

    match &mut logger.sink {
        Sink::Stderr => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
        Sink::File(f) => {
            let _ = f.write_all(line.as_bytes());
        }
        #[cfg(test)]
        Sink::Buffer(b) => {
            b.lock().expect("log buffer poisoned").push_str(&line);
        }
    }
}

/// `log(Level::Debug, ...)`.
pub fn debug(event: &'static str, fields: &[(&str, Value<'_>)]) {
    log(Level::Debug, event, fields);
}

/// `log(Level::Info, ...)`.
pub fn info(event: &'static str, fields: &[(&str, Value<'_>)]) {
    log(Level::Info, event, fields);
}

/// `log(Level::Warn, ...)`.
pub fn warn(event: &'static str, fields: &[(&str, Value<'_>)]) {
    log(Level::Warn, event, fields);
}

/// `log(Level::Error, ...)`.
pub fn error(event: &'static str, fields: &[(&str, Value<'_>)]) {
    log(Level::Error, event, fields);
}
