//! Minimal JSON support for the trace layer: a hand-rolled parser (the
//! workspace has no external dependencies) plus the Chrome trace-event
//! schema validator used by the tests and the `tracecheck` binary.

use std::collections::HashMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(c), *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogates are replaced rather than paired; trace
                        // names are ASCII so this never triggers in practice.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape. Both
                // delimiters are ASCII, so the run holds whole UTF-8
                // scalars, and only the run itself needs validating (not
                // the rest of the input, which made decoding quadratic).
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        out.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Summary returned by a successful [`validate_chrome_trace`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in `traceEvents` (metadata included).
    pub events: usize,
    /// Matched `B`/`E` pairs.
    pub spans: usize,
    /// Distinct `tid`s carrying duration events.
    pub tracks: usize,
}

impl fmt::Display for TraceCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} spans, {} track(s)",
            self.events, self.spans, self.tracks
        )
    }
}

/// Validate a Chrome trace-event JSON document of the shape
/// [`crate::Trace::chrome_json`] emits:
///
/// * the root is an object whose `traceEvents` member is an array;
/// * every event is an object with string `name` and `ph`;
/// * duration events (`ph` ∈ {`B`, `E`}) carry numeric `ts`, `pid`, `tid`;
/// * per `tid`, in array order: timestamps are monotonically
///   non-decreasing, and `B`/`E` events pair LIFO with matching names —
///   every `B` has its `E`, no `E` arrives unopened.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let root = parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("root has no `traceEvents` array")?;
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string `name`"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string `ph`"))?;
        match ph {
            "M" => continue,
            "B" | "E" => {
                let ts = e
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: missing numeric `ts`"))?;
                e.get("pid")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: missing numeric `pid`"))?;
                let tid = e
                    .get("tid")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: missing numeric `tid`"))?
                    as u64;
                if let Some(&prev) = last_ts.get(&tid) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: ts {ts} < {prev} — tid {tid} not monotonic"
                        ));
                    }
                }
                last_ts.insert(tid, ts);
                let stack = stacks.entry(tid).or_default();
                if ph == "B" {
                    stack.push(name.to_string());
                } else {
                    match stack.pop() {
                        Some(open) if open == name => spans += 1,
                        Some(open) => {
                            return Err(format!(
                                "event {i}: E `{name}` closes open span `{open}` on tid {tid}"
                            ))
                        }
                        None => {
                            return Err(format!(
                                "event {i}: E `{name}` with no open span on tid {tid}"
                            ))
                        }
                    }
                }
            }
            other => return Err(format!("event {i}: unsupported ph `{other}`")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} span(s) never closed (first: `{}`)",
                stack.len(),
                stack[0]
            ));
        }
    }
    Ok(TraceCheck {
        events: events.len(),
        spans,
        tracks: stacks.len(),
    })
}
