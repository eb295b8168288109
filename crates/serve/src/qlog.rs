//! The structured query log: one JSON object per executed statement,
//! appended to a rotating file and mirrored in a small in-memory ring
//! for `GET /log?n=`.
//!
//! The log is a trace a serial replay can check: every event carries
//! the canonical statement key, the epoch it executed at, and an FNV-1a
//! hash of the rendered result. [`check_history`] replays a captured
//! log's acknowledged writes in epoch order on a reference session and
//! holds every other event to the epoch it was stamped with.
//!
//! Format: one line per event, a flat JSON object —
//!
//! ```json
//! {"seq":12,"ts_us":58211,"client":3,"stmt":"nodes where kind=map",
//!  "key":"NODES WHERE KIND = map","outcome":"ok","cache_hit":true,
//!  "time_us":41,"reads":0,"epoch":2,"result_fnv":"8618312879776256743"}
//! ```
//!
//! `seq` is gap-free and monotonic (assigned under the log's own lock
//! as each statement finishes, so it survives rotation but does not
//! order events by epoch), `ts_us` counts from server start, and
//! `result_fnv` is a decimal *string* because u64 hashes overflow the
//! 2^53 integers JSON consumers can be trusted with. Rotation is
//! size-based: the active file moves to `<path>.<generation>` and the
//! oldest archive beyond `keep` is pruned. Every file operation is
//! best-effort — a full disk must never take queries down with it.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use lipstick_core::obs::{fnv1a64, json_escape};
use lipstick_proql::ast::Statement;
use lipstick_proql::parser::parse_statement;
use lipstick_proql::{ProqlError, Session};

/// Newest rendered events retained in memory for `GET /log?n=`.
const RING_CAPACITY: usize = 256;

/// Where and how to keep the structured query log.
#[derive(Debug, Clone)]
pub struct QueryLogConfig {
    /// Active log file; archives live beside it as `<path>.<n>`.
    pub path: PathBuf,
    /// Rotate once the active file reaches this many bytes.
    pub max_bytes: u64,
    /// Archived generations to keep (older ones are pruned).
    pub keep: usize,
}

impl QueryLogConfig {
    pub fn new(path: impl Into<PathBuf>) -> QueryLogConfig {
        QueryLogConfig {
            path: path.into(),
            max_bytes: 16 * 1024 * 1024,
            keep: 4,
        }
    }
}

/// One logged statement execution, as written to and parsed back from
/// the JSONL file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEvent {
    /// Gap-free, monotonic per-log sequence number.
    pub seq: u64,
    /// Microseconds since the log (≈ the server) started.
    pub ts_us: u64,
    /// Connection id the statement arrived on.
    pub client: u64,
    /// The statement as the client sent it.
    pub stmt: String,
    /// Canonical rendering of the parsed statement (the cache key);
    /// empty when the statement failed to parse.
    pub key: String,
    /// `"ok"` or `"err"`.
    pub outcome: String,
    pub cache_hit: bool,
    pub time_us: u64,
    pub reads: u64,
    /// Write epoch the statement executed at.
    pub epoch: u64,
    /// FNV-1a of the rendered text payload (result on success, message
    /// on error) — the byte-identity fingerprint replay checks.
    pub result_fnv: u64,
}

impl QueryEvent {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"seq":{},"ts_us":{},"client":{},"stmt":"{}","key":"{}","outcome":"{}","cache_hit":{},"time_us":{},"reads":{},"epoch":{},"result_fnv":"{}"}}"#,
            self.seq,
            self.ts_us,
            self.client,
            json_escape(&self.stmt),
            json_escape(&self.key),
            json_escape(&self.outcome),
            self.cache_hit,
            self.time_us,
            self.reads,
            self.epoch,
            self.result_fnv,
        )
    }

    /// Parse one JSONL line. Returns `None` on anything malformed —
    /// the replayer skips what it cannot understand rather than dying
    /// mid-log.
    pub fn parse(line: &str) -> Option<QueryEvent> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
        Some(QueryEvent {
            seq: get("seq")?.parse().ok()?,
            ts_us: get("ts_us")?.parse().ok()?,
            client: get("client")?.parse().ok()?,
            stmt: get("stmt")?.to_string(),
            key: get("key")?.to_string(),
            outcome: get("outcome")?.to_string(),
            cache_hit: match get("cache_hit")? {
                "true" => true,
                "false" => false,
                _ => return None,
            },
            time_us: get("time_us")?.parse().ok()?,
            reads: get("reads")?.parse().ok()?,
            epoch: get("epoch")?.parse().ok()?,
            result_fnv: get("result_fnv")?.parse().ok()?,
        })
    }

    /// The fingerprint [`QueryEvent::result_fnv`] stores: FNV-1a of the
    /// text payload a statement rendered to.
    pub fn fingerprint(payload: &str) -> u64 {
        fnv1a64(payload.as_bytes())
    }
}

/// Parse a single-line flat JSON object (string / number / bool
/// values only — exactly what [`QueryEvent::to_json`] emits) into
/// `(key, unescaped value)` pairs. Not a general JSON parser.
fn parse_flat_object(line: &str) -> Option<Vec<(String, String)>> {
    let s = line.trim();
    let body = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut chars = body.char_indices().peekable();
    let mut fields = Vec::new();
    loop {
        // Key: a JSON string.
        skip_ws_and(&mut chars, ',');
        let Some(&(_, c)) = chars.peek() else { break };
        if c != '"' {
            return None;
        }
        let key = parse_string(&mut chars)?;
        skip_ws_and(&mut chars, ':');
        // Value: string, or a bare token up to the next ',' at depth 0.
        let value = match chars.peek() {
            Some(&(_, '"')) => parse_string(&mut chars)?,
            Some(_) => {
                let mut token = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    token.push(c);
                    chars.next();
                }
                token.trim().to_string()
            }
            None => return None,
        };
        fields.push((key, value));
    }
    Some(fields)
}

fn skip_ws_and(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>, sep: char) {
    while let Some(&(_, c)) = chars.peek() {
        if c.is_whitespace() || c == sep {
            chars.next();
        } else {
            break;
        }
    }
}

/// Consume a JSON string (leading quote expected at the cursor) and
/// return its unescaped contents.
fn parse_string(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Option<String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return None,
    }
    let mut out = String::new();
    while let Some((_, c)) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                '/' => out.push('/'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None // unterminated
}

struct Inner {
    file: Option<File>,
    /// Bytes written to the active file so far.
    written: u64,
    /// Rotations performed; archive `<path>.<n>` holds generation `n`.
    generation: u64,
    /// Next sequence number (gap-free across rotations).
    seq: u64,
    /// Newest rendered lines, for `GET /log?n=`.
    ring: VecDeque<String>,
}

/// The append-only, size-rotated query log. All IO is best-effort:
/// failures drop the event on the floor (counted nowhere) instead of
/// failing the query that triggered them.
pub struct QueryLog {
    config: QueryLogConfig,
    start: Instant,
    inner: Mutex<Inner>,
}

impl QueryLog {
    /// Open (appending) or create the active log file. On failure the
    /// log still works as an in-memory ring — the server must not
    /// refuse to start over a bad log path.
    pub fn open(config: QueryLogConfig) -> QueryLog {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&config.path)
            .ok();
        let written = file
            .as_ref()
            .and_then(|f| f.metadata().ok())
            .map_or(0, |m| m.len());
        QueryLog {
            config,
            start: Instant::now(),
            inner: Mutex::new(Inner {
                file,
                written,
                generation: 0,
                seq: 0,
                ring: VecDeque::new(),
            }),
        }
    }

    /// Microseconds since the log started — the `ts_us` clock.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Append one event. The sequence number is assigned here, under
    /// the lock, so it is gap-free and monotonic even across rotation.
    pub fn append(&self, mut event: QueryEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        event.seq = inner.seq;
        inner.seq += 1;
        let line = event.to_json();
        if let Some(file) = inner.file.as_mut() {
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            if file.write_all(&buf).is_ok() {
                inner.written += buf.len() as u64;
            }
        }
        if inner.ring.len() == RING_CAPACITY {
            inner.ring.pop_front();
        }
        inner.ring.push_back(line);
        if inner.written >= self.config.max_bytes {
            self.rotate(&mut inner);
        }
    }

    /// Move the active file to `<path>.<generation>`, open a fresh one,
    /// and prune the archive that fell off the `keep` window.
    fn rotate(&self, inner: &mut Inner) {
        inner.file = None; // close before rename (Windows-friendly)
        inner.generation += 1;
        let archive = archive_path(&self.config.path, inner.generation);
        let _ = std::fs::rename(&self.config.path, &archive);
        inner.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.config.path)
            .ok();
        inner.written = 0;
        if inner.generation > self.config.keep as u64 {
            let expired = archive_path(
                &self.config.path,
                inner.generation - self.config.keep as u64,
            );
            let _ = std::fs::remove_file(expired);
        }
    }

    /// Events appended so far (== the next sequence number).
    pub fn events(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).seq
    }

    /// Rotations performed so far.
    pub fn generation(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .generation
    }

    /// The newest `n` rendered event lines, most recent first.
    pub fn recent(&self, n: usize) -> Vec<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.ring.iter().rev().take(n).cloned().collect()
    }
}

fn archive_path(path: &Path, generation: u64) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{generation}"));
    PathBuf::from(name)
}

/// Read every surviving event for `path`, archives first in generation
/// order, then the active file — the replayer's input. Events are
/// returned in capture order; malformed lines are skipped.
pub fn read_log(path: &Path) -> Vec<QueryEvent> {
    let mut generations: Vec<u64> = Vec::new();
    if let (Some(dir), Some(stem)) = (path.parent(), path.file_name()) {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        let prefix = {
            let mut p = stem.to_os_string();
            p.push(".");
            p.to_string_lossy().into_owned()
        };
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(gen_str) = name.strip_prefix(&prefix) {
                    if let Ok(generation) = gen_str.parse::<u64>() {
                        generations.push(generation);
                    }
                }
            }
        }
    }
    generations.sort_unstable();
    let mut events = Vec::new();
    for generation in generations {
        read_file_into(&archive_path(path, generation), &mut events);
    }
    read_file_into(path, &mut events);
    events
}

fn read_file_into(path: &Path, events: &mut Vec<QueryEvent>) {
    let Ok(file) = File::open(path) else { return };
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if let Some(event) = QueryEvent::parse(&line) {
            events.push(event);
        }
    }
}

/// The first event of a captured history that a serial replay does not
/// reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryError {
    pub seq: u64,
    pub epoch: u64,
    pub stmt: String,
    /// What disagreed: an epoch out of order, or the two fingerprints.
    pub problem: String,
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event seq={} epoch={} stmt={:?}: {}",
            self.seq, self.epoch, self.stmt, self.problem
        )
    }
}

/// Check a captured history against a serial replay. `events` come as
/// [`read_log`] returns them, in any order; `reference` holds the store
/// as it stood just before the earliest of them.
///
/// A *write* is an event whose statement parses to a mutating
/// [`Statement`] and whose outcome is `ok`. Writes must carry the
/// epochs `b + 1, b + 2, …` with no gap or repeat, where `b` is the
/// epoch the history starts at; they are applied to `reference` in that
/// order. Every other event stamped `e` is checked after `e − b` writes:
/// a read through [`Session::run_read_stmt`], a failed write through
/// [`Session::run_stmt`] (it must fail with the same message), a parse
/// error through the parser's message. Each check compares
/// [`QueryEvent::fingerprint`] of the text the server would have sent.
///
/// Measurements are not compared: `STATS`, `EXPLAIN ANALYZE`, a read
/// cancelled at its deadline, and `COMPACT`'s reply (its tail count
/// depends on auto-compactions, which the log does not record; a
/// `COMPACT` still takes its place in epoch order). `busy` events never
/// executed and are skipped. Returns the number of events compared.
pub fn check_history(
    events: &[QueryEvent],
    reference: &mut Session,
) -> Result<usize, HistoryError> {
    let mut writes = Vec::new();
    let mut others = Vec::new();
    for event in events.iter().filter(|e| e.outcome != "busy") {
        match parse_statement(&event.stmt) {
            Ok(stmt) if !stmt.is_read_only() && event.outcome == "ok" => writes.push((event, stmt)),
            parsed => others.push((event, parsed)),
        }
    }
    writes.sort_by_key(|(e, _)| e.epoch);
    others.sort_by_key(|(e, _)| (e.epoch, e.seq));
    let fail = |event: &QueryEvent, problem: String| HistoryError {
        seq: event.seq,
        epoch: event.epoch,
        stmt: event.stmt.clone(),
        problem,
    };
    let compare = |event: &QueryEvent, got: &str| match QueryEvent::fingerprint(got) {
        got if got == event.result_fnv => Ok(1),
        got => Err(fail(
            event,
            format!("captured fnv {}, replayed fnv {got}", event.result_fnv),
        )),
    };
    let run = |reference: &mut Session, stmt: &Statement| {
        let out = match stmt.is_read_only() {
            true => reference.run_read_stmt(stmt),
            false => reference.run_stmt(stmt),
        };
        out.map(|out| out.to_string()).map_err(|e| e.to_string())
    };
    let deadline = QueryEvent::fingerprint(&ProqlError::DeadlineExceeded.to_string());

    let mut epoch = writes
        .iter()
        .map(|(e, _)| e.epoch.saturating_sub(1))
        .chain(others.iter().map(|(e, _)| e.epoch))
        .min()
        .unwrap_or(0);
    let mut others = others.into_iter().peekable();
    let mut writes = writes.into_iter();
    let mut checked = 0;
    loop {
        while let Some((event, parsed)) = others.next_if(|(e, _)| e.epoch == epoch) {
            checked += match parsed {
                Err(e) => compare(event, &e.to_string())?,
                Ok(stmt) if is_measurement(&stmt) || event.result_fnv == deadline => 0,
                Ok(stmt) => match run(reference, &stmt) {
                    Ok(_) if !stmt.is_read_only() => {
                        let problem = "failed in the capture, succeeded on the reference";
                        return Err(fail(event, problem.into()));
                    }
                    Ok(got) | Err(got) => compare(event, &got)?,
                },
            };
        }
        let Some((event, stmt)) = writes.next() else {
            break;
        };
        epoch += 1;
        if event.epoch != epoch {
            return Err(fail(event, format!("the next write's epoch is {epoch}")));
        }
        let (Ok(got) | Err(got)) = run(reference, &stmt);
        if !matches!(stmt, Statement::Compact) {
            checked += compare(event, &got)?;
        }
    }
    match others.next() {
        Some((event, _)) => Err(fail(event, format!("the last write's epoch is {epoch}"))),
        None => Ok(checked),
    }
}

/// Outputs that report timings or live state rather than data.
fn is_measurement(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::Stats | Statement::ExplainAnalyze(_) | Statement::Compact
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, stmt: &str) -> QueryEvent {
        QueryEvent {
            seq,
            ts_us: 1234,
            client: 7,
            stmt: stmt.to_string(),
            key: stmt.to_uppercase(),
            outcome: "ok".to_string(),
            cache_hit: seq.is_multiple_of(2),
            time_us: 42,
            reads: 3,
            epoch: 9,
            result_fnv: u64::MAX - seq, // exercise > 2^53
        }
    }

    #[test]
    fn event_round_trips_through_json() {
        let e = event(5, "nodes where kind = \"map\"\nand module = a\\b");
        let parsed = QueryEvent::parse(&e.to_json()).expect("parses");
        assert_eq!(parsed, e);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(QueryEvent::parse(""), None);
        assert_eq!(QueryEvent::parse("{}"), None);
        assert_eq!(QueryEvent::parse("{\"seq\":1}"), None);
        assert_eq!(QueryEvent::parse("not json at all"), None);
    }

    #[test]
    fn fingerprint_is_fnv1a() {
        assert_eq!(QueryEvent::fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(QueryEvent::fingerprint("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn append_assigns_gapfree_seq_and_ring_serves_newest_first() {
        let dir = std::env::temp_dir().join(format!("lipstick-qlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("ring.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = QueryLog::open(QueryLogConfig::new(&path));
        for i in 0..5 {
            log.append(event(999, &format!("stats {i}"))); // seq overwritten
        }
        assert_eq!(log.events(), 5);
        let recent = log.recent(2);
        assert_eq!(recent.len(), 2);
        let newest = QueryEvent::parse(&recent[0]).expect("parses");
        assert_eq!(newest.seq, 4);
        let events = read_log(&path);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        let _ = std::fs::remove_file(&path);
    }
}
