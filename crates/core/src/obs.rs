//! # Observability: metrics registry and query-span tracing
//!
//! Lipstick's thesis is that fine-grained derivation records make a
//! workflow explainable after the fact; this module applies the same
//! idea to the engine itself. It is std-only (matching the workspace
//! rule) and has two halves:
//!
//! 1. A **process-wide metrics registry** ([`registry`]) of named
//!    [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s,
//!    rendered in Prometheus text exposition format. Counters are
//!    sharded across cache-line-padded atomics so the serve worker
//!    pool does not serialize on a single hot cell. Instruments are
//!    named `lipstick_<crate>_<name>` (e.g.
//!    `lipstick_storage_faults_total`).
//! 2. A **span tracer** ([`Tracer`] / [`TraceCtx`] / [`SpanGuard`]):
//!    lightweight RAII spans with parent links and monotonic timing,
//!    collected per statement into a [`QueryTrace`]. The executors
//!    thread a `TraceCtx` through parse → plan → execute →
//!    per-operator so `EXPLAIN ANALYZE` and the serve slow-query log
//!    can report *actuals* (rows, visited nodes, records faulted,
//!    wall time) instead of planner estimates. A disabled context is
//!    two `Option::None`s — the untraced hot path pays one branch per
//!    operator and no allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------------

const COUNTER_SHARDS: usize = 16;

/// One atomic per cache line so concurrent writers on different shards
/// do not false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Thread → shard assignment: threads round-robin over the shard space
/// once at first use, so a fixed worker pool spreads evenly.
fn counter_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing counter, sharded to avoid contention.
///
/// Usable both registered (via [`Registry::counter`]) and detached as a
/// per-instance counter (e.g. `PagedLog` fault accounting, where tests
/// assert per-log values that a process-global instrument cannot give).
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    pub fn new() -> Self {
        Counter {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.shards[counter_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A value that can go up and down (queue depths, epochs, entry counts).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The fixed bucket bounds (in microseconds) shared by every latency
/// histogram, from sub-scan-time to "something is badly wrong".
pub const LATENCY_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// A fixed-bucket histogram. Buckets store per-bucket (not cumulative)
/// counts; the cumulative Prometheus `_bucket{le=...}` series is
/// computed at render time so `observe` stays one `fetch_add`.
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 — the last is +Inf
    sum: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, (&'static str, Arc<Counter>)>,
    gauges: BTreeMap<&'static str, (&'static str, Arc<Gauge>)>,
    histograms: BTreeMap<&'static str, (&'static str, Arc<Histogram>)>,
}

/// The process-wide instrument registry behind `GET /metrics`.
///
/// Registration is idempotent by name: every call site asks for its
/// instrument by `lipstick_<crate>_<name>` and gets the shared handle,
/// so sessions, logs, and servers created at different times all feed
/// the same series.
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

/// The global registry. Tests may run many sessions and servers in one
/// process; registered values are process-wide sums (per-instance
/// accounting stays on detached [`Counter`]s where tests need it).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: Mutex::new(RegistryInner::default()),
    })
}

impl Registry {
    /// Instruments are plain atomics, so a thread that panicked while
    /// holding the registry lock cannot have left the map half-updated;
    /// recover from poisoning instead of cascading the panic into every
    /// later metrics call (the serve crate bans panics on request
    /// paths, and `GET /metrics` is one).
    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let mut inner = self.locked();
        inner
            .counters
            .entry(name)
            .or_insert_with(|| (help, Arc::new(Counter::new())))
            .1
            .clone()
    }

    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let mut inner = self.locked();
        inner
            .gauges
            .entry(name)
            .or_insert_with(|| (help, Arc::new(Gauge::new())))
            .1
            .clone()
    }

    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &[u64],
    ) -> Arc<Histogram> {
        let mut inner = self.locked();
        inner
            .histograms
            .entry(name)
            .or_insert_with(|| (help, Arc::new(Histogram::new(bounds))))
            .1
            .clone()
    }

    /// Render every registered instrument in Prometheus text exposition
    /// format (`text/plain; version=0.0.4`).
    pub fn render_prometheus(&self) -> String {
        let inner = self.locked();
        let mut out = String::new();
        for (name, (help, c)) in &inner.counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                c.get()
            ));
        }
        for (name, (help, g)) in &inner.gauges {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
                g.get()
            ));
        }
        for (name, (help, h)) in &inner.histograms {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, bound) in h.bounds.iter().enumerate() {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            cumulative += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            out.push_str(&format!(
                "{name}_sum {}\n{name}_count {cumulative}\n",
                h.sum()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text-format checking
// ---------------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

/// The metric family a sample belongs to: histogram series end in
/// `_bucket` / `_sum` / `_count`.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

/// Validate a Prometheus text exposition. Checks line shapes, metric
/// name syntax, numeric sample values, balanced label braces, and that
/// every sample's family was announced by a preceding `# TYPE` line.
/// The serve tests hold every `GET /metrics` scrape to it.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
                    }
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown type {kind:?}"));
                    }
                    typed.insert(name.to_string(), kind.to_string());
                }
                _ => return Err(format!("line {n}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: comments must start with '# '"));
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return Err(format!("line {n}: sample has no value: {line:?}")),
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {n}: bad metric name {name_part:?}"));
        }
        let value_part = if let Some(labels) = rest.strip_prefix('{') {
            let Some(close) = labels.find('}') else {
                return Err(format!("line {n}: unbalanced label braces"));
            };
            &labels[close + 1..]
        } else {
            rest
        };
        let mut fields = value_part.split_whitespace();
        let Some(value) = fields.next() else {
            return Err(format!("line {n}: sample has no value: {line:?}"));
        };
        let numeric = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !numeric {
            return Err(format!("line {n}: non-numeric sample value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: bad timestamp {ts:?}"));
            }
        }
        let family = family_of(name_part);
        if !typed.contains_key(family) && !typed.contains_key(name_part) {
            return Err(format!(
                "line {n}: sample {name_part:?} has no preceding TYPE"
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".to_string());
    }
    Ok(())
}

/// Extract `(name, value)` for every *plain* (label-free) sample —
/// enough to assert cross-scrape monotonicity of counters in tests.
pub fn parse_plain_samples(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() || line.contains('{') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// One finished span: a labelled, timed region with a parent link and
/// integer attributes (rows, visited, reads, …).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    /// Plan-order index for spans created by parallel branches, so the
    /// rendered tree is deterministic regardless of completion order.
    pub seq: u32,
    pub label: String,
    pub start_us: u64,
    pub end_us: u64,
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// Collects the spans of one statement. `Sync`, so parallel set-op
/// branches can record into the same trace.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Consume the tracer and return the finished trace, spans in
    /// creation order.
    pub fn finish(self) -> QueryTrace {
        let mut spans = self.spans.into_inner().unwrap_or_else(|e| e.into_inner());
        spans.sort_by_key(|s| s.id);
        QueryTrace { spans }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a new span attaches: a tracer (or not) and a parent span —
/// plus the request deadline, if any, which rides along so executors
/// can check it cooperatively at span boundaries. `Copy`, so it
/// threads through recursive executors for free.
#[derive(Clone, Copy)]
pub struct TraceCtx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u32>,
    deadline: Option<Instant>,
}

impl<'a> TraceCtx<'a> {
    /// The no-op context used by every untraced execution path.
    pub fn disabled() -> TraceCtx<'static> {
        TraceCtx {
            tracer: None,
            parent: None,
            deadline: None,
        }
    }

    pub fn root(tracer: &'a Tracer) -> TraceCtx<'a> {
        TraceCtx {
            tracer: Some(tracer),
            parent: None,
            deadline: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Attach a request deadline. Deadlines propagate to child spans'
    /// contexts, so one call at the root covers the whole execution.
    pub fn with_deadline(self, deadline: Option<Instant>) -> TraceCtx<'a> {
        TraceCtx { deadline, ..self }
    }

    /// True once the attached deadline (if any) has passed. Executors
    /// call this at span boundaries to cancel cooperatively.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Open a span; it records itself into the trace when dropped.
    pub fn span(&self, label: &str) -> SpanGuard<'a> {
        self.span_indexed(label, 0)
    }

    /// Open a span carrying an explicit plan-order index — used for
    /// parallel branches, whose creation order is nondeterministic.
    pub fn span_indexed(&self, label: &str, seq: u32) -> SpanGuard<'a> {
        match self.tracer {
            None => SpanGuard {
                tracer: None,
                id: 0,
                parent: None,
                seq: 0,
                label: String::new(),
                start_us: 0,
                attrs: Vec::new(),
                deadline: self.deadline,
            },
            Some(tracer) => SpanGuard {
                tracer: Some(tracer),
                id: tracer.next_id.fetch_add(1, Ordering::Relaxed),
                parent: self.parent,
                seq,
                label: label.to_string(),
                start_us: tracer.now_us(),
                attrs: Vec::new(),
                deadline: self.deadline,
            },
        }
    }
}

/// RAII handle for an open span. Dropping it stamps the end time and
/// pushes the record into the tracer.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    id: u32,
    parent: Option<u32>,
    seq: u32,
    label: String,
    start_us: u64,
    attrs: Vec<(&'static str, u64)>,
    deadline: Option<Instant>,
}

impl<'a> SpanGuard<'a> {
    /// The context for children of this span.
    pub fn ctx(&self) -> TraceCtx<'a> {
        TraceCtx {
            tracer: self.tracer,
            parent: self.tracer.map(|_| self.id),
            deadline: self.deadline,
        }
    }

    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.tracer.is_some() {
            self.attrs.push((key, value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            let record = SpanRecord {
                id: self.id,
                parent: self.parent,
                seq: self.seq,
                label: std::mem::take(&mut self.label),
                start_us: self.start_us,
                end_us: tracer.now_us(),
                attrs: std::mem::take(&mut self.attrs),
            };
            tracer
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(record);
        }
    }
}

/// A finished per-statement trace: the span forest of one execution.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    pub spans: Vec<SpanRecord>,
}

impl QueryTrace {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Wall time covered by the trace: first span start to last span
    /// end.
    pub fn total_us(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Children of each span in deterministic (plan) order: `seq`
    /// breaks the tie among parallel siblings, creation id otherwise.
    fn children(&self) -> BTreeMap<Option<u32>, Vec<usize>> {
        let mut map: BTreeMap<Option<u32>, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            map.entry(s.parent).or_default().push(i);
        }
        for kids in map.values_mut() {
            kids.sort_by_key(|&i| (self.spans[i].seq, self.spans[i].id));
        }
        map
    }

    /// Render the trace as an indented operator tree:
    ///
    /// ```text
    /// execute rows=5 visited=12 time_us=34
    ///   scan rows=5 visited=12 reads=7 time_us=30
    /// ```
    pub fn render_tree(&self) -> String {
        let map = self.children();
        let mut out = String::new();
        fn walk(
            trace: &QueryTrace,
            map: &BTreeMap<Option<u32>, Vec<usize>>,
            parent: Option<u32>,
            depth: usize,
            out: &mut String,
        ) {
            for &i in map.get(&parent).map(Vec::as_slice).unwrap_or(&[]) {
                let s = &trace.spans[i];
                out.push_str(&"  ".repeat(depth));
                out.push_str(&s.label);
                for (k, v) in &s.attrs {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push_str(&format!(" time_us={}\n", s.duration_us()));
                walk(trace, map, Some(s.id), depth + 1, out);
            }
        }
        walk(self, &map, None, 0, &mut out);
        out
    }

    /// The trace as a JSON array of span objects — the slow-query log
    /// payload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"label\":\"{}\",\"start_us\":{},\"end_us\":{}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_escape(&s.label),
                s.start_us,
                s.end_us,
            ));
            out.push_str(",\"attrs\":{");
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{v}", json_escape(k)));
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

/// Escape a string for embedding in a JSON document: quotes,
/// backslashes and control characters; everything else passes through,
/// JSON being UTF-8. Every JSON writer in the workspace uses this one.
pub fn json_escape(s: &str) -> String {
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

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

/// Deep heap footprint of a value.
///
/// `heap_breakdown()` is the single source of truth: named components
/// whose byte counts **sum exactly** to `heap_bytes()` (the provided
/// method just sums them), so the `STATS` memory section, the
/// `lipstick_*_heap_bytes` gauges, and the shell's `\mem` command can
/// never disagree about the total. Counts are *capacity-based
/// estimates* of owned heap allocations (a `Vec<T>` contributes
/// `capacity * size_of::<T>()`), excluding `size_of::<Self>()` itself
/// and excluding allocator bookkeeping — comparable across runs, not a
/// malloc audit.
pub trait HeapSize {
    /// Named components summing to the heap total. Component names are
    /// stable identifiers (snake_case), rendered verbatim in `STATS`
    /// and logs.
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)>;

    /// Total owned heap bytes — the sum of [`HeapSize::heap_breakdown`].
    fn heap_bytes(&self) -> usize {
        self.heap_breakdown().iter().map(|(_, b)| b).sum()
    }
}

/// Heap bytes owned by a `Vec`'s buffer, counting spare capacity (the
/// allocation is what the process actually holds, not just the
/// initialized prefix).
pub fn vec_alloc_bytes<T>(v: &std::vec::Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Render a byte count for humans: `912 B`, `31.4 KiB`, `29.8 MiB`.
pub fn format_bytes(bytes: usize) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KIB {
        format!("{bytes} B")
    } else if b < KIB * KIB {
        format!("{:.1} KiB", b / KIB)
    } else if b < KIB * KIB * KIB {
        format!("{:.1} MiB", b / (KIB * KIB))
    } else {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    }
}

/// FNV-1a 64-bit hash. Used as the result digest in the structured
/// query log so a replay can assert byte-identical results without
/// storing full payloads.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_buckets_and_render_are_consistent() {
        let h = Histogram::new(&[10, 100]);
        for v in [5, 9, 50, 500] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 564);
        let reg = registry();
        let shared = reg.histogram("lipstick_test_hist_us", "test histogram", &[10, 100]);
        shared.observe(5);
        shared.observe(500);
        let text = reg.render_prometheus();
        validate_prometheus_text(&text).expect("rendered exposition must validate");
        assert!(text.contains("lipstick_test_hist_us_bucket{le=\"+Inf\"}"));
        assert!(text.contains("lipstick_test_hist_us_count"));
    }

    #[test]
    fn registry_is_idempotent_by_name() {
        let a = registry().counter("lipstick_test_idem_total", "x");
        let b = registry().counter("lipstick_test_idem_total", "x");
        a.add(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus_text("").is_err());
        assert!(validate_prometheus_text("no_type_line 3\n").is_err());
        assert!(validate_prometheus_text("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate_prometheus_text("# TYPE x counter\nx{le=\"5\" 3\n").is_err());
        assert!(validate_prometheus_text("# TYPE 9bad counter\n9bad 3\n").is_err());
        assert!(validate_prometheus_text("# TYPE x counter\nx 3\n").is_ok());
        assert!(validate_prometheus_text(
            "# TYPE x histogram\nx_bucket{le=\"+Inf\"} 3\nx_sum 1\nx_count 3\n"
        )
        .is_ok());
    }

    #[test]
    fn spans_nest_and_render_deterministically() {
        let tracer = Tracer::new();
        {
            let root = TraceCtx::root(&tracer);
            let mut execute = root.span("execute");
            execute.attr("rows", 5);
            {
                // Parallel siblings created out of order still render in
                // plan (seq) order.
                let _b1 = execute.ctx().span_indexed("branch 1", 1);
                let _b0 = execute.ctx().span_indexed("branch 0", 0);
            }
        }
        let trace = tracer.finish();
        let tree = trace.render_tree();
        let b0 = tree.find("branch 0").unwrap();
        let b1 = tree.find("branch 1").unwrap();
        assert!(b0 < b1, "siblings must render in seq order:\n{tree}");
        assert!(tree.starts_with("execute rows=5"), "root first:\n{tree}");
        let json = trace.to_json();
        assert!(json.contains("\"label\":\"execute\""));
        assert!(json.contains("\"rows\":5"));
    }

    #[test]
    fn heap_breakdown_is_the_source_of_truth() {
        struct Fake;
        impl HeapSize for Fake {
            fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
                vec![("a", 100), ("b", 28)]
            }
        }
        assert_eq!(Fake.heap_bytes(), 128);
        let v: Vec<u64> = Vec::with_capacity(10);
        assert_eq!(vec_alloc_bytes(&v), 80);
    }

    #[test]
    fn format_bytes_picks_sane_units() {
        assert_eq!(format_bytes(912), "912 B");
        assert_eq!(format_bytes(32_153), "31.4 KiB");
        assert_eq!(format_bytes(31_250_000), "29.8 MiB");
        assert!(format_bytes(3_000_000_000).ends_with(" GiB"));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = TraceCtx::disabled();
        let mut g = ctx.span("ignored");
        g.attr("rows", 1);
        drop(g);
        assert!(!ctx.enabled());
    }
}
