//! The server: one shared session, a worker pool, and the write epoch.
//!
//! ## Concurrency model
//!
//! The session sits behind an [`RwLock`]. Read-only statements take the
//! read side and execute concurrently — `proql::Session::run_read`
//! borrows `&self`, and both backends (the resident graph, and the log
//! with its lock-free write-once fault cache, open for append or as a
//! read-only snapshot) are `Sync`.
//!
//! Mutating statements run one at a time under the *writer* mutex, the
//! same for every backend. Holding it serialises writers, so nothing
//! changes the store between a statement's two steps:
//!
//! 1. **prepare**, under the session's *read* side, beside running
//!    readers: plan and validate, decide the deletion cone or zoom
//!    plan, and on the append backend append the tail record and
//!    `fsync` it (durable before anything is visible);
//! 2. **publish**, under the *write* side: apply the decided change,
//!    repair the reach index, and bump the **write epoch** —
//!    microseconds, and no IO. The time each write guard is held is
//!    observed in `lipstick_serve_write_lock_hold_us`, and the time
//!    the writer waited for it, while readers drained, in
//!    `lipstick_serve_write_lock_wait_us`.
//!
//! Each statement publishes on its own, so the epoch bumps once per
//! statement that succeeded; a failed one changed nothing. A paged
//! session (`Session::open`) is a read-only snapshot of its log: its
//! `DELETE` and `ZOOM` fail in prepare, without a write hold. The epoch is an atomic counter
//! that stamps every cached result; a stale stamp is what invalidates a
//! cache entry. It only changes while the write side is held, so a
//! result computed under a read guard is always tagged with the epoch
//! it actually executed at — a reader running while a record is being
//! synced sees, and is stamped with, the state before it. Replies are
//! rendered after the write guard is released.
//!
//! Auto-COMPACT follows the same split: the image is spliced, written,
//! synced and validated under the read side, and only the rename, the
//! tail unlink and the base swap happen under the write side.
//!
//! Connections are accepted on one thread and handed to a fixed pool of
//! workers over an MPMC channel; each worker owns a connection for its
//! lifetime (the line protocol is persistent, the HTTP shim is
//! one-shot), so `workers` bounds the number of concurrently served
//! clients.
//!
//! ## Overload and shutdown
//!
//! Three opt-in guards bound the damage a hostile or saturating client
//! can do: a mutation is **shed** with `BUSY retry_after_ms=` once
//! `write_queue_limit` writers are already waiting for the writer mutex
//! (the statement is not executed — a verbatim retry is safe); reads
//! are cancelled cooperatively at `request_deadline_us`; and a
//! connection that stalls mid-request past `idle_timeout_us` is dropped
//! (the slowloris guard). [`ServerHandle::shutdown`] is graceful: every
//! statement in flight finishes, its reply reaches the wire, and the
//! storage tail is synced before the call returns — no acked write is
//! ever lost to a shutdown.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lipstick_core::obs::{self, Tracer};
use lipstick_proql::ast::Statement;
use lipstick_proql::parser::parse_statement;
use lipstick_proql::result::{json_escape, QueryOutput};
use lipstick_proql::{ProqlError, Session};

use crate::cache::{CachedResult, QueryCache};
use crate::proto::{
    classify_first_line, percent_decode, read_http_request_rest, read_request_line, write_busy,
    write_err, write_http_json, write_http_text, FirstLine, FrameWriter, ProtoError,
};
use crate::qlog::{QueryEvent, QueryLog, QueryLogConfig};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads — the number of concurrently served connections.
    pub workers: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Read statements at least this slow (server-side, microseconds)
    /// land in the slow-query ring with their full trace. 0 records
    /// every traced read; `u64::MAX` effectively disables the ring.
    pub slow_threshold_us: u64,
    /// Structured query log (JSONL capture, checkable with
    /// [`crate::qlog::check_history`]). `None` — the default — keeps
    /// the hot path entirely log-free.
    pub query_log: Option<QueryLogConfig>,
    /// Keep the full trace of every Nth read in the slow-query ring
    /// regardless of latency, so `GET /slow` shows a representative
    /// sample and not just outliers. 0 (the default) disables sampling.
    pub trace_sample_every: u64,
    /// On an append-backed session, fold the tail segment into a fresh
    /// sealed base (`COMPACT`) once this many successful mutations have
    /// accumulated since the last compaction. The writer whose success
    /// reaches the count builds the new segment under the session's
    /// read side, beside readers, and swaps it in under a short write
    /// hold, so readers never see a half-compacted store. 0 (the
    /// default) disables auto-compaction; other backends ignore the
    /// knob.
    pub compact_every: u64,
    /// Per-request deadline for read statements, microseconds. The
    /// executor checks it cooperatively at span boundaries and cancels
    /// with `deadline exceeded` once it passes; mutations never carry
    /// a deadline (a write is never abandoned half-applied). 0 (the
    /// default) disables the check.
    pub request_deadline_us: u64,
    /// Bound on the writers waiting for the writer mutex. A mutation
    /// arriving while this many are already waiting is **shed** —
    /// answered `BUSY retry_after_ms=<hint>` without executing —
    /// instead of piling onto a lock it may wait on unboundedly. 0 (the
    /// default) leaves the wait unbounded.
    pub write_queue_limit: usize,
    /// Idle/read timeout per connection, microseconds: a peer that
    /// holds a connection without completing a request line for this
    /// long is disconnected (the slowloris guard). 0 (the default)
    /// waits forever.
    pub idle_timeout_us: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            cache_capacity: 256,
            slow_threshold_us: 1_000,
            query_log: None,
            trace_sample_every: 0,
            compact_every: 0,
            request_deadline_us: 0,
            write_queue_limit: 0,
            idle_timeout_us: 0,
        }
    }
}

/// Slow-query ring capacity: old entries fall off the back.
const SLOW_LOG_CAPACITY: usize = 64;

/// One slow read, kept with its full span trace for `GET /slow`.
struct SlowEntry {
    /// Canonical statement rendering (the cache key).
    stmt: String,
    time_us: u64,
    reads: u64,
    epoch: u64,
    /// `QueryTrace::to_json()` — a JSON array of span objects.
    trace_json: String,
}

/// Process-global registry series the server feeds. Per-handle exact
/// counts stay on [`Shared`]'s atomics (tests pin those); these series
/// aggregate across every server in the process for `GET /metrics`.
struct Instruments {
    queries: Arc<obs::Counter>,
    mutations: Arc<obs::Counter>,
    cache_hits: Arc<obs::Counter>,
    cache_misses: Arc<obs::Counter>,
    connections: Arc<obs::Counter>,
    response_us: Arc<obs::Histogram>,
    epoch: Arc<obs::Gauge>,
    /// Heap-byte gauges, one per disjoint memory component; refreshed
    /// by [`Shared::refresh_heap_gauges`] on `GET /metrics` and
    /// `STATS`, so their sum matches the `STATS` memory breakdown.
    graph_heap: Arc<obs::Gauge>,
    reach_heap: Arc<obs::Gauge>,
    paged_log_heap: Arc<obs::Gauge>,
    fault_cache_heap: Arc<obs::Gauge>,
    serve_cache_heap: Arc<obs::Gauge>,
    /// Mutations shed with `BUSY` because the write queue was full.
    shed: Arc<obs::Counter>,
    /// Reads cancelled at the per-request deadline.
    deadline_exceeded: Arc<obs::Counter>,
    /// Wall time of the last graceful shutdown drain, microseconds.
    shutdown_drain_us: Arc<obs::Gauge>,
    /// How long each hold of the session's write guard lasted.
    write_lock_hold_us: Arc<obs::Histogram>,
    /// How long the writer waited for the session's write guard —
    /// for readers under the read side to finish.
    write_lock_wait_us: Arc<obs::Histogram>,
}

impl Instruments {
    fn get() -> Instruments {
        // Touch the storage layer's IO error counter so a scrape that
        // races the first file operation still sees the series (at 0).
        let _ = lipstick_storage::io::io_errors_counter();
        let r = obs::registry();
        Instruments {
            queries: r.counter(
                "lipstick_serve_queries_total",
                "Statements received over both protocols, parse errors included",
            ),
            mutations: r.counter(
                "lipstick_serve_mutations_total",
                "Successful mutating statements",
            ),
            cache_hits: r.counter(
                "lipstick_serve_cache_hits_total",
                "Read statements answered from the plan-keyed result cache",
            ),
            cache_misses: r.counter(
                "lipstick_serve_cache_misses_total",
                "Read statements that executed because no fresh cache entry existed",
            ),
            connections: r.counter(
                "lipstick_serve_connections_total",
                "Connections accepted (line protocol and HTTP shim)",
            ),
            response_us: r.histogram(
                "lipstick_serve_response_us",
                "Server-side wall time per statement, microseconds",
                obs::LATENCY_BUCKETS_US,
            ),
            epoch: r.gauge(
                "lipstick_serve_epoch",
                "Write epoch of the most recently mutated server in this process",
            ),
            graph_heap: r.gauge(
                "lipstick_core_graph_heap_bytes",
                "Heap bytes held by the resident provenance graph (most recently scraped server)",
            ),
            reach_heap: r.gauge(
                "lipstick_core_reach_heap_bytes",
                "Heap bytes held by the reachability closure",
            ),
            paged_log_heap: r.gauge(
                "lipstick_storage_paged_log_heap_bytes",
                "Heap bytes held by the paged log (raw bytes, footer index, invocations)",
            ),
            fault_cache_heap: r.gauge(
                "lipstick_storage_fault_cache_heap_bytes",
                "Heap bytes held by the paged log's decoded-record fault cache",
            ),
            serve_cache_heap: r.gauge(
                "lipstick_serve_cache_heap_bytes",
                "Heap bytes held by the server's plan-keyed result cache",
            ),
            shed: r.counter(
                "lipstick_serve_shed_total",
                "Mutations answered BUSY because the bounded write queue was full",
            ),
            deadline_exceeded: r.counter(
                "lipstick_serve_deadline_exceeded_total",
                "Read statements cancelled at the per-request deadline",
            ),
            shutdown_drain_us: r.gauge(
                "lipstick_serve_shutdown_drain_us",
                "Wall time of the last graceful shutdown drain, microseconds",
            ),
            write_lock_hold_us: r.histogram(
                "lipstick_serve_write_lock_hold_us",
                "Time each hold of the session write guard lasted (publish or COMPACT install), \
                 microseconds",
                obs::LATENCY_BUCKETS_US,
            ),
            write_lock_wait_us: r.histogram(
                "lipstick_serve_write_lock_wait_us",
                "Time the writer waited to take the session write guard (readers draining), \
                 microseconds",
                obs::LATENCY_BUCKETS_US,
            ),
        }
    }
}

/// State shared by every worker.
struct Shared {
    session: RwLock<Session>,
    /// Held by a writer for its whole statement. Writers are serialised
    /// by it, so the store cannot change between a statement's prepare
    /// (under the read side) and its publish (under the write side).
    writer: Mutex<()>,
    /// Bumped (under the session write lock) by every mutating
    /// statement that changed something; stamps cached results.
    epoch: AtomicU64,
    cache: QueryCache,
    queries: AtomicU64,
    mutations: AtomicU64,
    instruments: Instruments,
    slow: Mutex<VecDeque<SlowEntry>>,
    slow_threshold_us: u64,
    /// Structured query log; `None` keeps the path log-free.
    qlog: Option<QueryLog>,
    /// Connection ids, assigned at accept; stamped into log events.
    clients: AtomicU64,
    /// Read counter driving 1-in-N full-trace sampling.
    sample_tick: AtomicU64,
    trace_sample_every: u64,
    /// Writers admitted and not yet holding the writer mutex.
    waiting_writers: AtomicUsize,
    /// Successful mutations since the last auto-compaction.
    writes_since_compact: AtomicU64,
    /// `ServerConfig::compact_every`, or 0 when the session is not
    /// append-backed (only those have a tail to fold).
    compact_every: u64,
    /// Read deadline, microseconds; 0 disables.
    request_deadline_us: u64,
    /// Bound on `waiting_writers`; 0 leaves it unbounded.
    write_queue_limit: usize,
    /// Per-connection read timeout, microseconds; 0 waits forever.
    idle_timeout_us: u64,
    /// How long the last writer held the writer mutex, microseconds —
    /// the basis of the `BUSY retry_after_ms` hint.
    last_write_us: AtomicU64,
    /// Live connections by client id. Graceful shutdown half-closes
    /// each one's read side so workers finish the statement in flight,
    /// deliver its reply, then see EOF and exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A non-success answer, typed by what the client should do with it:
/// a `Message` names what went wrong with *this* statement; `Busy`
/// means the server shed it unexecuted and a verbatim retry is safe.
enum ErrorReply {
    Message(String),
    Busy { retry_after_ms: u64 },
}

impl ErrorReply {
    /// One-line rendering for the structured query log.
    fn message(&self) -> String {
        match self {
            ErrorReply::Message(m) => m.clone(),
            ErrorReply::Busy { retry_after_ms } => {
                format!("busy: write queue full; retry_after_ms={retry_after_ms}")
            }
        }
    }
}

/// The outcome of one statement, ready for either wire format.
struct Outcome {
    result: Result<CachedResult, ErrorReply>,
    cache_hit: bool,
    epoch: u64,
    /// Server-side wall time answering this statement, microseconds.
    time_us: u64,
    /// Backend record decodes charged to this statement. Deltas of the
    /// session-wide counter, so concurrent readers can bleed into each
    /// other's figures — per-statement numbers are exact only under
    /// sequential load; the process totals are always exact.
    reads: u64,
}

impl Shared {
    /// Parse, normalize, consult the cache, execute, and (for read-only
    /// statements) populate the cache. The single execution path both
    /// protocols share.
    fn run_statement(&self, input: &str, client: u64) -> Outcome {
        let start = Instant::now();
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.instruments.queries.inc();
        let stmt = match parse_statement(input) {
            Ok(stmt) => stmt,
            Err(e) => {
                let outcome = Outcome {
                    result: Err(ErrorReply::Message(e.to_string())),
                    cache_hit: false,
                    epoch: self.epoch.load(Ordering::Acquire),
                    time_us: elapsed_us(start),
                    reads: 0,
                };
                self.log_event(input, "", &outcome, client);
                return outcome;
            }
        };
        let outcome = if matches!(stmt, Statement::Stats) {
            // STATS reports live state (including these very counters),
            // so it bypasses the cache and gets the server's own lines
            // appended.
            self.run_stats(start)
        } else if stmt.is_read_only() {
            self.run_read(&stmt, start)
        } else {
            self.run_write(&stmt, start)
        };
        self.instruments.response_us.observe(outcome.time_us);
        self.log_event(input, &stmt.to_string(), &outcome, client);
        outcome
    }

    /// Append one event to the structured query log, if one is
    /// configured. The result fingerprint hashes the text payload —
    /// what a line-protocol client would have received — so replay can
    /// check byte-identity without storing the bytes.
    fn log_event(&self, input: &str, key: &str, outcome: &Outcome, client: u64) {
        let Some(qlog) = &self.qlog else { return };
        let (verdict, fnv) = match &outcome.result {
            Ok(result) => ("ok", QueryEvent::fingerprint(&result.text)),
            Err(e @ ErrorReply::Message(_)) => ("err", QueryEvent::fingerprint(&e.message())),
            // Sheds are load events, not statement outcomes: replaying
            // one won't reproduce the fingerprint, so tag it apart.
            Err(e @ ErrorReply::Busy { .. }) => ("busy", QueryEvent::fingerprint(&e.message())),
        };
        qlog.append(QueryEvent {
            seq: 0, // assigned by the log, under its lock
            ts_us: qlog.now_us(),
            client,
            stmt: input.to_string(),
            key: key.to_string(),
            outcome: verdict.to_string(),
            cache_hit: outcome.cache_hit,
            time_us: outcome.time_us,
            reads: outcome.reads,
            epoch: outcome.epoch,
            result_fnv: fnv,
        });
    }

    /// 1-in-N trace sampling: true when this read's full trace should
    /// be retained regardless of latency.
    fn trace_sampled(&self) -> bool {
        let every = self.trace_sample_every;
        every > 0
            && self
                .sample_tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(every)
    }

    /// Recompute the process-wide heap gauges from this server's live
    /// state. Like the epoch gauge, last writer wins when several
    /// servers share the process.
    fn refresh_heap_gauges(&self) {
        use lipstick_core::obs::HeapSize;
        let report = {
            let session = self.read_session();
            session.memory_report()
        };
        let (mut graph, mut reach, mut paged, mut fault) = (0i64, 0i64, 0i64, 0i64);
        for (group, component, bytes) in report {
            match (group, component) {
                ("graph", _) => graph += bytes as i64,
                ("reach", _) => reach += bytes as i64,
                ("paged_log", "fault_cache") => fault += bytes as i64,
                ("paged_log", _) => paged += bytes as i64,
                _ => {}
            }
        }
        self.instruments.graph_heap.set(graph);
        self.instruments.reach_heap.set(reach);
        self.instruments.paged_log_heap.set(paged);
        self.instruments.fault_cache_heap.set(fault);
        self.instruments
            .serve_cache_heap
            .set(self.cache.heap_bytes() as i64);
    }

    fn run_read(&self, stmt: &Statement, start: Instant) -> Outcome {
        // The statement's canonical pretty-printing is the cache key:
        // spelling differences (case, whitespace, comments, trailing
        // ';', optional keywords like `OF` or `ASC`) normalize away,
        // and the key is itself a valid statement — handy in logs.
        let key = stmt.to_string();
        // EXPLAIN ANALYZE answers are measurements; replaying one from
        // the cache would report timings of some earlier execution, so
        // the statement always executes fresh.
        let cacheable = !matches!(stmt, Statement::ExplainAnalyze(_));
        // Serving a hit needs no session lock: the entry's stamp names
        // the epoch it was computed at, and epochs never repeat.
        let epoch = self.epoch.load(Ordering::Acquire);
        if cacheable {
            if let Some(result) = self.cache.get(&key, epoch) {
                self.instruments.cache_hits.inc();
                return Outcome {
                    result: Ok(result),
                    cache_hit: true,
                    epoch,
                    time_us: elapsed_us(start),
                    reads: 0,
                };
            }
            self.instruments.cache_misses.inc();
        }
        let session = self.read_session();
        // Re-read under the read guard: a writer may have bumped the
        // epoch between the cache probe and lock acquisition, and the
        // stamp must name the epoch this execution actually sees.
        let epoch = self.epoch.load(Ordering::Acquire);
        let reads_before = session.records_read();
        let tracer = Tracer::new();
        // The deadline clock starts at receipt (`start`), not lock
        // acquisition: time spent waiting out a write publish counts.
        let deadline = (self.request_deadline_us > 0)
            .then(|| start + Duration::from_micros(self.request_deadline_us));
        let executed = session.run_read_stmt_with(stmt, Some(&tracer), deadline);
        let reads = session.records_read().saturating_sub(reads_before) as u64;
        drop(session);
        let time_us = elapsed_us(start);
        match executed {
            Ok(out) => {
                let result = CachedResult {
                    text: out.to_string(),
                    json: out.to_json(),
                };
                // A disabled cache would drop both copies unread.
                if cacheable && self.cache.capacity() > 0 {
                    self.cache.insert(key.clone(), epoch, result.clone());
                }
                if time_us >= self.slow_threshold_us || self.trace_sampled() {
                    self.record_slow(SlowEntry {
                        stmt: key,
                        time_us,
                        reads,
                        epoch,
                        trace_json: tracer.finish().to_json(),
                    });
                }
                Outcome {
                    result: Ok(result),
                    cache_hit: false,
                    epoch,
                    time_us,
                    reads,
                }
            }
            Err(e) => {
                if matches!(e, ProqlError::DeadlineExceeded) {
                    self.instruments.deadline_exceeded.inc();
                }
                Outcome {
                    result: Err(ErrorReply::Message(e.to_string())),
                    cache_hit: false,
                    epoch,
                    time_us,
                    reads,
                }
            }
        }
    }

    /// `STATS` bypasses the cache (it reports live counters) and
    /// appends the server's own state to the session's report.
    fn run_stats(&self, start: Instant) -> Outcome {
        let session = self.read_session();
        let epoch = self.epoch.load(Ordering::Acquire);
        let reads_before = session.records_read();
        let executed = session.run_read_stmt(&Statement::Stats);
        let reads = session.records_read().saturating_sub(reads_before) as u64;
        drop(session);
        match executed {
            Ok(out) => {
                use lipstick_core::obs::HeapSize;
                let (hits, misses) = (self.cache.hits(), self.cache.misses());
                let mut text = format!(
                    "{out}\nserver: epoch={epoch} queries={} mutations={} slow-log={}\n\
                     server: cache hits={hits} misses={misses} entries={} bytes={} evictions={}",
                    self.queries.load(Ordering::Relaxed),
                    self.mutations.load(Ordering::Relaxed),
                    self.slow.lock().unwrap_or_else(|e| e.into_inner()).len(),
                    self.cache.len(),
                    self.cache.bytes(),
                    self.cache.evictions(),
                );
                // The serve-side memory components, in the same
                // `  memory <group>.<component>=<bytes>` shape the
                // session's report uses, so one parse covers both.
                for (name, bytes) in self.cache.heap_breakdown() {
                    text.push_str(&format!("\n  memory serve_cache.{name}={bytes}"));
                }
                if let Some(qlog) = &self.qlog {
                    text.push_str(&format!(
                        "\nserver: query-log events={} generation={}",
                        qlog.events(),
                        qlog.generation()
                    ));
                }
                // STATS is the other scrape point besides /metrics:
                // leave the gauges agreeing with what was just printed.
                self.refresh_heap_gauges();
                let combined = QueryOutput::Text(text);
                Outcome {
                    result: Ok(CachedResult {
                        text: combined.to_string(),
                        json: combined.to_json(),
                    }),
                    cache_hit: false,
                    epoch,
                    time_us: elapsed_us(start),
                    reads,
                }
            }
            Err(e) => Outcome {
                result: Err(ErrorReply::Message(e.to_string())),
                cache_hit: false,
                epoch,
                time_us: elapsed_us(start),
                reads,
            },
        }
    }

    /// One mutation under the writer mutex: prepared under the
    /// session's read side, published under its write side with its own
    /// epoch bump when it changed something, then an auto-COMPACT if it
    /// was the success that reached `compact_every`.
    fn run_write(&self, stmt: &Statement, start: Instant) -> Outcome {
        // Admission is one atomic step: of two writers racing the last
        // place, the second sees the first's increment and sheds.
        let waiting = self.waiting_writers.fetch_add(1, Ordering::AcqRel);
        if self.write_queue_limit > 0 && waiting >= self.write_queue_limit {
            self.waiting_writers.fetch_sub(1, Ordering::AcqRel);
            self.instruments.shed.inc();
            return Outcome {
                result: Err(ErrorReply::Busy {
                    retry_after_ms: self.retry_after_ms(waiting),
                }),
                cache_hit: false,
                epoch: self.epoch.load(Ordering::Acquire),
                time_us: elapsed_us(start),
                reads: 0,
            };
        }
        let writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.waiting_writers.fetch_sub(1, Ordering::AcqRel);
        let held = Instant::now();
        let (result, reads, epoch) = self.write_one(stmt);
        if result.is_ok() {
            self.mutations.fetch_add(1, Ordering::Relaxed);
            self.instruments.mutations.inc();
            self.maybe_compact();
        }
        self.last_write_us
            .store(elapsed_us(held), Ordering::Relaxed);
        drop(writer);
        Outcome {
            result: result
                .map(|out| CachedResult {
                    text: out.to_string(),
                    json: out.to_json(),
                })
                .map_err(|e| ErrorReply::Message(e.to_string())),
            cache_hit: false,
            epoch,
            time_us: elapsed_us(start),
            reads,
        }
    }

    /// The `BUSY` hint: about one turnover of the writers waiting, at
    /// the last write's wall time each. Before any write has run, a
    /// nominal 10 ms.
    fn retry_after_ms(&self, waiting: usize) -> u64 {
        match self.last_write_us.load(Ordering::Relaxed) {
            0 => 10,
            us => (us.saturating_mul(waiting as u64) / 1_000).clamp(1, 1_000),
        }
    }

    fn read_session(&self) -> RwLockReadGuard<'_, Session> {
        self.session.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` under the session's write guard, observing how long the
    /// writer waited for the guard and how long it held it.
    fn with_write<T>(&self, f: impl FnOnce(&mut Session) -> T) -> T {
        let asked = Instant::now();
        let mut session = self.session.write().unwrap_or_else(|e| e.into_inner());
        let held = Instant::now();
        let out = f(&mut session);
        drop(session);
        self.instruments
            .write_lock_hold_us
            .observe(elapsed_us(held));
        self.instruments
            .write_lock_wait_us
            .observe(micros(held.duration_since(asked)));
        out
    }

    /// One mutating statement: prepare under the read side (where the
    /// append backend syncs its tail record), then publish and bump the
    /// epoch under the write side. Returns the outcome, the records
    /// decoded meanwhile, and the epoch the reply carries.
    fn write_one(&self, stmt: &Statement) -> (Result<QueryOutput, ProqlError>, u64, u64) {
        let (prepared, reads_before) = {
            let session = self.read_session();
            let reads_before = session.records_read();
            match session.prepare_write(stmt) {
                Ok(prepared) => (prepared, reads_before),
                Err(e) => {
                    // Nothing was made durable or visible: no write hold.
                    let reads = session.records_read().saturating_sub(reads_before) as u64;
                    return (Err(e), reads, self.epoch.load(Ordering::Acquire));
                }
            }
        };
        self.with_write(|session| {
            let result = session.publish_write(prepared);
            // A failed statement changed nothing. Bumped while still
            // exclusive: no reader can observe the changed session under
            // the old epoch.
            let epoch = if result.is_ok() {
                let bumped = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
                self.instruments.epoch.set(bumped as i64);
                bumped
            } else {
                self.epoch.load(Ordering::Acquire)
            };
            let reads = session.records_read().saturating_sub(reads_before) as u64;
            (result, reads, epoch)
        })
    }

    /// Auto-compaction: once `compact_every` successful mutations have
    /// accumulated on an append-backed session, fold the tail into a
    /// fresh sealed base. The writer prepares the image under the read
    /// side — readers keep running through the splice, temp write,
    /// sync and validating reopen — and installs it under the write
    /// side. Compaction preserves ids and visibility, so neither the
    /// reach index nor the result cache is invalidated (no epoch bump).
    /// A refusal — e.g. modules are zoomed out — just leaves the
    /// counter armed for the next success.
    fn maybe_compact(&self) {
        if self.compact_every == 0 {
            return;
        }
        let since = self.writes_since_compact.fetch_add(1, Ordering::Relaxed) + 1;
        if since < self.compact_every {
            return;
        }
        let prepared = self.read_session().prepare_write(&Statement::Compact);
        let Ok(prepared) = prepared else { return };
        if self
            .with_write(|session| session.publish_write(prepared))
            .is_ok()
        {
            self.writes_since_compact.store(0, Ordering::Relaxed);
        }
    }

    fn record_slow(&self, entry: SlowEntry) {
        let mut ring = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == SLOW_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Render the newest `n` slow entries, most recent first, as JSON.
    fn render_slow_json(&self, n: usize) -> String {
        let ring = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        let entries: Vec<String> = ring
            .iter()
            .rev()
            .take(n)
            .map(|e| {
                format!(
                    r#"{{"stmt":"{}","time_us":{},"reads":{},"epoch":{},"trace":{}}}"#,
                    json_escape(&e.stmt),
                    e.time_us,
                    e.reads,
                    e.epoch,
                    e.trace_json
                )
            })
            .collect();
        format!(
            r#"{{"ok":true,"count":{},"slow":[{}]}}"#,
            entries.len(),
            entries.join(",")
        )
    }
}

fn elapsed_us(start: Instant) -> u64 {
    micros(start.elapsed())
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// A ProQL server ready to bind.
pub struct Server {
    shared: Arc<Shared>,
    config: ServerConfig,
}

impl Server {
    /// Wrap a session (resident, paged snapshot or append) for serving.
    pub fn new(session: Session, config: ServerConfig) -> Server {
        let compact_every = if session.is_append() {
            config.compact_every
        } else {
            0
        };
        Server {
            shared: Arc::new(Shared {
                session: RwLock::new(session),
                writer: Mutex::new(()),
                epoch: AtomicU64::new(0),
                cache: QueryCache::new(config.cache_capacity),
                queries: AtomicU64::new(0),
                mutations: AtomicU64::new(0),
                instruments: Instruments::get(),
                slow: Mutex::new(VecDeque::new()),
                slow_threshold_us: config.slow_threshold_us,
                qlog: config.query_log.clone().map(QueryLog::open),
                clients: AtomicU64::new(0),
                sample_tick: AtomicU64::new(0),
                trace_sample_every: config.trace_sample_every,
                waiting_writers: AtomicUsize::new(0),
                writes_since_compact: AtomicU64::new(0),
                compact_every,
                request_deadline_us: config.request_deadline_us,
                write_queue_limit: config.write_queue_limit,
                idle_timeout_us: config.idle_timeout_us,
                last_write_us: AtomicU64::new(0),
                conns: Mutex::new(HashMap::new()),
            }),
            config,
        }
    }

    /// Bind and start serving. `addr` may name port 0 for an ephemeral
    /// port; [`ServerHandle::addr`] reports the bound address.
    pub fn serve(self, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers.max(1) {
            let rx = rx.clone();
            let shared = self.shared.clone();
            workers.push(std::thread::spawn(move || loop {
                // Not `while let`: the guard must drop before serving.
                let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                let Ok(stream) = next else { break };
                // A broken connection is the client's problem, not the
                // server's: log-and-continue semantics.
                let _ = handle_connection(&shared, stream);
            }));
        }
        drop(rx);

        let accept_shutdown = shutdown.clone();
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if tx.send(stream).is_err() {
                    break;
                }
            }
            // Dropping `tx` here closes the channel and drains workers.
        });

        Ok(ServerHandle {
            addr: local,
            shared: self.shared,
            shutdown,
            accept: Some(accept),
            workers,
        })
    }
}

/// A running server: the bound address, counters, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current write epoch: the number of mutating statements that
    /// succeeded.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Statements executed so far (both protocols, errors included).
    pub fn queries(&self) -> u64 {
        self.shared.queries.load(Ordering::Relaxed)
    }

    /// Cache hits / misses so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.shared.cache.hits(), self.shared.cache.misses())
    }

    /// Events appended to the structured query log so far (0 when the
    /// log is disabled).
    pub fn query_log_events(&self) -> u64 {
        self.shared.qlog.as_ref().map_or(0, |q| q.events())
    }

    /// Entries currently in the slow-query ring.
    pub fn slow_log_len(&self) -> usize {
        self.shared
            .slow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Graceful shutdown: stop accepting, let every in-flight
    /// statement finish and its reply reach the wire, then sync the
    /// storage tail before returning. Concretely: close the accept
    /// loop, half-close each live connection's **read** side (the
    /// worker finishes the statement it is on, writes the reply on the
    /// still-open write side, then reads EOF and exits), join the
    /// workers, take the writer mutex to wait out any write in flight,
    /// and fsync the session's append tail. By return, every acked
    /// write is durable: a restart on the same files recovers all of
    /// them.
    pub fn shutdown(mut self) {
        let start = Instant::now();
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        {
            let _writer = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
            // Commits already fsync individually; this is a final
            // belt-and-braces sync of the tail (a no-op when clean).
            let _ = self.shared.read_session().sync_storage();
        }
        self.shared
            .instruments
            .shutdown_drain_us
            .set(elapsed_us(start) as i64);
    }
}

/// Serve one accepted connection to completion: register it (so
/// graceful shutdown can half-close it), arm the idle timeout, serve,
/// deregister. An idle-timeout or shutdown half-close surfaces as a
/// read error inside; closing quietly is the intended outcome, not a
/// failure to report.
fn handle_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    shared.instruments.connections.inc();
    // Connection id: stamps this connection's query-log events and
    // keys the live-connection registry.
    let client = shared.clients.fetch_add(1, Ordering::Relaxed);
    // Responses are small and latency-bound; never wait on Nagle.
    stream.set_nodelay(true).ok();
    if shared.idle_timeout_us > 0 {
        // The slowloris guard: a peer may not sit mid-request (or
        // mid-header) longer than this between reads.
        stream
            .set_read_timeout(Some(Duration::from_micros(shared.idle_timeout_us)))
            .ok();
    }
    if let Ok(clone) = stream.try_clone() {
        shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(client, clone);
    }
    let result = serve_connection(shared, stream, client);
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&client);
    match result {
        // WouldBlock is what Unix read timeouts actually return;
        // TimedOut covers other platforms.
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Ok(())
        }
        other => other,
    }
}

/// The protocol loop for one connection (line protocol or HTTP shim).
/// Every response is framed whole and sent in one write. A request line
/// longer than [`MAX_REQUEST_LINE`](crate::proto::MAX_REQUEST_LINE) is
/// answered with an error naming the limit, then the connection closes.
fn serve_connection(shared: &Shared, stream: TcpStream, client: u64) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = FrameWriter::new(stream);
    let mut line = Vec::new();
    let mut first = true;
    loop {
        let stmt = match read_request_line(&mut reader, &mut line) {
            Ok(Some(stmt)) => stmt,
            Ok(None) => return Ok(()), // the peer left
            Err(too_long @ ProtoError::LineTooLong) => {
                return out.send(|buf| write_err(buf, &too_long.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        if std::mem::take(&mut first) {
            if let FirstLine::Http { method, target } = classify_first_line(stmt) {
                return match read_http_request_rest(&mut reader) {
                    Ok(Some(body)) => {
                        out.send(|buf| handle_http(shared, buf, &method, &target, &body, client))
                    }
                    Ok(None) => out.send(|buf| {
                        write_http_json(
                            buf,
                            "413 Payload Too Large",
                            r#"{"ok":false,"error":"request body exceeds 1 MiB"}"#,
                        )
                    }),
                    Err(too_long @ ProtoError::LineTooLong) => out.send(|buf| {
                        write_http_json(
                            buf,
                            "431 Request Header Fields Too Large",
                            &format!(
                                r#"{{"ok":false,"error":"{}"}}"#,
                                json_escape(&too_long.to_string())
                            ),
                        )
                    }),
                    Err(e) => Err(e.into()),
                };
            }
        }
        serve_line_statement(shared, &mut out, stmt, client)?;
    }
}

/// Execute one line-protocol statement and write its framed response.
/// Blank lines are acknowledged with an empty OK so a scripted client
/// can pipeline them without desynchronizing.
fn serve_line_statement(
    shared: &Shared,
    out: &mut FrameWriter<impl Write>,
    line: &str,
    client: u64,
) -> std::io::Result<()> {
    let trimmed = line.trim().trim_end_matches(';').trim();
    if trimmed.is_empty() {
        return out.send_ok("", false, shared.epoch.load(Ordering::Acquire), 0, 0);
    }
    let outcome = shared.run_statement(trimmed, client);
    match &outcome.result {
        Ok(result) => out.send_ok(
            &result.text,
            outcome.cache_hit,
            outcome.epoch,
            outcome.time_us,
            outcome.reads,
        ),
        Err(ErrorReply::Message(message)) => out.send(|buf| write_err(buf, message)),
        Err(ErrorReply::Busy { retry_after_ms }) => {
            out.send(|buf| write_busy(buf, *retry_after_ms))
        }
    }
}

/// Answer one HTTP request (`POST /query`, `GET /explain`) and close.
fn handle_http(
    shared: &Shared,
    writer: &mut impl Write,
    method: &str,
    target: &str,
    body: &str,
    client: u64,
) -> std::io::Result<()> {
    match (method, target) {
        ("POST", "/query") => {
            let outcome = shared.run_statement(body.trim(), client);
            match &outcome.result {
                Ok(result) => write_http_json(
                    writer,
                    "200 OK",
                    &format!(
                        r#"{{"ok":true,"cache_hit":{},"epoch":{},"time_us":{},"reads":{},"result":{}}}"#,
                        outcome.cache_hit,
                        outcome.epoch,
                        outcome.time_us,
                        outcome.reads,
                        result.json
                    ),
                ),
                Err(ErrorReply::Message(message)) => write_http_json(
                    writer,
                    "400 Bad Request",
                    &format!(r#"{{"ok":false,"error":"{}"}}"#, json_escape(message)),
                ),
                Err(ErrorReply::Busy { retry_after_ms }) => write_http_json(
                    writer,
                    "503 Service Unavailable",
                    &format!(r#"{{"ok":false,"busy":true,"retry_after_ms":{retry_after_ms}}}"#),
                ),
            }
        }
        ("GET", "/metrics") => {
            // Refresh the heap gauges from live state first: memory is
            // sampled at scrape time, not maintained per-operation.
            shared.refresh_heap_gauges();
            // The whole process's registry, not just this server: the
            // proql and storage layers publish here too.
            write_http_text(writer, "200 OK", &obs::registry().render_prometheus())
        }
        ("GET", t) if t == "/log" || t.starts_with("/log?") => {
            let n = t
                .split_once('?')
                .map(|(_, qs)| qs)
                .and_then(|qs| {
                    qs.split('&')
                        .find_map(|pair| pair.strip_prefix("n=").and_then(|v| v.parse().ok()))
                })
                .unwrap_or(20usize);
            match &shared.qlog {
                Some(qlog) => {
                    let lines = qlog.recent(n);
                    write_http_json(
                        writer,
                        "200 OK",
                        &format!(
                            r#"{{"ok":true,"count":{},"events":[{}]}}"#,
                            lines.len(),
                            lines.join(",")
                        ),
                    )
                }
                None => write_http_json(
                    writer,
                    "404 Not Found",
                    r#"{"ok":false,"error":"query log disabled (configure ServerConfig.query_log)"}"#,
                ),
            }
        }
        ("GET", t) if t == "/slow" || t.starts_with("/slow?") => {
            let n = t
                .split_once('?')
                .map(|(_, qs)| qs)
                .and_then(|qs| {
                    qs.split('&')
                        .find_map(|pair| pair.strip_prefix("n=").and_then(|v| v.parse().ok()))
                })
                .unwrap_or(20usize);
            write_http_json(writer, "200 OK", &shared.render_slow_json(n))
        }
        ("GET", t) if t == "/explain" || t.starts_with("/explain?") => {
            let q = t
                .split_once('?')
                .map(|(_, qs)| qs)
                .and_then(|qs| {
                    qs.split('&')
                        .find_map(|pair| pair.strip_prefix("q=").map(percent_decode))
                })
                .unwrap_or_default();
            if q.trim().is_empty() {
                return write_http_json(
                    writer,
                    "400 Bad Request",
                    r#"{"ok":false,"error":"missing query parameter q"}"#,
                );
            }
            // Lock first, then read the epoch: the reported epoch must
            // name the graph version the plan is computed against.
            let session = shared.read_session();
            let epoch = shared.epoch.load(Ordering::Acquire);
            match session.explain(q.trim().trim_end_matches(';')) {
                Ok(plan) => write_http_json(
                    writer,
                    "200 OK",
                    &format!(
                        r#"{{"ok":true,"epoch":{epoch},"plan":"{}"}}"#,
                        json_escape(&plan)
                    ),
                ),
                Err(e) => write_http_json(
                    writer,
                    "400 Bad Request",
                    &format!(
                        r#"{{"ok":false,"error":"{}"}}"#,
                        json_escape(&e.to_string())
                    ),
                ),
            }
        }
        _ => write_http_json(
            writer,
            "404 Not Found",
            r#"{"ok":false,"error":"unknown endpoint (POST /query, GET /explain?q=..., GET /metrics, GET /slow?n=..., GET /log?n=...)"}"#,
        ),
    }
}
