//! A ProQL session: a provenance graph (resident, paged or append), an
//! optional reachability index, and the parse → plan → execute loop.
//!
//! Reads — planning, `CHECK`, execution — are written once against
//! [`GraphStore`] and reach the backend through one dispatch
//! (`on_store!`). The session branches on its backend only where
//! backends really differ: opening, the mutation arms, `STATS` and the
//! memory report, the `reads=` span attributes, and containing the
//! corruption panics of stores that fault records in.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lipstick_core::obs::{self, TraceCtx, Tracer};
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::{plan_zoom_out, QueryError, ReachIndex};
use lipstick_core::store::GraphStore;
use lipstick_core::{InvocationId, NodeId, ProvGraph, Role};
use lipstick_storage::{AppendLog, PagedLog, PreparedCompact, PreparedRecord, StorageError};

use crate::ast::Statement;
use crate::error::{ProqlError, Result};
use crate::exec::{self, ReadEnv};
use crate::parser::{parse_script, parse_statement};
use crate::plan::StmtPlan;
use crate::planner::{fuse_zooms, FusedStatement, Planner};
use crate::result::QueryOutput;

/// How the session holds its graph.
enum Backend {
    /// Fully decoded, mutable graph.
    Resident(ProvGraph),
    /// Footer-indexed v2 log; records fault in per query. Boxed: the
    /// log (fault cache, postings, instruments) dwarfs the resident
    /// variant's inline size.
    Paged(Box<PagedLog>),
    /// Sealed v2 base segment plus a WAL-style mutable tail: mutations
    /// commit as durable tail records instead of promoting, and
    /// `COMPACT` merges the tail into a fresh sealed base.
    Append(Box<AppendLog>),
}

/// Evaluate `$body` (a `Result`) with `$env` bound to the backend's
/// [`ReadEnv`], monomorphised per store — the one place a read picks
/// its store. A store that faults records in notices a garbled record
/// deep inside infallible [`GraphStore`] accessors (the footer only
/// validates record *offsets*), so its arm runs under
/// [`contain_corruption`].
macro_rules! on_store {
    ($session:expr, |$env:ident| $body:expr) => {{
        let reach = $session.reach.as_ref();
        match &$session.backend {
            Backend::Resident(graph) => {
                let $env = ReadEnv {
                    store: graph,
                    reach,
                    reads: false,
                    stats: resident_stats,
                };
                $body
            }
            Backend::Paged(log) => {
                let $env = ReadEnv {
                    store: log.as_ref(),
                    reach,
                    reads: true,
                    stats: log_stats::<PagedLog>,
                };
                contain_corruption(|| $body)
            }
            Backend::Append(log) => {
                let $env = ReadEnv {
                    store: log.as_ref(),
                    reach,
                    reads: true,
                    stats: log_stats::<AppendLog>,
                };
                contain_corruption(|| $body)
            }
        }
    }};
}

/// A statement [`Session::prepare_write`] has readied: everything slow
/// is done, nothing is visible yet. Hand it to
/// [`Session::publish_write`] before preparing the next one.
#[must_use = "a prepared write may already be durable; publish it"]
pub struct PreparedWrite {
    step: Step,
    /// Preparation time, added to the statement's latency figure when
    /// it is published.
    spent: Duration,
}

/// What publication does with a prepared statement.
enum Step {
    /// Run the plan under exclusive access ([`Session::execute`]).
    Execute(StmtPlan),
    /// Promote the paged session, then plan and run the statement.
    Promote(FusedStatement),
    /// Answered while preparing; publication returns it unchanged.
    Answer(QueryOutput),
    /// A reach index built beside readers, installed at publication.
    BuildIndex(ReachIndex),
    Delete {
        record: PreparedRecord,
        cone: Vec<NodeId>,
    },
    ZoomOut {
        record: PreparedRecord,
        modules: Vec<String>,
        fused_from: usize,
    },
    ZoomIn {
        record: PreparedRecord,
        names: Vec<String>,
        /// Read before publication: zoom-in unlinks the composites.
        changed: Vec<NodeId>,
        fused_from: usize,
    },
    Compact {
        /// Boxed: the new base dwarfs every other variant.
        image: Box<PreparedCompact>,
        records: usize,
    },
}

/// The session's handles into the process-wide metrics registry,
/// resolved once at construction.
struct Instruments {
    statements: Arc<obs::Counter>,
    statement_us: Arc<obs::Histogram>,
    index_builds: Arc<obs::Counter>,
    repair_us: Arc<obs::Histogram>,
}

impl Instruments {
    fn get() -> Instruments {
        let reg = obs::registry();
        Instruments {
            statements: reg.counter(
                "lipstick_proql_statements_total",
                "ProQL statements executed (all sessions)",
            ),
            statement_us: reg.histogram(
                "lipstick_proql_statement_us",
                "Per-statement execution latency in microseconds",
                obs::LATENCY_BUCKETS_US,
            ),
            index_builds: reg.counter(
                "lipstick_proql_index_builds_total",
                "Reach-index builds from scratch (repairs excluded)",
            ),
            repair_us: reg.histogram(
                "lipstick_proql_index_repair_us",
                "In-place reach-index repair latency in microseconds",
                obs::LATENCY_BUCKETS_US,
            ),
        }
    }
}

/// Query-processor state: the graph under interrogation plus the
/// optional §5.1 reachability closure (bidirectional: descendant and
/// ancestor bitsets). Mutating statements (`DELETE`, `ZOOM`) **repair
/// the closure in place** — deletion subtracts the dead cone, zooms
/// remap the affected region — so an index built once stays exact and
/// indexed plans keep serving across mutations; `DROP INDEX` is the
/// only way to lose it.
///
/// Sessions come in two flavours. [`Session::new`]/[`Session::load`]
/// hold a **resident** graph. [`Session::open`] keeps a v2 log
/// **paged**: queries read only the records they touch, and the first
/// mutating statement transparently *promotes* the session to resident
/// by decoding the full log.
pub struct Session {
    backend: Backend,
    reach: Option<ReachIndex>,
    /// From-scratch closure builds performed so far (repairs excluded)
    /// — lets tests pin down that promotion and incremental
    /// maintenance never trigger a silent second rebuild.
    index_builds: u64,
    /// Records decoded by paged backends this session has since
    /// promoted away — keeps [`Session::records_read`] monotonic across
    /// promotion instead of silently resetting to zero.
    carried_reads: usize,
    /// Paged-to-resident promotions performed so far. Append-backend
    /// sessions commit mutations in place and never promote, which
    /// tests pin down as `promotions() == 0`.
    promotions: u64,
    /// Registry handles (statement counts/latency, index builds,
    /// repair latency).
    instruments: Instruments,
}

impl Session {
    /// A session over an in-memory graph.
    pub fn new(graph: ProvGraph) -> Session {
        Session {
            backend: Backend::Resident(graph),
            reach: None,
            index_builds: 0,
            carried_reads: 0,
            promotions: 0,
            instruments: Instruments::get(),
        }
    }

    /// Fully load a provenance log written by
    /// `lipstick_storage::write_graph` (v1 or v2) — the Query
    /// Processor's original, decode-everything first step.
    pub fn load(path: impl AsRef<Path>) -> Result<Session> {
        let graph = lipstick_storage::load_graph(path.as_ref())
            .map_err(|e| ProqlError::Storage(e.to_string()))?;
        Ok(Session::new(graph))
    }

    /// Open a provenance log lazily. A v2 log (written by
    /// `lipstick_storage::write_graph_v2`) becomes a paged session that
    /// answers `MATCH`/`WHY`/`DEPENDS`/walks without materialising the
    /// graph; a v1 log has no footer and falls back to a full load.
    pub fn open(path: impl AsRef<Path>) -> Result<Session> {
        let data = std::fs::read(path.as_ref()).map_err(|e| ProqlError::Storage(e.to_string()))?;
        // Sniff the version first so the v1 fallback decodes the bytes
        // already in hand instead of re-reading the file.
        if lipstick_storage::log_version(&data) == Some(1) {
            let graph = lipstick_storage::decode_graph(&data)
                .map_err(|e| ProqlError::Storage(e.to_string()))?;
            return Ok(Session::new(graph));
        }
        let log = PagedLog::from_bytes(data).map_err(|e| ProqlError::Storage(e.to_string()))?;
        Ok(Session {
            backend: Backend::Paged(Box::new(log)),
            reach: None,
            index_builds: 0,
            carried_reads: 0,
            promotions: 0,
            instruments: Instruments::get(),
        })
    }

    /// Open a v2 log with a streaming append write path: the sealed
    /// base segment stays paged, and mutations (`DELETE PROPAGATE`,
    /// zooms, [`Session::ingest`]) commit durable records to a
    /// `<path>.tail` sidecar instead of promoting the session to
    /// resident. A torn tail (crash mid-write) is truncated to its last
    /// whole record on open. `COMPACT` merges the tail back into a
    /// fresh sealed base segment.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Session> {
        let log = AppendLog::open(path.as_ref()).map_err(|e| ProqlError::Storage(e.to_string()))?;
        Ok(Session::from_append_log(log))
    }

    /// [`Session::open_append`] through an explicit
    /// [`lipstick_storage::StorageIo`] implementation — the
    /// fault-injection harness opens sessions over a simulated disk
    /// this way.
    pub fn open_append_with_io(
        path: impl AsRef<Path>,
        io: std::sync::Arc<dyn lipstick_storage::StorageIo>,
    ) -> Result<Session> {
        let log = AppendLog::open_with_io(path.as_ref(), io)
            .map_err(|e| ProqlError::Storage(e.to_string()))?;
        Ok(Session::from_append_log(log))
    }

    fn from_append_log(log: AppendLog) -> Session {
        Session {
            backend: Backend::Append(Box::new(log)),
            reach: None,
            index_builds: 0,
            carried_reads: 0,
            promotions: 0,
            instruments: Instruments::get(),
        }
    }

    /// Flush the backend's durable state (the append backend's WAL
    /// tail). Commits already sync per record, so this is a barrier for
    /// graceful shutdown, not a durability requirement; resident and
    /// paged backends have nothing to flush and return `Ok`.
    pub fn sync_storage(&self) -> Result<()> {
        match &self.backend {
            Backend::Append(log) => log.sync().map_err(|e| ProqlError::Storage(e.to_string())),
            Backend::Resident(_) | Backend::Paged(_) => Ok(()),
        }
    }

    /// How many times a reach index was built from scratch in this
    /// session (incremental repairs don't count).
    pub fn index_builds(&self) -> u64 {
        self.index_builds
    }

    /// Is the session still paged (no full graph materialised)?
    pub fn is_paged(&self) -> bool {
        matches!(self.backend, Backend::Paged(_))
    }

    /// Does the session use the append backend (sealed base + WAL
    /// tail)?
    pub fn is_append(&self) -> bool {
        matches!(self.backend, Backend::Append(_))
    }

    /// The append backend, when the session has one — lets tests and
    /// servers inspect tail state (`tail_records`, `tail_len`) without
    /// widening the session API per field.
    pub fn append_log(&self) -> Option<&AppendLog> {
        match &self.backend {
            Backend::Append(log) => Some(log),
            _ => None,
        }
    }

    /// Paged-to-resident promotions this session has performed. Stays
    /// 0 for sessions born resident and for append-backend sessions,
    /// whose mutations commit in place.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Node records decoded by this session's paged backends — including
    /// any backend a promoting mutation has since replaced, so the
    /// figure is monotonic for the session's lifetime (it used to reset
    /// to zero on promotion). A session born resident reports 0.
    pub fn records_read(&self) -> usize {
        self.carried_reads
            + match &self.backend {
                Backend::Resident(_) => 0,
                Backend::Paged(log) => log.records_read(),
                Backend::Append(log) => log.records_read(),
            }
    }

    /// The resident graph, when there is one (`None` while paged or
    /// append-backed).
    pub fn resident_graph(&self) -> Option<&ProvGraph> {
        match &self.backend {
            Backend::Resident(g) => Some(g),
            Backend::Paged(_) | Backend::Append(_) => None,
        }
    }

    /// The resident graph.
    ///
    /// # Panics
    /// On a paged session — call [`Session::materialize`] first, or
    /// check [`Session::is_paged`].
    pub fn graph(&self) -> &ProvGraph {
        self.resident_graph()
            .expect("paged session has no resident graph; call materialize() first")
    }

    /// Decode the full log and switch to the resident backend. No-op if
    /// already resident; an error on an append session, whose whole
    /// point is committing mutations without promotion (`COMPACT`
    /// reclaims the tail instead). Returns the graph.
    pub fn materialize(&mut self) -> Result<&ProvGraph> {
        if matches!(self.backend, Backend::Append(_)) {
            return Err(ProqlError::Storage(
                "append sessions never promote to resident; run COMPACT to merge the tail".into(),
            ));
        }
        if let Backend::Paged(log) = &self.backend {
            let graph = log
                .decode_full()
                .map_err(|e| ProqlError::Storage(e.to_string()))?;
            // Dropping the log would silently zero `records_read`; bank
            // its figure first so the session's count stays monotonic.
            self.carried_reads += log.records_read();
            self.backend = Backend::Resident(graph);
            self.promotions += 1;
        }
        Ok(self.graph())
    }

    pub(crate) fn graph_mut(&mut self) -> &mut ProvGraph {
        match &mut self.backend {
            Backend::Resident(g) => g,
            Backend::Paged(_) | Backend::Append(_) => {
                unreachable!("mutating statements promote or take the append path first")
            }
        }
    }

    fn append_log_ref(&self) -> &AppendLog {
        match &self.backend {
            Backend::Append(log) => log,
            _ => unreachable!("append backend expected"),
        }
    }

    fn append_log_mut(&mut self) -> &mut AppendLog {
        match &mut self.backend {
            Backend::Append(log) => log,
            _ => unreachable!("append backend expected"),
        }
    }

    /// The session's reachability closure, when one is built — public
    /// so property tests can compare it against a fresh
    /// [`ReachIndex::build`] after mutation sequences.
    pub fn reach_index(&self) -> Option<&ReachIndex> {
        self.reach.as_ref()
    }

    pub fn has_reach_index(&self) -> bool {
        self.reach.is_some()
    }

    pub(crate) fn set_index(&mut self, index: ReachIndex) {
        self.reach = Some(index);
        // Per-session count (tests pin exact values) plus the
        // process-wide registry series.
        self.index_builds += 1;
        self.instruments.index_builds.inc();
    }

    /// Drop the reachability closure (`DROP INDEX`).
    pub(crate) fn invalidate_index(&mut self) {
        self.reach = None;
    }

    /// Repair the reachability closure in place after a mutation.
    /// `changed` must list every node whose visibility or adjacency the
    /// mutation touched (the executor's mutation arms compute it). In
    /// debug builds the repaired index is checked bit-for-bit against a
    /// fresh build — the incremental path must never drift.
    pub(crate) fn repair_index(&mut self, changed: &[NodeId]) {
        let Some(index) = self.reach.as_mut() else {
            return;
        };
        let start = Instant::now();
        match &self.backend {
            Backend::Resident(graph) => {
                index.repair(graph, changed);
                debug_assert!(
                    index.matches_fresh_build(graph),
                    "incremental reach-index repair diverged from a fresh build"
                );
            }
            Backend::Append(log) => {
                index.repair(log.as_ref(), changed);
                debug_assert!(
                    index.matches_fresh_build(log.as_ref()),
                    "incremental reach-index repair diverged from a fresh build"
                );
            }
            // Paged sessions never hold an index across mutations.
            Backend::Paged(_) => return,
        }
        self.instruments
            .repair_us
            .observe(start.elapsed().as_micros() as u64);
    }

    /// Does executing this statement require a resident, mutable graph?
    fn needs_resident(stmt: &Statement) -> bool {
        matches!(
            stmt,
            Statement::DeletePropagate(_)
                | Statement::ZoomOut(_)
                | Statement::ZoomIn(_)
                | Statement::BuildIndex
        )
    }

    /// Run a script: zero or more `;`-separated statements. Statements
    /// are planned one at a time against the current graph state (a
    /// `DELETE` changes what later statements see), with consecutive
    /// zooms fused first.
    pub fn run(&mut self, script: &str) -> Result<Vec<QueryOutput>> {
        let stmts = parse_script(script)?;
        let fused = fuse_zooms(stmts);
        let mut outputs = Vec::with_capacity(fused.len());
        for fs in &fused {
            outputs.push(self.run_fused(fs)?);
        }
        Ok(outputs)
    }

    /// Run exactly one statement.
    pub fn run_one(&mut self, statement: &str) -> Result<QueryOutput> {
        let stmt = parse_statement(statement)?;
        self.run_stmt(&stmt)
    }

    /// Run one already-parsed statement, mutating the session where the
    /// statement calls for it — [`Session::prepare_write`] followed by
    /// [`Session::publish_write`], the exclusive-access counterpart of
    /// [`Session::run_read_stmt`].
    pub fn run_stmt(&mut self, stmt: &Statement) -> Result<QueryOutput> {
        self.run_fused(&FusedStatement {
            stmt: stmt.clone(),
            fused_from: 1,
        })
    }

    fn run_fused(&mut self, fs: &FusedStatement) -> Result<QueryOutput> {
        let prepared = self.prepare_fused(fs)?;
        self.publish_write(prepared)
    }

    /// The slow half of a statement, on a shared reference so readers
    /// keep running: plan and validate it and, on the append backend,
    /// compute the deletion cone or zoom plan and make its tail record
    /// durable, build a requested reach index, or write and validate
    /// the COMPACT image. Nothing is visible until
    /// [`Session::publish_write`], which must see the session exactly as
    /// this call left it — a server serialises its writers around the
    /// pair. An error means nothing was made durable. A paged session's
    /// promotion to resident is exclusive, so a statement that needs it
    /// is prepared here and runs whole at publication.
    pub fn prepare_write(&self, stmt: &Statement) -> Result<PreparedWrite> {
        self.prepare_fused(&FusedStatement {
            stmt: stmt.clone(),
            fused_from: 1,
        })
    }

    fn prepare_fused(&self, fs: &FusedStatement) -> Result<PreparedWrite> {
        let start = Instant::now();
        match self.prepare_step(fs) {
            Ok(step) => Ok(PreparedWrite {
                step,
                spent: start.elapsed(),
            }),
            Err(e) => {
                self.count_statement(start.elapsed());
                Err(e)
            }
        }
    }

    fn prepare_step(&self, fs: &FusedStatement) -> Result<Step> {
        if self.is_paged() && Session::needs_resident(&fs.stmt) {
            return Ok(Step::Promote(fs.clone()));
        }
        let plan = on_store!(self, |env| Planner::new(env.store, env.reach)
            .plan_fused(fs))?;
        match &self.backend {
            Backend::Append(log) => self.prepare_append(log, plan),
            Backend::Resident(_) | Backend::Paged(_) => Ok(Step::Execute(plan)),
        }
    }

    /// The append backend's prepare arms. The messages and error choices
    /// mirror the resident arms byte for byte, which the differential
    /// harness locks down.
    fn prepare_append(&self, log: &AppendLog, plan: StmtPlan) -> Result<Step> {
        Ok(match plan {
            StmtPlan::Delete(n) => {
                let cone = contain_corruption(|| Ok(compute_deletion(log, n)?))?.deleted;
                let record = log.prepare_tombstones(&cone).map_err(storage_error)?;
                Step::Delete { record, cone }
            }
            StmtPlan::ZoomOut {
                modules,
                fused_from,
            } => {
                let names: Vec<&str> = modules.iter().map(String::as_str).collect();
                let zoomed: Vec<String> = log
                    .zoomed_out_modules()
                    .into_iter()
                    .map(String::from)
                    .collect();
                let plans = contain_corruption(|| {
                    Ok(plan_zoom_out(log, &names, &zoomed, log.stash_count())?)
                })?;
                let record = log.prepare_zoom_out(plans).map_err(storage_error)?;
                Step::ZoomOut {
                    record,
                    modules,
                    fused_from,
                }
            }
            StmtPlan::ZoomIn {
                modules,
                fused_from,
            } => {
                let zoomed = log.zoomed_out_modules();
                let names: Vec<String> = match modules {
                    Some(ms) => ms,
                    None => zoomed.iter().map(|m| m.to_string()).collect(),
                };
                if names.is_empty() {
                    return Ok(Step::Answer(QueryOutput::Message(
                        "no modules are zoomed out".into(),
                    )));
                }
                // Validate up front with the resident path's exact
                // error (the log's own refusal spells differently), and
                // capture the changed set now: ZoomIn unlinks the
                // composites, so their neighbours must be read before.
                let mut seen = std::collections::HashSet::new();
                for m in &names {
                    if !seen.insert(m.as_str()) || !zoomed.contains(&m.as_str()) {
                        return Err(QueryError::NotZoomedOut(m.clone()).into());
                    }
                }
                let mut changed: Vec<NodeId> = Vec::new();
                for m in &names {
                    if let Some(stash) = log.stash_of(m) {
                        changed.extend_from_slice(&stash.hidden);
                        for &z in &stash.zoom_nodes {
                            changed.push(z);
                            changed.extend_from_slice(&log.preds_of(z));
                            changed.extend_from_slice(&log.succs_of(z));
                        }
                    }
                }
                let record = log.prepare_zoom_in(&names).map_err(storage_error)?;
                Step::ZoomIn {
                    record,
                    names,
                    changed,
                    fused_from,
                }
            }
            StmtPlan::BuildIndex if self.has_reach_index() => Step::Answer(QueryOutput::Message(
                "reach index already present (maintained in place); DROP INDEX first to force \
                 a rebuild"
                    .into(),
            )),
            StmtPlan::BuildIndex => {
                Step::BuildIndex(contain_corruption(|| Ok(ReachIndex::build(log)))?)
            }
            StmtPlan::Compact => match log.tail_records() {
                0 => Step::Answer(QueryOutput::Message(
                    "nothing to compact (no tail segment)".into(),
                )),
                records => Step::Compact {
                    image: Box::new(log.prepare_compact().map_err(storage_error)?),
                    records,
                },
            },
            other => Step::Execute(other),
        })
    }

    /// The short half of a statement: make a [`Session::prepare_write`]
    /// result visible — apply the tail record to the overlay and repair
    /// the reach index in place, install a built index, or swap in a
    /// compacted base (its rename and tail unlink are the only IO) —
    /// or run a statement that needs the session exclusively.
    pub fn publish_write(&mut self, prepared: PreparedWrite) -> Result<QueryOutput> {
        let start = Instant::now();
        let out = self.publish_step(prepared.step);
        self.count_statement(prepared.spent + start.elapsed());
        out
    }

    fn publish_step(&mut self, step: Step) -> Result<QueryOutput> {
        match step {
            Step::Execute(plan) => self.execute(plan),
            Step::Promote(fs) => {
                self.materialize()?;
                let plan = on_store!(self, |env| Planner::new(env.store, env.reach)
                    .plan_fused(&fs))?;
                self.execute(plan)
            }
            Step::Answer(out) => Ok(out),
            Step::BuildIndex(index) => {
                let bytes = index.memory_bytes();
                self.set_index(index);
                Ok(QueryOutput::Message(format!(
                    "reach index built ({bytes} bytes)"
                )))
            }
            Step::Delete { record, cone } => {
                self.append_log_mut()
                    .publish(record)
                    .map_err(storage_error)?;
                // Deletion only removes reachability: the changed set
                // is exactly the tombstoned cone.
                self.repair_index(&cone);
                Ok(QueryOutput::Deleted { nodes: cone })
            }
            Step::ZoomOut {
                record,
                modules,
                fused_from,
            } => {
                let created = self
                    .append_log_mut()
                    .publish(record)
                    .map_err(storage_error)?;
                // Changed: everything each stash hid, the new
                // composites, and the i/o nodes the composites were
                // wired to (their adjacency gained edges).
                let mut changed = created.clone();
                {
                    let log = self.append_log_ref();
                    for m in &modules {
                        if let Some(stash) = log.stash_of(m) {
                            changed.extend_from_slice(&stash.hidden);
                        }
                    }
                    for &z in &created {
                        changed.extend_from_slice(&log.preds_of(z));
                        changed.extend_from_slice(&log.succs_of(z));
                    }
                }
                self.repair_index(&changed);
                let mut msg = format!(
                    "zoomed out {} module(s), {} composite node(s)",
                    modules.len(),
                    created.len()
                );
                if fused_from > 1 {
                    msg.push_str(&format!(" [fused from {fused_from} statements]"));
                }
                Ok(QueryOutput::Message(msg))
            }
            Step::ZoomIn {
                record,
                names,
                changed,
                fused_from,
            } => {
                self.append_log_mut()
                    .publish(record)
                    .map_err(storage_error)?;
                self.repair_index(&changed);
                let mut msg = format!("zoomed back into {}", names.join(", "));
                if fused_from > 1 {
                    msg.push_str(&format!(" [fused from {fused_from} statements]"));
                }
                Ok(QueryOutput::Message(msg))
            }
            Step::Compact { image, records } => {
                self.append_log_mut()
                    .install_compact(*image)
                    .map_err(storage_error)?;
                // Compaction preserves ids and visibility exactly, so
                // an existing reach index stays valid as-is.
                Ok(QueryOutput::Message(format!(
                    "compacted {records} tail record(s) into sealed segment"
                )))
            }
        }
    }

    fn count_statement(&self, took: Duration) {
        self.instruments.statements.inc();
        self.instruments
            .statement_us
            .observe(took.as_micros() as u64);
    }

    /// Execute one planned statement under exclusive access: the
    /// resident graph's mutation arms, index drops, the paged store's
    /// tail-less answers, and read-only plans. (The append backend's
    /// mutations are prepared and published instead.)
    fn execute(&mut self, plan: StmtPlan) -> Result<QueryOutput> {
        match (&self.backend, plan) {
            (Backend::Resident(_), plan) => exec::execute(self, &plan),
            // A sealed log has no tail to compact and (mutations
            // promote) never holds an index.
            (Backend::Paged(_), StmtPlan::Compact) => Ok(QueryOutput::Message(
                "nothing to compact (no tail segment)".into(),
            )),
            (Backend::Paged(_), StmtPlan::DropIndex) => Ok(QueryOutput::Message(
                "reach index dropped (paged sessions have none)".into(),
            )),
            (Backend::Append(_), StmtPlan::DropIndex) => {
                self.invalidate_index();
                Ok(QueryOutput::Message("reach index dropped".into()))
            }
            (_, read_only) => self.execute_read(&read_only, TraceCtx::disabled()),
        }
    }

    /// Execute one planned read-only statement against whichever store
    /// the session holds.
    pub(crate) fn execute_read(&self, plan: &StmtPlan, ctx: TraceCtx<'_>) -> Result<QueryOutput> {
        on_store!(self, |env| exec::execute_read(&env, plan, ctx))
    }

    /// Append a self-contained fragment graph — new workflow output
    /// from the Provenance Tracker — to the session, returning the ids
    /// its nodes received. On the append backend this commits one
    /// durable tail record and repairs the reach index in place; a
    /// paged session must promote first (the baseline the append bench
    /// measures against); a resident session splices the fragment into
    /// the graph arena. Fragments with zoomed-out modules are rejected
    /// on every backend, mirroring the storage layer's refusal.
    pub fn ingest(&mut self, fragment: &ProvGraph) -> Result<Vec<NodeId>> {
        if self.is_paged() {
            self.materialize()?;
        }
        let created = match &mut self.backend {
            Backend::Append(log) => log
                .commit_fragment(fragment)
                .map_err(|e| ProqlError::Storage(e.to_string()))?,
            Backend::Resident(graph) => {
                let zoomed = fragment.zoomed_out_modules();
                if !zoomed.is_empty() {
                    let names = zoomed.into_iter().map(String::from).collect();
                    return Err(ProqlError::Storage(
                        lipstick_storage::StorageError::ZoomedGraph(names).to_string(),
                    ));
                }
                let node_off = graph.len() as u32;
                let inv_off = graph.invocations().len() as u32;
                let mut created = Vec::with_capacity(fragment.len());
                for i in 0..fragment.len() {
                    let n = fragment.node(NodeId(i as u32));
                    let id = graph.add_node(n.kind.clone(), offset_role(n.role, inv_off));
                    if n.is_deleted() {
                        graph.set_node_deleted(id, true);
                    }
                    created.push(id);
                }
                // Second pass: a fragment edge may point at a later
                // fragment node, so every node must exist before wiring.
                for (i, &id) in created.iter().enumerate() {
                    let n = fragment.node(NodeId(i as u32));
                    for &p in n.preds() {
                        graph.add_edge(NodeId(p.0 + node_off), id);
                    }
                }
                for inv in fragment.invocations() {
                    graph.register_invocation(
                        inv.module.clone(),
                        inv.execution,
                        NodeId(inv.m_node.0 + node_off),
                    );
                }
                created
            }
            Backend::Paged(_) => unreachable!("materialized above"),
        };
        // Fragment edges are internal, so the changed set is exactly
        // the appended ids.
        self.repair_index(&created);
        Ok(created)
    }

    /// Run exactly one **read-only** statement through a shared
    /// reference — the execution path `lipstick-serve` fans out across
    /// a worker pool, with many `run_read` calls in flight against one
    /// session at once (the session is `Send + Sync`; wrap it in an
    /// `RwLock` and take the read side).
    ///
    /// Mutating statements (`DELETE PROPAGATE`, zooms, `BUILD INDEX`,
    /// `DROP INDEX`) fail with [`ProqlError::ReadOnly`]; route them
    /// through [`Session::run_one`] under exclusive access instead.
    /// Unlike the `&mut` paths, `run_read` never promotes a paged
    /// session: queries keep faulting in only the records they touch.
    pub fn run_read(&self, statement: &str) -> Result<QueryOutput> {
        let stmt = parse_statement(statement)?;
        self.run_read_stmt(&stmt)
    }

    /// [`Session::run_read`] for an already parsed statement.
    pub fn run_read_stmt(&self, stmt: &Statement) -> Result<QueryOutput> {
        self.run_read_stmt_traced(stmt, None)
    }

    /// [`Session::run_read_stmt`], recording plan/execute/per-operator
    /// spans into `tracer` when one is supplied — how `lipstick-serve`
    /// captures a [`lipstick_core::obs::QueryTrace`] per statement for
    /// its slow-query log. With `None` this is exactly
    /// [`Session::run_read_stmt`].
    pub fn run_read_stmt_traced(
        &self,
        stmt: &Statement,
        tracer: Option<&Tracer>,
    ) -> Result<QueryOutput> {
        self.run_read_stmt_with(stmt, tracer, None)
    }

    /// [`Session::run_read_stmt_traced`] with an optional deadline.
    /// Executors check it cooperatively at span boundaries (statement
    /// entry and each set-plan operator) and cancel with
    /// [`ProqlError::DeadlineExceeded`] once it passes — how
    /// `lipstick-serve` enforces `request_deadline_us`. Reads only:
    /// mutations never carry deadlines, so a statement is never
    /// abandoned half-applied.
    pub fn run_read_stmt_with(
        &self,
        stmt: &Statement,
        tracer: Option<&Tracer>,
        deadline: Option<Instant>,
    ) -> Result<QueryOutput> {
        if !stmt.is_read_only() {
            return Err(ProqlError::ReadOnly(stmt_summary(stmt)));
        }
        let ctx = tracer
            .map_or(TraceCtx::disabled(), TraceCtx::root)
            .with_deadline(deadline);
        let start = Instant::now();
        let out = on_store!(self, |env| {
            let plan = {
                let _span = ctx.span("plan");
                Planner::new(env.store, env.reach).plan(stmt)?
            };
            let span = ctx.span("execute");
            exec::execute_read(&env, &plan, span.ctx())
        });
        self.instruments.statements.inc();
        self.instruments
            .statement_us
            .observe(start.elapsed().as_micros() as u64);
        out
    }

    /// Plan a statement without executing it, against whichever backend
    /// the session currently has.
    pub fn plan(&self, stmt: &Statement) -> Result<StmtPlan> {
        on_store!(self, |env| Planner::new(env.store, env.reach).plan(stmt))
    }

    /// The physical plan for a statement, as `EXPLAIN` would print it.
    /// On a paged session this includes the records-read figures the
    /// footer postings predict.
    pub fn explain(&self, statement: &str) -> Result<String> {
        let stmt = parse_statement(statement)?;
        Ok(self.plan(&stmt)?.to_string())
    }

    /// Per-component heap breakdown of everything the session holds:
    /// the backend store (resident graph or paged log) and the reach
    /// closure. Groups are `"graph"`, `"paged_log"`, and `"reach"`;
    /// component names come from each structure's
    /// [`lipstick_core::obs::HeapSize`] breakdown, so this report, the
    /// `STATS` memory section, and the `lipstick_*_heap_bytes` gauges
    /// all sum the same numbers.
    pub fn memory_report(&self) -> Vec<MemoryComponent> {
        use lipstick_core::obs::HeapSize;
        let mut out = Vec::new();
        match &self.backend {
            Backend::Resident(g) => {
                out.extend(g.heap_breakdown().into_iter().map(|(k, v)| ("graph", k, v)));
            }
            Backend::Paged(log) => {
                out.extend(
                    log.heap_breakdown()
                        .into_iter()
                        .map(|(k, v)| ("paged_log", k, v)),
                );
            }
            // The append log reports its sealed base plus a
            // "tail_overlay" component; both land in the `paged_log`
            // gauge group so serve's heap gauges need no new names.
            Backend::Append(log) => {
                out.extend(
                    log.memory_breakdown()
                        .into_iter()
                        .map(|(k, v)| ("paged_log", k, v)),
                );
            }
        }
        if let Some(idx) = &self.reach {
            out.extend(
                idx.heap_breakdown()
                    .into_iter()
                    .map(|(k, v)| ("reach", k, v)),
            );
        }
        out
    }

    /// Total heap bytes held by the session (sum of
    /// [`Session::memory_report`]).
    pub fn heap_bytes(&self) -> usize {
        self.memory_report().iter().map(|(_, _, b)| *b).sum()
    }

    /// Statically analyze one statement against this session's schema
    /// **without executing it** — what `CHECK <stmt>` returns. Works on
    /// every backend; on a paged session only index-level facts (and
    /// the kind of an `EVAL` target) fault in, and the session is never
    /// promoted. The analyzer itself is infallible, but faulting
    /// records in is not: a contained corruption panic becomes a
    /// synthetic `E001` diagnostic.
    pub fn check(&self, statement: &str) -> crate::analyze::Diagnostics {
        on_store!(self, |env| Ok(crate::analyze::analyze(
            env.store, statement
        )))
        .unwrap_or_else(|e| crate::analyze::Diagnostics {
            source: statement.to_string(),
            items: vec![crate::analyze::Diagnostic {
                code: "E001",
                severity: crate::analyze::Severity::Error,
                span: crate::lexer::Span::new(0, statement.len()),
                message: format!("analysis failed: {e}"),
                suggestion: None,
            }],
        })
    }
}

/// One heap component of a session: `(group, component, bytes)` —
/// e.g. `("graph", "adjacency", 81920)`.
pub type MemoryComponent = (&'static str, &'static str, usize);

/// Render a memory report for humans (the shell's `\mem` command):
/// one line per component plus a total, largest first.
pub fn render_memory_report(components: &[MemoryComponent]) -> String {
    use lipstick_core::obs::format_bytes;
    let total: usize = components.iter().map(|(_, _, b)| *b).sum();
    let mut sorted: Vec<&MemoryComponent> = components.iter().collect();
    sorted.sort_by_key(|(_, _, b)| std::cmp::Reverse(*b));
    let mut out = format!("session heap: {} ({total} B)\n", format_bytes(total));
    for (group, name, bytes) in sorted {
        out.push_str(&format!(
            "  {group}.{name}: {} ({bytes} B)\n",
            format_bytes(*bytes)
        ));
    }
    out
}

/// `STATS` for a resident graph: node/edge statistics, zoom and index
/// state, and the heap breakdown of graph and closure.
fn resident_stats(graph: &ProvGraph, reach: Option<&ReachIndex>) -> String {
    use lipstick_core::obs::HeapSize;
    let mut text = lipstick_core::graph::stats::stats(graph).to_string();
    text.push_str(&format!(
        "  {} invocation(s), {} zoomed-out module(s), reach index: {}\n",
        graph.invocations().len(),
        graph.zoomed_out_modules().len(),
        if reach.is_some() { "present" } else { "absent" }
    ));
    let mut total = 0usize;
    for (name, bytes) in graph.heap_breakdown() {
        total += bytes;
        text.push_str(&format!("  memory graph.{name}={bytes}\n"));
    }
    if let Some(idx) = reach {
        for (name, bytes) in idx.heap_breakdown() {
            total += bytes;
            text.push_str(&format!("  memory reach.{name}={bytes}\n"));
        }
    }
    text.push_str(&format!(
        "  memory total={total} ({})",
        obs::format_bytes(total)
    ));
    text
}

/// `STATS` for an on-disk log: record counts, how many records queries
/// have decoded so far, and the store's heap breakdown.
fn log_stats<S: GraphStore>(store: &S, _reach: Option<&ReachIndex>) -> String {
    let mut text = format!(
        "paged log: {} record(s), {} visible, {} invocation(s), {} record(s) decoded so far\n",
        store.node_count(),
        store.visible_count(),
        store.invocations().len(),
        store.records_read()
    );
    let mut total = 0usize;
    for (name, bytes) in store.memory_breakdown() {
        total += bytes;
        text.push_str(&format!("  memory store.{name}={bytes}\n"));
    }
    text.push_str(&format!(
        "  memory total={total} ({})",
        obs::format_bytes(total)
    ));
    text
}

fn storage_error(e: StorageError) -> ProqlError {
    ProqlError::Storage(e.to_string())
}

/// Run a planning/execution step against a faulting store, containing
/// corruption panics so they surface as errors, never an abort or a
/// dead server worker — the same contract every other corruption path
/// honours.
fn contain_corruption<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("paged execution panicked");
        Err(ProqlError::Storage(format!(
            "corrupt provenance log: {msg}"
        )))
    })
}

/// Rebase a fragment-local role onto a session graph whose invocation
/// table already holds `by` entries — the resident mirror of the append
/// log's replay-time rebasing, so both ingest paths place a fragment's
/// nodes identically.
fn offset_role(role: Role, by: u32) -> Role {
    let off = |i: InvocationId| InvocationId(i.0 + by);
    match role {
        Role::WorkflowInput | Role::Free => role,
        Role::Invocation(i) => Role::Invocation(off(i)),
        Role::ModuleInput(i) => Role::ModuleInput(off(i)),
        Role::ModuleOutput(i) => Role::ModuleOutput(off(i)),
        Role::State(i) => Role::State(off(i)),
        Role::Intermediate(i) => Role::Intermediate(off(i)),
        Role::Zoom(i) => Role::Zoom(off(i)),
    }
}

/// The leading keyword(s) of a statement, for error messages.
fn stmt_summary(stmt: &Statement) -> String {
    match stmt {
        Statement::DeletePropagate(r) => format!("DELETE {r} PROPAGATE"),
        Statement::ZoomOut(_) => "ZOOM OUT".into(),
        Statement::ZoomIn(_) => "ZOOM IN".into(),
        Statement::BuildIndex => "BUILD INDEX".into(),
        Statement::DropIndex => "DROP INDEX".into(),
        Statement::Compact => "COMPACT".into(),
        _ => format!("{stmt:?}"),
    }
}

// `lipstick-serve` shares one session across a worker pool behind an
// `RwLock`; a backend that regresses to single-thread-only interior
// mutability must not compile.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};
