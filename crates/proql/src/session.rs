//! A ProQL session: a provenance graph (resident, or a v2 log read
//! through [`AppendLog`]), an optional reachability index, and the
//! parse → plan → execute loop.
//!
//! Reads — planning, `CHECK`, execution — are written once against
//! [`GraphStore`] and reach the backend through one dispatch
//! (`on_store!`). Changes are written once too: a statement is decided
//! against the store, generic over the two stores that can change, and
//! the store stages the decided change ([`Session::prepare_write`]) and
//! later applies it ([`Session::publish_write`]). The session branches
//! on its backend only where backends really differ: opening, staging
//! and applying a decided change, `COMPACT`, `STATS` and the memory
//! report, the `reads=` span attributes, and containing the corruption
//! panics of stores that fault records in.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lipstick_core::graph::ZoomStash;
use lipstick_core::obs::{self, TraceCtx, Tracer};
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::{plan_zoom_out, GraphChange, QueryError, ReachIndex, ZoomModulePlan};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, ProvGraph};
use lipstick_storage::{AppendLog, PreparedCompact, PreparedRecord, StorageError};

use crate::ast::Statement;
use crate::error::{ProqlError, Result};
use crate::exec::{self, ReadEnv};
use crate::parser::{parse_script, parse_statement};
use crate::plan::StmtPlan;
use crate::planner::{fuse_zooms, FusedStatement, Planner};
use crate::result::QueryOutput;

/// How the session holds its graph.
enum Backend {
    /// Fully decoded, mutable graph. Boxed: the graph's node table,
    /// edge arrays and zoom bookkeeping are held inline.
    Resident(Box<ProvGraph>),
    /// A footer-indexed v2 log whose records fault in per query: a
    /// sealed base segment plus a WAL-style mutable tail, whose changes
    /// commit as durable tail records and which `COMPACT` merges into a
    /// fresh sealed base — or, from [`Session::open`], a read-only
    /// snapshot of the sealed segment alone. Boxed: the log (fault
    /// cache, postings, instruments) dwarfs the resident variant's
    /// inline size.
    Log(Box<AppendLog>),
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
                    store: graph.as_ref(),
                    reach,
                    reads: false,
                    stats: resident_stats,
                };
                $body
            }
            Backend::Log(log) => {
                let $env = ReadEnv {
                    store: log.as_ref(),
                    reach,
                    reads: true,
                    stats: log_stats,
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
    /// Answered while preparing; publication returns it unchanged.
    Answer(QueryOutput),
    /// A reach index built beside readers, installed at publication.
    BuildIndex(ReachIndex),
    DropIndex,
    /// A change its store has staged. Publication applies it, repairs
    /// the reach index over `changed` plus the ids the change created,
    /// and answers `reply`.
    Change {
        staged: Staged<'static>,
        changed: Vec<NodeId>,
        reply: QueryOutput,
    },
}

/// A decided change, as the store that will apply it staged it.
enum Staged<'f> {
    /// The resident graph keeps the change until publication.
    Held(GraphChange<'f>),
    /// The append log made it a durable tail record.
    Durable(PreparedRecord),
    /// The append log wrote, synced and validated a compacted image.
    /// Boxed: the new base dwarfs every other variant.
    Compact(Box<PreparedCompact>),
}

/// The two stores a session can change. A statement is decided against
/// either through this trait, and the decided change handed back to it
/// to stage.
trait Mutable: GraphStore + Sized {
    /// Modules currently zoomed out, in zoom (stash) order.
    fn zoomed_out_modules(&self) -> Vec<&str>;
    /// The stash a `ZOOM IN` of `module` would restore.
    fn stash_of(&self, module: &str) -> Option<&ZoomStash>;
    /// Stashes ever allocated — [`plan_zoom_out`]'s overflow bound.
    fn stash_count(&self) -> usize;
    /// Stage a decided change for [`Session::publish_write`].
    fn stage<'f>(&self, change: GraphChange<'f>) -> Result<Staged<'f>>;
}

impl Mutable for ProvGraph {
    fn zoomed_out_modules(&self) -> Vec<&str> {
        ProvGraph::zoomed_out_modules(self)
    }

    fn stash_of(&self, module: &str) -> Option<&ZoomStash> {
        ProvGraph::stash_of(self, module)
    }

    fn stash_count(&self) -> usize {
        ProvGraph::stash_count(self)
    }

    fn stage<'f>(&self, change: GraphChange<'f>) -> Result<Staged<'f>> {
        Ok(Staged::Held(change))
    }
}

impl Mutable for AppendLog {
    fn zoomed_out_modules(&self) -> Vec<&str> {
        AppendLog::zoomed_out_modules(self)
    }

    fn stash_of(&self, module: &str) -> Option<&ZoomStash> {
        AppendLog::stash_of(self, module)
    }

    fn stash_count(&self) -> usize {
        AppendLog::stash_count(self)
    }

    fn stage<'f>(&self, change: GraphChange<'f>) -> Result<Staged<'f>> {
        self.prepare(change)
            .map(Staged::Durable)
            .map_err(storage_error)
    }
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
/// optional §5.1 reachability closure (bidirectional: sorted descendant
/// and ancestor id rows). Mutating statements (`DELETE`, `ZOOM`) **repair
/// the closure in place** — deletion subtracts the dead cone, zooms
/// remap the affected region — so an index built once stays exact and
/// indexed plans keep serving across mutations; `DROP INDEX` is the
/// only way to lose it.
///
/// Sessions hold their graph one of two ways.
/// [`Session::new`]/[`Session::load`] hold a **resident** graph.
/// [`Session::open_append`] and [`Session::open`] hold a v2 **log**
/// through [`AppendLog`], **paged**: queries read only the records they
/// touch. An append session commits changes durably to a tail beside
/// the log. [`Session::open`] opens the log as a read-only snapshot —
/// `DELETE`, `ZOOM` and [`Session::ingest`] fail with
/// [`ProqlError::Snapshot`], while `BUILD INDEX`, `DROP INDEX` and
/// `COMPACT` answer as on the other backends.
pub struct Session {
    backend: Backend,
    reach: Option<ReachIndex>,
    /// From-scratch closure builds performed so far (repairs excluded)
    /// — lets tests pin down that incremental maintenance never
    /// triggers a silent second rebuild.
    index_builds: u64,
    /// Registry handles (statement counts/latency, index builds,
    /// repair latency).
    instruments: Instruments,
}

impl Session {
    /// A session over an in-memory graph.
    pub fn new(graph: ProvGraph) -> Session {
        Session::with_backend(Backend::Resident(Box::new(graph)))
    }

    fn with_backend(backend: Backend) -> Session {
        Session {
            backend,
            reach: None,
            index_builds: 0,
            instruments: Instruments::get(),
        }
    }

    /// Fully load a provenance log written by
    /// `lipstick_storage::write_graph` (v1 or v2) — the Query
    /// Processor's original, decode-everything first step, and the
    /// in-memory copy to change for what-if analysis. Refused with
    /// [`ProqlError::LiveTail`] while the log's `.tail` sidecar holds
    /// acked changes.
    pub fn load(path: impl AsRef<Path>) -> Result<Session> {
        let path = path.as_ref();
        let data = lipstick_storage::default_io()
            .read(path)
            .map_err(|e| storage_error(e.into()))?;
        let graph = lipstick_storage::decode_graph(&data).map_err(storage_error)?;
        refuse_live_tail(path, data.len() as u64, graph.len())?;
        Ok(Session::new(graph))
    }

    /// Open a v2 log (written by `lipstick_storage::write_graph_v2`)
    /// lazily, as a read-only snapshot ([`AppendLog::open_snapshot`]):
    /// a paged session that answers `MATCH`/`WHY`/`DEPENDS`/walks
    /// without materialising the graph, and never touches the log's
    /// `.tail` sidecar. Refused with [`ProqlError::LiveTail`] while that
    /// sidecar holds acked changes, and with [`ProqlError::UnindexedLog`]
    /// for a v1 log, which has no footer to page from.
    pub fn open(path: impl AsRef<Path>) -> Result<Session> {
        let path = path.as_ref();
        let log = AppendLog::open_snapshot(path).map_err(|e| match e {
            StorageError::BadVersion(1) => ProqlError::UnindexedLog,
            e => storage_error(e),
        })?;
        refuse_live_tail(path, log.base_len(), log.node_count())?;
        Ok(Session::with_backend(Backend::Log(Box::new(log))))
    }

    /// Open a v2 log with a streaming append write path: the sealed
    /// base segment stays paged, and changes (`DELETE PROPAGATE`,
    /// zooms, [`Session::ingest`]) commit durable records to a
    /// `<path>.tail` sidecar. A torn tail (crash mid-write) is
    /// truncated to its last whole record on open. `COMPACT` merges the
    /// tail back into a fresh sealed base segment.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Session> {
        let log = AppendLog::open(path.as_ref()).map_err(storage_error)?;
        Ok(Session::with_backend(Backend::Log(Box::new(log))))
    }

    /// [`Session::open_append`] through an explicit
    /// [`lipstick_storage::StorageIo`] implementation — the
    /// fault-injection harness opens sessions over a simulated disk
    /// this way.
    pub fn open_append_with_io(
        path: impl AsRef<Path>,
        io: std::sync::Arc<dyn lipstick_storage::StorageIo>,
    ) -> Result<Session> {
        let log = AppendLog::open_with_io(path.as_ref(), io).map_err(storage_error)?;
        Ok(Session::with_backend(Backend::Log(Box::new(log))))
    }

    /// Flush the backend's durable state (the append backend's WAL
    /// tail). Commits already sync per record, so this is a barrier for
    /// graceful shutdown, not a durability requirement; a resident
    /// session or a snapshot has nothing to flush and returns `Ok`.
    pub fn sync_storage(&self) -> Result<()> {
        match &self.backend {
            Backend::Log(log) => log.sync().map_err(storage_error),
            Backend::Resident(_) => Ok(()),
        }
    }

    /// How many times a reach index was built from scratch in this
    /// session (incremental repairs don't count).
    pub fn index_builds(&self) -> u64 {
        self.index_builds
    }

    /// Is the session a read-only snapshot of a v2 log
    /// ([`Session::open`])?
    pub fn is_paged(&self) -> bool {
        self.append_log().is_some_and(AppendLog::is_snapshot)
    }

    /// Does the session commit changes to a WAL tail
    /// ([`Session::open_append`])?
    pub fn is_append(&self) -> bool {
        self.append_log().is_some_and(|log| !log.is_snapshot())
    }

    /// The log, when the session reads one (append or snapshot) — lets
    /// tests and servers inspect tail state (`tail_records`,
    /// `tail_len`) without widening the session API per field.
    pub fn append_log(&self) -> Option<&AppendLog> {
        match &self.backend {
            Backend::Log(log) => Some(log),
            Backend::Resident(_) => None,
        }
    }

    /// Always 0. Sessions used to promote a paged log to a resident
    /// graph on their first change; a paged session is now a read-only
    /// snapshot instead. Kept for callers that still assert the count.
    pub fn promotions(&self) -> u64 {
        0
    }

    /// Node records decoded by the session's log (monotonic across
    /// `COMPACT`). A resident session reports 0.
    pub fn records_read(&self) -> usize {
        self.append_log().map_or(0, AppendLog::records_read)
    }

    /// The resident graph, when there is one (`None` on a log).
    pub fn resident_graph(&self) -> Option<&ProvGraph> {
        match &self.backend {
            Backend::Resident(g) => Some(g),
            Backend::Log(_) => None,
        }
    }

    /// The resident graph.
    ///
    /// # Panics
    /// On a paged or append session — check [`Session::resident_graph`]
    /// instead, or [`Session::load`] the log.
    pub fn graph(&self) -> &ProvGraph {
        self.resident_graph()
            .expect("paged and append sessions have no resident graph; load the log instead")
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

    /// Repair the reachability closure in place after a change.
    /// `changed` must list every node whose visibility or adjacency the
    /// change touched. In debug builds the repaired index is checked
    /// for equality with a fresh build — the incremental path must
    /// never drift.
    fn repair_index(&mut self, changed: &[NodeId]) {
        let Some(index) = self.reach.as_mut().filter(|_| !changed.is_empty()) else {
            return;
        };
        let start = Instant::now();
        match &self.backend {
            Backend::Resident(graph) => repair(index, graph.as_ref(), changed),
            Backend::Log(log) => repair(index, log.as_ref(), changed),
        }
        self.instruments
            .repair_us
            .observe(start.elapsed().as_micros() as u64);
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
    /// keep running. It plans the statement and decides it against the
    /// store: the deletion cone, the zoom plan, zoom-in validation, the
    /// nodes each change touches, a requested reach index, the reply —
    /// and a read's whole answer. The store then stages the decided
    /// change: the append log makes it a durable tail record (or writes
    /// and validates the COMPACT image), the resident graph keeps it.
    /// Nothing is visible until [`Session::publish_write`], which must
    /// see the session exactly as this call left it — a server
    /// serialises its writers around the pair. An error means nothing
    /// was made durable. On a snapshot `DELETE` and `ZOOM` fail with
    /// [`ProqlError::Snapshot`] before a record is read.
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
        match &self.backend {
            Backend::Resident(graph) => self.prepare_on(graph.as_ref(), fs),
            Backend::Log(log)
                if log.is_snapshot()
                    && matches!(
                        fs.stmt,
                        Statement::DeletePropagate(_)
                            | Statement::ZoomOut(_)
                            | Statement::ZoomIn(_)
                    ) =>
            {
                Err(ProqlError::Snapshot(stmt_summary(&fs.stmt)))
            }
            Backend::Log(log) => contain_corruption(|| self.prepare_on(log.as_ref(), fs)),
        }
    }

    /// Plan a statement on a store that can change and, for a graph
    /// change, decide it once: the change itself, the nodes it touches
    /// (for the reach-index repair) and the reply. The store stages the
    /// change. Other statements go on to [`Session::prepare_other`].
    fn prepare_on<S: Mutable>(&self, store: &S, fs: &FusedStatement) -> Result<Step> {
        let plan = Planner::new(store, self.reach.as_ref()).plan_fused(fs)?;
        let (change, changed, reply) = match plan {
            StmtPlan::Delete(root) => {
                // Deletion only removes reachability: the changed set is
                // exactly the tombstoned cone.
                let cone = compute_deletion(store, root)?.deleted;
                let reply = QueryOutput::Deleted {
                    nodes: cone.clone(),
                };
                (GraphChange::Tombstones(cone.clone()), cone, reply)
            }
            StmtPlan::ZoomOut {
                modules,
                fused_from,
            } => {
                let names: Vec<&str> = modules.iter().map(String::as_str).collect();
                let zoomed: Vec<String> = store
                    .zoomed_out_modules()
                    .into_iter()
                    .map(String::from)
                    .collect();
                let plans = plan_zoom_out(store, &names, &zoomed, store.stash_count())?;
                // Changed: everything each module hides, and the i/o
                // nodes its composites are wired to (their adjacency
                // gains edges). The composites join at publication.
                let mut changed = Vec::new();
                for plan in &plans {
                    changed.extend_from_slice(&plan.hidden);
                    for composite in &plan.composites {
                        changed.extend_from_slice(&composite.inputs);
                        changed.extend_from_slice(&composite.outputs);
                    }
                }
                let reply = zoom_reply(
                    format!(
                        "zoomed out {} module(s), {} composite node(s)",
                        modules.len(),
                        ZoomModulePlan::total_composites(&plans)
                    ),
                    fused_from,
                );
                (GraphChange::ZoomOut(plans), changed, reply)
            }
            StmtPlan::ZoomIn {
                modules,
                fused_from,
            } => {
                let zoomed = store.zoomed_out_modules();
                let names =
                    modules.unwrap_or_else(|| zoomed.iter().map(|m| m.to_string()).collect());
                if names.is_empty() {
                    return Ok(Step::Answer(QueryOutput::Message(
                        "no modules are zoomed out".into(),
                    )));
                }
                // A repeated name has nothing left to restore the second
                // time, so it is not zoomed out either.
                let mut seen = HashSet::new();
                for m in &names {
                    if !seen.insert(m.as_str()) || !zoomed.contains(&m.as_str()) {
                        return Err(QueryError::NotZoomedOut(m.clone()).into());
                    }
                }
                // Read now: zoom-in unlinks the composites, so their
                // neighbours are gone by publication.
                let mut changed = Vec::new();
                for stash in names.iter().filter_map(|m| store.stash_of(m)) {
                    changed.extend_from_slice(&stash.hidden);
                    for &z in &stash.zoom_nodes {
                        changed.push(z);
                        changed.extend_from_slice(&store.preds_of(z));
                        changed.extend_from_slice(&store.succs_of(z));
                    }
                }
                let reply =
                    zoom_reply(format!("zoomed back into {}", names.join(", ")), fused_from);
                (GraphChange::ZoomIn(names), changed, reply)
            }
            other => return self.prepare_other(other),
        };
        Ok(Step::Change {
            staged: store.stage(change)?,
            changed,
            reply,
        })
    }

    /// Prepare a statement that changes no graph: index maintenance,
    /// `COMPACT`, or a read, answered now.
    fn prepare_other(&self, plan: StmtPlan) -> Result<Step> {
        Ok(match plan {
            StmtPlan::BuildIndex if self.has_reach_index() => Step::Answer(QueryOutput::Message(
                "reach index already present (maintained in place); DROP INDEX first to force \
                 a rebuild"
                    .into(),
            )),
            StmtPlan::BuildIndex => {
                Step::BuildIndex(on_store!(self, |env| Ok(ReachIndex::build(env.store)))?)
            }
            StmtPlan::DropIndex => Step::DropIndex,
            StmtPlan::Compact => match self.append_log() {
                Some(log) if log.tail_records() > 0 => Step::Change {
                    reply: QueryOutput::Message(format!(
                        "compacted {} tail record(s) into sealed segment",
                        log.tail_records()
                    )),
                    staged: Staged::Compact(Box::new(
                        log.prepare_compact().map_err(storage_error)?,
                    )),
                    // Compaction preserves ids and visibility, so an
                    // existing reach index stays valid as-is.
                    changed: Vec::new(),
                },
                _ => Step::Answer(QueryOutput::Message(
                    "nothing to compact (no tail segment)".into(),
                )),
            },
            read => Step::Answer(self.execute_read(&read, TraceCtx::disabled())?),
        })
    }

    /// The short half of a statement: make a [`Session::prepare_write`]
    /// result visible — apply the staged change and repair the reach
    /// index in place, install a built index, or swap in a compacted
    /// base (its rename and tail unlink are the only IO).
    pub fn publish_write(&mut self, prepared: PreparedWrite) -> Result<QueryOutput> {
        let start = Instant::now();
        let out = self.publish_step(prepared.step);
        self.count_statement(prepared.spent + start.elapsed());
        out
    }

    fn publish_step(&mut self, step: Step) -> Result<QueryOutput> {
        match step {
            Step::Answer(out) => Ok(out),
            Step::BuildIndex(index) => {
                let bytes = obs::HeapSize::heap_bytes(&index);
                self.reach = Some(index);
                // Per-session count (tests pin exact values) plus the
                // process-wide registry series.
                self.index_builds += 1;
                self.instruments.index_builds.inc();
                Ok(QueryOutput::Message(format!(
                    "reach index built ({bytes} bytes)"
                )))
            }
            Step::DropIndex => {
                self.reach = None;
                Ok(QueryOutput::Message("reach index dropped".into()))
            }
            Step::Change {
                staged,
                mut changed,
                reply,
            } => {
                changed.extend(self.apply(staged)?);
                self.repair_index(&changed);
                Ok(reply)
            }
        }
    }

    /// Apply a staged change with the store that staged it: the
    /// resident graph through its applier, the append log by publishing
    /// its tail record or installing its compacted image. Returns the
    /// ids the change created.
    fn apply(&mut self, staged: Staged<'_>) -> Result<Vec<NodeId>> {
        match (&mut self.backend, staged) {
            (Backend::Resident(graph), Staged::Held(change)) => Ok(graph.apply(change)),
            (Backend::Log(log), Staged::Durable(record)) => {
                log.publish(record).map_err(storage_error)
            }
            (Backend::Log(log), Staged::Compact(image)) => {
                log.install_compact(*image).map_err(storage_error)?;
                Ok(Vec::new())
            }
            _ => Err(ProqlError::Storage(
                "a prepared write publishes only on the session that prepared it".into(),
            )),
        }
    }

    fn count_statement(&self, took: Duration) {
        self.instruments.statements.inc();
        self.instruments
            .statement_us
            .observe(took.as_micros() as u64);
    }

    /// Execute one planned read-only statement against whichever store
    /// the session holds.
    fn execute_read(&self, plan: &StmtPlan, ctx: TraceCtx<'_>) -> Result<QueryOutput> {
        on_store!(self, |env| exec::execute_read(&env, plan, ctx))
    }

    /// Append a self-contained fragment graph — new workflow output
    /// from the Provenance Tracker — to the session, returning the ids
    /// its nodes received. It takes a statement's two steps at once: the
    /// append log commits it as one durable tail record, the resident
    /// graph splices it in ([`ProvGraph::splice`]), and the reach index
    /// is repaired in place. A snapshot refuses it with
    /// [`ProqlError::Snapshot`]; a fragment with zoomed-out modules is
    /// refused on every backend, mirroring the storage layer's refusal.
    pub fn ingest(&mut self, fragment: &ProvGraph) -> Result<Vec<NodeId>> {
        let zoomed = fragment.zoomed_out_modules();
        if !zoomed.is_empty() {
            let names = zoomed.into_iter().map(String::from).collect();
            return Err(storage_error(StorageError::ZoomedGraph(names)));
        }
        let change = GraphChange::Splice(fragment);
        let staged = match &self.backend {
            Backend::Resident(graph) => graph.stage(change),
            Backend::Log(log) => log.stage(change),
        }?;
        // Fragment edges are internal, so the changed set is exactly
        // the appended ids.
        let created = self.apply(staged)?;
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

    /// The physical plan for a statement, as `EXPLAIN` would print it,
    /// including the records-read figures the store's postings predict.
    pub fn explain(&self, statement: &str) -> Result<String> {
        let stmt = parse_statement(statement)?;
        Ok(self.plan(&stmt)?.to_string())
    }

    /// The backend store, for the per-node oracle (`oracle.rs`).
    #[cfg(test)]
    pub(crate) fn store(&self) -> &dyn GraphStore {
        match &self.backend {
            Backend::Resident(graph) => graph.as_ref(),
            Backend::Log(log) => log.as_ref(),
        }
    }

    /// Per-component heap breakdown of everything the session holds:
    /// the backend store (resident graph or log) and the reach
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
            // The log reports its sealed base plus its "visibility" and
            // "tail_overlay" components, all in the `paged_log` gauge
            // group.
            Backend::Log(log) => {
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
    /// the kind of an `EVAL` target) fault in. The analyzer itself is
    /// infallible, but faulting
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
/// e.g. `("graph", "preds", 81920)`.
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
    let mut text = lipstick_core::graph::stats::stats(graph).to_string();
    text.push_str(&format!(
        "  {} invocation(s), {} zoomed-out module(s), reach index: {}\n",
        graph.invocations().len(),
        graph.zoomed_out_modules().len(),
        if reach.is_some() { "present" } else { "absent" }
    ));
    push_memory(&mut text, "graph", graph.memory_breakdown(), reach);
    text
}

/// `STATS` for an on-disk log: record counts, how many records queries
/// have decoded so far, index state, and the heap breakdown of store
/// and closure.
fn log_stats(store: &AppendLog, reach: Option<&ReachIndex>) -> String {
    let mut text = format!(
        "paged log: {} record(s), {} visible, {} invocation(s), {} record(s) decoded so far\n  \
         reach index: {}\n",
        store.node_count(),
        store.visible_count(),
        store.invocations().len(),
        store.records_read(),
        if reach.is_some() { "present" } else { "absent" }
    );
    push_memory(&mut text, "store", store.memory_breakdown(), reach);
    text
}

/// The `memory` lines of `STATS`: the store's components under `group`,
/// the reach index's under `reach`, then their total — the figure
/// [`Session::heap_bytes`] reports.
fn push_memory(
    text: &mut String,
    group: &str,
    store: Vec<(&'static str, usize)>,
    reach: Option<&ReachIndex>,
) {
    use lipstick_core::obs::HeapSize;
    let reach = reach.map(HeapSize::heap_breakdown).unwrap_or_default();
    let mut total = 0usize;
    for (group, parts) in [(group, store), ("reach", reach)] {
        for (name, bytes) in parts {
            total += bytes;
            text.push_str(&format!("  memory {group}.{name}={bytes}\n"));
        }
    }
    text.push_str(&format!(
        "  memory total={total} ({})",
        obs::format_bytes(total)
    ));
}

fn storage_error(e: StorageError) -> ProqlError {
    match e {
        StorageError::Snapshot(what) => ProqlError::Snapshot(what),
        e => ProqlError::Storage(e.to_string()),
    }
}

/// Refuse to read a log from its base file alone while its `.tail`
/// sidecar holds acked changes.
fn refuse_live_tail(path: &Path, base_len: u64, base_nodes: usize) -> Result<()> {
    match lipstick_storage::live_tail_records(path, base_len, base_nodes as u64)
        .map_err(storage_error)?
    {
        0 => Ok(()),
        records => Err(ProqlError::LiveTail(records)),
    }
}

/// Repair `index` over `changed` on `store`, cross-checked against a
/// fresh build in debug builds.
fn repair<S: GraphStore + ?Sized>(index: &mut ReachIndex, store: &S, changed: &[NodeId]) {
    index.repair(store, changed);
    debug_assert!(
        index.matches_fresh_build(store),
        "incremental reach-index repair diverged from a fresh build"
    );
}

/// A zoom's reply, noting how many statements were fused into it.
fn zoom_reply(mut message: String, fused_from: usize) -> QueryOutput {
    if fused_from > 1 {
        message.push_str(&format!(" [fused from {fused_from} statements]"));
    }
    QueryOutput::Message(message)
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
