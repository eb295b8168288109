//! [`AppendLog`]: a mutable segment stack over a sealed v2 log.
//!
//! A [`PagedLog`] is read-only. `AppendLog` changes one without
//! decoding it into a [`ProvGraph`]: it layers an in-memory **overlay**
//! plus an on-disk WAL **tail** (see [`crate::tail`]) over the sealed
//! base:
//!
//! - appended nodes live in the overlay, with ids continuing the base's
//!   dense id space (`base_nodes..`);
//! - visibility lives in one id-indexed bitmap in the footer's own form,
//!   copied from the sealed footer at open and extended as nodes are
//!   appended. One bit per node is the whole state: a zoom hides only
//!   visible nodes and `ZOOM IN` restores exactly its stash, so no flag
//!   needs to remember *why* a node is hidden;
//! - adjacency added by appends is kept in side maps and concatenated
//!   after the base's CSR rows. Appended ids are strictly larger than
//!   every base id, so concatenation preserves the ascending order the
//!   sealed rows have — postings- and limit-driven scans stay correct.
//!
//! Every mutation is two steps. **Prepare** ([`AppendLog::prepare`], on
//! `&self`) takes a [`GraphChange`] decided against this store,
//! validates it, encodes it as one tail record, appends it and
//! syncs it: the record is durable before anything is visible, and
//! readers keep running against the unchanged store meanwhile (the
//! tail's write position sits behind its own mutex). **Publish**
//! ([`AppendLog::publish`], on `&mut self`) applies the prepared record
//! to the overlay — memory only, no IO. Records publish in the order
//! they were prepared, and a prepare is refused while an earlier one is
//! unpublished, since it was validated against the store without it.
//! The `commit_*` methods are prepare followed by publish.
//! [`AppendLog::open`] replays the surviving tail records over the
//! base, so a crash loses at most the record being written (and
//! torn-write recovery truncates exactly that, see the tail module's
//! recovery rule).
//!
//! [`AppendLog::compact`] merges everything back into a fresh sealed v2
//! segment by splicing, in the same two steps.
//! [`AppendLog::prepare_compact`] (`&self`) copies the base's record
//! section verbatim (tombstone flags patched), appends the overlay's
//! records and a footer merged from the sealed index and the overlay,
//! writes the image to a temp file, syncs it and validates it by
//! reopening. [`AppendLog::install_compact`] (`&mut self`) renames it
//! over the base, drops the tail and swaps the new base in. Nothing is
//! decoded into a [`ProvGraph`]; the image is nevertheless byte for
//! byte what decode → replay → re-encode would write. Node ids and
//! visibility are unchanged by compaction, so derived structures keyed
//! by id (the reach index) survive it — and so does the base's fault
//! cache, which the new base inherits.
//!
//! [`AppendLog::open_snapshot`] opens the sealed segment alone as a
//! read-only snapshot: it never reads, truncates or unlinks the tail
//! sidecar, and refuses every prepare and COMPACT. Untouched by a tail,
//! sealed rows and postings are lent straight from the base, so a
//! snapshot reads exactly as its [`PagedLog`] would.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use lipstick_core::graph::{kind_heap_bytes, InvocationInfo, ZoomStash, RETIRED_STASH};
use lipstick_core::obs::{self, vec_alloc_bytes, Histogram};
use lipstick_core::query::{plan_zoom_out, GraphChange, ZoomModulePlan};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};

use crate::codec::{put_record, NodeRecord};
use crate::error::{Result, StorageError};
use crate::footer::{FooterPostings, FooterSource, FooterWriter, PostingGroup, TRAILER_LEN};
use crate::io::{default_io, StorageIo};
use crate::log::{check_refs, put_header, put_invocations, VERSION_V2};
use crate::paged::PagedLog;
use crate::tail::{self, TailRecord, TAIL_HEADER_LEN};

/// One appended (tail) node, fully resident. The overlay is expected to
/// stay small relative to the base — COMPACT folds it away. Its
/// visibility is a bit in [`AppendLog`]'s bitmap, like a sealed node's.
#[derive(Debug, Clone)]
struct OverlayNode {
    kind: NodeKind,
    role: Role,
    preds: Vec<NodeId>,
    succs: Vec<NodeId>,
}

/// The tail's write position. It lives behind a mutex so that a
/// `prepare_*` step can append and sync on `&self` while readers share
/// the log.
#[derive(Debug, Default)]
struct TailState {
    /// Clean tail length in bytes (0 = no tail header written yet).
    len: u64,
    /// A commit failed partway, so the on-disk tail may carry a torn
    /// suffix past `len`; the next commit truncates it away before
    /// appending.
    dirty: bool,
    /// Records in the current tail segment.
    records: usize,
    /// Records ever made durable through this log, replayed ones
    /// included. Never reset: compared with [`AppendLog::published`],
    /// it says whether a durable record still awaits publication.
    durable: u64,
}

/// A tail record that a `prepare_*` call made durable and
/// [`AppendLog::publish`] has not yet applied to the overlay.
#[derive(Debug)]
#[must_use = "the record is durable; publish it or the overlay lags the tail"]
pub struct PreparedRecord {
    /// The record's position in durable order; publication follows it.
    seq: u64,
    change: Change,
}

/// What publishing a [`PreparedRecord`] applies.
#[derive(Debug)]
enum Change {
    Append {
        nodes: Vec<NodeRecord>,
        invocations: Vec<InvocationInfo>,
    },
    Tombstones(Vec<NodeId>),
    /// The plans themselves, not the module names the record stores:
    /// publication applies what was validated instead of re-planning.
    ZoomOut(Vec<ZoomModulePlan>),
    ZoomIn(Vec<String>),
}

/// A compacted image that [`AppendLog::prepare_compact`] wrote, synced
/// and validated beside the live log, waiting for
/// [`AppendLog::install_compact`] to swap it in. Dropping one without
/// installing it leaves the temp file behind, as a crash would; the
/// next COMPACT's truncating write replaces it.
#[must_use = "the compacted image is only a temp file until installed"]
pub struct PreparedCompact {
    tmp: PathBuf,
    base: PagedLog,
    len: u64,
    /// Records published and compactions installed when the image was
    /// spliced: it holds exactly that state, so both must be unchanged
    /// at install.
    published: u64,
    compactions: u64,
}

/// A sealed v2 log plus its mutable tail segment.
pub struct AppendLog {
    path: PathBuf,
    tail_path: PathBuf,
    /// Every file operation goes through this seam, so tests can
    /// substitute a fault-injecting disk (see [`crate::io`]).
    io: Arc<dyn StorageIo>,
    /// The sealed segment. It also holds the invocation table, the
    /// tail's appended entries included, so the table exists once.
    base: PagedLog,
    base_len: u64,
    base_nodes: usize,
    /// Opened by [`AppendLog::open_snapshot`]: no tail, and no changes.
    snapshot: bool,
    tail: Mutex<TailState>,
    /// Records ever applied to the overlay, replayed ones included.
    published: u64,
    /// Compactions ever installed.
    compactions: u64,
    overlay: Vec<OverlayNode>,
    /// Bit i set = node i visible, base and overlay together, in the
    /// footer's form: `ceil(node_count / 8)` bytes, padding bits clear.
    /// Every change goes through [`AppendLog::set_visible`] or
    /// [`AppendLog::push_node`], which keep the two counts below in step.
    visibility: Vec<u8>,
    /// Set bits in `visibility`, so that no planned statement sweeps it.
    visible: usize,
    /// Sealed nodes whose bit differs from the sealed bitmap. While it
    /// is 0 the sealed postings are exact and are lent as they are.
    sealed_flips: usize,
    /// Successors appended to base (or earlier-overlay) rows, keyed by
    /// the *source* id. Values are ascending (ids are allocated in
    /// commit order).
    extra_succs: HashMap<u32, Vec<NodeId>>,
    /// Predecessors appended to existing rows — only zoom composites do
    /// this (composite → module-output edges), and ZoomIn removes them
    /// again, keys included, so this is empty whenever no module is
    /// zoomed out.
    extra_preds: HashMap<u32, Vec<NodeId>>,
    stashes: Vec<ZoomStash>,
    zoomed_modules: HashMap<String, u32>,
    /// Faults from base incarnations retired by compaction, so
    /// `records_read` stays monotonic across COMPACT.
    carried_faults: usize,
}

/// `<log><suffix>`: the log's full file name with a suffix appended —
/// never `with_extension`, which would make `runs.lpstk` and `runs.v2`
/// share one sidecar.
fn sidecar_path(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

fn tail_path_for(path: &Path) -> PathBuf {
    sidecar_path(path, ".tail")
}

/// How many records the `<path>.tail` sidecar holds for the sealed base
/// at `path` (`base_len` bytes, `base_nodes` records) — acked mutations
/// the base file alone does not show. 0 when there is no sidecar, only
/// a header, or one bound to another base. Only reads: recovery's
/// truncation and unlinking belong to [`AppendLog::open`].
pub fn live_tail_records(path: &Path, base_len: u64, base_nodes: u64) -> Result<usize> {
    match default_io().read(&tail_path_for(path)) {
        Ok(data) => {
            Ok(tail::recover(&data, base_len, base_nodes).map_or(0, |(records, _)| records.len()))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e.into()),
    }
}

impl AppendLog {
    /// Open a sealed v2 log for appending: recover the tail sidecar (if
    /// any), truncate its torn suffix, and replay the surviving records.
    pub fn open(path: impl AsRef<Path>) -> Result<AppendLog> {
        AppendLog::open_with_io(path.as_ref(), default_io())
    }

    /// [`AppendLog::open`] through an explicit IO implementation, which
    /// the log retains for all subsequent commits and compactions.
    pub fn open_with_io(path: &Path, io: Arc<dyn StorageIo>) -> Result<AppendLog> {
        let mut log = AppendLog::open_sealed(path, io, false)?;
        log.recover_tail()?;
        Ok(log)
    }

    /// Open the sealed v2 log at `path` alone, as a read-only snapshot:
    /// the tail sidecar is never read, truncated or unlinked, and every
    /// prepare and COMPACT is refused with [`StorageError::Snapshot`].
    /// A v1 log, which has no footer to page from, is
    /// [`StorageError::BadVersion`].
    pub fn open_snapshot(path: impl AsRef<Path>) -> Result<AppendLog> {
        AppendLog::open_sealed(path.as_ref(), default_io(), true)
    }

    /// The sealed segment with an empty overlay and no tail.
    fn open_sealed(path: &Path, io: Arc<dyn StorageIo>, snapshot: bool) -> Result<AppendLog> {
        let path = path.to_path_buf();
        let base = PagedLog::open_with_io(&path, io.as_ref())?;
        let base_len = io.len(&path)?;
        Ok(AppendLog {
            tail_path: tail_path_for(&path),
            path,
            io,
            base_len,
            base_nodes: base.index().node_count(),
            snapshot,
            visibility: base.index().visibility().to_vec(),
            visible: base.index().visible_count(),
            sealed_flips: 0,
            base,
            tail: Mutex::new(TailState::default()),
            published: 0,
            compactions: 0,
            overlay: Vec::new(),
            extra_succs: HashMap::new(),
            extra_preds: HashMap::new(),
            stashes: Vec::new(),
            zoomed_modules: HashMap::new(),
            carried_faults: 0,
        })
    }

    /// Was the log opened by [`AppendLog::open_snapshot`]?
    pub fn is_snapshot(&self) -> bool {
        self.snapshot
    }

    /// Refuse `what` on a snapshot.
    fn writable(&self, what: &str) -> Result<()> {
        if self.snapshot {
            return Err(StorageError::Snapshot(what.into()));
        }
        Ok(())
    }

    fn recover_tail(&mut self) -> Result<()> {
        let data = match self.io.read(&self.tail_path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let (records, clean) = match tail::recover(&data, self.base_len, self.base_nodes as u64) {
            Ok(ok) => ok,
            Err(_) => {
                // Header torn, or the tail binds to a different base: a
                // crash between COMPACT's rename and its tail unlink
                // leaves exactly such a stale sidecar, whose contents
                // the rename already made durable. Discard it —
                // best-effort, because the first commit recreates the
                // tail with a truncating write anyway.
                let _ = self.io.unlink(&self.tail_path);
                return Ok(());
            }
        };
        for record in &records {
            self.apply_record(record)?;
        }
        if clean < data.len() {
            self.io.truncate(&self.tail_path, clean as u64)?;
        }
        let tail = self.tail.get_mut().unwrap_or_else(PoisonError::into_inner);
        tail.len = clean as u64;
        tail.records = records.len();
        tail.durable = records.len() as u64;
        self.published = records.len() as u64;
        Ok(())
    }

    /// The tail's write position. A poisoned lock is recovered: every
    /// update to [`TailState`] leaves it valid at each step (a commit
    /// that dies midway leaves `dirty` set, which the next one handles).
    fn tail(&self) -> MutexGuard<'_, TailState> {
        self.tail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Size in bytes of the sealed segment, as its tail header binds it.
    pub fn base_len(&self) -> u64 {
        self.base_len
    }

    /// Number of durable tail records currently in the tail segment.
    pub fn tail_records(&self) -> usize {
        self.tail().records
    }

    /// Clean tail size in bytes (0 when no tail exists).
    pub fn tail_len(&self) -> u64 {
        self.tail().len
    }

    /// Records faulted from disk, monotonic across compactions.
    pub fn faults(&self) -> usize {
        self.carried_faults + self.base.faults()
    }

    /// Decode-and-checksum every sealed record (tail records were
    /// checksum-verified at recovery and live records never leave
    /// memory unverified).
    pub fn verify_all(&self) -> Result<()> {
        self.base.verify_all()
    }

    /// Module names currently zoomed out, in zoom (stash) order — the
    /// same order the resident graph reports, so `ZOOM IN` of all
    /// modules behaves identically across backends.
    pub fn zoomed_out_modules(&self) -> Vec<&str> {
        let mut mods: Vec<(u32, &str)> = self
            .zoomed_modules
            .iter()
            .map(|(m, &idx)| (idx, m.as_str()))
            .collect();
        mods.sort_unstable_by_key(|&(idx, _)| idx);
        mods.into_iter().map(|(_, m)| m).collect()
    }

    /// The stash a `ZOOM IN` of this module would restore.
    pub fn stash_of(&self, module: &str) -> Option<&ZoomStash> {
        self.zoomed_modules
            .get(module)
            .map(|&idx| &self.stashes[idx as usize])
    }

    /// Lifetime stash count (hollow entries included) — the overflow
    /// bound [`plan_zoom_out`] checks.
    pub fn stash_count(&self) -> usize {
        self.stashes.len()
    }

    // ----- commit path: prepare on `&self`, publish on `&mut self` -----

    /// Make one record durable: the IO half of every prepare.
    ///
    /// Refused while an earlier prepared record is unpublished — this
    /// one was validated against a store without it. Failure safety:
    /// the tail position only advances after the sync, so an error
    /// anywhere leaves the record unacknowledged. A failed append may
    /// still leave torn bytes on disk past the clean length; the dirty
    /// flag makes the *next* commit truncate them away first, so a
    /// retried commit can never land after garbage that recovery would
    /// stop at (which would silently orphan it).
    fn make_durable(&self, record: &TailRecord) -> Result<u64> {
        let frame = tail::encode_record(record)?;
        let mut tail = self.tail();
        if tail.durable != self.published {
            return Err(StorageError::Stale(
                "an earlier prepared record is not yet published".into(),
            ));
        }
        if tail.dirty {
            self.io.truncate(&self.tail_path, tail.len)?;
            tail.dirty = false;
        }
        if tail.len == 0 {
            // Truncating write, not append: a stale tail from an
            // interrupted COMPACT (or a failed header write) may still
            // occupy this path, and its leftover bytes must not precede
            // the fresh header.
            let header = tail::encode_header(self.base_len, self.base_nodes as u64);
            self.io.create(&self.tail_path, &header)?;
            tail.len = TAIL_HEADER_LEN as u64;
        }
        tail.dirty = true;
        self.io.append(&self.tail_path, &frame)?;
        self.io.sync(&self.tail_path)?;
        tail.dirty = false;
        tail.len += frame.len() as u64;
        tail.records += 1;
        tail.durable += 1;
        Ok(tail.durable - 1)
    }

    /// Fsync the tail segment if one exists. Commits already sync per
    /// record, so this only matters as a barrier (graceful shutdown).
    pub fn sync(&self) -> Result<()> {
        let tail = self.tail();
        if tail.len == 0 {
            return Ok(());
        }
        self.io.sync(&self.tail_path)?;
        Ok(())
    }

    /// Prepare a change decided against this store as one durable tail
    /// record: a deletion cone, a zoom plan (the caller plans, so it can
    /// report validation errors before anything is durable), a resolved
    /// zoom-in, or an ingested fragment. Publishing it returns the ids
    /// it created.
    pub fn prepare(&self, change: GraphChange<'_>) -> Result<PreparedRecord> {
        self.writable(match change {
            GraphChange::Tombstones(_) => "DELETE … PROPAGATE",
            GraphChange::ZoomOut(_) => "ZOOM OUT",
            GraphChange::ZoomIn(_) => "ZOOM IN",
            GraphChange::Splice(_) => "ingest",
        })?;
        let (record, change) = match change {
            GraphChange::Tombstones(ids) => {
                let count = self.node_count();
                if let Some(bad) = ids.iter().find(|id| id.index() >= count) {
                    return Err(StorageError::Corrupt(format!(
                        "tombstone for unknown node {bad}"
                    )));
                }
                let record = TailRecord::Tombstones { ids: ids.clone() };
                (record, Change::Tombstones(ids))
            }
            GraphChange::ZoomOut(plans) => {
                let modules = plans.iter().map(|p| p.module.clone()).collect();
                (TailRecord::ZoomOut { modules }, Change::ZoomOut(plans))
            }
            GraphChange::ZoomIn(modules) => {
                if let Some(bad) = modules
                    .iter()
                    .find(|m| !self.zoomed_modules.contains_key(*m))
                {
                    return Err(StorageError::Corrupt(format!(
                        "zoom-in of module '{bad}' which is not zoomed out"
                    )));
                }
                let record = TailRecord::ZoomIn {
                    modules: modules.clone(),
                };
                (record, Change::ZoomIn(modules))
            }
            GraphChange::Splice(fragment) => return self.prepare_fragment(fragment),
        };
        let seq = self.make_durable(&record)?;
        Ok(PreparedRecord { seq, change })
    }

    /// A whole ingested workflow fragment as one atomic record: its
    /// nodes, edges, and invocations, id-shifted past the current graph.
    fn prepare_fragment(&self, fragment: &ProvGraph) -> Result<PreparedRecord> {
        let zoomed = fragment.zoomed_out_modules();
        if !zoomed.is_empty() {
            return Err(StorageError::ZoomedGraph(
                zoomed.into_iter().map(String::from).collect(),
            ));
        }
        let node_off = self.node_count() as u32;
        let inv_off = self.invocations().len() as u32;
        let nodes: Vec<NodeRecord> = fragment
            .iter()
            .map(|(_, n)| NodeRecord {
                deleted: n.is_deleted(),
                role: n.role.rebased(inv_off),
                kind: n.kind.clone(),
                preds: n.preds().iter().map(|p| NodeId(p.0 + node_off)).collect(),
            })
            .collect();
        let invocations: Vec<InvocationInfo> = fragment
            .invocations()
            .iter()
            .map(|i| InvocationInfo {
                module: i.module.clone(),
                execution: i.execution,
                m_node: NodeId(i.m_node.0 + node_off),
            })
            .collect();
        // Validate BEFORE the durable commit: a record that fails
        // validation must never reach the tail, where it would poison
        // every future replay.
        self.validate_append(&nodes, &invocations)?;
        let record = TailRecord::AppendGraph { nodes, invocations };
        let seq = self.make_durable(&record)?;
        let TailRecord::AppendGraph { nodes, invocations } = record else {
            unreachable!("built as AppendGraph above")
        };
        Ok(PreparedRecord {
            seq,
            change: Change::Append { nodes, invocations },
        })
    }

    /// Apply a prepared record to the overlay: memory only, no IO.
    /// Returns the ids it created (fragment nodes, zoom composites;
    /// none for tombstones and zoom-ins). Records publish in the order
    /// they were prepared; anything else is [`StorageError::Stale`].
    pub fn publish(&mut self, prepared: PreparedRecord) -> Result<Vec<NodeId>> {
        Ok(self.publish_change(prepared)?.0)
    }

    /// [`AppendLog::publish`], also returning the stashes a zoom-in
    /// restored.
    fn publish_change(
        &mut self,
        prepared: PreparedRecord,
    ) -> Result<(Vec<NodeId>, Vec<ZoomStash>)> {
        if prepared.seq != self.published {
            return Err(StorageError::Stale(format!(
                "record {} published out of order (next is {})",
                prepared.seq, self.published
            )));
        }
        let applied = match prepared.change {
            Change::Append { nodes, invocations } => {
                (self.apply_append(&nodes, &invocations)?, Vec::new())
            }
            Change::Tombstones(ids) => {
                self.apply_tombstones_mem(&ids)?;
                (Vec::new(), Vec::new())
            }
            Change::ZoomOut(plans) => (self.apply_zoom_plans(plans), Vec::new()),
            Change::ZoomIn(modules) => (Vec::new(), self.apply_zoom_in_mem(&modules)?),
        };
        self.published += 1;
        Ok(applied)
    }

    /// Commit a whole ingested workflow fragment: prepare, then publish.
    /// Returns the appended node ids.
    pub fn commit_fragment(&mut self, fragment: &ProvGraph) -> Result<Vec<NodeId>> {
        let prepared = self.prepare(GraphChange::Splice(fragment))?;
        self.publish(prepared)
    }

    /// Commit visibility tombstones (one `DELETE … PROPAGATE` cone, in
    /// deletion order): prepare, then publish.
    pub fn commit_tombstones(&mut self, ids: &[NodeId]) -> Result<()> {
        let prepared = self.prepare(GraphChange::Tombstones(ids.to_vec()))?;
        self.publish(prepared).map(drop)
    }

    /// Commit a planned ZoomOut: prepare, then publish. Returns the
    /// created composite ids.
    pub fn commit_zoom_out(&mut self, plans: Vec<ZoomModulePlan>) -> Result<Vec<NodeId>> {
        let prepared = self.prepare(GraphChange::ZoomOut(plans))?;
        self.publish(prepared)
    }

    /// Commit a ZoomIn of the given (resolved) module names: prepare,
    /// then publish. Returns each module's restored stash, so the
    /// caller can repair derived state from the exact touched sets.
    pub fn commit_zoom_in(&mut self, modules: &[String]) -> Result<Vec<ZoomStash>> {
        let prepared = self.prepare(GraphChange::ZoomIn(modules.to_vec()))?;
        Ok(self.publish_change(prepared)?.1)
    }

    // ----- replay / in-memory apply -----

    fn apply_record(&mut self, record: &TailRecord) -> Result<()> {
        match record {
            TailRecord::AppendGraph { nodes, invocations } => {
                self.apply_append(nodes, invocations)?;
            }
            TailRecord::Tombstones { ids } => self.apply_tombstones_mem(ids)?,
            TailRecord::ZoomOut { modules } => {
                // Re-plan against the recovered pre-zoom state: the plan
                // is a pure function of that state, so replay rebuilds
                // the identical hidden sets and composites.
                let refs: Vec<&str> = modules.iter().map(String::as_str).collect();
                let zoomed: Vec<String> = self.zoomed_modules.keys().cloned().collect();
                let plans =
                    plan_zoom_out(self, &refs, &zoomed, self.stashes.len()).map_err(|e| {
                        StorageError::Corrupt(format!("tail zoom-out replay failed: {e}"))
                    })?;
                self.apply_zoom_plans(plans);
            }
            TailRecord::ZoomIn { modules } => {
                if let Some(bad) = modules
                    .iter()
                    .find(|m| !self.zoomed_modules.contains_key(*m))
                {
                    return Err(StorageError::Corrupt(format!(
                        "tail zoom-in replay of module '{bad}' which is not zoomed out"
                    )));
                }
                self.apply_zoom_in_mem(modules)?;
            }
        }
        Ok(())
    }

    /// Validate an AppendGraph record against the current store: ids
    /// must stay dense and references in-bounds (forward references are
    /// allowed only within the record itself — an ingested workflow
    /// fragment wires edges in tracker order, not id order). Called
    /// before the durable commit *and* at replay.
    fn validate_append(&self, nodes: &[NodeRecord], new_invs: &[InvocationInfo]) -> Result<()> {
        let node_base = self.node_count();
        let inv_limit = self.invocations().len() + new_invs.len();
        for (k, node) in nodes.iter().enumerate() {
            check_refs(
                NodeId((node_base + k) as u32),
                &node.kind,
                node.role,
                &node.preds,
                node_base + nodes.len(),
                inv_limit,
            )?;
        }
        if let Some(bad) = new_invs
            .iter()
            .find(|i| i.m_node.index() >= node_base + nodes.len())
        {
            return Err(StorageError::Corrupt(format!(
                "appended invocation references unknown m-node {}",
                bad.m_node
            )));
        }
        Ok(())
    }

    fn apply_append(
        &mut self,
        nodes: &[NodeRecord],
        new_invs: &[InvocationInfo],
    ) -> Result<Vec<NodeId>> {
        self.validate_append(nodes, new_invs)?;
        // Two passes: materialize every overlay node first, then wire
        // successors — a pred may be a *later* node of this record.
        let mut created = Vec::with_capacity(nodes.len());
        for node in nodes {
            let overlay = OverlayNode {
                kind: node.kind.clone(),
                role: node.role,
                preds: node.preds.clone(),
                succs: Vec::new(),
            };
            created.push(self.push_node(overlay, !node.deleted));
        }
        for (node, &id) in nodes.iter().zip(&created) {
            for &p in &node.preds {
                self.push_succ(p, id);
            }
        }
        self.base.extend_invocations(new_invs);
        Ok(created)
    }

    fn apply_tombstones_mem(&mut self, ids: &[NodeId]) -> Result<()> {
        let count = self.node_count();
        if let Some(bad) = ids.iter().find(|id| id.index() >= count) {
            return Err(StorageError::Corrupt(format!(
                "tombstone for unknown node {bad}"
            )));
        }
        for &id in ids {
            self.set_visible(id, false);
        }
        Ok(())
    }

    /// Mirror of [`lipstick_core::query::apply_zoom_out`] over the
    /// overlay: hide, then create composites in plan order (so replay
    /// allocates the same ids a resident graph would).
    fn apply_zoom_plans(&mut self, plans: Vec<ZoomModulePlan>) -> Vec<NodeId> {
        let mut created = Vec::new();
        for plan in plans {
            for &h in &plan.hidden {
                self.set_visible(h, false);
            }
            let stash_idx = self.stashes.len() as u32;
            let mut zoom_nodes = Vec::with_capacity(plan.composites.len());
            for comp in &plan.composites {
                let composite = OverlayNode {
                    kind: NodeKind::Zoomed { stash: stash_idx },
                    role: Role::Zoom(comp.invocation),
                    preds: comp.inputs.clone(),
                    succs: comp.outputs.clone(),
                };
                let id = self.push_node(composite, true);
                for &input in &comp.inputs {
                    self.push_succ(input, id);
                }
                for &output in &comp.outputs {
                    self.push_pred(output, id);
                }
                zoom_nodes.push(id);
                created.push(id);
            }
            self.zoomed_modules.insert(plan.module.clone(), stash_idx);
            self.stashes.push(ZoomStash {
                module: plan.module,
                hidden: plan.hidden,
                zoom_nodes,
            });
        }
        created
    }

    fn apply_zoom_in_mem(&mut self, modules: &[String]) -> Result<Vec<ZoomStash>> {
        let mut taken = Vec::with_capacity(modules.len());
        for module in modules {
            let idx = self.zoomed_modules.remove(module).ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "zoom-in of module '{module}' which is not zoomed out"
                ))
            })?;
            // Hollow out the stash so later stash indices stay stable
            // (mirrors ProvGraph::take_stash).
            let hollow = ZoomStash {
                module: String::new(),
                hidden: Vec::new(),
                zoom_nodes: Vec::new(),
            };
            let stash = std::mem::replace(&mut self.stashes[idx as usize], hollow);
            // The plan hid only visible nodes, and nothing can change a
            // hidden one, so the stash is exactly what to show again.
            for &h in &stash.hidden {
                self.set_visible(h, true);
            }
            for &z in &stash.zoom_nodes {
                // Composites always live in the overlay (appends cannot
                // create live Zoomed nodes).
                let oi = z.index() - self.base_nodes;
                let preds = std::mem::take(&mut self.overlay[oi].preds);
                for p in preds {
                    self.remove_succ(p, z);
                }
                let succs = std::mem::take(&mut self.overlay[oi].succs);
                for s in succs {
                    self.remove_pred(s, z);
                }
                self.set_visible(z, false);
                // As the resident ZoomIn does: a dead composite carries
                // the reserved sentinel, which is what the sealed codec
                // persists it as.
                self.overlay[oi].kind = NodeKind::Zoomed {
                    stash: RETIRED_STASH,
                };
            }
            taken.push(stash);
        }
        Ok(taken)
    }

    // ----- adjacency / visibility plumbing -----

    fn push_succ(&mut self, from: NodeId, to: NodeId) {
        if from.index() < self.base_nodes {
            self.extra_succs.entry(from.0).or_default().push(to);
        } else {
            self.overlay[from.index() - self.base_nodes].succs.push(to);
        }
    }

    fn push_pred(&mut self, of: NodeId, pred: NodeId) {
        if of.index() < self.base_nodes {
            self.extra_preds.entry(of.0).or_default().push(pred);
        } else {
            self.overlay[of.index() - self.base_nodes].preds.push(pred);
        }
    }

    fn remove_succ(&mut self, from: NodeId, to: NodeId) {
        if from.index() < self.base_nodes {
            remove_extra(&mut self.extra_succs, from, to);
        } else {
            self.overlay[from.index() - self.base_nodes]
                .succs
                .retain(|s| *s != to);
        }
    }

    fn remove_pred(&mut self, of: NodeId, pred: NodeId) {
        if of.index() < self.base_nodes {
            remove_extra(&mut self.extra_preds, of, pred);
        } else {
            self.overlay[of.index() - self.base_nodes]
                .preds
                .retain(|p| *p != pred);
        }
    }

    /// Append an overlay node under the next dense id.
    fn push_node(&mut self, node: OverlayNode, visible: bool) -> NodeId {
        let id = NodeId(self.node_count() as u32);
        if id.index().is_multiple_of(8) {
            self.visibility.push(0);
        }
        self.overlay.push(node);
        self.set_visible(id, visible);
        id
    }

    /// Show or hide node `id`.
    fn set_visible(&mut self, id: NodeId, on: bool) {
        if self.is_visible(id) == on {
            return;
        }
        self.visibility[id.index() / 8] ^= 1 << (id.index() % 8);
        if on {
            self.visible += 1;
        } else {
            self.visible -= 1;
        }
        if id.index() < self.base_nodes {
            if on == self.base.index().is_visible(id) {
                self.sealed_flips -= 1;
            } else {
                self.sealed_flips += 1;
            }
        }
    }

    /// Sealed nodes whose visibility the tail changed — the records
    /// whose flags byte a splice patches. The two bitmaps are compared a
    /// byte at a time; the last sealed byte may hold overlay bits, which
    /// end the walk.
    fn flipped_sealed(&self) -> impl Iterator<Item = NodeId> + '_ {
        let sealed = self.base.index().visibility();
        let base_nodes = self.base_nodes;
        sealed
            .iter()
            .zip(&self.visibility)
            .enumerate()
            .filter(|(_, (was, is))| was != is)
            .flat_map(|(byte, (was, is))| {
                let diff = was ^ is;
                (0..8u32)
                    .filter(move |bit| diff >> bit & 1 != 0)
                    .map(move |bit| NodeId(byte as u32 * 8 + bit))
            })
            .take_while(move |id| id.index() < base_nodes)
    }

    /// Node `id` when it is an overlay node; `None` for a sealed one.
    #[inline]
    fn overlay_node(&self, id: NodeId) -> Option<&OverlayNode> {
        let k = id.index().checked_sub(self.base_nodes)?;
        Some(&self.overlay[k])
    }

    /// The overlay nodes with their ids.
    fn overlay_nodes(&self) -> impl Iterator<Item = (NodeId, &OverlayNode)> {
        (self.base_nodes as u32..).map(NodeId).zip(&self.overlay)
    }

    /// A posting list: the sealed list, filtered by visibility once the
    /// tail has changed a sealed node's, then the visible overlay nodes
    /// that `matches`. Overlay ids all exceed sealed ids, so the merged
    /// list stays ascending; a list the tail has not touched is lent.
    fn postings<'a>(
        &'a self,
        sealed: &'a [NodeId],
        matches: impl Fn(&OverlayNode) -> bool,
    ) -> Cow<'a, [NodeId]> {
        let appended = self
            .overlay_nodes()
            .filter(|&(id, node)| self.is_visible(id) && matches(node))
            .map(|(id, _)| id)
            .collect();
        self.merged_postings(sealed, appended)
    }

    /// The sealed list, filtered by visibility once the tail has changed
    /// a sealed node's, then `appended` (visible overlay ids, ascending);
    /// lent when neither changes it.
    fn merged_postings<'a>(
        &self,
        sealed: &'a [NodeId],
        appended: Vec<NodeId>,
    ) -> Cow<'a, [NodeId]> {
        if self.sealed_flips == 0 && appended.is_empty() {
            return Cow::Borrowed(sealed);
        }
        // Sized once: a filtered `collect` would grow it by doubling.
        let mut ids = Vec::with_capacity(sealed.len() + appended.len());
        ids.extend(sealed.iter().copied().filter(|&id| self.is_visible(id)));
        ids.extend(appended);
        Cow::Owned(ids)
    }

    // ----- compaction -----

    /// Merge the tail into a fresh sealed v2 segment:
    /// [`AppendLog::prepare_compact`] then
    /// [`AppendLog::install_compact`]. All-or-nothing for callers: an
    /// error leaves disk and memory in the pre-compaction state.
    ///
    /// Node ids and visibility are preserved exactly, so id-keyed
    /// derived state (the reach index) stays valid across the call —
    /// and so does the fault cache: the sealed records are the same
    /// bytes under the same ids, so the new base inherits every record
    /// already decoded instead of faulting it back.
    ///
    /// Refuses while any module is zoomed out — same contract as
    /// persisting a resident graph (the stash is a view, not data).
    pub fn compact(&mut self) -> Result<()> {
        let prepared = self.prepare_compact()?;
        self.install_compact(prepared)
    }

    /// COMPACT's slow half, on `&self` so readers keep running: splice
    /// the new image, write it to `<log>.compact.tmp`, sync it, and
    /// validate it by reopening.
    ///
    /// The image is the v2 header with the new node count, the base's
    /// record section copied verbatim (the flags byte of each node
    /// whose visibility the tail changed patched), the overlay's
    /// records, the merged invocation table, and a footer assembled
    /// from what this log already holds (see [`SpliceFooter`]).
    /// Nothing is decoded into a [`ProvGraph`] and nothing that did not
    /// change is re-encoded, yet the image is byte-for-byte what decode
    /// → replay → [`crate::encode_graph_v2`] would write (the unit tests
    /// assert it inside every COMPACT they run; `tests/compact_splice.rs`
    /// proves it over random scripts).
    ///
    /// The temp image is synced before it can be renamed (rename makes
    /// metadata durable, not content — skipping the sync would let a
    /// crash truncate the renamed base). An error leaves the store and
    /// the base untouched and unlinks the temp file, best-effort; a
    /// crash may leave one behind, which the next COMPACT's truncating
    /// `create` overwrites.
    pub fn prepare_compact(&self) -> Result<PreparedCompact> {
        self.writable("COMPACT")?;
        if !self.zoomed_modules.is_empty() {
            let mut names: Vec<String> = self.zoomed_modules.keys().cloned().collect();
            names.sort();
            return Err(StorageError::ZoomedGraph(names));
        }
        if self.tail().durable != self.published {
            return Err(StorageError::Stale(
                "a prepared record is not yet published".into(),
            ));
        }
        debug_assert!(
            self.extra_preds.is_empty(),
            "only zoom composites prepend to sealed rows, and zoom-in removes them"
        );
        // Zoom-in takes a composite off its inputs' rows too, so what a
        // sealed row still gained is a replayed node naming a sealed pred.
        debug_assert!(
            self.extra_succs.values().flatten().all(|&s| !matches!(
                self.overlay_node(s).map(|n| &n.kind),
                Some(NodeKind::Zoomed { .. })
            )),
            "no zoom composite is left on a sealed row"
        );

        let phases = compact_phases();
        let started = Instant::now();
        let image = self.splice_image()?;
        phases.splice.observe(micros(started));
        #[cfg(test)]
        assert!(
            image == self.reencode_oracle()?,
            "the spliced image must equal decode -> replay -> re-encode"
        );

        let tmp = sidecar_path(&self.path, ".compact.tmp");
        let (base, len) = match self.write_image(&tmp, &image, phases) {
            Ok(written) => written,
            Err(e) => {
                let _ = self.io.unlink(&tmp);
                return Err(e);
            }
        };
        Ok(PreparedCompact {
            tmp,
            base,
            len,
            published: self.published,
            compactions: self.compactions,
        })
    }

    /// COMPACT's short half: rename the prepared image over the base,
    /// drop the tail, and swap the new base in, carrying the fault
    /// cache. The rename and the tail unlink are its only IO. An image
    /// prepared before a record was published or another compaction
    /// installed is [`StorageError::Stale`]; that and a failed rename
    /// unlink the temp file and leave everything as it was. Once the
    /// rename succeeds, the rest is infallible in-memory bookkeeping.
    pub fn install_compact(&mut self, prepared: PreparedCompact) -> Result<()> {
        let started = Instant::now();
        let PreparedCompact {
            tmp,
            base,
            len,
            published,
            compactions,
        } = prepared;
        let tail = self.tail.get_mut().unwrap_or_else(PoisonError::into_inner);
        let current = (self.published, self.compactions);
        if (published, compactions) != current || tail.durable != self.published {
            let _ = self.io.unlink(&tmp);
            return Err(StorageError::Stale(
                "the log changed after the compacted image was prepared".into(),
            ));
        }
        if let Err(e) = self.io.rename(&tmp, &self.path) {
            let _ = self.io.unlink(&tmp);
            return Err(e.into());
        }
        // A crash (or unlink failure) here leaves a stale tail whose
        // header binds to the old base; recovery discards it, and the
        // next commit's truncating header write overwrites it.
        let _ = self.io.unlink(&self.tail_path);
        tail.len = 0;
        tail.dirty = false;
        tail.records = 0;

        // The image's bitmap is the live one: compaction keeps ids and
        // visibility, so the bitmap carries over as it is.
        debug_assert_eq!(self.visibility, base.index().visibility());
        let old_base = std::mem::replace(&mut self.base, base);
        self.carried_faults += old_base.faults();
        self.base.take_fault_cache(old_base);
        self.base_len = len;
        self.base_nodes = self.base.index().node_count();
        self.sealed_flips = 0;
        // Fresh containers, not `clear()`, so that their capacity is not
        // kept allocated (and reported) until the log closes.
        self.overlay = Vec::new();
        self.extra_succs = HashMap::new();
        self.extra_preds = HashMap::new();
        self.stashes = Vec::new();
        self.zoomed_modules = HashMap::new();
        self.compactions += 1;
        compact_phases().install.observe(micros(started));
        Ok(())
    }

    /// Write the image to `tmp`, sync it, and re-open it from there
    /// (full header / footer / invocation-table validation).
    fn write_image(
        &self,
        tmp: &Path,
        image: &[u8],
        phases: &CompactPhases,
    ) -> Result<(PagedLog, u64)> {
        let started = Instant::now();
        self.io.create(tmp, image)?;
        self.io.sync(tmp)?;
        phases.write.observe(micros(started));
        let started = Instant::now();
        let base = PagedLog::open_with_io(tmp, self.io.as_ref())?;
        let len = self.io.len(tmp)?;
        phases.reopen.observe(micros(started));
        Ok((base, len))
    }

    /// The sealed v2 image of base + overlay (see [`AppendLog::compact`]).
    /// The tail's records and the invocation table are encoded aside
    /// first, so that the image is allocated once, at a size that holds
    /// it (see [`AppendLog::footer_bound`]).
    fn splice_image(&self) -> Result<Vec<u8>> {
        let index = self.base.index();
        let sealed = self.base.record_section();
        let sections = self
            .base
            .sealed_sections()
            .ok_or_else(|| StorageError::Corrupt("footer sections outside the file".into()))?;
        let n = self.node_count();

        let mut appended = Vec::new();
        let mut starts = Vec::with_capacity(self.overlay.len());
        for (id, node) in self.overlay_nodes() {
            starts.push(appended.len());
            let deleted = !self.is_visible(id);
            put_record(&mut appended, deleted, &node.role, &node.kind, &node.preds)?;
        }
        let records_len = appended.len();
        put_invocations(&mut appended, self.invocations());

        let capacity = index.records_offset()
            + VARINT_MAX
            + sealed.len()
            + appended.len()
            + self.footer_bound()
            + TRAILER_LEN;
        let mut buf = Vec::with_capacity(capacity);
        put_header(&mut buf, VERSION_V2, n);

        // Sealed records: the same bytes, at an offset that moved only
        // if the node-count varint in the header grew.
        let at = buf.len();
        let moved = |old: usize| at + (old - index.records_offset());
        buf.extend_from_slice(sealed);
        // The flags byte leads each record, and the encoder only ever
        // writes `deleted` into it. Nothing is zoomed out, so a hidden
        // node is a deleted one.
        for id in self.flipped_sealed() {
            let range = index.record_range(id);
            if range.is_empty() {
                return Err(StorageError::Corrupt(format!("empty record for #{}", id.0)));
            }
            buf[moved(range.start)] = u8::from(!self.is_visible(id));
        }

        // Only the rows the tail grew are encoded again; every other
        // sealed row, and every record length, is copied.
        let mut rewritten: Vec<u32> = self.extra_succs.keys().copied().collect();
        rewritten.sort_unstable();
        let mut footer = FooterWriter::splice(n, sections, at as u64, rewritten);
        let overlay_at = buf.len();
        for start in starts {
            footer.record_starts_at((overlay_at + start) as u64);
        }
        footer.records_end_at((overlay_at + records_len) as u64);
        buf.extend_from_slice(&appended);
        footer.finish(&SpliceFooter(self), &mut buf);
        debug_assert_eq!(buf.capacity(), capacity, "the image never reallocates");
        Ok(buf)
    }

    /// An upper bound on the spliced footer's payload: the sealed one,
    /// plus what the overlay, and the sealed rows it grew, add to it.
    fn footer_bound(&self) -> usize {
        // Per overlay node: a record length, a bitmap byte, a row count,
        // a module and a kind posting, and the two groups it may open.
        let per_node = |node: &OverlayNode| {
            let module = node
                .role
                .invocation()
                .and_then(|inv| self.invocations().get(inv.index()))
                .map_or(0, |inv| inv.module.len());
            5 * VARINT_MAX + 1 + 2 * ID_MAX + module + node.kind.name().len()
        };
        let grown: usize = self.extra_succs.values().map(Vec::len).sum();
        let overlay_succs: usize = self.overlay.iter().map(|node| node.succs.len()).sum();
        self.base.index().footer_len()
            + 4 * VARINT_MAX
            + self.overlay.iter().map(per_node).sum::<usize>()
            + (grown + overlay_succs) * ID_MAX
            + self.extra_succs.len() * VARINT_MAX
    }

    /// What COMPACT did before it spliced — decode the base into a
    /// [`ProvGraph`], replay visibility and overlay through its public
    /// construction API, re-encode — kept as the oracle the splice is
    /// held to.
    #[cfg(test)]
    fn reencode_oracle(&self) -> Result<Vec<u8>> {
        let mut graph = self.base.decode_full()?;
        for id in self.flipped_sealed() {
            graph.set_node_deleted(id, !self.is_visible(id));
        }
        let sealed = graph.invocations().len();
        for inv in &self.invocations()[sealed..] {
            graph.register_invocation(inv.module.clone(), inv.execution, inv.m_node);
        }
        // Two passes, as in apply_append: an overlay node's pred may be
        // a later overlay node (fragment edges wire in tracker order).
        for (id, node) in self.overlay_nodes() {
            assert_eq!(graph.add_node(node.kind.clone(), node.role), id);
            if !self.is_visible(id) {
                graph.set_node_deleted(id, true);
            }
        }
        for (id, node) in self.overlay_nodes() {
            for &p in &node.preds {
                graph.add_edge(p, id);
            }
        }
        crate::log::encode_graph_v2(&graph)
    }

    fn overlay_heap_bytes(&self) -> usize {
        let mut bytes = vec_alloc_bytes(&self.overlay);
        for node in &self.overlay {
            bytes += kind_heap_bytes(&node.kind)
                + vec_alloc_bytes(&node.preds)
                + vec_alloc_bytes(&node.succs);
        }
        let entry = map_entry_bytes::<Vec<NodeId>>();
        bytes += self.extra_succs.capacity() * entry + self.extra_preds.capacity() * entry;
        bytes += self
            .extra_succs
            .values()
            .chain(self.extra_preds.values())
            .map(vec_alloc_bytes)
            .sum::<usize>();
        bytes += vec_alloc_bytes(&self.stashes);
        for s in &self.stashes {
            bytes += s.module.len() + vec_alloc_bytes(&s.hidden) + vec_alloc_bytes(&s.zoom_nodes);
        }
        bytes
    }
}

/// The footer of a spliced image, answered from what the log already
/// holds instead of from a decoded graph: the live bitmap, the sealed
/// CSR rows (or `extra_succs`-grown copies) and overlay `succs`, and the
/// sealed postings with the overlay's ids appended, as
/// [`AppendLog::merged_postings`] merges them: a group the tail did not
/// change is lent.
struct SpliceFooter<'a>(&'a AppendLog);

impl FooterSource for SpliceFooter<'_> {
    fn visibility(&self) -> Cow<'_, [u8]> {
        Cow::Borrowed(&self.0.visibility)
    }

    fn succs(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        self.0.succs_of(id)
    }

    // Overlay ids all exceed sealed ids and are walked in id order, so
    // appending them keeps every group ascending.
    fn postings(&self) -> FooterPostings<'_> {
        let log = self.0;
        let mut by_module: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        let mut by_kind: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        for (id, node) in log.overlay_nodes().filter(|&(id, _)| log.is_visible(id)) {
            if let Some(inv) = node.role.invocation() {
                let module = log.invocations()[inv.index()].module.as_str();
                by_module.entry(module).or_default().push(id);
            }
            by_kind.entry(node.kind.name()).or_default().push(id);
        }
        let index = log.base.index();
        FooterPostings {
            by_module: merged(log, index.all_module_postings(), by_module),
            by_kind: merged(log, index.all_kind_postings(), by_kind),
        }
    }
}

/// The sealed groups merged with the overlay's ids, and the overlay's
/// new groups, in name order.
fn merged<'a>(
    log: &AppendLog,
    sealed: &'a BTreeMap<String, Vec<NodeId>>,
    mut appended: BTreeMap<&'a str, Vec<NodeId>>,
) -> Vec<PostingGroup<'a>> {
    let mut groups: Vec<PostingGroup<'a>> = sealed
        .iter()
        .map(|(name, ids)| PostingGroup {
            name,
            ids: log.merged_postings(ids, appended.remove(name.as_str()).unwrap_or_default()),
        })
        .collect();
    groups.extend(appended.into_iter().map(|(name, ids)| PostingGroup {
        name,
        ids: Cow::Owned(ids),
    }));
    groups.sort_unstable_by_key(|group| group.name);
    groups
}

/// The widest varint of a `u64` and of a `u32`.
const VARINT_MAX: usize = 10;
const ID_MAX: usize = 5;

/// COMPACT's phases, on the process-wide registry (`GET /metrics`).
struct CompactPhases {
    splice: Arc<Histogram>,
    write: Arc<Histogram>,
    reopen: Arc<Histogram>,
    install: Arc<Histogram>,
}

fn compact_phases() -> &'static CompactPhases {
    static PHASES: OnceLock<CompactPhases> = OnceLock::new();
    PHASES.get_or_init(|| {
        let r = obs::registry();
        let phase = |name, help| r.histogram(name, help, obs::LATENCY_BUCKETS_US);
        CompactPhases {
            splice: phase(
                "lipstick_storage_compact_splice_us",
                "COMPACT: assembling the image from the sealed bytes and the overlay, microseconds",
            ),
            write: phase(
                "lipstick_storage_compact_write_us",
                "COMPACT: creating and syncing the temp image, microseconds",
            ),
            reopen: phase(
                "lipstick_storage_compact_reopen_us",
                "COMPACT: the validating reopen of the temp image, microseconds",
            ),
            install: phase(
                "lipstick_storage_compact_install_us",
                "COMPACT: rename over the base, tail unlink and swap, microseconds",
            ),
        }
    })
}

/// Whole microseconds since `started`.
fn micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Heap bytes per slot of a `HashMap<u32, V>`: the `(key, value)` pair
/// as laid out, padding included, plus one control byte.
fn map_entry_bytes<V>() -> usize {
    std::mem::size_of::<(u32, V)>() + 1
}

/// Remove `id` from a sealed node's extra adjacency, dropping the entry
/// once it empties: an empty entry would still make the accessors copy
/// the sealed row instead of lending it.
fn remove_extra(extra: &mut HashMap<u32, Vec<NodeId>>, of: NodeId, id: NodeId) {
    if let Some(v) = extra.get_mut(&of.0) {
        v.retain(|x| *x != id);
        if v.is_empty() {
            extra.remove(&of.0);
        }
    }
}

// `#[inline]` on the per-node accessors, as on `PagedLog`'s, which they
// wrap: they are called per node from walks and scans instantiated in
// other crates.
impl GraphStore for AppendLog {
    fn node_count(&self) -> usize {
        self.base_nodes + self.overlay.len()
    }

    #[inline]
    fn is_visible(&self, id: NodeId) -> bool {
        let byte = self.visibility.get(id.index() / 8).copied();
        byte.is_some_and(|b| b & (1 << (id.index() % 8)) != 0)
    }

    fn visible_count(&self) -> usize {
        self.visible
    }

    #[inline]
    fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind> {
        match self.overlay_node(id) {
            None => self.base.kind_of(id),
            Some(node) => Cow::Borrowed(&node.kind),
        }
    }

    #[inline]
    fn role_of(&self, id: NodeId) -> Role {
        match self.overlay_node(id) {
            None => self.base.role_of(id),
            Some(node) => node.role,
        }
    }

    /// The sealed row is lent as-is unless the tail grew it.
    #[inline]
    fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        match self.overlay_node(id) {
            Some(node) => Cow::Borrowed(&node.preds),
            None if self.extra_preds.is_empty() => self.base.preds_of(id),
            None => extended(self.base.preds_of(id), &self.extra_preds, id),
        }
    }

    #[inline]
    fn succs_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        match self.overlay_node(id) {
            Some(node) => Cow::Borrowed(&node.succs),
            None if self.extra_succs.is_empty() => self.base.succs_of(id),
            None => extended(self.base.succs_of(id), &self.extra_succs, id),
        }
    }

    fn invocations(&self) -> &[InvocationInfo] {
        self.base.invocations()
    }

    fn records_read(&self) -> usize {
        self.faults()
    }

    fn module_postings(&self, module: &str) -> Cow<'_, [NodeId]> {
        let invocations = self.invocations();
        self.postings(self.base.index().module_postings(module), |node| {
            node.role
                .invocation()
                .and_then(|inv| invocations.get(inv.index()))
                .is_some_and(|inv| inv.module == module)
        })
    }

    fn kind_postings(&self, kind: &str) -> Cow<'_, [NodeId]> {
        self.postings(self.base.index().kind_postings(kind), |node| {
            node.kind.name() == kind
        })
    }

    fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        let mut parts = self.base.memory_breakdown();
        parts.push(("visibility", vec_alloc_bytes(&self.visibility)));
        parts.push(("tail_overlay", self.overlay_heap_bytes()));
        parts
    }
}

/// A sealed row, extended by what the tail appended to it. Out of line,
/// so that the accessors calling it stay small enough to inline into
/// walks: inlined, the map lookup made traversals of an untouched log
/// about 20 % slower than over its `PagedLog` (2-vCPU container).
#[inline(never)]
fn extended<'a>(
    sealed: Cow<'a, [NodeId]>,
    extra: &HashMap<u32, Vec<NodeId>>,
    id: NodeId,
) -> Cow<'a, [NodeId]> {
    match extra.get(&id.0) {
        Some(extra) => {
            let mut row = sealed.into_owned();
            row.extend_from_slice(extra);
            Cow::Owned(row)
        }
        None => sealed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, FaultKind};
    use crate::log::write_graph_v2;
    use lipstick_core::graph::GraphTracker;
    use lipstick_core::query::deletion::compute_deletion;
    use lipstick_core::query::{zoom_in, zoom_out};
    use lipstick_core::Tracker;
    use std::fs;

    /// Visible labelled nodes + visible edges, comparable across
    /// backends (the resident `visible_signature` generalized to any
    /// store).
    type StoreSignature = (Vec<(u32, String)>, Vec<(u32, u32)>);

    fn store_signature<S: GraphStore + ?Sized>(s: &S) -> StoreSignature {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for i in 0..s.node_count() {
            let id = NodeId(i as u32);
            if !s.is_visible(id) {
                continue;
            }
            nodes.push((id.0, s.kind_of(id).label()));
            for &t in s.succs_of(id).iter() {
                if s.is_visible(t) {
                    edges.push((id.0, t.0));
                }
            }
        }
        edges.sort_unstable();
        (nodes, edges)
    }

    fn workflow_graph() -> ProvGraph {
        let mut t = GraphTracker::new();
        let a = t.base("a");
        let b = t.base("b");
        let c = t.base("c");
        t.begin_invocation("M", 0);
        let ab = t.times(&[a, b]);
        let i = t.module_input(ab);
        let x = t.times(&[i]);
        let o = t.module_output(x, &[]);
        t.end_invocation();
        t.begin_invocation("Agg", 0);
        let oc = t.plus(&[o, c]);
        let i2 = t.module_input(oc);
        let o2 = t.module_output(i2, &[]);
        t.end_invocation();
        t.plus(&[o2]);
        t.finish()
    }

    fn fragment_graph() -> ProvGraph {
        let mut t = GraphTracker::new();
        let d = t.base("d");
        t.begin_invocation("M", 1);
        let i = t.module_input(d);
        let o = t.module_output(i, &[]);
        t.end_invocation();
        t.plus(&[o]);
        t.finish()
    }

    /// Resident ground truth for appending `fragment` onto `base`.
    fn resident_append(base: &ProvGraph, fragment: &ProvGraph) -> ProvGraph {
        let mut g = base.clone();
        g.splice(fragment);
        g
    }

    fn temp_log(tag: &str, g: &ProvGraph) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lipstick-append-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("graph-{tag}.lpstk"));
        write_graph_v2(g, &path).unwrap();
        path
    }

    #[test]
    fn fragment_append_matches_resident_and_survives_reopen() {
        let base = workflow_graph();
        let path = temp_log("frag", &base);
        let expect = resident_append(&base, &fragment_graph());

        let mut log = AppendLog::open(&path).unwrap();
        let created = log.commit_fragment(&fragment_graph()).unwrap();
        assert_eq!(created.len(), fragment_graph().len());
        assert_eq!(store_signature(&log), store_signature(&expect));
        assert_eq!(log.invocations(), expect.invocations());

        let reopened = AppendLog::open(&path).unwrap();
        assert_eq!(reopened.tail_records(), 1);
        assert_eq!(store_signature(&reopened), store_signature(&expect));
        assert_eq!(reopened.invocations(), expect.invocations());
    }

    #[test]
    fn tombstones_match_resident_deletion() {
        let base = workflow_graph();
        let path = temp_log("del", &base);
        let mut log = AppendLog::open(&path).unwrap();

        let root = NodeId(0);
        let cone = compute_deletion(&log, root).unwrap().deleted;
        assert_eq!(cone, compute_deletion(&base, root).unwrap().deleted);
        log.commit_tombstones(&cone).unwrap();

        let mut expect = base.clone();
        for &id in &cone {
            expect.set_node_deleted(id, true);
        }
        assert_eq!(store_signature(&log), store_signature(&expect));
        let reopened = AppendLog::open(&path).unwrap();
        assert_eq!(store_signature(&reopened), store_signature(&expect));
    }

    #[test]
    fn zoom_cycle_matches_resident_and_replays() {
        let base = workflow_graph();
        let path = temp_log("zoom", &base);
        let mut log = AppendLog::open(&path).unwrap();

        let zoomed_names: Vec<String> = Vec::new();
        let plans = plan_zoom_out(&log, &["M"], &zoomed_names, log.stash_count()).unwrap();
        let created = log.commit_zoom_out(plans).unwrap();
        assert_eq!(created.len(), 1);

        let mut expect = base.clone();
        let resident_created = zoom_out(&mut expect, &["M"]).unwrap();
        assert_eq!(
            created.iter().map(|n| n.0).collect::<Vec<_>>(),
            resident_created.iter().map(|n| n.0).collect::<Vec<_>>()
        );
        assert_eq!(store_signature(&log), store_signature(&expect));
        assert_eq!(
            store_signature(&AppendLog::open(&path).unwrap()),
            store_signature(&expect)
        );

        let stashes = log.commit_zoom_in(&["M".to_string()]).unwrap();
        assert_eq!(stashes.len(), 1);
        assert_eq!(stashes[0].zoom_nodes, created);
        zoom_in(&mut expect, &["M"]).unwrap();
        assert_eq!(store_signature(&log), store_signature(&expect));
        assert_eq!(
            store_signature(&AppendLog::open(&path).unwrap()),
            store_signature(&expect)
        );
        assert!(log.zoomed_out_modules().is_empty());
    }

    #[test]
    fn compact_seals_tail_and_preserves_everything() {
        let base = workflow_graph();
        let path = temp_log("compact", &base);
        let mut log = AppendLog::open(&path).unwrap();

        log.commit_fragment(&fragment_graph()).unwrap();
        let cone = compute_deletion(&log, NodeId(2)).unwrap().deleted;
        log.commit_tombstones(&cone).unwrap();
        let before = store_signature(&log);
        let invocations_before = log.invocations().to_vec();
        let reads_before = log.faults();

        log.compact().unwrap();
        assert_eq!(log.tail_records(), 0);
        assert!(!tail_path_for(&path).exists());
        assert_eq!(store_signature(&log), before);
        assert_eq!(log.invocations(), invocations_before);
        assert!(log.faults() >= reads_before, "records_read stays monotonic");

        // And the sealed result stands alone.
        let reopened = AppendLog::open(&path).unwrap();
        assert_eq!(reopened.tail_records(), 0);
        assert_eq!(store_signature(&reopened), before);
        assert_eq!(reopened.invocations(), invocations_before);
    }

    /// COMPACT carries the role column like the fault cache: the
    /// records it appends into the partial last block get their roles
    /// from their own bytes, and no role read faults a record.
    #[test]
    fn compact_carries_the_role_column() {
        use crate::codec::get_record;
        use crate::reader::Reader;
        let base = workflow_graph();
        assert!(!base.len().is_multiple_of(32), "the last block is partial");
        let path = temp_log("roles", &base);
        let mut log = AppendLog::open(&path).unwrap();
        for (id, node) in base.iter() {
            assert_eq!(log.role_of(id), node.role);
        }
        let fragment = fragment_graph();
        let created = log.commit_fragment(&fragment).unwrap();
        let expect = resident_append(&base, &fragment);
        for &id in &created {
            assert_eq!(log.role_of(id), expect.node(id).role, "overlay {id}");
        }
        log.compact().unwrap();
        let role_column = log
            .memory_breakdown()
            .into_iter()
            .find(|(n, _)| *n == "role_column");
        assert_eq!(
            role_column,
            Some(("role_column", 4 * expect.len())),
            "carried"
        );

        let index = log.base.index();
        let section = log.base.record_section();
        for (id, node) in expect.iter() {
            let range = index.record_range(id);
            let at = range.start - index.records_offset()..range.end - index.records_offset();
            let record = get_record(&mut Reader::new(&section[at])).unwrap();
            assert_eq!(log.role_of(id), record.role, "role of {id}");
            assert_eq!(log.role_of(id), node.role, "role of {id}");
        }
        assert_eq!(log.faults(), 0, "no role read faulted a record");
    }

    #[test]
    fn live_tail_probe_counts_records_and_changes_nothing() {
        let base = workflow_graph();
        let path = temp_log("probe", &base);
        let tail = tail_path_for(&path);
        let _ = fs::remove_file(&tail);
        let (len, nodes) = (fs::metadata(&path).unwrap().len(), base.len() as u64);
        assert_eq!(
            live_tail_records(&path, len, nodes).unwrap(),
            0,
            "no sidecar"
        );
        fs::write(&tail, tail::encode_header(len, nodes)).unwrap();
        assert_eq!(
            live_tail_records(&path, len, nodes).unwrap(),
            0,
            "header only"
        );

        let mut log = AppendLog::open(&path).unwrap();
        log.commit_tombstones(&[NodeId(2)]).unwrap();
        log.commit_fragment(&fragment_graph()).unwrap();
        drop(log);
        let bytes = fs::read(&tail).unwrap();
        assert_eq!(live_tail_records(&path, len, nodes).unwrap(), 2);
        assert_eq!(live_tail_records(&path, len + 1, nodes).unwrap(), 0);
        assert_eq!(
            fs::read(&tail).unwrap(),
            bytes,
            "never truncated or unlinked"
        );
    }

    /// A snapshot reads the sealed segment alone: a live tail beside it
    /// is neither replayed nor touched, and every change is refused
    /// before anything is written.
    #[test]
    fn snapshot_ignores_the_tail_and_refuses_changes() {
        let base = workflow_graph();
        let path = temp_log("snapshot", &base);
        let tail = tail_path_for(&path);
        let _ = fs::remove_file(&tail);
        let mut log = AppendLog::open(&path).unwrap();
        log.commit_tombstones(&[NodeId(2)]).unwrap();
        drop(log);
        let bytes = fs::read(&tail).unwrap();

        let snapshot = AppendLog::open_snapshot(&path).unwrap();
        assert!(snapshot.is_snapshot());
        assert_eq!(snapshot.tail_records(), 0);
        assert_eq!(store_signature(&snapshot), store_signature(&base));
        for change in [tombstone(0), GraphChange::Splice(&fragment_graph())] {
            let refused = snapshot.prepare(change);
            assert!(matches!(refused, Err(StorageError::Snapshot(_))));
        }
        let refused = snapshot.prepare_compact();
        assert!(matches!(refused, Err(StorageError::Snapshot(_))));
        snapshot.sync().unwrap();
        assert_eq!(fs::read(&tail).unwrap(), bytes);
        assert!(!sidecar_path(&path, ".compact.tmp").exists());
        let _ = fs::remove_file(&tail);
    }

    #[test]
    fn sidecars_append_to_the_full_file_name() {
        let tmp = |p: &str| sidecar_path(Path::new(p), ".compact.tmp");
        assert_eq!(tmp("d/runs.lpstk"), Path::new("d/runs.lpstk.compact.tmp"));
        assert_ne!(tmp("d/runs.lpstk"), tmp("d/runs.v2"));
        assert_eq!(tail_path_for(Path::new("d/runs")), Path::new("d/runs.tail"));
    }

    #[test]
    fn compact_refuses_zoomed_graph() {
        let base = workflow_graph();
        let path = temp_log("compact-zoomed", &base);
        let mut log = AppendLog::open(&path).unwrap();
        let plans = plan_zoom_out(&log, &["M"], &[], log.stash_count()).unwrap();
        log.commit_zoom_out(plans).unwrap();
        match log.compact() {
            Err(StorageError::ZoomedGraph(names)) => assert_eq!(names, vec!["M".to_string()]),
            other => panic!("expected ZoomedGraph refusal, got {other:?}"),
        }
        // Still usable: zoom back in, then compaction goes through.
        log.commit_zoom_in(&["M".to_string()]).unwrap();
        let before = store_signature(&log);
        log.compact().unwrap();
        assert_eq!(store_signature(&log), before);
    }

    /// The append store delegates sealed nodes to its base, so it lends
    /// what the base's fault cache lends — and keeps lending a node the
    /// tail has not touched. A freshly opened or just-compacted log
    /// lends its postings and successor rows too.
    #[test]
    fn sealed_nodes_lend_through_the_append_log() {
        let base = workflow_graph();
        let path = temp_log("lend", &base);
        let mut log = AppendLog::open(&path).unwrap();
        let sealed = NodeId(3);
        let lent = |log: &AppendLog| {
            assert!(matches!(log.kind_of(sealed), Cow::Borrowed(_)));
            assert!(matches!(log.preds_of(sealed), Cow::Borrowed(_)));
        };
        let untouched = |log: &AppendLog| {
            for module in ["M", "Agg", "nope"] {
                let lent = matches!(log.module_postings(module), Cow::Borrowed(_));
                assert!(lent, "module postings for {module}");
            }
            for kind in ["base_tuple", "plus", "delta"] {
                let lent = matches!(log.kind_postings(kind), Cow::Borrowed(_));
                assert!(lent, "kind postings for {kind}");
            }
            for id in (0..log.node_count() as u32).map(NodeId) {
                assert!(
                    matches!(log.succs_of(id), Cow::Borrowed(_)),
                    "succs of {id}"
                );
            }
        };
        lent(&log);
        untouched(&log);
        // A fragment hangs off nothing sealed; the tombstone lands on
        // another node.
        log.commit_fragment(&fragment_graph()).unwrap();
        log.commit_tombstones(&[NodeId(2)]).unwrap();
        lent(&log);
        assert_eq!(*log.preds_of(sealed), *base.node(sealed).preds());
        assert_eq!(log.faults(), 1);
        assert!(matches!(log.kind_postings("plus"), Cow::Owned(_)));

        log.compact().unwrap();
        lent(&log);
        untouched(&log);
    }

    #[test]
    fn postings_merge_overlay_and_respect_visibility() {
        let base = workflow_graph();
        let path = temp_log("postings", &base);
        let mut log = AppendLog::open(&path).unwrap();
        log.commit_fragment(&fragment_graph()).unwrap();

        let expect = resident_append(&base, &fragment_graph());
        for module in ["M", "Agg", "nope"] {
            let got = log.module_postings(module);
            let want: Vec<NodeId> = expect
                .iter_visible()
                .filter(|(_, n)| {
                    n.role
                        .invocation()
                        .is_some_and(|inv| expect.invocation(inv).module == module)
                })
                .map(|(id, _)| id)
                .collect();
            assert_eq!(*got, *want, "module postings for {module}");
        }
        for kind in ["base_tuple", "module_input", "plus", "delta"] {
            let got = log.kind_postings(kind);
            let want: Vec<NodeId> = expect
                .iter_visible()
                .filter(|(_, n)| n.kind.name() == kind)
                .map(|(id, _)| id)
                .collect();
            assert_eq!(*got, *want, "kind postings for {kind}");
        }
    }

    /// A zoom pair must leave no empty side-table entries behind: the
    /// sealed rows of the module's inputs and outputs lend again.
    #[test]
    fn zoom_pair_leaves_sealed_rows_lent() {
        let base = workflow_graph();
        let path = temp_log("zoom-lend", &base);
        let mut log = AppendLog::open(&path).unwrap();
        let plans = plan_zoom_out(&log, &["M"], &[], log.stash_count()).unwrap();
        let created = log.commit_zoom_out(plans).unwrap();
        let (inputs, outputs) = (log.preds_of(created[0]), log.succs_of(created[0]));
        let (inputs, outputs) = (inputs.to_vec(), outputs.to_vec());
        assert!(!inputs.is_empty() && !outputs.is_empty());
        log.commit_zoom_in(&["M".to_string()]).unwrap();
        for &id in inputs.iter().chain(&outputs) {
            assert!(id.index() < log.base_nodes, "{id} is sealed");
            assert!(
                matches!(log.preds_of(id), Cow::Borrowed(_)),
                "preds of {id}"
            );
            assert!(
                matches!(log.succs_of(id), Cow::Borrowed(_)),
                "succs of {id}"
            );
        }
        assert!(log.extra_preds.is_empty() && log.extra_succs.is_empty());
    }

    /// A zoom pair grows sealed rows and then takes the growth back
    /// off: afterwards no sealed key is left in either side table (every
    /// key is a sealed id), so a COMPACT copies every sealed row.
    #[test]
    fn zoom_pairs_leave_no_sealed_row_grown() {
        let base = workflow_graph();
        let path = temp_log("zoom-rows", &base);
        let mut log = AppendLog::open(&path).unwrap();
        for module in ["M", "Agg", "M"] {
            let plans = plan_zoom_out(&log, &[module], &[], log.stash_count()).unwrap();
            log.commit_zoom_out(plans).unwrap();
            assert!(!log.extra_succs.is_empty(), "{module} grew sealed rows");
            log.commit_zoom_in(&[module.to_string()]).unwrap();
            assert!(log.extra_succs.is_empty(), "after {module}");
            assert!(log.extra_preds.is_empty(), "after {module}");
        }
        log.compact().unwrap();
    }

    /// A replayed `AppendGraph` record may name sealed preds: the public
    /// path never writes one (a fragment's preds are its own nodes), but
    /// replay accepts it. The sealed rows it grows are the rows a splice
    /// encodes again, between and after copied ones, and the image must
    /// still be the re-encode of the graph the tail describes.
    #[test]
    fn compact_encodes_the_sealed_rows_a_replayed_record_grew() {
        let base = workflow_graph();
        let path = temp_log("sealed-pred", &base);
        let len = fs::metadata(&path).unwrap().len();
        let (a, c) = (NodeId(0), NodeId(2));
        assert!(!base.node(c).succs().is_empty(), "a non-empty row grows");
        let record = TailRecord::AppendGraph {
            nodes: vec![NodeRecord {
                deleted: false,
                role: Role::Free,
                kind: NodeKind::Plus,
                preds: vec![c, a],
            }],
            invocations: Vec::new(),
        };
        let mut tail = tail::encode_header(len, base.len() as u64);
        tail.extend_from_slice(&tail::encode_record(&record).unwrap());
        fs::write(tail_path_for(&path), &tail).unwrap();

        let mut log = AppendLog::open(&path).unwrap();
        assert_eq!(log.tail_records(), 1);
        let mut grown: Vec<u32> = log.extra_succs.keys().copied().collect();
        grown.sort_unstable();
        assert_eq!(grown, [a.0, c.0]);

        let mut mirror = base.clone();
        let id = mirror.add_node(NodeKind::Plus, Role::Free);
        mirror.add_edge(c, id);
        mirror.add_edge(a, id);
        log.compact().unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            crate::log::encode_graph_v2(&mirror).unwrap()
        );
        assert_eq!(store_signature(&log), store_signature(&mirror));
    }

    /// Side-table slots are sized as the `(u32, V)` pair is laid out —
    /// the key pads to the value's alignment — plus a control byte.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn overlay_heap_counts_padded_map_entries() {
        let base = workflow_graph();
        let path = temp_log("heap", &base);
        let mut log = AppendLog::open(&path).unwrap();
        log.commit_tombstones(&[NodeId(2)]).unwrap();
        let plans = plan_zoom_out(&log, &["M"], &[], log.stash_count()).unwrap();
        log.commit_zoom_out(plans).unwrap();
        assert!(!log.extra_succs.is_empty() && !log.extra_preds.is_empty());

        // (u32, Vec<NodeId>): 4 B key + 4 B padding + 24 B vector.
        let adjacency_slots = log.extra_succs.capacity() + log.extra_preds.capacity();
        let mut expect = adjacency_slots * (32 + 1);
        let extra = log.extra_succs.values().chain(log.extra_preds.values());
        expect += extra.map(|v| v.capacity() * 4).sum::<usize>();
        expect += log.overlay.capacity() * std::mem::size_of::<OverlayNode>();
        for node in &log.overlay {
            expect +=
                kind_heap_bytes(&node.kind) + (node.preds.capacity() + node.succs.capacity()) * 4;
        }
        expect += log.stashes.capacity() * std::mem::size_of::<ZoomStash>();
        for s in &log.stashes {
            expect += s.module.len() + (s.hidden.capacity() + s.zoom_nodes.capacity()) * 4;
        }
        assert_eq!(log.overlay_heap_bytes(), expect);
    }

    /// A visible-graph signature of a log on a simulated disk, plus the
    /// tail position and the files the disk holds.
    fn disk_state(log: &AppendLog, io: &FaultIo) -> (StoreSignature, usize, u64, Vec<PathBuf>) {
        (
            store_signature(log),
            log.tail_records(),
            log.tail_len(),
            io.paths(),
        )
    }

    fn tombstone(id: u32) -> GraphChange<'static> {
        GraphChange::Tombstones(vec![NodeId(id)])
    }

    fn simulated_log() -> (AppendLog, FaultIo, PathBuf) {
        let io = FaultIo::new();
        let path = PathBuf::from("/simulated/prepare.lpstk");
        crate::log::write_graph_v2_io(&workflow_graph(), &path, &io).unwrap();
        io.sync(&path).unwrap();
        let log = AppendLog::open_with_io(&path, Arc::new(io.clone())).unwrap();
        (log, io, path)
    }

    #[test]
    fn failed_prepare_changes_neither_store_nor_disk() {
        let (mut log, io, path) = simulated_log();
        log.commit_fragment(&fragment_graph()).unwrap();
        let before = disk_state(&log, &io);
        let base_bytes = io.contents(&path).unwrap();

        // A record whose sync fails is not acknowledged.
        io.set_fault(io.ops() + 1, FaultKind::Errno(5));
        assert!(matches!(
            log.prepare(tombstone(2)),
            Err(StorageError::Io(_))
        ));
        assert_eq!(disk_state(&log, &io).0, before.0);
        assert_eq!((log.tail_records(), log.tail_len()), (before.1, before.2));

        // A COMPACT whose temp sync fails takes its temp file with it.
        io.set_fault(io.ops() + 1, FaultKind::Errno(28));
        assert!(matches!(log.prepare_compact(), Err(StorageError::Io(_))));
        assert_eq!(disk_state(&log, &io), before);
        assert_eq!(io.contents(&path).unwrap(), base_bytes);

        // Both retry cleanly, and a reopen sees exactly what was acked.
        log.commit_tombstones(&[NodeId(2)]).unwrap();
        let acked = store_signature(&log);
        let shared: Arc<dyn StorageIo> = Arc::new(io.clone());
        assert_eq!(
            store_signature(&AppendLog::open_with_io(&path, shared.clone()).unwrap()),
            acked
        );
        log.compact().unwrap();
        assert_eq!(
            store_signature(&AppendLog::open_with_io(&path, shared).unwrap()),
            acked
        );
    }

    /// A fragment whose `m` node has no invocation role is refused
    /// before it reaches the tail, where every replay would load it.
    #[test]
    fn fragment_with_a_roleless_m_node_is_refused() {
        let (mut log, io, _) = simulated_log();
        let before = disk_state(&log, &io);
        let mut fragment = ProvGraph::new();
        fragment.add_node(NodeKind::Invocation, Role::Free);
        let err = log.commit_fragment(&fragment).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("has role free")),
            "{err}"
        );
        assert_eq!(disk_state(&log, &io), before);
    }

    #[test]
    fn installing_a_compaction_after_the_tail_moved_is_stale() {
        let (mut log, io, path) = simulated_log();
        log.commit_fragment(&fragment_graph()).unwrap();
        let base_bytes = io.contents(&path).unwrap();
        let prepared = log.prepare_compact().unwrap();
        log.commit_tombstones(&[NodeId(2)]).unwrap();
        let moved = disk_state(&log, &io);

        assert!(matches!(
            log.install_compact(prepared),
            Err(StorageError::Stale(_))
        ));
        let tmp = sidecar_path(&path, ".compact.tmp");
        assert!(!io.paths().contains(&tmp), "the stale image is unlinked");
        assert_eq!(disk_state(&log, &io).0, moved.0);
        assert_eq!(log.tail_records(), 2);
        assert_eq!(io.contents(&path).unwrap(), base_bytes);
        let shared: Arc<dyn StorageIo> = Arc::new(io.clone());
        assert_eq!(
            store_signature(&AppendLog::open_with_io(&path, shared).unwrap()),
            moved.0
        );

        // An image prepared twice over the same state installs once.
        let first = log.prepare_compact().unwrap();
        let second = log.prepare_compact().unwrap();
        log.install_compact(first).unwrap();
        assert!(matches!(
            log.install_compact(second),
            Err(StorageError::Stale(_))
        ));
        assert_eq!(store_signature(&log), moved.0);
        assert_eq!(log.tail_records(), 0);
    }

    #[test]
    fn records_publish_in_prepare_order() {
        let (mut log, _io, _path) = simulated_log();
        let first = log.prepare(tombstone(2)).unwrap();
        assert!(
            matches!(log.prepare(tombstone(0)), Err(StorageError::Stale(_))),
            "a prepare waits for the one before it to publish"
        );
        assert!(matches!(log.prepare_compact(), Err(StorageError::Stale(_))));
        assert!(log.is_visible(NodeId(2)), "prepared is not yet visible");
        log.publish(first).unwrap();
        assert!(!log.is_visible(NodeId(2)));
        log.commit_tombstones(&[NodeId(0)]).unwrap();
        assert_eq!(log.tail_records(), 2);
    }
}
