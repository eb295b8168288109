//! [`AppendLog`]: a mutable segment stack over a sealed v2 log.
//!
//! A [`PagedLog`] is read-only. `AppendLog` changes one without
//! decoding it into a [`ProvGraph`]: it layers an in-memory **overlay**
//! plus an on-disk WAL **tail** (see [`crate::tail`]) over the sealed
//! base:
//!
//! - appended nodes live in the overlay, with ids continuing the base's
//!   dense id space (`base_nodes..`);
//! - visibility changes to sealed nodes (tombstones, zoom hiding) live
//!   in an override map consulted before the base's visibility bitmap —
//!   newest segment wins;
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

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lipstick_core::graph::{kind_heap_bytes, InvocationInfo, ZoomStash, RETIRED_STASH};
use lipstick_core::obs::vec_alloc_bytes;
use lipstick_core::query::{plan_zoom_out, GraphChange, ZoomModulePlan};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};

use crate::codec::{put_record, NodeRecord};
use crate::error::{Result, StorageError};
use crate::footer::{FooterSource, FooterWriter, Postings};
use crate::io::{default_io, StorageIo};
use crate::log::{check_m_node_role, put_header, put_invocations, VERSION_V2};
use crate::paged::PagedLog;
use crate::tail::{self, TailRecord, TAIL_HEADER_LEN};

/// One appended (tail) node, fully resident. The overlay is expected to
/// stay small relative to the base — COMPACT folds it away.
#[derive(Debug, Clone)]
struct OverlayNode {
    kind: NodeKind,
    role: Role,
    preds: Vec<NodeId>,
    succs: Vec<NodeId>,
    deleted: bool,
    zoom_hidden: bool,
}

impl OverlayNode {
    fn is_visible(&self) -> bool {
        !self.deleted && !self.zoom_hidden
    }
}

/// Mutable visibility state for a sealed base node. Present only for
/// nodes a tail mutation touched; absent means "as sealed".
#[derive(Debug, Clone, Copy)]
struct BaseOverride {
    deleted: bool,
    zoom_hidden: bool,
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
    invocations: Vec<InvocationInfo>,
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
    base: PagedLog,
    base_len: u64,
    base_nodes: usize,
    base_invocations: usize,
    tail: Mutex<TailState>,
    /// Records ever applied to the overlay, replayed ones included.
    published: u64,
    /// Compactions ever installed.
    compactions: u64,
    overlay: Vec<OverlayNode>,
    overrides: HashMap<u32, BaseOverride>,
    /// Visible nodes, base and overlay together. Every visibility
    /// change goes through [`AppendLog::flip`] or [`AppendLog::push_node`],
    /// which keep it in step: a zoom pair leaves tens of thousands of
    /// overrides behind until the next COMPACT, so deriving the count
    /// from them would put that sweep on every planned statement.
    visible: usize,
    /// Successors appended to base (or earlier-overlay) rows, keyed by
    /// the *source* id. Values are ascending (ids are allocated in
    /// commit order).
    extra_succs: HashMap<u32, Vec<NodeId>>,
    /// Predecessors appended to existing rows — only zoom composites do
    /// this (composite → module-output edges), and ZoomIn removes them
    /// again, keys included, so this is empty whenever no module is
    /// zoomed out.
    extra_preds: HashMap<u32, Vec<NodeId>>,
    /// Merged invocation table: the base's, then appended ones.
    invocations: Vec<InvocationInfo>,
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
        let path = path.to_path_buf();
        let base = PagedLog::open_with_io(&path, io.as_ref())?;
        let base_len = io.len(&path)?;
        let mut log = AppendLog {
            tail_path: tail_path_for(&path),
            path,
            io,
            base_len,
            base_nodes: base.index().node_count(),
            visible: base.index().visible_count(),
            base_invocations: base.invocations().len(),
            invocations: base.invocations().to_vec(),
            base,
            tail: Mutex::new(TailState::default()),
            published: 0,
            compactions: 0,
            overlay: Vec::new(),
            overrides: HashMap::new(),
            extra_succs: HashMap::new(),
            extra_preds: HashMap::new(),
            stashes: Vec::new(),
            zoomed_modules: HashMap::new(),
            carried_faults: 0,
        };
        log.recover_tail()?;
        Ok(log)
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
        let inv_off = self.invocations.len() as u32;
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
        let inv_limit = self.invocations.len() + new_invs.len();
        for (k, node) in nodes.iter().enumerate() {
            check_m_node_role(NodeId((node_base + k) as u32), &node.kind, node.role)?;
            if let Some(bad) = node
                .preds
                .iter()
                .find(|p| p.index() >= node_base + nodes.len())
            {
                return Err(StorageError::Corrupt(format!(
                    "appended node references future node {bad}"
                )));
            }
            if node.preds.iter().any(|p| p.index() == node_base + k) {
                return Err(StorageError::Corrupt(format!(
                    "appended node {} references itself",
                    node_base + k
                )));
            }
            if let Some(inv) = node.role.invocation() {
                if inv.index() >= inv_limit {
                    return Err(StorageError::Corrupt(format!(
                        "appended node references unknown invocation {}",
                        inv.0
                    )));
                }
            }
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
            created.push(self.push_node(OverlayNode {
                kind: node.kind.clone(),
                role: node.role,
                preds: node.preds.clone(),
                succs: Vec::new(),
                deleted: node.deleted,
                zoom_hidden: false,
            }));
        }
        for (node, &id) in nodes.iter().zip(&created) {
            for &p in &node.preds {
                self.push_succ(p, id);
            }
        }
        self.invocations.extend_from_slice(new_invs);
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
            self.set_deleted(id, true);
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
                self.set_zoom_hidden(h, true);
            }
            let stash_idx = self.stashes.len() as u32;
            let mut zoom_nodes = Vec::with_capacity(plan.composites.len());
            for comp in &plan.composites {
                let id = self.push_node(OverlayNode {
                    kind: NodeKind::Zoomed { stash: stash_idx },
                    role: Role::Zoom(comp.invocation),
                    preds: comp.inputs.clone(),
                    succs: comp.outputs.clone(),
                    deleted: false,
                    zoom_hidden: false,
                });
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
            for &h in &stash.hidden {
                self.set_zoom_hidden(h, false);
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
                self.set_deleted(z, true);
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
    fn push_node(&mut self, node: OverlayNode) -> NodeId {
        let id = NodeId(self.node_count() as u32);
        self.visible += usize::from(node.is_visible());
        self.overlay.push(node);
        id
    }

    /// Change a node's `(deleted, zoom_hidden)` flags — an override
    /// entry for a sealed node, the node itself in the overlay.
    fn flip(&mut self, id: NodeId, set: impl FnOnce(&mut bool, &mut bool)) {
        let (deleted, zoom_hidden) = if id.index() < self.base_nodes {
            let sealed_visible = self.base.index().is_visible(id);
            let ov = self.overrides.entry(id.0).or_insert(BaseOverride {
                deleted: !sealed_visible,
                zoom_hidden: false,
            });
            (&mut ov.deleted, &mut ov.zoom_hidden)
        } else {
            let node = &mut self.overlay[id.index() - self.base_nodes];
            (&mut node.deleted, &mut node.zoom_hidden)
        };
        let was = !*deleted && !*zoom_hidden;
        set(deleted, zoom_hidden);
        let now = !*deleted && !*zoom_hidden;
        self.visible = self.visible + usize::from(now) - usize::from(was);
    }

    fn set_deleted(&mut self, id: NodeId, deleted: bool) {
        self.flip(id, |d, _| *d = deleted);
    }

    fn set_zoom_hidden(&mut self, id: NodeId, hidden: bool) {
        self.flip(id, |_, z| *z = hidden);
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
    /// record section copied verbatim (the flags byte of each
    /// overridden node patched), the overlay's records, the merged
    /// invocation table, and a footer assembled from what this log
    /// already holds (see [`SpliceFooter`]). Nothing is decoded into a
    /// [`ProvGraph`] and nothing that did not change is re-encoded, yet
    /// the image is byte-for-byte what decode → replay →
    /// [`crate::encode_graph_v2`] would write (the unit tests assert it
    /// inside every COMPACT they run; `tests/compact_splice.rs` proves
    /// it over random scripts).
    ///
    /// The temp image is synced before it can be renamed (rename makes
    /// metadata durable, not content — skipping the sync would let a
    /// crash truncate the renamed base). An error leaves the store and
    /// the base untouched and unlinks the temp file, best-effort; a
    /// crash may leave one behind, which the next COMPACT's truncating
    /// `create` overwrites.
    pub fn prepare_compact(&self) -> Result<PreparedCompact> {
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
        debug_assert!(self.overlay.iter().all(|n| !n.zoom_hidden));

        let image = self.splice_image()?;
        #[cfg(test)]
        assert!(
            image == self.reencode_oracle()?,
            "the spliced image must equal decode -> replay -> re-encode"
        );

        let tmp = sidecar_path(&self.path, ".compact.tmp");
        let (base, len) = match self.write_image(&tmp, &image) {
            Ok(written) => written,
            Err(e) => {
                let _ = self.io.unlink(&tmp);
                return Err(e);
            }
        };
        Ok(PreparedCompact {
            tmp,
            invocations: base.invocations().to_vec(),
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
        let PreparedCompact {
            tmp,
            base,
            len,
            invocations,
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

        debug_assert_eq!(self.visible, base.index().visible_count());
        let old_base = std::mem::replace(&mut self.base, base);
        self.carried_faults += old_base.faults();
        self.base.take_fault_cache(old_base);
        self.base_len = len;
        self.base_nodes = self.base.index().node_count();
        self.base_invocations = invocations.len();
        self.invocations = invocations;
        // Fresh containers, not `clear()`: a zoom pair leaves tens of
        // thousands of overrides behind, and their capacity would
        // otherwise stay allocated (and reported) until the log closes.
        self.overlay = Vec::new();
        self.overrides = HashMap::new();
        self.extra_succs = HashMap::new();
        self.extra_preds = HashMap::new();
        self.stashes = Vec::new();
        self.zoomed_modules = HashMap::new();
        self.compactions += 1;
        Ok(())
    }

    /// Write the image to `tmp`, sync it, and re-open it from there
    /// (full header / footer / invocation-table validation).
    fn write_image(&self, tmp: &Path, image: &[u8]) -> Result<(PagedLog, u64)> {
        self.io.create(tmp, image)?;
        self.io.sync(tmp)?;
        let base = PagedLog::open_with_io(tmp, self.io.as_ref())?;
        let len = self.io.len(tmp)?;
        Ok((base, len))
    }

    /// The sealed v2 image of base + overlay (see [`AppendLog::compact`]).
    fn splice_image(&self) -> Result<Vec<u8>> {
        let index = self.base.index();
        let sealed = self.base.record_section();
        let n = self.node_count();
        // About the old image plus what the tail added to it.
        let mut buf = Vec::with_capacity((self.base_len + self.tail().len) as usize);
        put_header(&mut buf, VERSION_V2, n);

        // Sealed records: the same bytes, at an offset that moved only
        // if the node-count varint in the header grew.
        let at = buf.len();
        let moved = |old: usize| at + (old - index.records_offset());
        buf.extend_from_slice(sealed);
        let mut footer = FooterWriter::new(n);
        for i in 0..self.base_nodes {
            footer.record_starts_at(moved(index.record_range(NodeId(i as u32)).start) as u64);
        }
        // The flags byte leads each record, and the encoder only ever
        // writes `deleted` into it.
        for (&id, ov) in &self.overrides {
            let range = index.record_range(NodeId(id));
            if range.is_empty() {
                return Err(StorageError::Corrupt(format!("empty record for #{id}")));
            }
            buf[moved(range.start)] = u8::from(ov.deleted);
        }

        for node in &self.overlay {
            footer.record_starts_at(buf.len() as u64);
            put_record(&mut buf, node.deleted, &node.role, &node.kind, &node.preds)?;
        }
        footer.records_end_at(buf.len() as u64);
        put_invocations(&mut buf, &self.invocations);
        footer.finish(&SpliceFooter::new(self), &mut buf);
        Ok(buf)
    }

    /// What COMPACT did before it spliced — decode the base into a
    /// [`ProvGraph`], replay overrides and overlay through its public
    /// construction API, re-encode — kept as the oracle the splice is
    /// held to.
    #[cfg(test)]
    fn reencode_oracle(&self) -> Result<Vec<u8>> {
        let mut graph = self.base.decode_full()?;
        for (&id, ov) in &self.overrides {
            graph.set_node_deleted(NodeId(id), ov.deleted);
        }
        for inv in &self.invocations[self.base_invocations..] {
            graph.register_invocation(inv.module.clone(), inv.execution, inv.m_node);
        }
        // Two passes, as in apply_append: an overlay node's pred may be
        // a later overlay node (fragment edges wire in tracker order).
        let overlay_base = graph.len() as u32;
        for node in &self.overlay {
            let id = graph.add_node(node.kind.clone(), node.role);
            if node.deleted {
                graph.set_node_deleted(id, true);
            }
        }
        for (k, node) in self.overlay.iter().enumerate() {
            let id = NodeId(overlay_base + k as u32);
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
        bytes += self.overrides.capacity() * map_entry_bytes::<BaseOverride>();
        bytes += vec_alloc_bytes(&self.invocations)
            + self
                .invocations
                .iter()
                .map(|i| i.module.len())
                .sum::<usize>();
        bytes += vec_alloc_bytes(&self.stashes);
        for s in &self.stashes {
            bytes += s.module.len() + vec_alloc_bytes(&s.hidden) + vec_alloc_bytes(&s.zoom_nodes);
        }
        bytes
    }
}

/// The footer of a spliced image, answered from what the log already
/// holds instead of from a decoded graph: the base bitmap patched by
/// `overrides` plus overlay visibility, sealed CSR rows followed by
/// `extra_succs` / overlay `succs`, and sealed postings filtered by
/// current visibility plus the overlay's entries.
struct SpliceFooter<'a> {
    log: &'a AppendLog,
    /// Current visibility of every node, computed once: the postings
    /// filters test it per sealed entry.
    visible: Vec<u8>,
}

impl<'a> SpliceFooter<'a> {
    fn new(log: &'a AppendLog) -> SpliceFooter<'a> {
        let mut visible = log.base.index().visibility().to_vec();
        visible.resize(log.node_count().div_ceil(8), 0);
        let mut set = |i: usize, on: bool| {
            let bit = 1u8 << (i % 8);
            if on {
                visible[i / 8] |= bit;
            } else {
                visible[i / 8] &= !bit;
            }
        };
        for (&id, ov) in &log.overrides {
            set(id as usize, !ov.deleted && !ov.zoom_hidden);
        }
        for (k, node) in log.overlay.iter().enumerate() {
            set(log.base_nodes + k, node.is_visible());
        }
        SpliceFooter { log, visible }
    }

    fn is_visible(&self, id: NodeId) -> bool {
        self.visible[id.index() / 8] & (1 << (id.index() % 8)) != 0
    }

    fn still_visible<'p>(&self, sealed: &'p BTreeMap<String, Vec<NodeId>>) -> Postings<'p> {
        sealed
            .iter()
            .map(|(name, ids)| {
                let ids = ids.iter().copied().filter(|&id| self.is_visible(id));
                (name.as_str(), ids.collect())
            })
            .collect()
    }
}

impl FooterSource for SpliceFooter<'_> {
    fn visibility(&self) -> Vec<u8> {
        self.visible.clone()
    }

    fn succs_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.extend_from_slice(&self.log.succs_of(id));
    }

    // Overlay ids all exceed sealed ids and are walked in id order, so
    // appending them keeps every group ascending.
    fn postings(&self) -> (Postings<'_>, Postings<'_>) {
        let index = self.log.base.index();
        let mut by_module = self.still_visible(index.all_module_postings());
        let mut by_kind = self.still_visible(index.all_kind_postings());
        let overlay = self.log.overlay.iter().enumerate();
        for (k, node) in overlay.filter(|(_, node)| node.is_visible()) {
            let id = NodeId((self.log.base_nodes + k) as u32);
            if let Some(inv) = node.role.invocation() {
                let module = self.log.invocations[inv.index()].module.as_str();
                by_module.entry(module).or_default().push(id);
            }
            by_kind.entry(node.kind.name()).or_default().push(id);
        }
        (by_module, by_kind)
    }
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

impl GraphStore for AppendLog {
    fn node_count(&self) -> usize {
        self.base_nodes + self.overlay.len()
    }

    fn is_visible(&self, id: NodeId) -> bool {
        if id.index() < self.base_nodes {
            match self.overrides.get(&id.0) {
                Some(ov) => !ov.deleted && !ov.zoom_hidden,
                None => self.base.index().is_visible(id),
            }
        } else {
            self.overlay
                .get(id.index() - self.base_nodes)
                .is_some_and(OverlayNode::is_visible)
        }
    }

    fn visible_count(&self) -> usize {
        self.visible
    }

    fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind> {
        if id.index() < self.base_nodes {
            self.base.kind_of(id)
        } else {
            Cow::Borrowed(&self.overlay[id.index() - self.base_nodes].kind)
        }
    }

    fn role_of(&self, id: NodeId) -> Role {
        if id.index() < self.base_nodes {
            self.base.role_of(id)
        } else {
            self.overlay[id.index() - self.base_nodes].role
        }
    }

    fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        if id.index() < self.base_nodes {
            let mut preds = self.base.preds_of(id);
            if let Some(extra) = self.extra_preds.get(&id.0) {
                preds.to_mut().extend_from_slice(extra);
            }
            preds
        } else {
            Cow::Borrowed(&self.overlay[id.index() - self.base_nodes].preds)
        }
    }

    fn succs_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        if id.index() < self.base_nodes {
            // The sealed row is lent as-is unless the tail grew it.
            let mut succs = self.base.succs_of(id);
            if let Some(extra) = self.extra_succs.get(&id.0).filter(|e| !e.is_empty()) {
                succs.to_mut().extend_from_slice(extra);
            }
            succs
        } else {
            Cow::Borrowed(&self.overlay[id.index() - self.base_nodes].succs)
        }
    }

    fn invocations(&self) -> &[InvocationInfo] {
        &self.invocations
    }

    fn records_read(&self) -> usize {
        self.faults()
    }

    fn module_postings(&self, module: &str) -> Option<Cow<'_, [NodeId]>> {
        // Sealed postings filtered through current visibility, then the
        // overlay's matches. Overlay ids all exceed base ids, so the
        // merged list stays ascending.
        let mut out: Vec<NodeId> = self
            .base
            .index()
            .module_postings(module)
            .iter()
            .copied()
            .filter(|&id| self.is_visible(id))
            .collect();
        for (k, node) in self.overlay.iter().enumerate() {
            if !node.is_visible() {
                continue;
            }
            if let Some(inv) = node.role.invocation() {
                if self
                    .invocations
                    .get(inv.index())
                    .is_some_and(|i| i.module == module)
                {
                    out.push(NodeId((self.base_nodes + k) as u32));
                }
            }
        }
        Some(Cow::Owned(out))
    }

    fn kind_postings(&self, kind: &str) -> Option<Cow<'_, [NodeId]>> {
        let mut out: Vec<NodeId> = self
            .base
            .index()
            .kind_postings(kind)
            .iter()
            .copied()
            .filter(|&id| self.is_visible(id))
            .collect();
        for (k, node) in self.overlay.iter().enumerate() {
            if node.is_visible() && node.kind.name() == kind {
                out.push(NodeId((self.base_nodes + k) as u32));
            }
        }
        Some(Cow::Owned(out))
    }

    fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        let mut parts = self.base.memory_breakdown();
        parts.push(("tail_overlay", self.overlay_heap_bytes()));
        parts
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
    /// tail has not touched.
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
        lent(&log);
        // A fragment hangs off nothing sealed; the tombstone lands on
        // another node.
        log.commit_fragment(&fragment_graph()).unwrap();
        log.commit_tombstones(&[NodeId(2)]).unwrap();
        lent(&log);
        assert_eq!(*log.preds_of(sealed), *base.node(sealed).preds());
        assert_eq!(log.faults(), 1);
    }

    #[test]
    fn postings_merge_overlay_and_respect_visibility() {
        let base = workflow_graph();
        let path = temp_log("postings", &base);
        let mut log = AppendLog::open(&path).unwrap();
        log.commit_fragment(&fragment_graph()).unwrap();

        let expect = resident_append(&base, &fragment_graph());
        for module in ["M", "Agg", "nope"] {
            let got = log.module_postings(module).unwrap();
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
            let got = log.kind_postings(kind).unwrap();
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
        assert!(!log.overrides.is_empty());

        // (u32, Vec<NodeId>): 4 B key + 4 B padding + 24 B vector.
        // (u32, BaseOverride): 4 B key + 2 flag bytes + 2 B padding.
        let adjacency_slots = log.extra_succs.capacity() + log.extra_preds.capacity();
        let mut expect = adjacency_slots * (32 + 1) + log.overrides.capacity() * (8 + 1);
        let extra = log.extra_succs.values().chain(log.extra_preds.values());
        expect += extra.map(|v| v.capacity() * 4).sum::<usize>();
        expect += log.overlay.capacity() * std::mem::size_of::<OverlayNode>();
        for node in &log.overlay {
            expect +=
                kind_heap_bytes(&node.kind) + (node.preds.capacity() + node.succs.capacity()) * 4;
        }
        expect += log.invocations.capacity() * std::mem::size_of::<InvocationInfo>();
        expect += log
            .invocations
            .iter()
            .map(|i| i.module.len())
            .sum::<usize>();
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
