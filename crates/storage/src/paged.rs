//! Lazy, footer-indexed access to a v2 provenance log.
//!
//! [`PagedLog`] keeps the raw file bytes plus the parsed
//! [`LogIndex`] resident, and decodes individual node records only when
//! a query touches them (a *fault*). Faulted records are cached, and the
//! fault count is the "records read" figure ProQL's `EXPLAIN` reports —
//! the measurable difference between a postings-driven scan and a full
//! decode.
//!
//! Visibility and successor adjacency come from the footer, so pure
//! reachability sweeps fault nothing; kinds and predecessor lists fault
//! one record each, once. Roles come from a *role column*, 4 bytes per
//! record, filled on the first role read by one sequential pass over
//! each record's leading bytes (the flags byte, then the role), so a
//! scan that tests only roles, modules or executions faults nothing.
//!
//! The fault cache is an id-indexed table of write-once slots: a top
//! table with one slot per `BLOCK` (32) consecutive ids, each holding —
//! once any of its ids is touched — a block of per-record
//! [`OnceLock`]s. A decoded record is installed once and never moves
//! or changes afterwards, so the accessors **lend** from the cache
//! (`kind_of` / `preds_of` return `Cow::Borrowed`) and a warm read is
//! two atomic loads: no lock, no hash, no copy. The fault counter is
//! atomic, so a `PagedLog` is `Send + Sync`: `lipstick-serve` shares one
//! paged log across a whole worker pool, with concurrent queries
//! faulting records in parallel. Two threads that race on the same cold
//! record may both decode it; one value is installed, and only that
//! thread counts a fault, so the count stays exactly "distinct records
//! decoded".

use std::borrow::Cow;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use lipstick_core::graph::InvocationInfo;
use lipstick_core::obs;
use lipstick_core::store::GraphStore;
use lipstick_core::{InvocationId, NodeId, NodeKind, Role};

use crate::codec::{get_record, get_record_role, role_from_tag, role_tag};
use crate::error::{Result, StorageError};
use crate::footer::{LogIndex, SealedSections};
use crate::log::{check_refs, get_sealed_invocations, read_header, VERSION_V2};
use crate::reader::Reader;

/// One decoded node record, as cached: [`crate::codec::NodeRecord`]
/// without the flags byte (the footer's bitmap answers visibility, and
/// COMPACT patches flags under a carried cache) or the role (the role
/// column holds it).
#[derive(Debug)]
struct Record {
    kind: NodeKind,
    preds: Box<[NodeId]>,
}

/// Consecutive ids per cache block. A flat per-node table would cost an
/// empty slot per node at open — megabytes written before the first
/// query, and carried by a store nobody reads; a block is allocated when
/// one of its ids is first touched, so an untouched log pays one small
/// top-table slot per `BLOCK` nodes (under a byte per node). The other
/// end of the trade is a sparse cold scan — `MATCH m-nodes` touches one
/// record in ≈ 66 on a dealers log, so nearly every fault allocates a
/// block and the session's drop sweeps it: open + that statement + drop
/// on a 186k-node log read ≈ 0.75 ms over the sharded map at 64 ids per
/// block and ≈ 0.3 ms at 32, with dense sweeps unchanged.
const BLOCK: usize = 32;

/// A role column entry: the role's codec tag ([`role_tag`]) in the top
/// three bits, its invocation id in the other [`INV_BITS`].
const INV_BITS: u32 = 29;
const INV_MASK: u32 = (1 << INV_BITS) - 1;

/// The entry of a record whose role the column does not hold: its
/// leading bytes do not decode, it names an invocation past the sealed
/// table, it is an invocation node without an invocation role, or its
/// invocation id does not fit [`INV_BITS`]. No role packs to it (a
/// `free` tag with invocation bits), and its role is read through the
/// fault path, so the damage surfaces where a statement touches the
/// record.
const DAMAGED: u32 = u32::MAX;

fn pack_role(role: Role) -> Option<u32> {
    let (tag, inv) = role_tag(role);
    let inv = inv.map_or(0, |i| i.0);
    (inv <= INV_MASK).then_some((u32::from(tag) << INV_BITS) | inv)
}

// `#[inline]`: it runs per role read, inside the accessors other crates
// inline into their scans.
#[inline]
fn unpack_role(packed: u32) -> Option<Role> {
    if packed == DAMAGED {
        return None;
    }
    role_from_tag((packed >> INV_BITS) as u8, InvocationId(packed & INV_MASK))
}

/// The cache slots of `BLOCK` consecutive ids (always `BLOCK` long, also
/// at the end of the id space — COMPACT grows the log under a block it
/// carries over).
type Block = Box<[OnceLock<Record>]>;

/// A v2 provenance log opened for lazy, record-at-a-time reads.
///
/// `Send + Sync`: the raw bytes and footer index are immutable, every
/// fault-cache slot is written at most once and read lock-free after
/// that, and the fault counter is atomic, so concurrent readers may
/// share one log freely.
pub struct PagedLog {
    data: Vec<u8>,
    index: LogIndex,
    /// The sealed invocation table, then any an [`crate::AppendLog`]
    /// appended over it — the store's one copy of the table.
    invocations: Vec<InvocationInfo>,
    /// Entries of `invocations` the file holds: the bound a sealed
    /// record's invocation id is checked against.
    sealed_invocations: usize,
    /// Slot `id / BLOCK` holds the block of record `id`, once touched.
    cache: Box<[OnceLock<Block>]>,
    /// Every record's packed role (see [`pack_role`]), filled on the
    /// first role read; empty until then, so opening costs nothing.
    roles: OnceLock<Box<[u32]>>,
    /// Per-log fault counter (tests and `STATS` report per-instance
    /// figures); every fault also feeds the process-wide
    /// `lipstick_storage_faults_total` registry instrument.
    faults: obs::Counter,
    faults_total: Arc<obs::Counter>,
}

impl PagedLog {
    /// Open a v2 log file. Fails with [`StorageError::BadVersion`] on a
    /// v1 log (which has no footer; use [`crate::load_graph`]) and with
    /// [`StorageError::Corrupt`] on a truncated or garbled footer.
    pub fn open(path: impl AsRef<Path>) -> Result<PagedLog> {
        PagedLog::open_with_io(path.as_ref(), crate::io::default_io().as_ref())
    }

    /// [`PagedLog::open`] through an explicit IO implementation (the
    /// log does not retain it — a sealed log performs no further IO).
    pub fn open_with_io(path: &Path, io: &dyn crate::io::StorageIo) -> Result<PagedLog> {
        PagedLog::from_bytes(io.read(path)?)
    }

    /// Open a v2 log already in memory.
    pub fn from_bytes(data: Vec<u8>) -> Result<PagedLog> {
        let header = read_header(&data)?;
        if header.version != VERSION_V2 {
            return Err(StorageError::BadVersion(header.version));
        }
        let node_count = header.node_count;
        let index = LogIndex::parse(&data, node_count)?;
        if node_count > 0 && index.record_range(NodeId(0)).start < header.records_start {
            return Err(StorageError::Corrupt(
                "first record offset points into the header".into(),
            ));
        }
        // The invocation table is small; decode it eagerly so module
        // predicates never fault node records.
        let table = data
            .get(index.invocations_offset()..)
            .ok_or_else(|| StorageError::Corrupt("invocation table offset beyond file".into()))?;
        let invocations = get_sealed_invocations(&mut Reader::new(table), node_count)?;
        Ok(PagedLog {
            data,
            index,
            sealed_invocations: invocations.len(),
            invocations,
            cache: (0..node_count.div_ceil(BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
            roles: OnceLock::new(),
            faults: obs::Counter::new(),
            faults_total: obs::registry().counter(
                "lipstick_storage_faults_total",
                "Node records decoded from paged logs (cache misses), process-wide",
            ),
        })
    }

    /// The parsed footer index.
    pub fn index(&self) -> &LogIndex {
        &self.index
    }

    /// Number of node records decoded so far (cache misses).
    pub fn faults(&self) -> usize {
        self.faults.get() as usize
    }

    /// Decode the *entire* log into a resident [`ProvGraph`] — the
    /// oracle the lazy accessors and COMPACT's splice are held to.
    #[cfg(test)]
    pub(crate) fn decode_full(&self) -> Result<lipstick_core::ProvGraph> {
        crate::log::decode_graph(&self.data)
    }

    /// The record section as stored: record 0's first byte up to the
    /// invocation table.
    pub(crate) fn record_section(&self) -> &[u8] {
        &self.data[self.index.records_offset()..self.index.invocations_offset()]
    }

    /// The footer's encoded record lengths and successor rows, for a
    /// splice to copy.
    pub(crate) fn sealed_sections(&self) -> Option<SealedSections<'_>> {
        self.index.sealed_sections(&self.data)
    }

    /// Append invocations to the table, for an append log whose tail
    /// registered them; sealed records still check against the sealed
    /// entries only.
    pub(crate) fn extend_invocations(&mut self, more: &[InvocationInfo]) {
        self.invocations.extend_from_slice(more);
    }

    /// Take over `old`'s fault cache. Sound only when this log's first
    /// `old.node_count()` records are `old`'s records under the same
    /// ids — COMPACT's splice copies them verbatim. Whole blocks move (a
    /// pointer each), not records; this log's table is at least as long,
    /// and a carried block's slots past `old`'s last id are empty, so
    /// the records COMPACT appended decode on first touch like any
    /// other. The flags byte, the one thing a splice patches, is not
    /// part of a [`Record`], so a node tombstoned since it was decoded
    /// cannot go stale here.
    ///
    /// The role column carries over the same way, if `old` built one:
    /// the appended records' roles are read from their leading bytes.
    pub(crate) fn take_fault_cache(&mut self, old: PagedLog) {
        debug_assert!(old.index.node_count() <= self.index.node_count());
        for (slot, block) in self.cache.iter_mut().zip(old.cache.into_vec()) {
            *slot = block;
        }
        if let Some(roles) = old.roles.into_inner() {
            let mut roles = roles.into_vec();
            roles.extend(self.read_roles(roles.len()..self.index.node_count()));
            let _ = self.roles.set(roles.into_boxed_slice());
        }
    }

    /// The role column, filled on first use.
    #[inline]
    fn role_column(&self) -> &[u32] {
        self.roles
            .get_or_init(|| self.read_roles(0..self.index.node_count()).collect())
    }

    /// The packed roles of records `ids`, read from each record's
    /// leading bytes — [`DAMAGED`] where they do not pass what
    /// [`check_refs`] asks of a role.
    fn read_roles(&self, ids: std::ops::Range<usize>) -> impl Iterator<Item = u32> + '_ {
        ids.map(|i| {
            let Some(bytes) = self.data.get(self.index.record_range(NodeId(i as u32))) else {
                return DAMAGED;
            };
            match get_record_role(&mut Reader::new(bytes)) {
                Ok((role, invocation_kind))
                    if role
                        .invocation()
                        .is_none_or(|inv| inv.index() < self.sealed_invocations)
                        && (!invocation_kind || matches!(role, Role::Invocation(_))) =>
                {
                    pack_role(role).unwrap_or(DAMAGED)
                }
                _ => DAMAGED,
            }
        })
    }

    /// Node `id`'s role: a column read, or — for a record the column
    /// marks [`DAMAGED`] — [`PagedLog::uncolumned_role`].
    #[inline]
    pub fn try_role_of(&self, id: NodeId) -> Result<Role> {
        match unpack_role(self.role_column()[id.index()]) {
            Some(role) => Ok(role),
            None => self.uncolumned_role(id),
        }
    }

    /// The role of a record the column marks [`DAMAGED`]: the fault
    /// path's error for a damaged record; for a sound one (an
    /// invocation id past [`INV_BITS`]), its leading bytes read again.
    #[cold]
    fn uncolumned_role(&self, id: NodeId) -> Result<Role> {
        self.record(id)?;
        let bytes = &self.data[self.index.record_range(id)];
        Ok(get_record_role(&mut Reader::new(bytes))?.0)
    }

    /// Record `id`, decoded on first touch and lent from the cache ever
    /// after — two atomic loads when warm.
    #[inline]
    fn record(&self, id: NodeId) -> Result<&Record> {
        let block = self.cache[id.index() / BLOCK].get();
        match block.and_then(|block| block[id.index() % BLOCK].get()) {
            Some(rec) => Ok(rec),
            None => self.fault(id),
        }
    }

    /// Decode record `id` and install it. A failed decode installs
    /// nothing, so the same error comes back on every attempt.
    #[cold]
    fn fault(&self, id: NodeId) -> Result<&Record> {
        let bytes = self
            .data
            .get(self.index.record_range(id))
            .ok_or_else(|| StorageError::Corrupt(format!("record {id} out of file bounds")))?;
        let record = get_record(&mut Reader::new(bytes))?;
        check_refs(
            id,
            &record.kind,
            record.role,
            &record.preds,
            self.index.node_count(),
            self.sealed_invocations,
        )?;
        let (kind, preds) = (record.kind, record.preds.into_boxed_slice());

        let block = self.cache[id.index() / BLOCK]
            .get_or_init(|| (0..BLOCK).map(|_| OnceLock::new()).collect());
        // Of the threads racing on a cold record, the one whose value is
        // installed counts the fault; the others drop their copy.
        let mut installed = false;
        let rec = block[id.index() % BLOCK].get_or_init(|| {
            installed = true;
            Record { kind, preds }
        });
        if installed {
            self.faults.inc();
            self.faults_total.inc();
        }
        Ok(rec)
    }

    #[inline]
    fn expect_record(&self, id: NodeId) -> &Record {
        // GraphStore accessors are infallible (ids are minted by the
        // store); a record that fails to decode *after* the footer
        // validated its offsets is file corruption discovered late.
        self.record(id)
            .unwrap_or_else(|e| panic!("corrupt record {id}: {e}"))
    }

    /// Decode every record, verifying the whole file (used by tests and
    /// `proql`'s corruption checks).
    pub fn verify_all(&self) -> Result<()> {
        for i in 0..self.index.node_count() {
            self.record(NodeId(i as u32))?;
        }
        Ok(())
    }
}

// The serve frontend shares one log across a worker pool; regressing
// to single-thread-only interior mutability must not compile.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PagedLog>();
};

impl obs::HeapSize for PagedLog {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        use lipstick_core::graph::kind_heap_bytes;
        use lipstick_core::obs::vec_alloc_bytes;
        use std::mem::{size_of, size_of_val};
        // The fault cache as allocated: the top table, every block
        // touched so far (all `BLOCK` slots of it, decoded or not), and
        // the decoded records' own heap.
        let mut fault_cache = self.cache.len() * size_of::<OnceLock<Block>>();
        for block in self.cache.iter().filter_map(OnceLock::get) {
            fault_cache += block.len() * size_of::<OnceLock<Record>>();
            fault_cache += block
                .iter()
                .filter_map(OnceLock::get)
                .map(|r| size_of_val(&*r.preds) + kind_heap_bytes(&r.kind))
                .sum::<usize>();
        }
        let invocations = vec_alloc_bytes(&self.invocations)
            + self
                .invocations
                .iter()
                .map(|i| i.module.len())
                .sum::<usize>();
        let role_column = self.roles.get().map_or(0, |roles| size_of_val(&**roles));
        vec![
            ("raw_log", vec_alloc_bytes(&self.data)),
            ("footer_index", obs::HeapSize::heap_bytes(&self.index)),
            ("invocations", invocations),
            ("fault_cache", fault_cache),
            ("role_column", role_column),
        ]
    }
}

// `#[inline]` on the per-node accessors, as on `ProvGraph`'s: a warm
// read is two loads, called per node from walks and scans instantiated
// in other crates, and without it each is a cross-crate call
// (`read_paged_large` ran ≈ 10 % slower, 6 of 6 pairs).
impl GraphStore for PagedLog {
    fn node_count(&self) -> usize {
        self.index.node_count()
    }

    #[inline]
    fn is_visible(&self, id: NodeId) -> bool {
        self.index.is_visible(id)
    }

    fn visible_count(&self) -> usize {
        self.index.visible_count()
    }

    #[inline]
    fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind> {
        Cow::Borrowed(&self.expect_record(id).kind)
    }

    #[inline]
    fn role_of(&self, id: NodeId) -> Role {
        self.try_role_of(id)
            .unwrap_or_else(|e| panic!("corrupt record {id}: {e}"))
    }

    #[inline]
    fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(&self.expect_record(id).preds)
    }

    #[inline]
    fn succs_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.index.succs(id))
    }

    fn invocations(&self) -> &[InvocationInfo] {
        &self.invocations
    }

    fn invocation(&self, id: InvocationId) -> &InvocationInfo {
        &self.invocations[id.index()]
    }

    fn records_read(&self) -> usize {
        self.faults()
    }

    fn module_postings(&self, module: &str) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.index.module_postings(module))
    }

    fn kind_postings(&self, kind: &str) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.index.kind_postings(kind))
    }

    fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        obs::HeapSize::heap_breakdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{decode_graph, encode_graph, encode_graph_v2};
    use lipstick_core::obs::TraceCtx;
    use lipstick_core::query::{depends_on, eval_node, traverse, Direction, Symbolic};
    use lipstick_core::ProvGraph;

    fn sample() -> ProvGraph {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let c = g.add_base("c");
        let t = g.add_times(&[a, b]);
        let p = g.add_plus(&[t, c]);
        g.add_delta(&[p]);
        g
    }

    #[test]
    fn paged_accessors_agree_with_resident() {
        let g = sample();
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        assert_eq!(paged.node_count(), g.len());
        for (id, node) in g.iter() {
            assert_eq!(paged.is_visible(id), node.is_visible());
            assert_eq!(*paged.kind_of(id), node.kind);
            assert_eq!(paged.role_of(id), node.role);
            assert_eq!(*paged.preds_of(id), *node.preds());
            let mut succs = node.succs().to_vec();
            succs.sort();
            assert_eq!(*paged.succs_of(id), *succs);
        }
    }

    #[test]
    fn faults_count_distinct_records_only() {
        let g = sample();
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        assert_eq!(paged.faults(), 0);
        let id = NodeId(3);
        let _ = paged.kind_of(id);
        let _ = paged.role_of(id);
        let _ = paged.preds_of(id);
        assert_eq!(paged.faults(), 1, "one record, one fault");
        let _ = paged.succs_of(NodeId(0));
        assert!(paged.is_visible(NodeId(0)));
        assert_eq!(
            paged.faults(),
            1,
            "adjacency and visibility are index-level"
        );
    }

    #[test]
    fn generic_primitives_run_over_the_paged_store() {
        let g = sample();
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        let root = NodeId(0);
        let (nodes, _) = traverse(&paged, root, Direction::Descendants, None, |_| true).unwrap();
        let (expect, _) = traverse(&g, root, Direction::Descendants, None, |_| true).unwrap();
        assert_eq!(nodes, expect);
        assert_eq!(
            eval_node(&paged, NodeId(5), &Symbolic, TraceCtx::disabled())
                .unwrap()
                .to_string(),
            g.expr_of(NodeId(5)).to_string()
        );
        for (n, _) in g.iter_visible() {
            for (m, _) in g.iter_visible() {
                assert_eq!(
                    depends_on(&paged, n, m).unwrap(),
                    depends_on(&g, n, m).unwrap()
                );
            }
        }
    }

    /// The twin of `store::tests::resident_accessors_lend_from_the_arena`:
    /// what the paged read path's speed rests on. A decoded record is
    /// installed once and never moves, so two calls lend the same
    /// memory.
    #[test]
    fn paged_accessors_lend_from_the_cache() {
        let g = sample();
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        for (id, _) in g.iter() {
            let (Cow::Borrowed(kind), Cow::Borrowed(again)) =
                (paged.kind_of(id), paged.kind_of(id))
            else {
                panic!("kind of {id} is a copy");
            };
            assert!(std::ptr::eq(kind, again), "kind of {id}");
            let (Cow::Borrowed(preds), Cow::Borrowed(again)) =
                (paged.preds_of(id), paged.preds_of(id))
            else {
                panic!("preds of {id} are a copy");
            };
            assert!(std::ptr::eq(preds, again), "preds of {id}");
            assert!(
                matches!(paged.succs_of(id), Cow::Borrowed(_)),
                "succs of {id}"
            );
        }
        for kind in ["base_tuple", "times", "no_such_kind"] {
            let (Cow::Borrowed(ids), Cow::Borrowed(again)) =
                (paged.kind_postings(kind), paged.kind_postings(kind))
            else {
                panic!("postings of kind {kind} are a copy");
            };
            assert!(std::ptr::eq(ids, again), "postings of kind {kind}");
        }
        assert!(matches!(
            paged.module_postings("no_such_module"),
            Cow::Borrowed([])
        ));
    }

    /// A dealers log spanning a few dozen cache blocks.
    fn dealers_graph() -> ProvGraph {
        use lipstick_workflowgen::dealers::{self, DealersParams};
        let params = DealersParams {
            num_cars: 40,
            num_exec: 8,
            seed: 5,
        };
        let mut tracker = lipstick_core::graph::GraphTracker::new();
        dealers::run_declining(&params, &mut tracker).expect("dealers run");
        let g = tracker.finish();
        assert!(g.len() > 16 * BLOCK, "{} nodes", g.len());
        g
    }

    #[test]
    fn concurrent_readers_share_one_log() {
        const THREADS: usize = 8;
        let g = dealers_graph();
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        let n = paged.node_count();
        let total_before = paged.faults_total.get();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (g, paged, barrier) = (&g, &paged, &barrier);
                s.spawn(move || {
                    // Every thread sweeps every id, each from its own
                    // start and half of them backwards, so threads keep
                    // meeting on cold records from both sides.
                    let order = (0..n).map(|k| {
                        let k = if t % 2 == 0 { k } else { n - 1 - k };
                        (k + t * n / THREADS) % n
                    });
                    barrier.wait();
                    for i in order {
                        let id = NodeId(i as u32);
                        let node = g.node(id);
                        assert_eq!(*paged.kind_of(id), node.kind, "kind of {id}");
                        assert_eq!(paged.role_of(id), node.role, "role of {id}");
                        assert_eq!(*paged.preds_of(id), *node.preds(), "preds of {id}");
                    }
                });
            }
        });
        // Racing threads may decode a record twice, but one value is
        // installed and only its thread counts.
        assert_eq!(paged.faults(), n);
        // The process-wide counter moves in the same branch. Tests
        // running beside this one fault their own logs into it, so from
        // here only the lower bound can be held exactly.
        assert!(paged.faults_total.get() - total_before >= n as u64);
        for i in 0..n {
            let _ = paged.kind_of(NodeId(i as u32));
        }
        assert_eq!(paged.faults(), n, "warm cache faults nothing");
    }

    /// `fault_cache` is what the cache allocated: the top table, whole
    /// blocks, and the decoded records' own heap.
    #[test]
    fn fault_cache_bytes_match_the_allocation() {
        use lipstick_core::graph::kind_heap_bytes;
        use obs::HeapSize;
        use std::mem::{size_of, size_of_val};
        let fault_cache = |log: &PagedLog| {
            let parts = log.heap_breakdown();
            parts
                .iter()
                .find(|(name, _)| *name == "fault_cache")
                .unwrap()
                .1
        };
        let g = dealers_graph();
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        let n = paged.node_count();
        let top = n.div_ceil(BLOCK) * size_of::<OnceLock<Block>>();
        assert_eq!(fault_cache(&paged), top);
        assert!(top < n, "an untouched log pays under a byte per node");

        // One record: its block, and what the record owns.
        let id = NodeId(n as u32 - 1);
        let one_block = BLOCK * size_of::<OnceLock<Record>>();
        let owned = |id: NodeId| {
            let node = g.node(id);
            size_of_val(node.preds()) + kind_heap_bytes(&node.kind)
        };
        let _ = paged.kind_of(id);
        assert_eq!(fault_cache(&paged), top + one_block + owned(id));

        paged.verify_all().unwrap();
        let records: usize = g.iter().map(|(id, _)| owned(id)).sum();
        assert_eq!(
            fault_cache(&paged),
            top + n.div_ceil(BLOCK) * one_block + records
        );
    }

    /// The role column answers what the records say, and reading it
    /// faults nothing; it is counted once it exists.
    #[test]
    fn role_column_matches_every_record_and_faults_nothing() {
        use obs::HeapSize;
        let g = dealers_graph();
        let bytes = encode_graph_v2(&g).unwrap();
        let paged = PagedLog::from_bytes(bytes.clone()).unwrap();
        let column = |log: &PagedLog| {
            let parts = log.heap_breakdown();
            parts
                .iter()
                .find(|(name, _)| *name == "role_column")
                .unwrap()
                .1
        };
        assert_eq!(column(&paged), 0, "opening builds nothing");
        for (id, node) in g.iter() {
            let range = paged.index().record_range(id);
            let record = get_record(&mut Reader::new(&bytes[range])).unwrap();
            assert_eq!(paged.role_of(id), record.role, "role of {id}");
            assert_eq!(paged.role_of(id), node.role, "role of {id}");
        }
        assert_eq!(paged.faults(), 0, "roles come from the column");
        assert_eq!(column(&paged), 4 * g.len());
    }

    #[test]
    fn roles_pack_and_unpack() {
        let inv = InvocationId(INV_MASK);
        for role in [
            Role::WorkflowInput,
            Role::Invocation(inv),
            Role::ModuleInput(InvocationId(0)),
            Role::ModuleOutput(inv),
            Role::State(InvocationId(7)),
            Role::Intermediate(inv),
            Role::Zoom(InvocationId(1)),
            Role::Free,
        ] {
            let packed = pack_role(role).unwrap();
            assert_ne!(packed, DAMAGED);
            assert_eq!(unpack_role(packed), Some(role));
        }
        assert_eq!(pack_role(Role::State(InvocationId(INV_MASK + 1))), None);
        assert_eq!(unpack_role(DAMAGED), None);
    }

    #[test]
    fn v1_log_is_rejected_with_bad_version() {
        let g = sample();
        let bytes = encode_graph(&g).unwrap();
        assert!(matches!(
            PagedLog::from_bytes(bytes),
            Err(StorageError::BadVersion(1))
        ));
    }

    #[test]
    fn record_naming_a_missing_invocation_is_corrupt() {
        let mut g = ProvGraph::new();
        g.add_invocation("M", 0);
        let node = g.add_node(NodeKind::Plus, Role::Intermediate(InvocationId(0)));
        let mut bytes = encode_graph_v2(&g).unwrap();
        // The flags byte, the role tag, then the invocation id's varint.
        let index = PagedLog::from_bytes(bytes.clone()).unwrap().index().clone();
        let at = index.record_range(node).start + 2;
        assert_eq!(bytes[at], 0);
        bytes[at] = 7;
        let paged = PagedLog::from_bytes(bytes).unwrap();
        let err = paged.verify_all().unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("invocation 7")),
            "{err}"
        );
        // The column holds no role for it: the role read reports the
        // damage instead of answering.
        let err = paged.try_role_of(node).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("invocation 7")),
            "{err}"
        );
    }

    /// The fault path used to install such a record, and expression
    /// extraction over it panicked.
    #[test]
    fn invocation_node_without_an_invocation_role_is_corrupt() {
        let mut g = ProvGraph::new();
        let node = g.add_node(NodeKind::Invocation, Role::Free);
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        let err = paged.record(node).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("has role free")),
            "{err}"
        );
        let err = paged.try_role_of(node).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("has role free")),
            "{err}"
        );
        assert_eq!(paged.faults(), 0, "nothing installed");
    }

    #[test]
    fn full_decode_of_v2_matches_v1_decode() {
        let g = sample();
        let v2 = decode_graph(&encode_graph_v2(&g).unwrap()).unwrap();
        assert_eq!(v2.visible_signature(), g.visible_signature());
    }
}
