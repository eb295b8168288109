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
//! reachability sweeps fault nothing; kinds, roles, and predecessor
//! lists fault one record each, once.
//!
//! The fault cache is sharded behind mutexes (and the fault counter is
//! atomic), so a `PagedLog` is `Send + Sync`: `lipstick-serve` shares
//! one paged log across a whole worker pool, with concurrent queries
//! faulting records in parallel and contending only when two threads
//! touch the same shard.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use bytes::Buf;
use lipstick_core::graph::InvocationInfo;
use lipstick_core::obs;
use lipstick_core::store::GraphStore;
use lipstick_core::{InvocationId, NodeId, NodeKind, ProvGraph, Role};

use crate::codec::{get_kind, get_role};
use crate::error::{Result, StorageError};
use crate::footer::LogIndex;
use crate::log::{decode_graph, decode_invocations, decode_pred_list, MAGIC, VERSION_V2};
use crate::varint::get_count;

/// One decoded node record.
#[derive(Debug, Clone)]
struct Record {
    kind: NodeKind,
    role: Role,
    preds: Vec<NodeId>,
}

/// Number of cache shards. A small power of two: enough to keep a
/// worker pool's threads off each other's locks, cheap enough that an
/// idle log carries no weight.
const CACHE_SHARDS: usize = 16;

/// A v2 provenance log opened for lazy, record-at-a-time reads.
///
/// `Send + Sync`: the raw bytes and footer index are immutable, the
/// fault cache is sharded behind mutexes, and the fault counter is
/// atomic, so concurrent readers may share one log freely.
pub struct PagedLog {
    data: Vec<u8>,
    index: LogIndex,
    invocations: Vec<InvocationInfo>,
    /// Boxed so an idle `PagedLog` (and the session enum wrapping it)
    /// stays small; the shards only cost a pointer until first fault.
    cache: Box<[Mutex<HashMap<u32, Record>>]>,
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
        if data.len() < 6 {
            return Err(StorageError::BadMagic);
        }
        if &data[..5] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = data[5];
        if version != VERSION_V2 {
            return Err(StorageError::BadVersion(version));
        }
        let mut header = &data[6..];
        let before = header.remaining();
        let node_count = get_count(&mut header)?;
        let records_start = 6 + (before - header.remaining());
        let index = LogIndex::parse(&data, node_count)?;
        if node_count > 0 && index.record_range(NodeId(0)).start < records_start {
            return Err(StorageError::Corrupt(
                "first record offset points into the header".into(),
            ));
        }
        // The invocation table is small; decode it eagerly so module
        // predicates never fault node records.
        let inv_start = index.invocations_offset();
        if inv_start > data.len() {
            return Err(StorageError::Corrupt(
                "invocation table offset beyond file".into(),
            ));
        }
        let mut inv_buf = &data[inv_start..];
        let invocations = decode_invocations(&mut inv_buf, node_count)?;
        Ok(PagedLog {
            data,
            index,
            invocations,
            cache: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
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
    /// promotion path for statements that must mutate (DELETE, ZOOM,
    /// BUILD INDEX).
    pub fn decode_full(&self) -> Result<ProvGraph> {
        decode_graph(&self.data)
    }

    /// The record section as stored: record 0's first byte up to the
    /// invocation table.
    pub(crate) fn record_section(&self) -> &[u8] {
        &self.data[self.index.records_offset()..self.index.invocations_offset()]
    }

    /// Take over `old`'s fault cache, leaving it this log's (empty)
    /// one. Sound only when this log's first `old.node_count()` records
    /// are `old`'s records under the same ids — COMPACT's splice copies
    /// them verbatim. The flags byte, the one thing a splice patches,
    /// is not part of a [`Record`], so a node tombstoned since it was
    /// decoded cannot go stale here.
    pub(crate) fn take_fault_cache(&mut self, old: &mut PagedLog) {
        debug_assert!(old.index.node_count() <= self.index.node_count());
        std::mem::swap(&mut self.cache, &mut old.cache);
    }

    /// Fault in record `id`, consulting the cache first. The record's
    /// shard stays locked across the decode, so two threads racing on
    /// the same record decode it once; threads on different shards
    /// never contend.
    fn with_record<R>(&self, id: NodeId, f: impl FnOnce(&Record) -> R) -> Result<R> {
        let mut shard = self.cache[id.0 as usize % CACHE_SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(rec) = shard.get(&id.0) {
            return Ok(f(rec));
        }
        let range = self.index.record_range(id);
        let mut buf = self
            .data
            .get(range)
            .ok_or_else(|| StorageError::Corrupt(format!("record {id} out of file bounds")))?;
        if !buf.has_remaining() {
            return Err(StorageError::Corrupt(format!("empty record for {id}")));
        }
        let _flags = buf.get_u8();
        let role = get_role(&mut buf)?;
        let kind = get_kind(&mut buf)?;
        let preds = decode_pred_list(&mut buf, self.index.node_count())?;
        let rec = Record { kind, role, preds };
        self.faults.inc();
        self.faults_total.inc();
        let out = f(&rec);
        shard.insert(id.0, rec);
        Ok(out)
    }

    fn expect_record<R>(&self, id: NodeId, f: impl FnOnce(&Record) -> R) -> R {
        // GraphStore accessors are infallible (ids are minted by the
        // store); a record that fails to decode *after* the footer
        // validated its offsets is file corruption discovered late.
        self.with_record(id, f)
            .unwrap_or_else(|e| panic!("corrupt record {id}: {e}"))
    }

    /// Decode every record, verifying the whole file (used by tests and
    /// `proql`'s corruption checks).
    pub fn verify_all(&self) -> Result<()> {
        for i in 0..self.index.node_count() {
            self.with_record(NodeId(i as u32), |_| ())?;
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
        // The sharded fault cache: hash-table buckets (keyed u32 →
        // Record plus ~1 byte of control metadata per slot, the
        // std hashbrown layout) plus the decoded records' own heap.
        let slot = std::mem::size_of::<u32>() + std::mem::size_of::<Record>() + 1;
        let mut fault_cache = 0usize;
        for shard in self.cache.iter() {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            fault_cache += shard.capacity() * slot;
            fault_cache += shard
                .values()
                .map(|r| vec_alloc_bytes(&r.preds) + kind_heap_bytes(&r.kind))
                .sum::<usize>();
        }
        let invocations = vec_alloc_bytes(&self.invocations)
            + self
                .invocations
                .iter()
                .map(|i| i.module.len())
                .sum::<usize>();
        vec![
            ("raw_log", vec_alloc_bytes(&self.data)),
            ("footer_index", obs::HeapSize::heap_bytes(&self.index)),
            ("invocations", invocations),
            ("fault_cache", fault_cache),
        ]
    }
}

impl GraphStore for PagedLog {
    fn node_count(&self) -> usize {
        self.index.node_count()
    }

    fn is_visible(&self, id: NodeId) -> bool {
        self.index.is_visible(id)
    }

    fn visible_count(&self) -> usize {
        self.index.visible_count()
    }

    fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind> {
        Cow::Owned(self.expect_record(id, |r| r.kind.clone()))
    }

    fn role_of(&self, id: NodeId) -> Role {
        self.expect_record(id, |r| r.role)
    }

    fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        Cow::Owned(self.expect_record(id, |r| r.preds.clone()))
    }

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

    fn module_postings(&self, module: &str) -> Option<Vec<NodeId>> {
        Some(self.index.module_postings(module).to_vec())
    }

    fn kind_postings(&self, kind: &str) -> Option<Vec<NodeId>> {
        Some(self.index.kind_postings(kind).to_vec())
    }

    fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        obs::HeapSize::heap_breakdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{encode_graph, encode_graph_v2};
    use lipstick_core::query::{depends_on, traverse, Direction};
    use lipstick_core::store::expr_of_store;

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
            expr_of_store(&paged, NodeId(5)).to_string(),
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

    #[test]
    fn concurrent_readers_share_one_log() {
        let g = sample();
        let paged = PagedLog::from_bytes(encode_graph_v2(&g).unwrap()).unwrap();
        let n = paged.node_count();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..n {
                        let id = NodeId(i as u32);
                        let _ = paged.kind_of(id);
                        let _ = paged.role_of(id);
                        let _ = paged.preds_of(id);
                    }
                });
            }
        });
        // The shard lock is held across decode-and-insert, so racing
        // threads serialize on a record and decode it exactly once.
        assert_eq!(paged.faults(), n);
        let before = paged.faults();
        for i in 0..n {
            let _ = paged.kind_of(NodeId(i as u32));
        }
        assert_eq!(paged.faults(), before, "warm cache faults nothing");
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
    fn full_decode_of_v2_matches_v1_decode() {
        let g = sample();
        let v2 = decode_graph(&encode_graph_v2(&g).unwrap()).unwrap();
        assert_eq!(v2.visible_signature(), g.visible_signature());
    }
}
