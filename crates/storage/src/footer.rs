//! The v2 node-table footer: per-record byte offsets, a visibility
//! bitmap, successor adjacency, and module/kind postings, terminated by
//! a fixed-width trailer.
//!
//! Layout appended after the v1-compatible body (all integers varint
//! unless noted):
//!
//! ```text
//! footer payload:
//!   node_count                 (must match the header's)
//!   first_record_offset        byte offset of record 0
//!   per node: record_len       (offsets reconstruct by prefix sum)
//!   visible bitmap             ceil(node_count / 8) bytes, bit i = visible
//!   per node: succ_count, succ id deltas   (successor adjacency, sorted)
//!   module_count
//!   per module: name, id_count, id deltas  (visible nodes owned by the
//!                                           module's invocations)
//!   kind_count
//!   per kind: name, id_count, id deltas    (visible nodes of that kind)
//! trailer (fixed width, little-endian):
//!   footer_len  u64            length of the payload above
//!   magic       "LPIX"         4 bytes
//!   version     u8             currently 1
//! ```
//!
//! Readers locate the footer from the end of the file: verify the
//! 13-byte trailer, then parse `footer_len` bytes before it. The
//! postings cover only *visible* nodes, so a postings-driven scan never
//! faults a tombstone's record. Successor lists are raw adjacency
//! (edges to invisible nodes included), matching the resident graph's
//! `succs()` — traversals filter by visibility, exactly as they do in
//! memory.

use std::collections::BTreeMap;

use lipstick_core::{NodeId, ProvGraph};

use crate::error::{Result, StorageError};
use crate::reader::Reader;
use crate::varint::{put_len, put_str, put_u64};

/// Magic bytes of the footer trailer.
pub const FOOTER_MAGIC: &[u8; 4] = b"LPIX";
/// Footer layout version.
pub const FOOTER_VERSION: u8 = 1;
/// Fixed trailer width: footer_len (8) + magic (4) + version (1).
pub const TRAILER_LEN: usize = 13;

/// Visible node ids grouped by name, each group ascending.
pub type Postings<'a> = BTreeMap<&'a str, Vec<NodeId>>;

/// What the footer is built from, besides the record offsets the
/// [`FooterWriter`] collected while the records were written. Two things
/// feed it: a [`ProvGraph`] being encoded, and `AppendLog`'s COMPACT,
/// which assembles the same answers from the sealed index it already
/// holds plus its overlay — both go through [`FooterWriter::finish`], so
/// the byte layout exists once.
pub trait FooterSource {
    /// `ceil(node_count / 8)` bytes, bit i set = node i visible, padding
    /// bits clear.
    fn visibility(&self) -> Vec<u8>;

    /// Append node `id`'s successors to `out`, in any order (the writer
    /// sorts them).
    fn succs_into(&self, id: NodeId, out: &mut Vec<NodeId>);

    /// `(by module, by kind)`: the visible nodes whose role names an
    /// invocation, grouped by that invocation's module, and every
    /// visible node grouped by [`lipstick_core::NodeKind::name`].
    fn postings(&self) -> (Postings<'_>, Postings<'_>);
}

impl FooterSource for ProvGraph {
    fn visibility(&self) -> Vec<u8> {
        // Persisted graphs have no zoom-hidden nodes (the encoder
        // rejects active zooms), so visible = !deleted.
        let mut bitmap = vec![0u8; self.len().div_ceil(8)];
        for (id, _) in self.iter_visible() {
            bitmap[id.index() / 8] |= 1 << (id.index() % 8);
        }
        bitmap
    }

    fn succs_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.extend_from_slice(self.node(id).succs());
    }

    /// The graph's own postings ([`ProvGraph::postings`]), so what a
    /// posting holds is defined once.
    fn postings(&self) -> (Postings<'_>, Postings<'_>) {
        let postings = ProvGraph::postings(self);
        (
            postings
                .modules()
                .map(|(m, ids)| (m, ids.to_vec()))
                .collect(),
            postings.kinds().map(|(k, ids)| (k, ids.to_vec())).collect(),
        )
    }
}

/// Accumulates record offsets during encoding, then serializes the
/// footer and trailer.
pub struct FooterWriter {
    offsets: Vec<u64>,
    records_end: u64,
}

impl FooterWriter {
    pub fn new(node_count: usize) -> FooterWriter {
        FooterWriter {
            offsets: Vec::with_capacity(node_count + 1),
            records_end: 0,
        }
    }

    /// Record that the next node record starts at `offset`.
    pub fn record_starts_at(&mut self, offset: u64) {
        self.offsets.push(offset);
    }

    /// Record where the last node record ends (= start of the
    /// invocation table).
    pub fn records_end_at(&mut self, offset: u64) {
        self.records_end = offset;
    }

    /// Serialize the footer payload and trailer onto `buf` — the only
    /// place the footer's byte layout is written.
    pub fn finish(mut self, source: &impl FooterSource, buf: &mut Vec<u8>) {
        let n = self.offsets.len();
        self.offsets.push(self.records_end);

        let start = buf.len();
        put_len(buf, n);
        put_u64(buf, self.offsets[0]);
        for w in self.offsets.windows(2) {
            put_u64(buf, w[1] - w[0]);
        }

        let bitmap = source.visibility();
        debug_assert_eq!(bitmap.len(), n.div_ceil(8));
        buf.extend_from_slice(&bitmap);

        // Successor adjacency (sorted, delta-encoded).
        let mut succs: Vec<NodeId> = Vec::new();
        for i in 0..n {
            succs.clear();
            source.succs_into(NodeId(i as u32), &mut succs);
            succs.sort_unstable();
            put_id_deltas(buf, &succs);
        }

        let (by_module, by_kind) = source.postings();
        put_postings(buf, by_module);
        put_postings(buf, by_kind);

        // Trailer.
        let footer_len = (buf.len() - start) as u64;
        buf.extend_from_slice(&footer_len.to_le_bytes());
        buf.extend_from_slice(FOOTER_MAGIC);
        buf.push(FOOTER_VERSION);
    }
}

/// A count, then the ascending ids as deltas.
fn put_id_deltas(buf: &mut Vec<u8>, ids: &[NodeId]) {
    put_len(buf, ids.len());
    let mut prev = 0u32;
    for id in ids {
        put_u64(buf, u64::from(id.0 - prev));
        prev = id.0;
    }
}

/// Postings cover visible nodes only, so a name none of whose nodes is
/// visible has no group.
fn put_postings(buf: &mut Vec<u8>, mut groups: Postings<'_>) {
    groups.retain(|_, ids| !ids.is_empty());
    put_len(buf, groups.len());
    for (name, ids) in &groups {
        put_str(buf, name);
        put_id_deltas(buf, ids);
    }
}

/// The parsed v2 footer: everything a lazy reader keeps resident.
#[derive(Debug, Clone)]
pub struct LogIndex {
    /// File offset of record 0.
    records_base: u64,
    /// `node_count + 1` entries: byte offset of each record *within the
    /// record section* (entry 0 is 0), then the section's length — half
    /// the width of file offsets, on the footer's largest per-node
    /// table after the CSR. `parse` rejects a section of 4 GiB or more.
    offsets: Vec<u32>,
    /// Bit i set = node i visible (not tombstoned).
    visible: Vec<u8>,
    /// Popcount of `visible`, taken once at parse (the index is
    /// immutable).
    visible_count: usize,
    /// CSR successor adjacency.
    succ_starts: Vec<u32>,
    succ_ids: Vec<NodeId>,
    module_postings: BTreeMap<String, Vec<NodeId>>,
    kind_postings: BTreeMap<String, Vec<NodeId>>,
}

impl lipstick_core::obs::HeapSize for LogIndex {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        use lipstick_core::obs::vec_alloc_bytes;
        let entry = std::mem::size_of::<(String, Vec<NodeId>)>();
        let postings: usize = self
            .module_postings
            .iter()
            .chain(self.kind_postings.iter())
            .map(|(k, v)| entry + k.len() + vec_alloc_bytes(v))
            .sum();
        vec![
            ("record_offsets", vec_alloc_bytes(&self.offsets)),
            ("visibility_bitmap", vec_alloc_bytes(&self.visible)),
            (
                "successor_csr",
                vec_alloc_bytes(&self.succ_starts) + vec_alloc_bytes(&self.succ_ids),
            ),
            ("postings", postings),
        ]
    }
}

impl LogIndex {
    /// Parse the footer of a v2 log. `data` is the whole file;
    /// `node_count` comes from the header. Every structural claim the
    /// footer makes is validated against the file's bounds, so a
    /// truncated or garbled footer is an error, never a panic or an
    /// oversized allocation.
    pub fn parse(data: &[u8], node_count: usize) -> Result<LogIndex> {
        let body_len = data
            .len()
            .checked_sub(TRAILER_LEN)
            .ok_or_else(|| StorageError::Corrupt("missing footer trailer".into()))?;
        let mut trailer = Reader::new(&data[body_len..]);
        let footer_len = trailer.u64_le()?;
        if trailer.bytes(FOOTER_MAGIC.len())? != FOOTER_MAGIC {
            return Err(StorageError::Corrupt("bad footer magic".into()));
        }
        let version = trailer.u8()?;
        if version != FOOTER_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported footer version {version}"
            )));
        }
        let footer_start = usize::try_from(footer_len)
            .ok()
            .and_then(|len| body_len.checked_sub(len))
            .ok_or_else(|| {
                StorageError::Corrupt(format!("footer length {footer_len} exceeds file size"))
            })?;
        let mut r = Reader::new(&data[footer_start..body_len]);

        let declared = r.var_u64()?;
        if usize::try_from(declared) != Ok(node_count) {
            return Err(StorageError::Corrupt(format!(
                "footer node count {declared} does not match header {node_count}"
            )));
        }
        let records_base = r.var_u64()?;
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut at = 0u32;
        offsets.push(at);
        for _ in 0..node_count {
            at = u32::try_from(r.var_u64()?)
                .ok()
                .and_then(|len| at.checked_add(len))
                .ok_or_else(|| too_large("record section"))?;
            offsets.push(at);
        }
        if records_base
            .checked_add(u64::from(at))
            .is_none_or(|end| end > footer_start as u64)
        {
            return Err(StorageError::Corrupt(
                "record offsets run past the footer".into(),
            ));
        }

        let bitmap_len = node_count.div_ceil(8);
        let visible = r.bytes(bitmap_len)?.to_vec();
        // `visible_count` is a popcount of the bitmap, so padding bits
        // past the last node must be clear for it to equal a sweep.
        let used_bits = node_count % 8;
        if used_bits != 0 && visible[bitmap_len - 1] >> used_bits != 0 {
            return Err(StorageError::Corrupt(
                "visibility bitmap has bits set past the node count".into(),
            ));
        }
        let visible_count = visible.iter().map(|b| b.count_ones() as usize).sum();

        let mut succ_starts = Vec::with_capacity(node_count + 1);
        let mut succ_ids = Vec::new();
        succ_starts.push(0u32);
        for _ in 0..node_count {
            let count = r.count()?;
            push_id_deltas(&mut r, count, node_count, "successor", &mut succ_ids)?;
            let end = u32::try_from(succ_ids.len()).map_err(|_| too_large("successor table"))?;
            succ_starts.push(end);
        }

        let module_postings = get_postings(&mut r, node_count)?;
        let kind_postings = get_postings(&mut r, node_count)?;
        r.finish("footer")?;
        Ok(LogIndex {
            records_base,
            offsets,
            visible,
            visible_count,
            succ_starts,
            succ_ids,
            module_postings,
            kind_postings,
        })
    }

    /// Number of node records.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Byte range of record `id` within the file.
    pub fn record_range(&self, id: NodeId) -> std::ops::Range<usize> {
        let base = self.records_offset();
        base + self.offsets[id.index()] as usize..base + self.offsets[id.index() + 1] as usize
    }

    /// Byte offset of record 0 (= [`LogIndex::invocations_offset`] on
    /// an empty log).
    pub(crate) fn records_offset(&self) -> usize {
        self.records_base as usize
    }

    /// Byte offset where the invocation table starts.
    pub fn invocations_offset(&self) -> usize {
        // `offsets` always holds at least the section's end.
        self.records_offset() + self.offsets.last().map_or(0, |&end| end as usize)
    }

    /// Is node `id` visible (not tombstoned)?
    pub fn is_visible(&self, id: NodeId) -> bool {
        self.visible[id.index() / 8] & (1 << (id.index() % 8)) != 0
    }

    /// Successors of node `id` (raw adjacency; may include invisible
    /// nodes).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        let lo = self.succ_starts[id.index()] as usize;
        let hi = self.succ_starts[id.index() + 1] as usize;
        &self.succ_ids[lo..hi]
    }

    /// Visible nodes owned by the module's invocations (empty slice if
    /// the module is unknown).
    pub fn module_postings(&self, module: &str) -> &[NodeId] {
        self.module_postings.get(module).map_or(&[], Vec::as_slice)
    }

    /// Visible nodes of the given kind name.
    pub fn kind_postings(&self, kind: &str) -> &[NodeId] {
        self.kind_postings.get(kind).map_or(&[], Vec::as_slice)
    }

    /// Count of visible nodes (the bitmap's popcount).
    pub fn visible_count(&self) -> usize {
        self.visible_count
    }

    /// The visibility bitmap as stored (bit i = node i visible).
    pub(crate) fn visibility(&self) -> &[u8] {
        &self.visible
    }

    /// Every module's postings, by name.
    pub(crate) fn all_module_postings(&self) -> &BTreeMap<String, Vec<NodeId>> {
        &self.module_postings
    }

    /// Every kind's postings, by name.
    pub(crate) fn all_kind_postings(&self) -> &BTreeMap<String, Vec<NodeId>> {
        &self.kind_postings
    }
}

/// The index addresses records and successor entries with `u32`s.
fn too_large(what: &str) -> StorageError {
    StorageError::Corrupt(format!("{what} of 4 GiB or more"))
}

/// Read the `count` ascending ids, written as deltas, that follow a
/// count [`put_id_deltas`] wrote, onto `out`; each is checked against
/// the node count.
#[inline]
fn push_id_deltas(
    r: &mut Reader<'_>,
    count: usize,
    node_count: usize,
    what: &str,
    out: &mut Vec<NodeId>,
) -> Result<()> {
    let mut prev = 0u32;
    for _ in 0..count {
        prev = prev
            .checked_add(r.var_u32()?)
            .filter(|&id| (id as usize) < node_count)
            .ok_or_else(|| {
                StorageError::Corrupt(format!("{what} id beyond node count {node_count}"))
            })?;
        out.push(NodeId(prev));
    }
    Ok(())
}

fn get_postings(r: &mut Reader<'_>, node_count: usize) -> Result<BTreeMap<String, Vec<NodeId>>> {
    let groups = r.count()?;
    let mut out = BTreeMap::new();
    for _ in 0..groups {
        let name = r.str()?;
        let count = r.count()?;
        let mut ids = Vec::with_capacity(count);
        push_id_deltas(r, count, node_count, "posting", &mut ids)?;
        out.insert(name, ids);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::encode_graph_v2;

    fn small_graph() -> ProvGraph {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        g.add_plus(&[t]);
        g
    }

    #[test]
    fn footer_round_trips_offsets_and_succs() {
        let g = small_graph();
        let bytes = encode_graph_v2(&g).unwrap();
        let index = LogIndex::parse(&bytes, g.len()).unwrap();
        assert_eq!(index.node_count(), g.len());
        for (id, node) in g.iter() {
            assert_eq!(index.is_visible(id), node.is_visible());
            let mut expect: Vec<NodeId> = node.succs().to_vec();
            expect.sort();
            assert_eq!(index.succs(id), expect.as_slice(), "succs of {id}");
            assert!(!index.record_range(id).is_empty());
        }
        assert_eq!(index.visible_count(), g.visible_count());
    }

    #[test]
    fn bitmap_padding_bits_are_rejected() {
        // 4 nodes: one bitmap byte whose high nibble is padding. It
        // follows node_count, first_record_offset and four record_len
        // varints, one byte each on this graph.
        let g = small_graph();
        let mut bytes = encode_graph_v2(&g).unwrap();
        let trailer = bytes.len() - TRAILER_LEN;
        let footer_len =
            u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let bitmap_at = trailer - footer_len + 6;
        assert_eq!(bytes[bitmap_at], 0b1111);
        bytes[bitmap_at] |= 0b1_0000;
        assert!(LogIndex::parse(&bytes, g.len()).is_err());
    }

    #[test]
    fn record_section_of_4_gib_is_rejected() {
        // A footer whose record lengths sum past what a u32 offset can
        // address, without the 4 GiB of records: `parse` must say so
        // before it looks for them.
        let g = small_graph();
        let footer = |records_end: u64| {
            let mut w = FooterWriter::new(g.len());
            for i in 0..g.len() as u64 {
                w.record_starts_at(8 + i);
            }
            w.records_end_at(records_end);
            let mut bytes = vec![0u8; 8];
            w.finish(&g, &mut bytes);
            LogIndex::parse(&bytes, g.len())
        };
        let err = footer(8 + (1 << 32)).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("4 GiB")),
            "{err}"
        );
        // One byte less fits the offsets and fails on the file's bounds.
        let err = footer(8 + u64::from(u32::MAX)).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("run past the footer")),
            "{err}"
        );
    }

    #[test]
    fn postings_cover_visible_kinds() {
        let g = small_graph();
        let bytes = encode_graph_v2(&g).unwrap();
        let index = LogIndex::parse(&bytes, g.len()).unwrap();
        assert_eq!(index.kind_postings("base_tuple").len(), 2);
        assert_eq!(index.kind_postings("times").len(), 1);
        assert_eq!(index.kind_postings("plus").len(), 1);
        assert!(index.kind_postings("delta").is_empty());
        assert!(index.module_postings("nope").is_empty());
    }

    #[test]
    fn truncated_footer_is_error_not_panic() {
        let g = small_graph();
        let bytes = encode_graph_v2(&g).unwrap();
        for cut in [0, 5, TRAILER_LEN - 1, bytes.len() - 4, bytes.len() - 1] {
            assert!(
                LogIndex::parse(&bytes[..cut], g.len()).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn garbled_trailer_magic_is_error() {
        let g = small_graph();
        let mut bytes = encode_graph_v2(&g).unwrap();
        let at = bytes.len() - 3; // inside "LPIX"
        bytes[at] ^= 0xff;
        assert!(LogIndex::parse(&bytes, g.len()).is_err());
    }

    #[test]
    fn oversized_footer_len_is_error() {
        let g = small_graph();
        let mut bytes = encode_graph_v2(&g).unwrap();
        let at = bytes.len() - TRAILER_LEN;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(LogIndex::parse(&bytes, g.len()).is_err());
    }
}
