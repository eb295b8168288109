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

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

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

/// One posting group as a [`FooterSource`] gives it.
#[derive(Debug)]
pub struct PostingGroup<'a> {
    pub name: &'a str,
    /// Ascending, all visible. An empty group is not written.
    pub ids: Cow<'a, [NodeId]>,
}

/// Posting groups by module and by kind, each list in ascending name
/// order with every name once.
#[derive(Debug)]
pub struct FooterPostings<'a> {
    pub by_module: Vec<PostingGroup<'a>>,
    pub by_kind: Vec<PostingGroup<'a>>,
}

/// What the footer is built from, besides the record offsets the
/// [`FooterWriter`] collected while the records were written. Two things
/// feed it: a [`ProvGraph`] being encoded, and `AppendLog`'s COMPACT,
/// which assembles the same answers from the sealed index it already
/// holds plus its overlay — both go through [`FooterWriter::finish`], so
/// the byte layout exists once. Rows and lists are lent where they can
/// be.
pub trait FooterSource {
    /// `ceil(node_count / 8)` bytes, bit i set = node i visible, padding
    /// bits clear.
    fn visibility(&self) -> Cow<'_, [u8]>;

    /// Node `id`'s successors. An ascending row is written as lent; any
    /// other is copied and sorted first.
    fn succs(&self, id: NodeId) -> Cow<'_, [NodeId]>;

    /// The visible nodes whose role names an invocation, grouped by that
    /// invocation's module, and every visible node grouped by
    /// [`lipstick_core::NodeKind::name`].
    fn postings(&self) -> FooterPostings<'_>;
}

impl FooterSource for ProvGraph {
    fn visibility(&self) -> Cow<'_, [u8]> {
        // Persisted graphs have no zoom-hidden nodes (the encoder
        // rejects active zooms), so visible = !deleted.
        let mut bitmap = vec![0u8; self.len().div_ceil(8)];
        for (id, _) in self.iter_visible() {
            bitmap[id.index() / 8] |= 1 << (id.index() % 8);
        }
        Cow::Owned(bitmap)
    }

    fn succs(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.node(id).succs())
    }

    /// The graph's own postings ([`ProvGraph::postings`]), so what a
    /// posting holds is defined once.
    fn postings(&self) -> FooterPostings<'_> {
        let postings = ProvGraph::postings(self);
        FooterPostings {
            by_module: by_name(postings.modules()),
            by_kind: by_name(postings.kinds()),
        }
    }
}

/// Lent lists as posting groups, in name order.
fn by_name<'a, 'n: 'a>(
    groups: impl Iterator<Item = (&'n str, &'a [NodeId])>,
) -> Vec<PostingGroup<'a>> {
    let mut groups: Vec<PostingGroup<'a>> = groups
        .map(|(name, ids)| PostingGroup {
            name,
            ids: Cow::Borrowed(ids),
        })
        .collect();
    groups.sort_unstable_by_key(|g| g.name);
    groups
}

/// The encoded record lengths and successor rows of a parsed footer,
/// lent from its file, for a splice to copy as they are.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SealedSections<'a> {
    /// Nodes the sections cover.
    pub(crate) nodes: usize,
    pub(crate) record_lens: &'a [u8],
    pub(crate) succ_rows: &'a [u8],
}

/// A footer prefix copied from a sealed one (see [`FooterWriter::splice`]).
struct Copied<'a> {
    sections: SealedSections<'a>,
    first_record: u64,
    /// Strictly ascending ids below `sections.nodes` whose row changed.
    rewritten: Vec<u32>,
}

/// Accumulates record offsets during encoding, then serializes the
/// footer and trailer.
pub struct FooterWriter<'a> {
    /// The start of every record announced, then (at finish) the end of
    /// the last.
    offsets: Vec<u64>,
    records_end: u64,
    copied: Option<Copied<'a>>,
}

impl<'a> FooterWriter<'a> {
    pub fn new(node_count: usize) -> FooterWriter<'a> {
        FooterWriter {
            offsets: Vec::with_capacity(node_count + 1),
            records_end: 0,
            copied: None,
        }
    }

    /// A footer whose first `sealed.nodes` nodes are a sealed footer's:
    /// their records were copied verbatim, record 0 now starting at
    /// `first_record`, so their lengths are copied too, and so is every
    /// successor row but the `rewritten` ones (strictly ascending), which
    /// [`FooterSource::succs`] answers afresh. Only the records after
    /// them are announced.
    pub(crate) fn splice(
        node_count: usize,
        sealed: SealedSections<'a>,
        first_record: u64,
        rewritten: Vec<u32>,
    ) -> FooterWriter<'a> {
        debug_assert!(rewritten.is_sorted_by(|a, b| a < b));
        FooterWriter {
            offsets: Vec::with_capacity(node_count.saturating_sub(sealed.nodes) + 1),
            records_end: 0,
            copied: Some(Copied {
                sections: sealed,
                first_record,
                rewritten,
            }),
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
        self.offsets.push(self.records_end);
        let copied = self.copied.as_ref();
        let sealed = copied.map_or(0, |c| c.sections.nodes);
        let n = sealed + self.offsets.len() - 1;

        let start = buf.len();
        put_len(buf, n);
        match copied {
            Some(c) => {
                put_u64(buf, c.first_record);
                buf.extend_from_slice(c.sections.record_lens);
            }
            None => put_u64(buf, self.offsets[0]),
        }
        for w in self.offsets.windows(2) {
            put_u64(buf, w[1] - w[0]);
        }

        let bitmap = source.visibility();
        debug_assert_eq!(bitmap.len(), n.div_ceil(8));
        buf.extend_from_slice(&bitmap);

        // Successor adjacency (sorted, delta-encoded).
        let mut scratch = Vec::new();
        if let Some(c) = copied {
            copy_rows(buf, c, source, &mut scratch);
        }
        for id in (0u32..).map(NodeId).take(n).skip(sealed) {
            put_row(buf, &source.succs(id), &mut scratch);
        }

        let postings = source.postings();
        put_postings(buf, &postings.by_module);
        put_postings(buf, &postings.by_kind);

        // Trailer.
        let footer_len = u64::try_from(buf.len() - start).unwrap_or(u64::MAX);
        buf.extend_from_slice(&footer_len.to_le_bytes());
        buf.extend_from_slice(FOOTER_MAGIC);
        buf.push(FOOTER_VERSION);
    }
}

/// The copied footer's successor rows: the sealed bytes, but for the
/// rewritten rows, which `source` answers.
fn copy_rows(
    buf: &mut Vec<u8>,
    copied: &Copied<'_>,
    source: &impl FooterSource,
    scratch: &mut Vec<NodeId>,
) {
    let rows = copied.sections.succ_rows;
    let (mut row, mut at) = (0u32, 0usize);
    for &changed in &copied.rewritten {
        let from = at;
        while row < changed {
            at = row_end(rows, at);
            row += 1;
        }
        buf.extend_from_slice(rows.get(from..at).unwrap_or_default());
        at = row_end(rows, at);
        row += 1;
        put_row(buf, &source.succs(NodeId(changed)), scratch);
    }
    buf.extend_from_slice(rows.get(at..).unwrap_or_default());
}

/// Where the encoded successor row starting at byte `at` of `rows`
/// ends. Run only over rows a parse accepted; anything else ends the
/// walk at the end of `rows`.
fn row_end(rows: &[u8], at: usize) -> usize {
    let mut r = Reader::new(rows.get(at..).unwrap_or_default());
    let Ok(count) = r.count() else {
        return rows.len();
    };
    for _ in 0..count {
        if r.var_u64().is_err() {
            return rows.len();
        }
    }
    rows.len() - r.remaining()
}

/// A successor row, sorted (a copy, only if it is not already).
fn put_row(buf: &mut Vec<u8>, row: &[NodeId], scratch: &mut Vec<NodeId>) {
    if row.is_sorted() {
        put_id_deltas(buf, row);
    } else {
        scratch.clear();
        scratch.extend_from_slice(row);
        scratch.sort_unstable();
        put_id_deltas(buf, scratch);
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
fn put_postings(buf: &mut Vec<u8>, groups: &[PostingGroup<'_>]) {
    let live = |g: &&PostingGroup<'_>| !g.ids.is_empty();
    put_len(buf, groups.iter().filter(live).count());
    for group in groups.iter().filter(live) {
        put_str(buf, group.name);
        put_id_deltas(buf, &group.ids);
    }
}

/// The parsed v2 footer: everything a lazy reader keeps resident.
#[derive(Debug, Clone)]
pub struct LogIndex {
    /// File offset of record 0.
    records_base: usize,
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
    /// File byte ranges of the encoded record lengths and successor
    /// rows, which a splice copies (see [`FooterWriter::splice`]).
    record_lens: Range<usize>,
    succ_rows: Range<usize>,
    /// Length of the footer payload.
    footer_len: usize,
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

/// Record offsets are `u32`s: a section end must stay below this.
const RECORD_SECTION_LIMIT: u64 = 1 << 32;

impl LogIndex {
    /// Parse the footer of a v2 log. `data` is the whole file;
    /// `node_count` comes from the header. Every structural claim the
    /// footer makes is validated against the file's bounds, so a
    /// truncated or garbled footer is an error, never a panic or an
    /// oversized allocation. Every list — record lengths, successor
    /// rows, postings — goes through one decoder, [`sums`].
    pub fn parse(data: &[u8], node_count: usize) -> Result<LogIndex> {
        let (footer_start, body_len) = locate_footer(data)?;
        let mut r = Reader::new(data.get(footer_start..body_len).unwrap_or_default());
        // The file offset of the next byte `r` reads.
        let at = |r: &Reader<'_>| body_len - r.remaining();

        let declared = r.var_u64()?;
        if usize::try_from(declared) != Ok(node_count) {
            return Err(StorageError::Corrupt(format!(
                "footer node count {declared} does not match header {node_count}"
            )));
        }
        let records_base = r.var_u64()?;
        let lens_start = at(&r);
        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0u32);
        let end = sums(
            &mut r,
            node_count,
            RECORD_SECTION_LIMIT,
            &mut offsets,
            |at| at,
            |_| too_large("record section"),
        )?;
        let record_lens = lens_start..at(&r);
        let records_base = records_within(records_base, end, footer_start)?;

        let bitmap_len = node_count.div_ceil(8);
        let visible = r.bytes(bitmap_len)?.to_vec();
        // `visible_count` is a popcount of the bitmap, so padding bits
        // past the last node must be clear for it to equal a sweep.
        let used_bits = node_count % 8;
        if used_bits != 0 && visible.last().is_some_and(|&b| b >> used_bits != 0) {
            return Err(StorageError::Corrupt(
                "visibility bitmap has bits set past the node count".into(),
            ));
        }
        let visible_count = popcount(&visible);

        // Ids must name a node, and fit the `u32` a `NodeId` holds.
        let id_limit =
            u64::try_from(node_count).map_or(RECORD_SECTION_LIMIT, |n| n.min(RECORD_SECTION_LIMIT));
        let rows_start = at(&r);
        let mut succ_starts = Vec::with_capacity(node_count + 1);
        let mut succ_ids = Vec::new();
        succ_starts.push(0u32);
        for _ in 0..node_count {
            let count = r.count()?;
            sums(&mut r, count, id_limit, &mut succ_ids, NodeId, |delta| {
                beyond("successor", node_count, delta)
            })?;
            let end = u32::try_from(succ_ids.len()).map_err(|_| too_large("successor table"))?;
            succ_starts.push(end);
        }
        let succ_rows = rows_start..at(&r);

        let module_postings = postings(&mut r, id_limit, node_count)?;
        let kind_postings = postings(&mut r, id_limit, node_count)?;
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
            record_lens,
            succ_rows,
            footer_len: body_len - footer_start,
        })
    }

    /// Number of node records.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Byte range of record `id` within the file.
    pub fn record_range(&self, id: NodeId) -> std::ops::Range<usize> {
        let base = self.records_offset();
        base + widen(self.offsets[id.index()])..base + widen(self.offsets[id.index() + 1])
    }

    /// Byte offset of record 0 (= [`LogIndex::invocations_offset`] on
    /// an empty log).
    pub(crate) fn records_offset(&self) -> usize {
        self.records_base
    }

    /// Byte offset where the invocation table starts.
    pub fn invocations_offset(&self) -> usize {
        // `offsets` always holds at least the section's end.
        self.records_offset() + self.offsets.last().map_or(0, |&end| widen(end))
    }

    /// Is node `id` visible (not tombstoned)?
    pub fn is_visible(&self, id: NodeId) -> bool {
        self.visible[id.index() / 8] & (1 << (id.index() % 8)) != 0
    }

    /// Successors of node `id` (raw adjacency; may include invisible
    /// nodes).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        let lo = widen(self.succ_starts[id.index()]);
        let hi = widen(self.succ_starts[id.index() + 1]);
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

    /// The encoded record lengths and successor rows, lent from `data`,
    /// the file this index was parsed from.
    pub(crate) fn sealed_sections<'a>(&self, data: &'a [u8]) -> Option<SealedSections<'a>> {
        Some(SealedSections {
            nodes: self.node_count(),
            record_lens: data.get(self.record_lens.clone())?,
            succ_rows: data.get(self.succ_rows.clone())?,
        })
    }

    /// Length of the footer payload in bytes, trailer excluded.
    pub(crate) fn footer_len(&self) -> usize {
        self.footer_len
    }
}

/// `(footer start, trailer start)`: where the trailer says the footer
/// payload lies, checked against the file.
fn locate_footer(data: &[u8]) -> Result<(usize, usize)> {
    let body_len = data
        .len()
        .checked_sub(TRAILER_LEN)
        .ok_or_else(|| StorageError::Corrupt("missing footer trailer".into()))?;
    let mut trailer = Reader::new(data.get(body_len..).unwrap_or_default());
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
    Ok((footer_start, body_len))
}

/// Record 0's file offset, once the record section it starts — `len`
/// bytes — is known to end before the footer does.
fn records_within(base: u64, len: u32, footer_start: usize) -> Result<usize> {
    let footer_start = u64::try_from(footer_start).unwrap_or(u64::MAX);
    base.checked_add(u64::from(len))
        .filter(|&end| end <= footer_start)
        .and_then(|_| usize::try_from(base).ok())
        .ok_or_else(|| StorageError::Corrupt("record offsets run past the footer".into()))
}

/// Set bits in a bitmap.
fn popcount(bitmap: &[u8]) -> usize {
    let ones: u64 = bitmap.iter().map(|b| u64::from(b.count_ones())).sum();
    usize::try_from(ones).unwrap_or(usize::MAX)
}

/// A stored `u32` offset as an index (lossless on every supported
/// target).
#[inline]
fn widen(x: u32) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// The id-list kernel every footer list goes through: `count` varints,
/// each a delta from the value before (from 0), whose running sums are
/// pushed onto `out` through `wrap`. A sum at or past `limit` (at most
/// 2³²) is the error `bad` builds from the delta. Returns the last sum.
#[inline(always)]
fn sums<T>(
    r: &mut Reader<'_>,
    count: usize,
    limit: u64,
    out: &mut Vec<T>,
    wrap: impl Fn(u32) -> T,
    bad: impl Fn(u64) -> StorageError,
) -> Result<u32> {
    let mut sum = 0u32;
    for _ in 0..count {
        let delta = r.var_u64()?;
        let next = u64::from(sum).saturating_add(delta);
        sum = match u32::try_from(next) {
            Ok(next32) if next < limit => next32,
            _ => return Err(bad(delta)),
        };
        out.push(wrap(sum));
    }
    Ok(sum)
}

/// One postings section: a group count, then per group a name and an
/// id list. A repeated name keeps its last list.
fn postings(
    r: &mut Reader<'_>,
    id_limit: u64,
    node_count: usize,
) -> Result<BTreeMap<String, Vec<NodeId>>> {
    let groups = r.count()?;
    let mut out = BTreeMap::new();
    for _ in 0..groups {
        let name = r.str()?;
        let count = r.count()?;
        let mut ids = Vec::with_capacity(count);
        sums(r, count, id_limit, &mut ids, NodeId, |delta| {
            beyond("posting", node_count, delta)
        })?;
        out.insert(name, ids);
    }
    Ok(out)
}

/// The index addresses records and successor entries with `u32`s.
#[cold]
#[inline(never)]
fn too_large(what: &str) -> StorageError {
    StorageError::Corrupt(format!("{what} of 4 GiB or more"))
}

/// An id delta that is no `u32`, or an id that names no node.
#[cold]
#[inline(never)]
fn beyond(what: &str, node_count: usize, delta: u64) -> StorageError {
    if u32::try_from(delta).is_err() {
        return StorageError::Corrupt(format!("value {delta} overflows 32-bit field"));
    }
    StorageError::Corrupt(format!("{what} id beyond node count {node_count}"))
}

/// The `Reader`-based parse `LogIndex::parse` replaced, kept as its
/// oracle: on every input both reject with the same error, or both
/// accept and build the same index.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use lipstick_core::obs::HeapSize;

    pub(crate) fn parse(data: &[u8], node_count: usize) -> Result<LogIndex> {
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
        let payload = &data[footer_start..body_len];
        let mut r = Reader::new(payload);
        let at = |r: &Reader<'_>| footer_start + payload.len() - r.remaining();

        let declared = r.var_u64()?;
        if usize::try_from(declared) != Ok(node_count) {
            return Err(StorageError::Corrupt(format!(
                "footer node count {declared} does not match header {node_count}"
            )));
        }
        let records_base = r.var_u64()?;
        let lens_start = at(&r);
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut end = 0u32;
        offsets.push(end);
        for _ in 0..node_count {
            end = u32::try_from(r.var_u64()?)
                .ok()
                .and_then(|len| end.checked_add(len))
                .ok_or_else(|| too_large("record section"))?;
            offsets.push(end);
        }
        let record_lens = lens_start..at(&r);
        if records_base
            .checked_add(u64::from(end))
            .is_none_or(|end| end > footer_start as u64)
        {
            return Err(StorageError::Corrupt(
                "record offsets run past the footer".into(),
            ));
        }

        let bitmap_len = node_count.div_ceil(8);
        let visible = r.bytes(bitmap_len)?.to_vec();
        let used_bits = node_count % 8;
        if used_bits != 0 && visible[bitmap_len - 1] >> used_bits != 0 {
            return Err(StorageError::Corrupt(
                "visibility bitmap has bits set past the node count".into(),
            ));
        }
        let visible_count = visible.iter().map(|b| b.count_ones() as usize).sum();

        let rows_start = at(&r);
        let mut succ_starts = Vec::with_capacity(node_count + 1);
        let mut succ_ids = Vec::new();
        succ_starts.push(0u32);
        for _ in 0..node_count {
            let count = r.count()?;
            push_id_deltas(&mut r, count, node_count, "successor", &mut succ_ids)?;
            let end = u32::try_from(succ_ids.len()).map_err(|_| too_large("successor table"))?;
            succ_starts.push(end);
        }
        let succ_rows = rows_start..at(&r);

        let module_postings = get_postings(&mut r, node_count)?;
        let kind_postings = get_postings(&mut r, node_count)?;
        r.finish("footer")?;
        Ok(LogIndex {
            records_base: records_base as usize,
            offsets,
            visible,
            visible_count,
            succ_starts,
            succ_ids,
            module_postings,
            kind_postings,
            record_lens,
            succ_rows,
            footer_len: payload.len(),
        })
    }

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

    fn get_postings(
        r: &mut Reader<'_>,
        node_count: usize,
    ) -> Result<BTreeMap<String, Vec<NodeId>>> {
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

    /// Both parsers over `data`: the same error, or the same index
    /// through every accessor, in the same allocations. Returns whether
    /// they accepted it.
    pub(crate) fn assert_agree(data: &[u8], node_count: usize) -> bool {
        match (LogIndex::parse(data, node_count), parse(data, node_count)) {
            (Ok(fast), Ok(oracle)) => {
                assert_same(&fast, &oracle);
                true
            }
            (Err(fast), Err(oracle)) => {
                assert_eq!(fast.to_string(), oracle.to_string());
                false
            }
            (fast, oracle) => panic!("the parsers disagree: {fast:?} against {oracle:?}"),
        }
    }

    fn assert_same(a: &LogIndex, b: &LogIndex) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.records_offset(), b.records_offset());
        assert_eq!(a.invocations_offset(), b.invocations_offset());
        assert_eq!(a.visible_count(), b.visible_count());
        assert_eq!(a.visibility(), b.visibility());
        for id in (0..a.node_count() as u32).map(NodeId) {
            assert_eq!(a.record_range(id), b.record_range(id), "record {id}");
            assert_eq!(a.is_visible(id), b.is_visible(id), "visibility of {id}");
            assert_eq!(a.succs(id), b.succs(id), "succs of {id}");
        }
        assert_eq!(a.all_module_postings(), b.all_module_postings());
        assert_eq!(a.all_kind_postings(), b.all_kind_postings());
        for name in a
            .all_module_postings()
            .keys()
            .map(String::as_str)
            .chain(["none"])
        {
            assert_eq!(a.module_postings(name), b.module_postings(name));
        }
        for name in a
            .all_kind_postings()
            .keys()
            .map(String::as_str)
            .chain(["none"])
        {
            assert_eq!(a.kind_postings(name), b.kind_postings(name));
        }
        assert_eq!(
            (&a.record_lens, &a.succ_rows, a.footer_len()),
            (&b.record_lens, &b.succ_rows, b.footer_len())
        );
        assert_eq!(a.heap_breakdown(), b.heap_breakdown(), "allocations");
    }
}

/// The storage integration tests' random graphs.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_graphs;

/// The decoder mutation fuzz's cases.
#[cfg(test)]
#[path = "../tests/common/fuzz_cases.rs"]
mod fuzz_cases;

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

    /// `tests/golden_format.rs`'s sample, built the same way: the v2
    /// log it pins is this graph's encoding (the hash is asserted).
    fn golden_sample() -> ProvGraph {
        use lipstick_core::agg::AggOp;
        use lipstick_core::graph::tracker::AggItemValue;
        use lipstick_core::graph::GraphTracker;
        use lipstick_core::query::{zoom_in, zoom_out};
        use lipstick_core::{NodeKind, Role, Tracker};
        use lipstick_nrel::{bag, tuple, Tuple, Value};
        use std::sync::Arc;

        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        let c2 = t.base("C2");
        let c3 = t.base(&"C".repeat(200));
        t.begin_invocation("Mdealer1", 0);
        let i = t.module_input(wi);
        let s2 = t.state_node(c2);
        let s3 = t.state_node(c3);
        let join = t.times(&[i, s2]);
        let grp = t.delta(&[join, s3]);
        let agg = t.agg(
            AggOp::Avg,
            &[
                (join, AggItemValue::Const(Value::Int(-3))),
                (s3, AggItemValue::Const(Value::Float(2.5))),
            ],
        );
        let bb = t.blackbox("CalcBid", &[grp, agg], true);
        let proj = t.plus(&[grp]);
        let out = t.module_output(proj, &[bb]);
        t.end_invocation();
        t.begin_invocation("Mzoomed", 70_000);
        let i2 = t.module_input(out);
        let x = t.times(&[i2]);
        let opaque = t.blackbox("Opaque", &[x], false);
        t.module_output(opaque, &[]);
        t.end_invocation();
        let mut g = t.finish();
        zoom_out(&mut g, &["Mzoomed"]).unwrap();
        zoom_in(&mut g, &["Mzoomed"]).unwrap();
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), Value::Bool(false));
        map.insert("z".to_string(), Value::str("v"));
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::str("héllo ⊗"),
            Value::Tuple(tuple![1i64, "a"]),
            Value::Bag(bag![tuple!["b", 2i64], Tuple::new(vec![])]),
            Value::Map(Arc::new(map)),
        ];
        let mut consts = Vec::new();
        for value in values {
            let c = g.add_node(NodeKind::Const { value }, Role::Free);
            let tensor = g.add_node(NodeKind::Tensor, Role::Free);
            g.add_edge(c, tensor);
            g.add_edge(tensor, agg);
            consts.push(c);
        }
        g.set_node_deleted(consts[3], true);
        g.set_node_deleted(s2, true);
        g
    }

    /// The golden sample grown past three-byte ids, some tombstoned.
    fn large_graph() -> ProvGraph {
        let mut g = golden_sample();
        let mut prev = NodeId(1);
        for k in 0..20_000u32 {
            let n = g.add_plus(&[prev]);
            if k % 7 == 0 {
                g.set_node_deleted(n, true);
            }
            if k % 5000 == 0 {
                prev = n;
            }
        }
        g
    }

    /// The parsers agree on whole encodings, on every truncation and on
    /// every single-bit flip of a footer.
    #[test]
    fn parsers_agree_on_every_cut_and_bit_flip() {
        let golden = golden_sample();
        let pinned = encode_graph_v2(&golden).unwrap();
        assert_eq!(
            (pinned.len(), lipstick_core::obs::fnv1a64(&pinned)),
            (894, 0xa92f_b734_b79b_e0b8),
            "the golden v2 log"
        );
        for g in [small_graph(), workflow_sample(), golden] {
            let bytes = encode_graph_v2(&g).unwrap();
            assert!(reference::assert_agree(&bytes, g.len()));
            let footer_start = LogIndex::parse(&bytes, g.len()).unwrap().records_offset();
            for cut in 0..bytes.len() {
                assert!(!reference::assert_agree(&bytes[..cut], g.len()) || cut == bytes.len());
            }
            for at in footer_start..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    reference::assert_agree(&flipped, g.len());
                }
            }
        }
        let g = large_graph();
        assert!(reference::assert_agree(
            &encode_graph_v2(&g).unwrap(),
            g.len()
        ));
    }

    /// A small workflow graph with two invocations and a tombstone.
    fn workflow_sample() -> ProvGraph {
        let mut g = test_graphs::random_graph(7);
        let a = g.add_base("a");
        g.add_plus(&[a]);
        g
    }

    /// The parsers agree on `random_graph` encodings and on every log
    /// `tests/decoder_fuzz.rs` mutates from them: both draw their cases
    /// from `fuzz_cases`.
    #[test]
    fn parsers_agree_on_every_decoder_fuzz_input() {
        use crate::log::read_header;

        let agree_as_read = |bytes: &[u8], node_count: usize| {
            reference::assert_agree(bytes, node_count);
            if let Ok(header) = read_header(bytes) {
                reference::assert_agree(bytes, header.node_count);
            }
        };
        for mut case in fuzz_cases::cases(test_graphs::random_graph) {
            let n = case.graph.len();
            assert!(reference::assert_agree(&case.v2, n), "seed {}", case.seed);
            for _ in 0..fuzz_cases::MUTATIONS {
                case.round(|log| agree_as_read(log, n), |_, _, _| {});
            }
        }
    }

    /// A COMPACT's spliced footer parses the same way through both: the
    /// golden tail (a fragment, a deletion, a zoom pair; its hash is
    /// asserted) folded into the golden log, then into a large one.
    #[test]
    fn parsers_agree_on_compacted_footers() {
        use crate::append::AppendLog;
        use crate::io::{FaultIo, StorageIo};
        use crate::log::write_graph_v2_io;
        use lipstick_core::query::plan_zoom_out;
        use lipstick_core::store::GraphStore;
        use std::path::Path;
        use std::sync::Arc;

        for (base, tail_pin) in [
            (golden_sample(), Some((640, 0x02d7_4cae_e959_7a46))),
            (large_graph(), None),
        ] {
            let io = FaultIo::new();
            let path = Path::new("/golden/sample.lpstk");
            write_graph_v2_io(&base, path, &io).unwrap();
            io.sync(path).unwrap();
            let mut log = AppendLog::open_with_io(path, Arc::new(io.clone())).unwrap();
            log.commit_fragment(&golden_sample()).unwrap();
            let n = base.len() as u32;
            log.commit_tombstones(&[NodeId(1), NodeId(n + 2)]).unwrap();
            let plans = plan_zoom_out(&log, &["Mdealer1"], &[], log.stash_count()).unwrap();
            log.commit_zoom_out(plans).unwrap();
            log.commit_zoom_in(&["Mdealer1".to_string()]).unwrap();
            if let Some(pin) = tail_pin {
                let tail = io.contents(Path::new("/golden/sample.lpstk.tail")).unwrap();
                assert_eq!(
                    (tail.len(), lipstick_core::obs::fnv1a64(&tail)),
                    pin,
                    "the golden tail"
                );
            }
            let nodes = log.node_count();
            log.compact().unwrap();
            assert!(reference::assert_agree(&io.contents(path).unwrap(), nodes));
        }
    }
}
