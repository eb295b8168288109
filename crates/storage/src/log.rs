//! The provenance log: graph serialization and loading.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! magic  "LPSTK"          5 bytes
//! version u8              currently 1
//! node_count
//! per node (in id order):
//!   flags u8              bit0 = deleted tombstone
//!   role                  tag + optional invocation id
//!   kind                  tag + payload
//!   pred_count, pred ids  (edges are stored once, as predecessors)
//! invocation_count
//! per invocation: module string, execution, m-node id
//! ```
//!
//! Figure 6 of the paper measures exactly this path: reading
//! provenance-annotated data from disk and building the in-memory
//! graph.

use std::path::Path;

use bytes::{Buf, BufMut, Bytes};
use lipstick_core::{NodeId, ProvGraph};

use crate::codec::{get_kind, get_role, put_kind, put_retired_zoom, put_role};
use crate::error::{Result, StorageError};
use crate::footer::FooterWriter;
use crate::io::{default_io, StorageIo};
use crate::varint::{get_count, get_str, get_u32, put_str, put_u64};
use lipstick_core::graph::{InvocationInfo, RETIRED_STASH};
use lipstick_core::{NodeKind, Role};

pub(crate) const MAGIC: &[u8; 5] = b"LPSTK";
/// Original format: header + records + invocation table, full decode
/// only.
pub const VERSION_V1: u8 = 1;
/// Footer-indexed format: identical records, plus a trailing
/// [`crate::footer::LogIndex`] enabling lazy per-record reads.
pub const VERSION_V2: u8 = 2;

/// Serialize a graph to bytes.
///
/// Graphs with active ZoomOuts are rejected: zoom is a query-time view;
/// persist the underlying graph (ZoomIn first) and re-apply zooming
/// after loading.
pub fn encode_graph(graph: &ProvGraph) -> Result<Vec<u8>> {
    encode_graph_versioned(graph, VERSION_V1)
}

/// Serialize a graph in the v2 indexed format: the same records as v1
/// followed by a node-table footer ([`crate::footer::LogIndex`]) that
/// lets readers fault in individual records without a full decode.
pub fn encode_graph_v2(graph: &ProvGraph) -> Result<Vec<u8>> {
    encode_graph_versioned(graph, VERSION_V2)
}

fn encode_graph_versioned(graph: &ProvGraph, version: u8) -> Result<Vec<u8>> {
    let zoomed: Vec<String> = graph
        .zoomed_out_modules()
        .into_iter()
        .map(String::from)
        .collect();
    if !zoomed.is_empty() {
        return Err(StorageError::ZoomedGraph(zoomed));
    }
    let mut buf = Vec::with_capacity(64 + graph.len() * 16);
    put_header(&mut buf, version, graph.len());
    let mut footer = FooterWriter::new(graph.len());
    for (_, node) in graph.iter() {
        footer.record_starts_at(buf.len() as u64);
        put_record(
            &mut buf,
            node.is_deleted(),
            &node.role,
            &node.kind,
            node.preds(),
        )?;
    }
    footer.records_end_at(buf.len() as u64);
    put_invocations(&mut buf, graph.invocations());
    if version == VERSION_V2 {
        footer.finish(graph, &mut buf);
    }
    Ok(buf)
}

/// The file header: magic, format version, node count.
pub(crate) fn put_header(buf: &mut Vec<u8>, version: u8, node_count: usize) {
    buf.put_slice(MAGIC);
    buf.put_u8(version);
    put_u64(buf, node_count as u64);
}

/// One node record: flags byte (bit0 = deleted tombstone), role, kind,
/// predecessor list.
pub(crate) fn put_record(
    buf: &mut Vec<u8>,
    deleted: bool,
    role: &Role,
    kind: &NodeKind,
    preds: &[NodeId],
) -> Result<()> {
    buf.put_u8(u8::from(deleted));
    put_role(buf, role);
    // Composite zoom nodes retired by ZoomIn stay in the arena as
    // unlinked tombstones; persist them as such so a graph that
    // went through a zoom cycle remains storable.
    if let NodeKind::Zoomed { stash } = *kind {
        if !deleted {
            // Unreachable once active zooms are rejected (both callers
            // do), but kept as a hard invariant.
            return Err(StorageError::Corrupt(
                "zoomed composite nodes are views and cannot be persisted".into(),
            ));
        }
        if stash != RETIRED_STASH {
            // A dead composite must carry the reserved sentinel
            // (ZoomIn remaps it); a live index here would decode to
            // a different kind than was encoded.
            return Err(StorageError::Corrupt(format!(
                "retired zoom composite carries live stash index {stash}"
            )));
        }
        put_retired_zoom(buf);
    } else {
        put_kind(buf, kind)?;
    }
    put_u64(buf, preds.len() as u64);
    for p in preds {
        put_u64(buf, u64::from(p.0));
    }
    Ok(())
}

/// The invocation table that follows the record section.
pub(crate) fn put_invocations(buf: &mut Vec<u8>, invocations: &[InvocationInfo]) {
    put_u64(buf, invocations.len() as u64);
    for info in invocations {
        put_str(buf, &info.module);
        put_u64(buf, u64::from(info.execution));
        put_u64(buf, u64::from(info.m_node.0));
    }
}

/// The format version of an encoded log, if the header is recognisable
/// (`None` = not a Lipstick provenance file). Lets callers choose
/// between a full decode and a lazy open without reading twice.
pub fn log_version(data: &[u8]) -> Option<u8> {
    if data.len() >= 6 && &data[..5] == MAGIC {
        Some(data[5])
    } else {
        None
    }
}

/// Decode the invocation table section (shared by the full loader and
/// the paged reader).
pub(crate) fn decode_invocations(
    buf: &mut impl Buf,
    node_count: usize,
) -> Result<Vec<InvocationInfo>> {
    let inv_count = get_count(buf)?;
    let mut invocations = Vec::with_capacity(inv_count);
    for _ in 0..inv_count {
        let module = get_str(buf)?;
        let execution = get_u32(buf)?;
        let m_node = get_u32(buf)?;
        if m_node as usize >= node_count {
            return Err(StorageError::Corrupt(format!(
                "invocation m-node {m_node} beyond node count"
            )));
        }
        invocations.push(InvocationInfo {
            module,
            execution,
            m_node: NodeId(m_node),
        });
    }
    Ok(invocations)
}

/// Deserialize a graph from bytes.
pub fn decode_graph(bytes: &[u8]) -> Result<ProvGraph> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < 6 {
        return Err(StorageError::BadMagic);
    }
    let mut magic = [0u8; 5];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION_V1 && version != VERSION_V2 {
        return Err(StorageError::BadVersion(version));
    }
    // v2 records are identical to v1; the sequential decode simply
    // stops before the trailing footer, which only lazy readers parse.
    let node_count = get_count(&mut buf)?;
    let mut graph = ProvGraph::new();
    // First pass: create nodes; collect pred lists.
    let mut pred_lists: Vec<Vec<NodeId>> = Vec::with_capacity(node_count);
    let mut deleted_flags: Vec<bool> = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        if !buf.has_remaining() {
            return Err(StorageError::Corrupt("truncated node record".into()));
        }
        let flags = buf.get_u8();
        let role = get_role(&mut buf)?;
        let kind = get_kind(&mut buf)?;
        let preds = decode_pred_list(&mut buf, node_count)?;
        graph.add_node(kind, role);
        pred_lists.push(preds);
        deleted_flags.push(flags & 1 != 0);
    }
    // Second pass: edges (both directions) and tombstones.
    for (idx, preds) in pred_lists.into_iter().enumerate() {
        let to = NodeId(idx as u32);
        for from in preds {
            if from == to {
                return Err(StorageError::Corrupt(format!("self-loop on node {idx}")));
            }
            graph.add_edge(from, to);
        }
    }
    for (idx, deleted) in deleted_flags.into_iter().enumerate() {
        if deleted {
            graph.set_node_deleted(NodeId(idx as u32), true);
        }
    }
    for info in decode_invocations(&mut buf, node_count)? {
        graph.register_invocation(info.module, info.execution, info.m_node);
    }
    Ok(graph)
}

/// Decode one record's predecessor list, validating ids against the
/// node count.
pub(crate) fn decode_pred_list(buf: &mut impl Buf, node_count: usize) -> Result<Vec<NodeId>> {
    let pred_count = get_count(buf)?;
    let mut preds = Vec::with_capacity(pred_count);
    for _ in 0..pred_count {
        let p = get_u32(buf)?;
        if p as usize >= node_count {
            return Err(StorageError::Corrupt(format!(
                "edge references node {p} beyond node count {node_count}"
            )));
        }
        preds.push(NodeId(p));
    }
    Ok(preds)
}

/// Write a graph to a file.
pub fn write_graph(graph: &ProvGraph, path: impl AsRef<Path>) -> Result<()> {
    default_io().create(path.as_ref(), &encode_graph(graph)?)?;
    Ok(())
}

/// Write a graph to a file in the v2 indexed format (see
/// [`encode_graph_v2`]).
pub fn write_graph_v2(graph: &ProvGraph, path: impl AsRef<Path>) -> Result<()> {
    write_graph_v2_io(graph, path.as_ref(), default_io().as_ref())
}

/// [`write_graph_v2`] through an explicit IO implementation. Writes the
/// bytes but does *not* sync — callers needing durability (COMPACT's
/// temp segment) issue the sync themselves, so it stays a distinct
/// injectable fault point.
pub fn write_graph_v2_io(graph: &ProvGraph, path: &Path, io: &dyn StorageIo) -> Result<()> {
    io.create(path, &encode_graph_v2(graph)?)?;
    Ok(())
}

/// Load a graph from a file — the Query Processor's first step (§5.1).
pub fn load_graph(path: impl AsRef<Path>) -> Result<ProvGraph> {
    decode_graph(&default_io().read(path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_core::agg::AggOp;
    use lipstick_core::graph::{GraphTracker, Tracker};
    use lipstick_core::query::{propagate_deletion_inplace, zoom_out};
    use lipstick_nrel::Value;

    fn sample_graph() -> ProvGraph {
        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        let c2 = t.base("C2");
        let c3 = t.base("C3");
        t.begin_invocation("Mdealer1", 0);
        let i = t.module_input(wi);
        let s2 = t.state_node(c2);
        let s3 = t.state_node(c3);
        let join = t.times(&[i, s2]);
        let grp = t.delta(&[join, s3]);
        let agg = t.agg(
            AggOp::Count,
            &[
                (
                    join,
                    lipstick_core::graph::tracker::AggItemValue::Const(Value::Int(1)),
                ),
                (
                    s3,
                    lipstick_core::graph::tracker::AggItemValue::Const(Value::Int(1)),
                ),
            ],
        );
        let bb = t.blackbox("CalcBid", &[grp, agg], true);
        let proj = t.plus(&[grp]);
        t.module_output(proj, &[bb]);
        t.end_invocation();
        t.finish()
    }

    #[test]
    fn graph_round_trip_exact() {
        let g = sample_graph();
        let bytes = encode_graph(&g).unwrap();
        let g2 = decode_graph(&bytes).unwrap();
        assert_eq!(g.visible_signature(), g2.visible_signature());
        assert_eq!(g.invocations().len(), g2.invocations().len());
        assert_eq!(
            g.invocation(lipstick_core::InvocationId(0)).module,
            g2.invocation(lipstick_core::InvocationId(0)).module
        );
        // roles survive (ZoomOut works on the loaded graph)
        let mut g3 = g2.clone();
        zoom_out(&mut g3, &["Mdealer1"]).unwrap();
        assert!(g3.visible_count() < g2.visible_count());
    }

    #[test]
    fn tombstones_survive_round_trip() {
        let mut g = sample_graph();
        let victim = g
            .iter_visible()
            .find(|(_, n)| matches!(&n.kind, lipstick_core::NodeKind::BaseTuple { token } if token.as_str() == "C2"))
            .map(|(id, _)| id)
            .unwrap();
        propagate_deletion_inplace(&mut g, victim).unwrap();
        let bytes = encode_graph(&g).unwrap();
        let g2 = decode_graph(&bytes).unwrap();
        assert_eq!(g.visible_count(), g2.visible_count());
        assert_eq!(g.visible_signature(), g2.visible_signature());
    }

    #[test]
    fn zoomed_graph_rejected() {
        let mut g = sample_graph();
        zoom_out(&mut g, &["Mdealer1"]).unwrap();
        assert!(matches!(
            encode_graph(&g),
            Err(StorageError::ZoomedGraph(_))
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        assert!(matches!(
            decode_graph(b"NOPEx"),
            Err(StorageError::BadMagic)
        ));
        let mut bytes = encode_graph(&sample_graph()).unwrap();
        bytes[5] = 99; // version byte
        assert!(matches!(
            decode_graph(&bytes),
            Err(StorageError::BadVersion(99))
        ));
    }

    #[test]
    fn corrupt_edge_rejected() {
        let g = sample_graph();
        let bytes = encode_graph(&g).unwrap();
        // Truncate mid-file: must error, not panic.
        for cut in [7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_graph(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn file_round_trip() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join("lipstick-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.lpstk");
        write_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g.visible_signature(), g2.visible_signature());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn expr_extraction_survives_round_trip() {
        let g = sample_graph();
        let bytes = encode_graph(&g).unwrap();
        let g2 = decode_graph(&bytes).unwrap();
        for (id, n) in g.iter_visible() {
            if !n.kind.is_value_node() {
                assert_eq!(
                    g.expr_of(id).to_string(),
                    g2.expr_of(id).to_string(),
                    "expr of {id} differs"
                );
            }
        }
    }
}
