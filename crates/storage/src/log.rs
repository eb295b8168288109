//! The provenance log: graph serialization and loading.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! magic  "LPSTK"          5 bytes
//! version u8              1, or 2 when a footer follows (see crate::footer)
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
//! Each structure has one encoder and one decoder, and every reader of
//! the format uses them: the header here (`put_header` /
//! `read_header`), the node record in [`crate::codec`]
//! ([`crate::codec::NodeRecord`]), and the invocation table here
//! (`put_invocations` / `get_invocations`). The paged reader, COMPACT's
//! splice and the tail's `AppendGraph` payload hold no layout of their
//! own.
//!
//! Figure 6 of the paper measures exactly this path: reading
//! provenance-annotated data from disk and building the in-memory
//! graph.

use std::path::Path;

use lipstick_core::graph::{InvocationInfo, Node};
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};

use crate::codec::{get_record, put_record, MIN_RECORD_BYTES};
use crate::error::{Result, StorageError};
use crate::footer::FooterWriter;
use crate::io::{default_io, StorageIo};
use crate::reader::Reader;
use crate::varint::{put_len, put_str, put_u64};

const MAGIC: &[u8; 5] = b"LPSTK";
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

// ----- file header -----

/// The file header: magic, format version, node count.
pub(crate) fn put_header(buf: &mut Vec<u8>, version: u8, node_count: usize) {
    buf.extend_from_slice(MAGIC);
    buf.push(version);
    put_len(buf, node_count);
}

/// A decoded file header.
pub(crate) struct Header {
    pub version: u8,
    pub node_count: usize,
    /// Byte offset of record 0: the first byte after the header.
    pub records_start: usize,
}

/// Read the header of a v1 or v2 log.
pub(crate) fn read_header(data: &[u8]) -> Result<Header> {
    let version = log_version(data).ok_or(StorageError::BadMagic)?;
    if version != VERSION_V1 && version != VERSION_V2 {
        return Err(StorageError::BadVersion(version));
    }
    let mut r = Reader::new(&data[MAGIC.len() + 1..]);
    let node_count = r.count()?;
    Ok(Header {
        version,
        node_count,
        records_start: data.len() - r.remaining(),
    })
}

/// The format version of an encoded log, if the header is recognisable
/// (`None` = not a Lipstick provenance file). Lets callers choose
/// between a full decode and a lazy open without reading twice.
pub fn log_version(data: &[u8]) -> Option<u8> {
    match data.split_first_chunk::<5>() {
        Some((magic, [version, ..])) if magic == MAGIC => Some(*version),
        _ => None,
    }
}

// ----- invocation table -----

/// The invocation table that follows the record section (and ends a
/// tail's `AppendGraph` payload).
pub(crate) fn put_invocations(buf: &mut Vec<u8>, invocations: &[InvocationInfo]) {
    put_len(buf, invocations.len());
    for info in invocations {
        put_str(buf, &info.module);
        put_u64(buf, u64::from(info.execution));
        put_u64(buf, u64::from(info.m_node.0));
    }
}

/// Read an invocation table. M-node ids are not range-checked here (a
/// tail's may point forward into its own batch); a sealed file's go
/// through [`get_sealed_invocations`].
pub(crate) fn get_invocations(r: &mut Reader<'_>) -> Result<Vec<InvocationInfo>> {
    // The narrowest entry: an empty module name and two one-byte ids.
    r.list(3, |r| {
        Ok(InvocationInfo {
            module: r.str()?,
            execution: r.var_u32()?,
            m_node: NodeId(r.var_u32()?),
        })
    })
}

/// A sealed file's invocation table, whose m-nodes are records of the
/// file (shared by the full loader and the paged reader).
pub(crate) fn get_sealed_invocations(
    r: &mut Reader<'_>,
    node_count: usize,
) -> Result<Vec<InvocationInfo>> {
    let invocations = get_invocations(r)?;
    if let Some(bad) = invocations.iter().find(|i| i.m_node.index() >= node_count) {
        return Err(StorageError::Corrupt(format!(
            "invocation m-node {} beyond node count",
            bad.m_node
        )));
    }
    Ok(invocations)
}

// ----- records -----

/// An `m` node names its invocation through its role, and expression
/// extraction reads it from there. Shared by sealed and tail records.
pub(crate) fn check_m_node_role(id: NodeId, kind: &NodeKind, role: Role) -> Result<()> {
    if matches!(kind, NodeKind::Invocation) && !matches!(role, Role::Invocation(_)) {
        return Err(StorageError::Corrupt(format!(
            "invocation node {id} has role {}, not an invocation",
            role.name()
        )));
    }
    Ok(())
}

/// What a sealed record may reference: other records of its file, and
/// invocations of the file's table. Checked as records are decoded, so
/// a corrupt file is an error at load instead of an index out of bounds
/// (or a missing invocation) in a later query.
pub(crate) fn check_refs(
    id: NodeId,
    kind: &NodeKind,
    role: Role,
    preds: &[NodeId],
    node_count: usize,
    invocations: usize,
) -> Result<()> {
    check_m_node_role(id, kind, role)?;
    if let Some(inv) = role.invocation().filter(|inv| inv.index() >= invocations) {
        return Err(StorageError::Corrupt(format!(
            "node {id} names invocation {} beyond the table of {invocations}",
            inv.0
        )));
    }
    for &p in preds {
        if p.index() >= node_count {
            return Err(StorageError::Corrupt(format!(
                "edge references node {p} beyond node count {node_count}"
            )));
        }
        if p == id {
            return Err(StorageError::Corrupt(format!("self-loop on node {id}")));
        }
    }
    Ok(())
}

/// Deserialize a graph from bytes, at exact size
/// ([`ProvGraph::from_nodes`]). The arena is reserved from the header's
/// node count capped at one node per [`MIN_RECORD_BYTES`] of input —
/// exact on every well-formed log, so a count the bytes cannot hold
/// sizes nothing.
pub fn decode_graph(bytes: &[u8]) -> Result<ProvGraph> {
    let header = read_header(bytes)?;
    let node_count = header.node_count;
    // v2 records are identical to v1; the sequential decode simply
    // stops before the trailing footer, which only lazy readers parse.
    let mut r = Reader::new(&bytes[header.records_start..]);
    let mut nodes = Vec::with_capacity(node_count.min(r.remaining() / MIN_RECORD_BYTES));
    for _ in 0..node_count {
        let record = get_record(&mut r)?;
        nodes.push(Node::decoded(
            record.kind,
            record.role,
            record.preds,
            record.deleted,
        ));
    }
    let invocations = get_sealed_invocations(&mut r, node_count)?;
    // Now that the table is known: every reference.
    for (idx, node) in nodes.iter().enumerate() {
        check_refs(
            NodeId(idx as u32),
            &node.kind,
            node.role,
            node.preds(),
            node_count,
            invocations.len(),
        )?;
    }
    Ok(ProvGraph::from_nodes(nodes, invocations))
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

    /// A record naming an invocation past the table used to load, and
    /// the first module predicate over it indexed the table out of
    /// bounds.
    #[test]
    fn record_naming_a_missing_invocation_is_rejected() {
        let mut g = ProvGraph::new();
        g.add_invocation("M", 0);
        g.add_node(
            lipstick_core::NodeKind::Plus,
            Role::Intermediate(lipstick_core::InvocationId(7)),
        );
        let err = decode_graph(&encode_graph(&g).unwrap()).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("invocation 7")),
            "{err}"
        );
    }

    /// An `m` node without an invocation role used to load, and the
    /// first `WHY` over it panicked in expression extraction.
    #[test]
    fn invocation_node_without_an_invocation_role_is_rejected() {
        let mut g = ProvGraph::new();
        g.add_node(NodeKind::Invocation, Role::Free);
        for bytes in [encode_graph(&g).unwrap(), encode_graph_v2(&g).unwrap()] {
            let err = decode_graph(&bytes).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(m) if m.contains("invocation node N0 has role free")),
                "{err}"
            );
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
