//! The WAL-style mutable tail segment layered over a sealed v2 log.
//!
//! A sealed v2 log is immutable: its footer is parsed from the *end* of
//! the file, so appending in place would destroy it. Mutations are
//! instead committed to a sidecar file, `<log>.tail`, as length-prefixed
//! checksummed records; readers resolve visibility newest-segment-wins
//! (tail over footer), and `COMPACT` merges the tail back into a fresh
//! sealed segment.
//!
//! On-disk layout (all fixed-width integers little-endian):
//!
//! ```text
//! header (21 bytes):
//!   magic        "LPTL"   4 bytes
//!   version      u8       currently 1
//!   base_len     u64      length of the sealed base file this tail extends
//!   base_nodes   u64      node count of the sealed base
//! per record:
//!   payload_len  u32
//!   checksum     u64      FNV-1a over the payload bytes
//!   payload      payload_len bytes (varint-packed, tag-prefixed)
//! ```
//!
//! The `base_len`/`base_nodes` binding rejects a stale tail left next to
//! a log that was since rewritten (a crash between COMPACT's rename and
//! its tail unlink leaves exactly that).
//!
//! **Recovery rule:** scan records forward; stop at the first record
//! whose header is short, whose declared length overruns the file, whose
//! checksum mismatches, or whose payload fails to decode. Everything
//! before the stop point is the surviving prefix; everything after is a
//! torn suffix and is truncated. Truncation at *any* byte offset
//! therefore recovers a prefix of the committed records — never an
//! error, never a panic (property-tested in `tests/tail_torn_write.rs`).

use lipstick_core::graph::InvocationInfo;
use lipstick_core::obs::fnv1a64;
use lipstick_core::NodeId;

use crate::codec::{get_record, put_record, NodeRecord, MIN_RECORD_BYTES};
use crate::error::{Result, StorageError};
use crate::log::{get_invocations, put_invocations};
use crate::reader::Reader;
use crate::varint::{put_len, put_str, put_u64};

/// Magic bytes opening a tail segment file.
pub const TAIL_MAGIC: &[u8; 4] = b"LPTL";
/// Tail layout version.
pub const TAIL_VERSION: u8 = 1;
/// Fixed header width: magic (4) + version (1) + base_len (8) +
/// base_nodes (8).
pub const TAIL_HEADER_LEN: usize = 21;
/// Fixed per-record frame width: payload_len (4) + checksum (8).
pub const FRAME_LEN: usize = 12;

/// A committed tail mutation. One record is one atomic commit: a whole
/// ingested fragment, a whole deletion cone, or a whole zoom — so a
/// torn suffix can drop a mutation but never split one.
#[derive(Debug, Clone, PartialEq)]
pub enum TailRecord {
    /// New workflow-run ingestion: a batch of appended nodes (with their
    /// edges, as predecessor lists) plus the invocations they introduce,
    /// in the sealed log's record and invocation-table encodings. Ids
    /// are implicit and sequential: the k-th node gets id
    /// `node_count + k` at replay time, and the k-th invocation the
    /// next invocation id. Predecessor and m-node ids are absolute and
    /// may point into the sealed base, earlier tail records, or this
    /// record's own nodes.
    AppendGraph {
        nodes: Vec<NodeRecord>,
        invocations: Vec<InvocationInfo>,
    },
    /// Visibility tombstones from `DELETE … PROPAGATE`, in deletion
    /// order (the order the resident mutation reports).
    Tombstones { ids: Vec<NodeId> },
    /// `ZOOM OUT TO` the named modules. Replay re-plans the zoom against
    /// the recovered pre-zoom state — the plan is a pure function of
    /// that state, so replay reconstructs the identical composites.
    ZoomOut { modules: Vec<String> },
    /// `ZOOM IN TO` the named modules (always resolved to concrete
    /// names before committing).
    ZoomIn { modules: Vec<String> },
}

const TAG_APPEND_GRAPH: u8 = 1;
const TAG_TOMBSTONES: u8 = 2;
const TAG_ZOOM_OUT: u8 = 3;
const TAG_ZOOM_IN: u8 = 4;

/// Serialize the 21-byte tail header.
pub fn encode_header(base_len: u64, base_nodes: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(TAIL_HEADER_LEN);
    out.extend_from_slice(TAIL_MAGIC);
    out.push(TAIL_VERSION);
    out.extend_from_slice(&base_len.to_le_bytes());
    out.extend_from_slice(&base_nodes.to_le_bytes());
    out
}

/// Read a tail header and validate it against the sealed base it
/// claims to extend. Returns an error for a foreign or stale tail — the
/// caller decides whether that is fatal (explicit recovery) or
/// ignorable (a leftover from before the base was rewritten).
fn read_header(r: &mut Reader<'_>, base_len: u64, base_nodes: u64) -> Result<()> {
    if r.bytes(TAIL_MAGIC.len())? != TAIL_MAGIC {
        return Err(StorageError::Corrupt("bad tail magic".into()));
    }
    let version = r.u8()?;
    if version != TAIL_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported tail version {version}"
        )));
    }
    let (claimed_len, claimed_nodes) = (r.u64_le()?, r.u64_le()?);
    if claimed_len != base_len || claimed_nodes != base_nodes {
        return Err(StorageError::Corrupt(format!(
            "tail was written against a different base \
             (tail: {claimed_len} bytes / {claimed_nodes} nodes, \
             base: {base_len} bytes / {base_nodes} nodes)"
        )));
    }
    Ok(())
}

fn put_strs(buf: &mut Vec<u8>, strs: &[String]) {
    put_len(buf, strs.len());
    for s in strs {
        put_str(buf, s);
    }
}

fn put_payload(buf: &mut Vec<u8>, record: &TailRecord) -> Result<()> {
    match record {
        TailRecord::AppendGraph { nodes, invocations } => {
            buf.push(TAG_APPEND_GRAPH);
            put_len(buf, nodes.len());
            for n in nodes {
                put_record(buf, n.deleted, &n.role, &n.kind, &n.preds)?;
            }
            put_invocations(buf, invocations);
        }
        TailRecord::Tombstones { ids } => {
            buf.push(TAG_TOMBSTONES);
            put_len(buf, ids.len());
            for id in ids {
                put_u64(buf, u64::from(id.0));
            }
        }
        TailRecord::ZoomOut { modules } => {
            buf.push(TAG_ZOOM_OUT);
            put_strs(buf, modules);
        }
        TailRecord::ZoomIn { modules } => {
            buf.push(TAG_ZOOM_IN);
            put_strs(buf, modules);
        }
    }
    Ok(())
}

/// Frame one record: `[payload_len u32][fnv1a64 u64][payload]`.
pub fn encode_record(record: &TailRecord) -> Result<Vec<u8>> {
    let mut payload = Vec::new();
    put_payload(&mut payload, record)?;
    let len = u32::try_from(payload.len())
        .map_err(|_| StorageError::Corrupt("tail record exceeds 4 GiB".into()))?;
    let mut out = Vec::with_capacity(FRAME_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decode one record payload (the bytes the checksum covers).
pub fn decode_payload(payload: &[u8]) -> Result<TailRecord> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        TAG_APPEND_GRAPH => TailRecord::AppendGraph {
            nodes: r.list(MIN_RECORD_BYTES, get_record)?,
            invocations: get_invocations(&mut r)?,
        },
        TAG_TOMBSTONES => TailRecord::Tombstones {
            ids: r.list(1, |r| Ok(NodeId(r.var_u32()?)))?,
        },
        TAG_ZOOM_OUT => TailRecord::ZoomOut {
            modules: r.list(1, Reader::str)?,
        },
        TAG_ZOOM_IN => TailRecord::ZoomIn {
            modules: r.list(1, Reader::str)?,
        },
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown tail record tag {other}"
            )))
        }
    };
    r.finish("tail record")?;
    Ok(record)
}

/// One framed record: length, checksum, payload.
fn read_frame(r: &mut Reader<'_>) -> Result<TailRecord> {
    let len = r.u32_le()?;
    let checksum = r.u64_le()?;
    let payload = r.bytes(len as usize)?;
    if fnv1a64(payload) != checksum {
        return Err(StorageError::Corrupt(
            "tail record checksum mismatch".into(),
        ));
    }
    decode_payload(payload)
}

/// Recover the surviving prefix of a tail file's bytes.
///
/// Returns the decoded records and the byte length of the clean prefix
/// (header included); the caller truncates the file to that length
/// before appending. A missing or foreign header is an error (the
/// caller must decide what the tail belongs to); anything wrong *after*
/// a valid header is a torn suffix, silently dropped per the recovery
/// rule above.
pub fn recover(data: &[u8], base_len: u64, base_nodes: u64) -> Result<(Vec<TailRecord>, usize)> {
    let mut clean = Reader::new(data);
    read_header(&mut clean, base_len, base_nodes)?;
    let mut records = Vec::new();
    // A short frame header, a length that overruns the file, a checksum
    // mismatch (bits flipped or half-written) or checksummed garbage
    // (never expected) all end the clean prefix: the torn suffix.
    loop {
        let mut next = clean.clone();
        let Ok(record) = read_frame(&mut next) else {
            break;
        };
        records.push(record);
        clean = next;
    }
    Ok((records, data.len() - clean.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_core::{InvocationId, NodeKind, Role};

    fn sample_records() -> Vec<TailRecord> {
        vec![
            TailRecord::AppendGraph {
                nodes: vec![
                    NodeRecord {
                        deleted: false,
                        role: Role::Free,
                        kind: NodeKind::BaseTuple {
                            token: lipstick_core::Token::new("t9"),
                        },
                        preds: vec![],
                    },
                    NodeRecord {
                        deleted: true,
                        role: Role::Intermediate(InvocationId(2)),
                        kind: NodeKind::Plus,
                        preds: vec![NodeId(0), NodeId(6)],
                    },
                ],
                invocations: vec![InvocationInfo {
                    module: "Mdealer1".into(),
                    execution: 3,
                    m_node: NodeId(6),
                }],
            },
            TailRecord::Tombstones {
                ids: vec![NodeId(1), NodeId(4), NodeId(5)],
            },
            TailRecord::ZoomOut {
                modules: vec!["M".into(), "Agg".into()],
            },
            TailRecord::ZoomIn {
                modules: vec!["M".into()],
            },
        ]
    }

    fn encode_tail(records: &[TailRecord]) -> Vec<u8> {
        let mut bytes = encode_header(123, 7);
        for r in records {
            bytes.extend_from_slice(&encode_record(r).unwrap());
        }
        bytes
    }

    #[test]
    fn records_round_trip() {
        let records = sample_records();
        let bytes = encode_tail(&records);
        let (decoded, clean) = recover(&bytes, 123, 7).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(clean, bytes.len());
    }

    #[test]
    fn truncation_recovers_a_prefix() {
        let records = sample_records();
        let bytes = encode_tail(&records);
        for cut in TAIL_HEADER_LEN..bytes.len() {
            let (decoded, clean) = recover(&bytes[..cut], 123, 7).unwrap();
            assert!(decoded.len() <= records.len());
            assert_eq!(decoded.as_slice(), &records[..decoded.len()]);
            assert!(clean <= cut);
        }
    }

    #[test]
    fn flipped_bit_drops_the_suffix() {
        let records = sample_records();
        let bytes = encode_tail(&records);
        // Corrupt a byte inside the second record's payload.
        let first_len = encode_record(&records[0]).unwrap().len();
        let mut garbled = bytes.clone();
        let at = TAIL_HEADER_LEN + first_len + FRAME_LEN + 1;
        garbled[at] ^= 0xff;
        let (decoded, clean) = recover(&garbled, 123, 7).unwrap();
        assert_eq!(decoded.as_slice(), &records[..1]);
        assert_eq!(clean, TAIL_HEADER_LEN + first_len);
    }

    #[test]
    fn foreign_base_is_rejected() {
        let bytes = encode_tail(&sample_records());
        assert!(recover(&bytes, 123, 8).is_err());
        assert!(recover(&bytes, 124, 7).is_err());
        assert!(recover(&[], 123, 7).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xff;
        assert!(recover(&bad_magic, 123, 7).is_err());
    }
}
