//! Binary codec for values, node kinds, roles, and the node record
//! built from them — the one record encoder and decoder behind the
//! sealed log's record section, the paged store's faults, COMPACT's
//! splice and the tail's `AppendGraph` payload.

use std::collections::BTreeMap;
use std::sync::Arc;

use lipstick_core::agg::AggOp;
use lipstick_core::graph::RETIRED_STASH;
use lipstick_core::semiring::Token;
use lipstick_core::{InvocationId, NodeId, NodeKind, Role};
use lipstick_nrel::{Bag, Tuple, Value};

use crate::error::{Result, StorageError};
use crate::reader::Reader;
use crate::varint::{put_i64, put_len, put_str, put_u64};

// ----- values -----

/// Append a value.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => buf.extend_from_slice(&[1, u8::from(*b)]),
        Value::Int(i) => {
            buf.push(2);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            // Big-endian, unlike the fixed-width fields of the footer
            // and tail: the oldest part of the format, kept as written.
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Value::Tuple(t) => {
            buf.push(5);
            put_tuple(buf, t);
        }
        Value::Bag(b) => {
            buf.push(6);
            put_len(buf, b.len());
            for t in b.iter() {
                put_tuple(buf, t);
            }
        }
        Value::Map(m) => {
            buf.push(7);
            put_len(buf, m.len());
            for (k, v) in m.iter() {
                put_str(buf, k);
                put_value(buf, v);
            }
        }
    }
}

/// Read a value.
pub fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.var_i64()?),
        3 => Value::Float(f64::from_bits(u64::from_be_bytes(r.array()?))),
        4 => Value::Str(Arc::from(r.str()?.as_str())),
        5 => Value::Tuple(get_tuple(r)?),
        6 => Value::Bag(Bag::from_tuples(r.list(1, get_tuple)?)),
        7 => {
            let entries = r.list(2, |r| Ok((r.str()?, get_value(r)?)))?;
            Value::Map(Arc::new(entries.into_iter().collect::<BTreeMap<_, _>>()))
        }
        other => return Err(StorageError::Corrupt(format!("unknown value tag {other}"))),
    })
}

/// Append a tuple.
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_len(buf, t.arity());
    for v in t.fields() {
        put_value(buf, v);
    }
}

/// Read a tuple.
pub fn get_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    Ok(Tuple::new(r.list(1, get_value)?))
}

// ----- node kinds -----

fn agg_tag(op: AggOp) -> u8 {
    match op {
        AggOp::Count => 0,
        AggOp::Sum => 1,
        AggOp::Min => 2,
        AggOp::Max => 3,
        AggOp::Avg => 4,
    }
}

fn agg_from(tag: u8) -> Result<AggOp> {
    Ok(match tag {
        0 => AggOp::Count,
        1 => AggOp::Sum,
        2 => AggOp::Min,
        3 => AggOp::Max,
        4 => AggOp::Avg,
        other => return Err(StorageError::Corrupt(format!("unknown agg op {other}"))),
    })
}

/// Kind tag for a *retired* zoom composite: a tombstoned, unlinked
/// `Zoomed` node left in the arena by ZoomIn. ZoomIn remaps such nodes
/// to the reserved stash index [`RETIRED_STASH`] (which ZoomOut never
/// allocates), so the tag round-trips exactly: `Zoomed { stash:
/// RETIRED_STASH }` in means the same out. Visible zoomed nodes are
/// still unpersistable (zoom is a view; the encoder rejects graphs with
/// active ZoomOuts).
const RETIRED_ZOOM_TAG: u8 = 13;

/// Append a node kind. Zoomed nodes are rejected (persisting a zoomed
/// view is an error); [`put_record`] writes retired composites.
fn put_kind(buf: &mut Vec<u8>, kind: &NodeKind) -> Result<()> {
    match kind {
        NodeKind::WorkflowInput { token } => {
            buf.push(0);
            put_str(buf, token.as_str());
        }
        NodeKind::Invocation => buf.push(1),
        NodeKind::ModuleInput => buf.push(2),
        NodeKind::ModuleOutput => buf.push(3),
        NodeKind::StateUnit => buf.push(4),
        NodeKind::BaseTuple { token } => {
            buf.push(5);
            put_str(buf, token.as_str());
        }
        NodeKind::Plus => buf.push(6),
        NodeKind::Times => buf.push(7),
        NodeKind::Delta => buf.push(8),
        NodeKind::AggResult { op } => buf.extend_from_slice(&[9, agg_tag(*op)]),
        NodeKind::Tensor => buf.push(10),
        NodeKind::Const { value } => {
            buf.push(11);
            put_value(buf, value);
        }
        NodeKind::BlackBox { name, is_value } => {
            buf.push(12);
            put_str(buf, name);
            buf.push(u8::from(*is_value));
        }
        NodeKind::Zoomed { .. } => {
            return Err(StorageError::Corrupt(
                "zoomed composite nodes are views and cannot be persisted".into(),
            ))
        }
    }
    Ok(())
}

/// Read a node kind.
fn get_kind(r: &mut Reader<'_>) -> Result<NodeKind> {
    Ok(match r.u8()? {
        0 => NodeKind::WorkflowInput {
            token: Token::new(r.str()?),
        },
        1 => NodeKind::Invocation,
        2 => NodeKind::ModuleInput,
        3 => NodeKind::ModuleOutput,
        4 => NodeKind::StateUnit,
        5 => NodeKind::BaseTuple {
            token: Token::new(r.str()?),
        },
        6 => NodeKind::Plus,
        7 => NodeKind::Times,
        8 => NodeKind::Delta,
        9 => NodeKind::AggResult {
            op: agg_from(r.u8()?)?,
        },
        10 => NodeKind::Tensor,
        11 => NodeKind::Const {
            value: get_value(r)?,
        },
        12 => NodeKind::BlackBox {
            name: r.str()?,
            is_value: r.u8()? != 0,
        },
        RETIRED_ZOOM_TAG => NodeKind::Zoomed {
            stash: RETIRED_STASH,
        },
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown node kind tag {other}"
            )))
        }
    })
}

// ----- roles -----

/// Append a role.
fn put_role(buf: &mut Vec<u8>, role: &Role) {
    let (tag, inv): (u8, Option<InvocationId>) = match role {
        Role::WorkflowInput => (0, None),
        Role::Invocation(i) => (1, Some(*i)),
        Role::ModuleInput(i) => (2, Some(*i)),
        Role::ModuleOutput(i) => (3, Some(*i)),
        Role::State(i) => (4, Some(*i)),
        Role::Intermediate(i) => (5, Some(*i)),
        Role::Zoom(i) => (6, Some(*i)),
        Role::Free => (7, None),
    };
    buf.push(tag);
    if let Some(i) = inv {
        put_u64(buf, u64::from(i.0));
    }
}

/// Read a role.
fn get_role(r: &mut Reader<'_>) -> Result<Role> {
    let tag = r.u8()?;
    let mut inv = || -> Result<InvocationId> { Ok(InvocationId(r.var_u32()?)) };
    Ok(match tag {
        0 => Role::WorkflowInput,
        1 => Role::Invocation(inv()?),
        2 => Role::ModuleInput(inv()?),
        3 => Role::ModuleOutput(inv()?),
        4 => Role::State(inv()?),
        5 => Role::Intermediate(inv()?),
        6 => Role::Zoom(inv()?),
        7 => Role::Free,
        other => return Err(StorageError::Corrupt(format!("unknown role tag {other}"))),
    })
}

// ----- node records -----

/// One node record: a flags byte (bit 0 = deleted tombstone), the
/// role, the kind, and the predecessor ids (edges are stored once, as
/// predecessors). The decoder checks the bytes, not the references:
/// what a record may point at depends on where it sits (a sealed
/// record within its file, see `log::check_refs`; a tail record also
/// forward within its own batch, see `AppendLog`'s `validate_append`).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    pub deleted: bool,
    pub role: Role,
    pub kind: NodeKind,
    pub preds: Vec<NodeId>,
}

/// Append one node record. A zoom composite persists only retired —
/// tombstoned and carrying the [`RETIRED_STASH`] sentinel, which is
/// what ZoomIn leaves behind; a live one is a view and an error.
pub fn put_record(
    buf: &mut Vec<u8>,
    deleted: bool,
    role: &Role,
    kind: &NodeKind,
    preds: &[NodeId],
) -> Result<()> {
    buf.push(u8::from(deleted));
    put_role(buf, role);
    match *kind {
        NodeKind::Zoomed { stash } if deleted && stash == RETIRED_STASH => {
            buf.push(RETIRED_ZOOM_TAG);
        }
        // A dead composite whose stash was not remapped would decode
        // to a different kind than was encoded.
        NodeKind::Zoomed { stash } if deleted => {
            return Err(StorageError::Corrupt(format!(
                "retired zoom composite carries live stash index {stash}"
            )))
        }
        _ => put_kind(buf, kind)?,
    }
    put_len(buf, preds.len());
    for p in preds {
        put_u64(buf, u64::from(p.0));
    }
    Ok(())
}

/// The fewest bytes a node record can take: the flags byte, a role
/// tag, a kind tag and a pred count. A decoder sizing a table from a
/// declared record count bounds it by `remaining / MIN_RECORD_BYTES`.
pub const MIN_RECORD_BYTES: usize = 4;

/// Read one node record.
pub fn get_record(r: &mut Reader<'_>) -> Result<NodeRecord> {
    let flags = r.u8()?;
    let role = get_role(r)?;
    let kind = get_kind(r)?;
    let preds = r.list(1, |r| Ok(NodeId(r.var_u32()?)))?;
    Ok(NodeRecord {
        deleted: flags & 1 != 0,
        role,
        kind,
        preds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_nrel::{bag, tuple};
    use proptest::prelude::*;

    fn round_trip_value(v: &Value) -> Value {
        let mut b = Vec::new();
        put_value(&mut b, v);
        get_value(&mut Reader::new(&b)).unwrap()
    }

    #[test]
    fn scalar_values_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("hello"),
        ] {
            assert_eq!(round_trip_value(&v), v);
        }
    }

    #[test]
    fn nested_values_round_trip() {
        let v = Value::Tuple(tuple![
            1i64,
            Value::Bag(bag![tuple!["a", 2i64], tuple!["b", 3i64]])
        ]);
        assert_eq!(round_trip_value(&v), v);
    }

    #[test]
    fn map_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(1));
        m.insert("z".to_string(), Value::str("v"));
        let v = Value::Map(Arc::new(m));
        assert_eq!(round_trip_value(&v), v);
    }

    #[test]
    fn kinds_round_trip() {
        let kinds = vec![
            NodeKind::WorkflowInput {
                token: Token::new("I1"),
            },
            NodeKind::Invocation,
            NodeKind::ModuleInput,
            NodeKind::ModuleOutput,
            NodeKind::StateUnit,
            NodeKind::BaseTuple {
                token: Token::new("C2"),
            },
            NodeKind::Plus,
            NodeKind::Times,
            NodeKind::Delta,
            NodeKind::AggResult { op: AggOp::Min },
            NodeKind::Tensor,
            NodeKind::Const {
                value: Value::Int(5),
            },
            NodeKind::BlackBox {
                name: "CalcBid".into(),
                is_value: true,
            },
        ];
        for k in kinds {
            let mut b = Vec::new();
            put_kind(&mut b, &k).unwrap();
            assert_eq!(get_kind(&mut Reader::new(&b)).unwrap(), k);
        }
    }

    #[test]
    fn zoomed_kind_rejected() {
        let mut b = Vec::new();
        assert!(put_kind(&mut b, &NodeKind::Zoomed { stash: 0 }).is_err());
    }

    #[test]
    fn roles_round_trip() {
        let roles = vec![
            Role::WorkflowInput,
            Role::Invocation(InvocationId(3)),
            Role::ModuleInput(InvocationId(0)),
            Role::ModuleOutput(InvocationId(9)),
            Role::State(InvocationId(2)),
            Role::Intermediate(InvocationId(100)),
            Role::Free,
        ];
        for role in roles {
            let mut b = Vec::new();
            put_role(&mut b, &role);
            assert_eq!(get_role(&mut Reader::new(&b)).unwrap(), role);
        }
    }

    #[test]
    fn invocation_id_overflow_is_error_not_wrap() {
        // Role tag 1 (Invocation) followed by a varint above u32::MAX:
        // must be rejected, not silently truncated to a small id.
        let mut b = vec![1];
        put_u64(&mut b, u64::from(u32::MAX) + 1);
        let err = get_role(&mut Reader::new(&b)).unwrap_err();
        assert!(err.to_string().contains("overflows 32-bit"), "got: {err}");
        // The boundary value itself still round-trips.
        let role = Role::Invocation(InvocationId(u32::MAX));
        let mut b = Vec::new();
        put_role(&mut b, &role);
        assert_eq!(get_role(&mut Reader::new(&b)).unwrap(), role);
    }

    #[test]
    fn oversized_declared_lengths_are_rejected_before_allocating() {
        // A bag whose 8-byte header claims u64::MAX tuples.
        let mut b = vec![6];
        put_u64(&mut b, u64::MAX);
        assert!(get_value(&mut Reader::new(&b)).is_err());
        // A tuple claiming more fields than the buffer could hold.
        let mut b = Vec::new();
        put_u64(&mut b, 1 << 40);
        b.push(0);
        assert!(get_tuple(&mut Reader::new(&b)).is_err());
        // A map likewise.
        let mut b = vec![7];
        put_u64(&mut b, 1 << 40);
        assert!(get_value(&mut Reader::new(&b)).is_err());
    }

    #[test]
    fn retired_zoom_sentinel_round_trips_to_reserved_stash() {
        let retired = NodeRecord {
            deleted: true,
            role: Role::Zoom(InvocationId(1)),
            kind: NodeKind::Zoomed {
                stash: RETIRED_STASH,
            },
            preds: vec![NodeId(4)],
        };
        let mut b = Vec::new();
        put_record(&mut b, true, &retired.role, &retired.kind, &retired.preds).unwrap();
        assert_eq!(
            b[2..4],
            [1, RETIRED_ZOOM_TAG],
            "invocation id, then the tag"
        );
        assert_eq!(get_record(&mut Reader::new(&b)).unwrap(), retired);
        // Live zoom composites — any stash id, the reserved one
        // included — are views and never encodable; a dead one must
        // carry the sentinel.
        for stash in [0, RETIRED_STASH - 1, RETIRED_STASH] {
            let mut b = Vec::new();
            let kind = NodeKind::Zoomed { stash };
            assert!(put_record(&mut b, false, &Role::Free, &kind, &[]).is_err());
        }
        let kind = NodeKind::Zoomed { stash: 0 };
        assert!(put_record(&mut Vec::new(), true, &Role::Free, &kind, &[]).is_err());
    }

    #[test]
    fn unknown_tags_are_errors() {
        assert!(get_value(&mut Reader::new(&[99])).is_err());
        assert!(get_kind(&mut Reader::new(&[99])).is_err());
        assert!(get_role(&mut Reader::new(&[99])).is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[a-z]{0,8}".prop_map(Value::str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(|vs| Value::Tuple(Tuple::new(vs)))
        })
    }

    proptest! {
        #[test]
        fn value_round_trip(v in arb_value()) {
            prop_assert_eq!(round_trip_value(&v), v);
        }
    }
}
