//! Result shaping: aggregates, `GROUP BY`, `ORDER BY`, `LIMIT`.
//!
//! One implementation, generic over [`GraphStore`] like the executor
//! that calls it — backends cannot drift on shaping semantics because
//! they run the same code over the same node sets. All orderings are total (ties break on the group value or
//! node id), so shaped results are byte-for-byte deterministic, which
//! the differential harness (`tests/differential.rs`) relies on.
//!
//! `module` and `execution` are a node's invocation's, so shaping by
//! them reads each node's role only: `GROUP BY` and `COUNT(DISTINCT …)`
//! count nodes per invocation and fold the counts by value, building no
//! per-node cell.

use std::collections::{BTreeMap, BTreeSet};

use lipstick_core::graph::InvocationInfo;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind};

use crate::ast::{Aggregate, Field, OrderBy, Shaping, SortKey};
use crate::error::{ProqlError, Result};
use crate::result::{Cell, NodeSetResult, QueryOutput, TableResult};

/// Reject shaped statements whose clauses cannot compose: an aggregate
/// projection is a single row (nothing to group, order, or limit),
/// `ORDER BY count` needs a count column, and a grouped table can only
/// order by its own columns. The parser and the planner both call it,
/// so a statement built without the parser is checked too.
pub(crate) fn validate(s: &Shaping) -> Result<()> {
    let reject = |m: String| Err(ProqlError::Parse(m));
    if s.agg.is_some() && (s.group_by.is_some() || s.order_by.is_some() || s.limit.is_some()) {
        return reject(
            "COUNT(…) produces a single row; GROUP BY / ORDER BY / LIMIT cannot apply".into(),
        );
    }
    let not_a_column = |key: &str, g: Field| {
        let g = g.name();
        reject(format!(
            "ORDER BY {key} does not name a column of the GROUP BY {g} table (order by {g} or \
             count)"
        ))
    };
    match (s.group_by, s.order_by.map(|o| o.key)) {
        (None, Some(SortKey::Count)) => reject("ORDER BY count requires GROUP BY".into()),
        (Some(g), Some(SortKey::Field(f))) if f != g => not_a_column(f.name(), g),
        (Some(g), Some(SortKey::Id)) => not_a_column("id", g),
        _ => Ok(()),
    }
}

/// The cell a `GROUP BY` (or `ORDER BY field`) key renders for nodes
/// the field does not apply to.
const NONE_MARKER: &str = "(none)";

/// A node's value for a shaping field, when the field applies — the
/// values a predicate compares. `GROUP BY` and `COUNT(DISTINCT …)`
/// over `module` and `execution` go through [`InvocationKey`] instead
/// and must fold to the same cells.
pub(crate) fn field_cell<S: GraphStore + ?Sized>(
    store: &S,
    id: NodeId,
    field: Field,
) -> Option<Cell> {
    match field {
        Field::Kind => Some(Cell::Str(store.kind_of(id).name().to_string())),
        Field::Role => Some(Cell::Str(store.role_of(id).name().to_string())),
        Field::Module => store
            .role_of(id)
            .invocation()
            .map(|inv| Cell::Str(store.invocation(inv).module.clone())),
        Field::Execution => store
            .role_of(id)
            .invocation()
            .map(|inv| Cell::Int(u64::from(store.invocation(inv).execution))),
        Field::Token => match &*store.kind_of(id) {
            NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token } => {
                Some(Cell::Str(token.as_str().to_string()))
            }
            _ => None,
        },
    }
}

/// An invocation's value for `module` or `execution`, borrowed from the
/// invocation table. The keys of one field order like their cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum InvocationKey<'s> {
    Module(&'s str),
    Execution(u32),
}

impl<'s> InvocationKey<'s> {
    /// Every invocation's key for `field`, by invocation id, when the
    /// field is read per invocation.
    fn table<S: GraphStore + ?Sized>(store: &'s S, field: Field) -> Option<Vec<Self>> {
        let key = |info: &'s InvocationInfo| match field {
            Field::Module => InvocationKey::Module(&info.module),
            _ => InvocationKey::Execution(info.execution),
        };
        matches!(field, Field::Module | Field::Execution)
            .then(|| store.invocations().iter().map(key).collect())
    }

    fn cell(self) -> Cell {
        match self {
            InvocationKey::Module(m) => Cell::Str(m.to_string()),
            InvocationKey::Execution(e) => Cell::Int(u64::from(e)),
        }
    }
}

/// How many of `nodes` each invocation owns, by invocation id, and how
/// many belong to none.
fn count_by_invocation<S: GraphStore + ?Sized>(store: &S, nodes: &[NodeId]) -> (Vec<u64>, u64) {
    let mut counts = vec![0; store.invocations().len()];
    let mut none = 0;
    for &id in nodes {
        match store.role_of(id).invocation() {
            Some(inv) => counts[inv.index()] += 1,
            None => none += 1,
        }
    }
    (counts, none)
}

/// The keys of the invocations that own any of `nodes`, each with
/// the number of nodes it owns, folded by key; and the number of nodes
/// no invocation owns.
fn fold_by_key<'s, S: GraphStore + ?Sized>(
    store: &S,
    keys: &[InvocationKey<'s>],
    nodes: &[NodeId],
) -> (BTreeMap<InvocationKey<'s>, u64>, u64) {
    let (counts, none) = count_by_invocation(store, nodes);
    let mut folded = BTreeMap::new();
    for (&key, &n) in keys.iter().zip(&counts).filter(|(_, &n)| n > 0) {
        *folded.entry(key).or_insert(0) += n;
    }
    (folded, none)
}

/// A grouping key with the order the shaped output uses: every present
/// value first (in [`Cell`] order), the missing-field group last.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Present(Cell),
    Missing,
}

impl GroupKey {
    fn new(cell: Option<Cell>) -> GroupKey {
        match cell {
            Some(c) => GroupKey::Present(c),
            None => GroupKey::Missing,
        }
    }

    fn into_cell(self) -> Cell {
        match self {
            GroupKey::Present(c) => c,
            GroupKey::Missing => Cell::Str(NONE_MARKER.into()),
        }
    }
}

/// Apply a query's shaping clauses to an executed node set. `visited`
/// passes through untouched: shaping reshapes the answer, not the
/// executor's work accounting.
pub(crate) fn apply_shaping<S: GraphStore + ?Sized>(
    store: &S,
    nodes: Vec<NodeId>,
    visited: usize,
    shaping: &Shaping,
) -> QueryOutput {
    if shaping.is_plain() {
        return QueryOutput::Nodes(NodeSetResult { nodes, visited });
    }
    if let Some(agg) = &shaping.agg {
        return QueryOutput::Table(aggregate(store, &nodes, visited, *agg));
    }
    if let Some(group_field) = shaping.group_by {
        return QueryOutput::Table(group(store, &nodes, visited, group_field, shaping));
    }
    // Plain node set with ORDER BY and/or LIMIT.
    let mut nodes = nodes;
    if let Some(OrderBy { key, desc }) = shaping.order_by {
        match key {
            // `validate` rejects `count` without GROUP BY.
            SortKey::Id | SortKey::Count => {
                if desc {
                    nodes.reverse(); // sets arrive ascending by id
                }
            }
            SortKey::Field(f) => {
                // Total order: (field value — missing last, id); DESC
                // reverses the whole order, ids included, so every
                // ordering is deterministic for the differential
                // harness.
                let mut keyed: Vec<(GroupKey, NodeId)> = nodes
                    .into_iter()
                    .map(|id| (GroupKey::new(field_cell(store, id, f)), id))
                    .collect();
                keyed.sort();
                if desc {
                    keyed.reverse();
                }
                nodes = keyed.into_iter().map(|(_, id)| id).collect();
            }
        }
    }
    if let Some(n) = shaping.limit {
        nodes.truncate(usize::try_from(n).unwrap_or(usize::MAX));
    }
    QueryOutput::Nodes(NodeSetResult { nodes, visited })
}

/// `COUNT(*)` / `COUNT(DISTINCT f)`: always exactly one row, zero
/// included — an empty match counts as 0, never errors.
fn aggregate<S: GraphStore + ?Sized>(
    store: &S,
    nodes: &[NodeId],
    visited: usize,
    agg: Aggregate,
) -> TableResult {
    let (column, value) = match agg {
        Aggregate::CountStar => ("count".to_string(), nodes.len() as u64),
        Aggregate::CountDistinct(f) => {
            let distinct = match InvocationKey::table(store, f) {
                Some(keys) => fold_by_key(store, &keys, nodes).0.len(),
                None => {
                    let cells = nodes.iter().filter_map(|&id| field_cell(store, id, f));
                    cells.collect::<BTreeSet<Cell>>().len()
                }
            };
            (format!("count(distinct {})", f.name()), distinct as u64)
        }
    };
    TableResult {
        columns: vec![column],
        rows: vec![vec![Cell::Int(value)]],
        visited,
    }
}

/// `GROUP BY field`: one row per distinct field value (plus a
/// `(none)` row for nodes the field does not apply to), ordered by the
/// group value unless `ORDER BY count` reorders rows by size. An empty
/// node set produces a well-formed zero-row table.
fn group<S: GraphStore + ?Sized>(
    store: &S,
    nodes: &[NodeId],
    visited: usize,
    field: Field,
    shaping: &Shaping,
) -> TableResult {
    let mut counts: BTreeMap<GroupKey, u64> = BTreeMap::new();
    match InvocationKey::table(store, field) {
        Some(keys) => {
            let (folded, none) = fold_by_key(store, &keys, nodes);
            counts.extend(
                folded
                    .into_iter()
                    .map(|(key, n)| (GroupKey::Present(key.cell()), n)),
            );
            if none > 0 {
                counts.insert(GroupKey::Missing, none);
            }
        }
        None => {
            for &id in nodes {
                *counts
                    .entry(GroupKey::new(field_cell(store, id, field)))
                    .or_insert(0) += 1;
            }
        }
    }
    // BTreeMap iteration is already the default order: group value
    // ascending, missing last.
    let mut rows: Vec<(GroupKey, u64)> = counts.into_iter().collect();
    if let Some(OrderBy { key, desc }) = shaping.order_by {
        if key == SortKey::Count {
            rows.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        }
        if desc {
            rows.reverse();
        }
    }
    if let Some(n) = shaping.limit {
        rows.truncate(usize::try_from(n).unwrap_or(usize::MAX));
    }
    TableResult {
        columns: vec![field.name().to_string(), "count".to_string()],
        rows: rows
            .into_iter()
            .map(|(key, count)| vec![key.into_cell(), Cell::Int(count)])
            .collect(),
        visited,
    }
}
