//! The per-node oracle that compiled predicates and per-invocation
//! shaping are held to.
//!
//! The executor decides `module` / `execution` once per invocation
//! ([`crate::filter::CompiledPredicate`]), tests each candidate cheapest
//! first, skips the class re-check on a scan of the class's own kind
//! list, and shapes by `module` / `execution` per invocation. The
//! oracle below does none of that: it compares every conjunct on every
//! node, checks every class, and builds a cell per node for shaping.
//! On generated dealers and Arctic graphs, every generated query must
//! answer the same — nodes, tables and `visited` — on a resident
//! session (with and without a reach index), a paged snapshot, and an
//! append session with a live overlay, before and after `COMPACT`.
//! Each graph is checked on seven session states, so a case budget of
//! `PROPTEST_CASES` (default 256) runs an eighth as many graphs.

#[path = "../tests/common/mod.rs"]
mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use lipstick_core::query::{subgraph, traverse, Direction, ReachIndex};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ast::{
    Aggregate, Comparison, Field, FieldValue, OrderBy, Predicate, Shaping, SortKey, Statement,
    WalkDir,
};
use crate::error::{ProqlError, Result};
use crate::exec::{class_matches, merge_intersect, merge_union};
use crate::plan::{ScanStrategy, SetPlan, StmtPlan, WalkStrategy};
use crate::result::{Cell, NodeSetResult, QueryOutput, TableResult};
use crate::session::Session;
use crate::shape::field_cell;
use crate::testgen::{self, Vocab};

/// Evaluate a predicate conjunction on one node.
fn pred_matches<S: GraphStore + ?Sized>(store: &S, id: NodeId, pred: &Predicate) -> bool {
    pred.conjuncts
        .iter()
        .all(|c| comparison_matches(store, id, c))
}

fn comparison_matches<S: GraphStore + ?Sized>(store: &S, id: NodeId, c: &Comparison) -> bool {
    let invocation = || {
        store
            .role_of(id)
            .invocation()
            .map(|inv| store.invocation(inv))
    };
    match c.field {
        Field::Kind => c.eval(Some(FieldValue::Str(store.kind_of(id).name()))),
        Field::Role => c.eval(Some(FieldValue::Str(store.role_of(id).name()))),
        Field::Module => c.eval(invocation().map(|info| FieldValue::Str(info.module.as_str()))),
        Field::Execution => {
            c.eval(invocation().map(|info| FieldValue::Int(u64::from(info.execution))))
        }
        Field::Token => match &*store.kind_of(id) {
            NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token } => {
                c.eval(Some(FieldValue::Str(token.as_str())))
            }
            _ => c.eval(None),
        },
    }
}

/// A set plan, run node by node: the same candidates and the same
/// `visited` accounting as the executor, every test on every node.
fn run_set(
    store: &dyn GraphStore,
    reach: Option<&ReachIndex>,
    plan: &SetPlan,
) -> Result<(Vec<NodeId>, usize)> {
    match plan {
        SetPlan::Scan {
            class,
            filter,
            strategy,
            limit,
        } => {
            let candidates: Vec<NodeId> = match strategy {
                ScanStrategy::PostingsScan { key, .. } => key.candidates(store).into_owned(),
                ScanStrategy::FullScan { .. } => {
                    (0..store.node_count() as u32).map(NodeId).collect()
                }
            };
            let (mut nodes, mut visited) = (Vec::new(), 0);
            for id in candidates {
                if limit.is_some_and(|n| nodes.len() as u64 >= n) {
                    break;
                }
                if store.is_visible(id) {
                    visited += 1;
                    if class_matches(store, *class, id) && pred_matches(store, id, filter) {
                        nodes.push(id);
                    }
                }
            }
            Ok((nodes, visited))
        }
        SetPlan::Walk {
            root,
            dir,
            depth,
            filter,
            strategy,
        } => match (strategy, reach) {
            (WalkStrategy::ReachIndex { .. }, Some(index)) => {
                let cone = match dir {
                    WalkDir::Descendants => index.descendants(*root),
                    WalkDir::Ancestors => index.ancestors(*root),
                };
                let visited = cone.len();
                let nodes = cone
                    .into_iter()
                    .filter(|&id| store.is_visible(id) && pred_matches(store, id, filter))
                    .collect();
                Ok((nodes, visited))
            }
            _ => {
                let direction = match dir {
                    WalkDir::Ancestors => Direction::Ancestors,
                    WalkDir::Descendants => Direction::Descendants,
                };
                let walk = traverse(store, *root, direction, *depth, |id| {
                    pred_matches(store, id, filter)
                });
                let (nodes, stats) = walk?;
                Ok((nodes, stats.visited))
            }
        },
        SetPlan::Subgraph { root } => {
            let result = subgraph(store, *root)?;
            let visited = result.len();
            Ok((result.nodes, visited))
        }
        SetPlan::Union(..) | SetPlan::Intersect(..) => {
            let merge = match plan {
                SetPlan::Union(..) => merge_union,
                _ => merge_intersect,
            };
            let mut acc: Option<(Vec<NodeId>, usize)> = None;
            for branch in plan.branches() {
                let (ys, vb) = run_set(store, reach, branch)?;
                acc = Some(match acc {
                    None => (ys, vb),
                    Some((xs, va)) => (merge(xs, ys), va + vb),
                });
            }
            Ok(acc.unwrap_or_default())
        }
    }
}

/// Shaping with a cell per node: present values in cell order, the
/// missing-field group last as `(none)`.
fn shape(
    store: &dyn GraphStore,
    mut nodes: Vec<NodeId>,
    visited: usize,
    s: &Shaping,
) -> QueryOutput {
    let key = |id: NodeId, f: Field| {
        let cell = field_cell(store, id, f);
        (cell.is_none(), cell)
    };
    let table = |columns: Vec<String>, rows: Vec<Vec<Cell>>| {
        QueryOutput::Table(TableResult {
            columns,
            rows,
            visited,
        })
    };
    if let Some(agg) = s.agg {
        let (column, value) = match agg {
            Aggregate::CountStar => ("count".to_string(), nodes.len()),
            Aggregate::CountDistinct(f) => {
                let cells: BTreeSet<Cell> = nodes
                    .iter()
                    .filter_map(|&id| field_cell(store, id, f))
                    .collect();
                (format!("count(distinct {})", f.name()), cells.len())
            }
        };
        return table(vec![column], vec![vec![Cell::Int(value as u64)]]);
    }
    let limit = |len: usize| s.limit.map_or(len, |n| len.min(n as usize));
    if let Some(g) = s.group_by {
        let mut counts: BTreeMap<(bool, Option<Cell>), u64> = BTreeMap::new();
        for &id in &nodes {
            *counts.entry(key(id, g)).or_insert(0) += 1;
        }
        let mut rows: Vec<_> = counts.into_iter().collect();
        if let Some(OrderBy { key, desc }) = s.order_by {
            if key == SortKey::Count {
                rows.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
            }
            if desc {
                rows.reverse();
            }
        }
        rows.truncate(limit(rows.len()));
        let rows = rows
            .into_iter()
            .map(|((_, cell), n)| {
                vec![
                    cell.unwrap_or_else(|| Cell::Str("(none)".into())),
                    Cell::Int(n),
                ]
            })
            .collect();
        return table(vec![g.name().to_string(), "count".to_string()], rows);
    }
    if let Some(OrderBy { key: sort, desc }) = s.order_by {
        if let SortKey::Field(f) = sort {
            nodes.sort_by_cached_key(|&id| (key(id, f), id));
        }
        if desc {
            nodes.reverse();
        }
    }
    nodes.truncate(limit(nodes.len()));
    QueryOutput::Nodes(NodeSetResult { nodes, visited })
}

/// The oracle's answer to a planned read; `None` for a plan it does not
/// model (only queries are generated here).
fn answer(session: &Session, stmt: &Statement) -> Option<Result<QueryOutput>> {
    let plan = match session.plan(stmt) {
        Ok(plan) => plan,
        Err(e) => return Some(Err(e)),
    };
    let StmtPlan::Set { plan, shaping } = plan else {
        return None;
    };
    let store = session.store();
    Some(
        run_set(store, session.reach_index(), &plan)
            .map(|(nodes, visited)| shape(store, nodes, visited, &shaping)),
    )
}

/// Every statement must answer as the oracle does.
fn check(session: &Session, stmts: &[Statement], label: &str) {
    for stmt in stmts {
        let Some(expect) = answer(session, stmt) else {
            continue;
        };
        let got = session.run_read_stmt(stmt);
        let show = |r: Result<QueryOutput>| r.map_err(|e: ProqlError| e.to_string());
        assert_eq!(show(got), show(expect), "{label}: {stmt}");
    }
}

/// A v2 log of `graph` in the temp dir, and its tail sidecar's path.
fn temp_log(case: usize, graph: &lipstick_core::ProvGraph) -> (PathBuf, PathBuf) {
    let name = format!("lipstick-proql-oracle-{}-{case}.lpstk", std::process::id());
    let path = std::env::temp_dir().join(name);
    let mut tail = path.clone().into_os_string();
    tail.push(".tail");
    let tail = PathBuf::from(tail);
    let _ = lipstick_storage::default_io().unlink(&tail);
    lipstick_storage::write_graph_v2(graph, &path).unwrap();
    (path, tail)
}

#[test]
fn compiled_scans_walks_and_shaping_match_the_per_node_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5ca7);
    for case in 0..common::case_budget() / 8 {
        let g = common::random_graph(&mut rng);
        let vocab = Vocab::from_graph(&g);
        let stmts: Vec<Statement> = (0..24)
            .map(|_| testgen::statement(&vocab, &mut rng))
            .filter(|s| matches!(s, Statement::Query(_)))
            .collect();

        let mut resident = Session::new(g.clone());
        check(&resident, &stmts, "resident");
        resident.run_one("BUILD INDEX").unwrap();
        check(&resident, &stmts, "resident + reach index");

        let (path, tail) = temp_log(case, &g);
        check(&Session::open(&path).unwrap(), &stmts, "paged");

        // A live overlay: a second graph's fragment and a deletion.
        let mut append = Session::open_append(&path).unwrap();
        append.ingest(&common::random_graph(&mut rng)).unwrap();
        if let Some(&victim) = vocab.node_ids.get(rng.below(vocab.node_ids.len().max(1))) {
            let _ = append.run_one(&format!("DELETE #{victim} PROPAGATE"));
        }
        let zoomed = vocab.modules.first().map(|m| format!("ZOOM OUT TO {m}"));
        check(&append, &stmts, "append with overlay");
        append.run_one("COMPACT").unwrap();
        check(&append, &stmts, "append after COMPACT");
        if let Some(zoom) = zoomed {
            append.run_one(&zoom).unwrap();
            check(&append, &stmts, "append, zoomed out");
        }
        for file in [&path, &tail] {
            let _ = lipstick_storage::default_io().unlink(file);
        }
    }
}
