//! The ProQL executor: physical plans → results.
//!
//! One read executor, [`execute_read`], runs every read-only statement
//! form — `MATCH`, walks, `SUBGRAPH OF`, `WHY`, `EVAL`, `DEPENDS`, set
//! operations, `EXPLAIN [ANALYZE]`, `CHECK`, `STATS` — against any
//! [`GraphStore`]; on a store that faults records in, only the records
//! a query touches are decoded. Changes never come here: the session
//! decides and applies them (`Session::prepare_write` /
//! `Session::publish_write`).
//!
//! Executors report `visited` counts — the number of graph nodes they
//! actually examined — so tests (and the `proql_planner` bench) can
//! verify the planner's cost model against observed work.
//!
//! `WHY` and `EVAL` are circuit passes over the node's visible cone
//! (`lipstick_core::query::circuit`), never its expansion: `EVAL` folds
//! the semiring's values; `WHY` prints the circuit in shared form, a
//! line for each composite the cone reads twice or more or that nests
//! too deep to inline, and always answers. Its expanded N\[X\] line and
//! `EVAL … IN why` first run a bounding pass (`Limits`) on the
//! expansion's size: past it, `WHY` prints a note instead of the line
//! and `EVAL … IN why` refuses with [`ProqlError::TooLarge`], each after
//! one pass over the cone.
//!
//! ## Set operations
//!
//! A `UNION`/`INTERSECT` chain runs its flattened branches left to
//! right and folds them in source order, each under a `branch i` span,
//! so the span tree has one shape whether or not the run is traced and
//! the leftmost failing branch decides the statement's error.
//! Everything the executor touches is behind `&`, which is what lets
//! `lipstick-serve` run [`execute_read`] concurrently under a shared
//! read lock.

use lipstick_core::obs::{QueryTrace, SpanGuard, TraceCtx, Tracer};
use lipstick_core::query::{
    depends_on, eval_node, shared_lines, subgraph, traverse, Direction, Limits, QueryError,
    ReachIndex, Valued,
};
use lipstick_core::semiring::boolean::Bools;
use lipstick_core::semiring::lineage::Lineage;
use lipstick_core::semiring::natural::Natural;
use lipstick_core::semiring::tropical::Tropical;
use lipstick_core::semiring::whyprov::Why;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, Polynomial, ProvExpr, Token};

use crate::ast::{NodeClass, SemiringName, WalkDir};
use crate::error::{ProqlError, Result};
use crate::filter::CompiledPredicate;
use crate::plan::{DependsStrategy, ScanStrategy, SetPlan, StmtPlan, WalkStrategy};
use crate::result::QueryOutput;

/// What a read runs against: the store, the session's reach index if
/// one is built, and the two things the session knows about the store
/// that the [`GraphStore`] trait does not say.
pub(crate) struct ReadEnv<'a, S: GraphStore + ?Sized> {
    pub store: &'a S,
    pub reach: Option<&'a ReachIndex>,
    /// The store faults records in: operator spans carry a `reads`
    /// attribute, the delta of its fault counter around the operator.
    pub reads: bool,
    /// Renders the `STATS` answer for this kind of store.
    pub stats: fn(&S, Option<&ReachIndex>) -> String,
}

impl<S: GraphStore + ?Sized> ReadEnv<'_, S> {
    /// The fault counter now, to hand back to [`ReadEnv::stamp_reads`].
    fn reads_mark(&self) -> usize {
        if self.reads {
            self.store.records_read()
        } else {
            0
        }
    }

    fn stamp_reads(&self, span: &mut SpanGuard<'_>, mark: usize) {
        if self.reads {
            span.attr(
                "reads",
                self.store.records_read().saturating_sub(mark) as u64,
            );
        }
    }

    /// Stamp a set operator's actuals on its span.
    fn stamp_set(&self, span: &mut SpanGuard<'_>, mark: usize, out: &SetResult) {
        if let Ok((nodes, visited)) = out {
            span.attr("rows", nodes.len() as u64);
            span.attr("visited", *visited as u64);
        }
        self.stamp_reads(span, mark);
    }
}

/// A set operator's `(sorted nodes, visited)` payload, or its failure.
type SetResult = Result<(Vec<NodeId>, usize)>;

/// Cooperative cancellation: consulted at span boundaries (statement
/// entry and each set-plan operator), so a runaway read gives up within
/// one operator's work of its deadline. The circuit pass behind `WHY`
/// and `EVAL` also checks inside its loop, every few thousand nodes.
fn check_deadline(ctx: &TraceCtx<'_>) -> Result<()> {
    if ctx.deadline_exceeded() {
        return Err(ProqlError::DeadlineExceeded);
    }
    Ok(())
}

/// Execute one planned **read-only** statement, without exclusive
/// access to the session — the execution arm `lipstick-serve` runs
/// concurrently under a shared read lock. Mutating plans (`DELETE`,
/// zooms, index maintenance, `COMPACT`) are refused with
/// [`ProqlError::ReadOnly`]; the session's write path handles them.
pub(crate) fn execute_read<S: GraphStore + ?Sized>(
    env: &ReadEnv<'_, S>,
    plan: &StmtPlan,
    ctx: TraceCtx<'_>,
) -> Result<QueryOutput> {
    check_deadline(&ctx)?;
    let store = env.store;
    match plan {
        StmtPlan::Set { plan: p, shaping } => {
            let (nodes, visited) = run_set(env, p, ctx)?;
            let mut span = ctx.span("shaping");
            let mark = env.reads_mark();
            let out = crate::shape::apply_shaping(store, nodes, visited, shaping);
            span.attr("rows", output_rows(&out));
            env.stamp_reads(&mut span, mark);
            Ok(out)
        }
        StmtPlan::Why { n, .. } => {
            let mut span = ctx.span("why");
            let mark = env.reads_mark();
            let text = why(store, *n, span.ctx());
            env.stamp_reads(&mut span, mark);
            Ok(QueryOutput::Text(text?))
        }
        StmtPlan::Depends {
            n,
            n_prime,
            strategy,
        } => {
            let mut span = ctx.span("depends");
            let mark = env.reads_mark();
            // Deletion of n' only propagates to its descendants, so the
            // closure settles n = n' and unreachable pairs outright. A
            // prefilter plan whose index is gone just propagates.
            let value = match (strategy, env.reach) {
                (DependsStrategy::ReachPrefilter, Some(_)) if n == n_prime => true,
                (DependsStrategy::ReachPrefilter, Some(index)) if !index.reaches(*n_prime, *n) => {
                    false
                }
                _ => depends_on(store, *n, *n_prime)?,
            };
            env.stamp_reads(&mut span, mark);
            Ok(QueryOutput::Bool(value))
        }
        StmtPlan::Eval(n, semiring) => {
            let mut span = ctx.span("eval");
            let mark = env.reads_mark();
            let text = eval_in(store, *n, *semiring, span.ctx());
            env.stamp_reads(&mut span, mark);
            Ok(QueryOutput::Text(text?))
        }
        StmtPlan::Stats => Ok(QueryOutput::Text((env.stats)(store, env.reach))),
        StmtPlan::Explain(inner) => Ok(QueryOutput::Text(inner.to_string())),
        StmtPlan::ExplainAnalyze(inner) => {
            let tracer = Tracer::new();
            let output = execute_read(env, inner, TraceCtx::root(&tracer))?;
            Ok(QueryOutput::Text(render_analyze(
                inner,
                &tracer.finish(),
                &output,
            )))
        }
        StmtPlan::Check { source } | StmtPlan::ExplainLint { source } => {
            let _span = ctx.span("check");
            Ok(QueryOutput::Diagnostics(crate::analyze::analyze(
                store, source,
            )))
        }
        StmtPlan::Delete(_)
        | StmtPlan::ZoomOut { .. }
        | StmtPlan::ZoomIn { .. }
        | StmtPlan::BuildIndex
        | StmtPlan::DropIndex
        | StmtPlan::Compact => Err(ProqlError::ReadOnly(plan.to_string())),
    }
}

/// Run a set plan under its operator span; returns (sorted nodes,
/// visited count).
fn run_set<S: GraphStore + ?Sized>(
    env: &ReadEnv<'_, S>,
    plan: &SetPlan,
    ctx: TraceCtx<'_>,
) -> SetResult {
    check_deadline(&ctx)?;
    let store = env.store;
    let mut span = ctx.span(match plan {
        SetPlan::Scan { .. } => "scan",
        SetPlan::Walk { .. } => "walk",
        SetPlan::Subgraph { .. } => "subgraph",
        SetPlan::Union(..) => "union",
        SetPlan::Intersect(..) => "intersect",
    });
    let mark = env.reads_mark();
    let out = match plan {
        SetPlan::Scan {
            class,
            filter,
            strategy,
            limit,
        } => {
            let filter = CompiledPredicate::new(store, filter);
            Ok(match strategy {
                ScanStrategy::PostingsScan { key, .. } => {
                    let ids = key.candidates(store);
                    let class = key.class_to_check(*class);
                    scan_ids(store, ids.iter().copied(), class, &filter, *limit)
                }
                ScanStrategy::FullScan { .. } => {
                    let ids = (0..store.node_count() as u32).map(NodeId);
                    scan_ids(store, ids, *class, &filter, *limit)
                }
            })
        }
        SetPlan::Walk {
            root,
            dir,
            depth,
            filter,
            strategy,
        } => match (strategy, env.reach, CompiledPredicate::new(store, filter)) {
            (WalkStrategy::ReachIndex { .. }, Some(index), filter) => {
                let candidates = match dir {
                    WalkDir::Descendants => index.descendants(*root),
                    WalkDir::Ancestors => index.ancestors(*root),
                };
                let visited = candidates.len();
                let nodes: Vec<NodeId> = candidates
                    .into_iter()
                    .filter(|id| store.is_visible(*id) && filter.matches(store, *id))
                    .collect();
                Ok((nodes, visited))
            }
            // Bounded walks — and a reach plan whose index is gone —
            // sweep, with the predicate pushed into the collect step.
            (_, _, filter) => {
                let direction = match dir {
                    WalkDir::Ancestors => Direction::Ancestors,
                    WalkDir::Descendants => Direction::Descendants,
                };
                traverse(store, *root, direction, *depth, |id| {
                    filter.matches(store, id)
                })
                .map(|(nodes, stats)| (nodes, stats.visited))
                .map_err(ProqlError::from)
            }
        },
        SetPlan::Subgraph { root } => subgraph(store, *root)
            .map(|result| {
                let visited = result.len();
                (result.nodes, visited)
            })
            .map_err(ProqlError::from),
        SetPlan::Union(..) | SetPlan::Intersect(..) => run_branches(env, plan, span.ctx()),
    };
    env.stamp_set(&mut span, mark, &out);
    out
}

/// Run a set operation's flattened branches left to right, folding in
/// source order: the leftmost failing branch decides the error.
fn run_branches<S: GraphStore + ?Sized>(
    env: &ReadEnv<'_, S>,
    plan: &SetPlan,
    ctx: TraceCtx<'_>,
) -> SetResult {
    let merge = match plan {
        SetPlan::Union(..) => merge_union,
        _ => merge_intersect,
    };
    let mut acc: Option<(Vec<NodeId>, usize)> = None;
    for (i, branch) in plan.branches().into_iter().enumerate() {
        let mut span = ctx.span_indexed(&format!("branch {i}"), i as u32);
        let mark = env.reads_mark();
        let out = run_set(env, branch, span.ctx());
        env.stamp_set(&mut span, mark, &out);
        drop(span);
        let (ys, vb) = out?;
        acc = Some(match acc {
            None => (ys, vb),
            Some((xs, va)) => (merge(xs, ys), va + vb),
        });
    }
    Ok(acc.unwrap_or_default())
}

/// Rows in a query output, for span attributes: node count, table rows,
/// or 1 for scalars/text.
fn output_rows(out: &QueryOutput) -> u64 {
    match out {
        QueryOutput::Nodes(ns) => ns.nodes.len() as u64,
        QueryOutput::Table(t) => t.rows.len() as u64,
        QueryOutput::Deleted { nodes } => nodes.len() as u64,
        QueryOutput::Diagnostics(d) => d.items.len() as u64,
        QueryOutput::Bool(_) | QueryOutput::Text(_) | QueryOutput::Message(_) => 1,
    }
}

/// Render an `EXPLAIN ANALYZE` answer: the chosen physical plan, the
/// observed per-operator span tree, and a one-line total.
fn render_analyze(plan: &StmtPlan, trace: &QueryTrace, output: &QueryOutput) -> String {
    let mut text = format!("explain analyze\n  {plan}\nactuals:\n");
    for line in trace.render_tree().lines() {
        text.push_str("  ");
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(&format!(
        "total: {} row(s), {} µs",
        output_rows(output),
        trace.total_us()
    ));
    text
}

/// Examine the visible nodes among `candidates`, which must ascend by
/// id — which is what makes the planner's pushed-down `limit` sound:
/// the first `n` matches are the set's `n` smallest members, so the
/// scan stops early. Each candidate takes the cheapest test first:
/// visibility (index-level; it decides `visited`), then what the role
/// decides, and only then what reads the record — the class and the
/// `kind` / `token` conjuncts.
fn scan_ids<S: GraphStore + ?Sized>(
    store: &S,
    candidates: impl Iterator<Item = NodeId>,
    class: NodeClass,
    filter: &CompiledPredicate<'_>,
    limit: Option<u64>,
) -> (Vec<NodeId>, usize) {
    let mut visited = 0;
    let mut out = Vec::new();
    for id in candidates {
        if limit.is_some_and(|n| out.len() as u64 >= n) {
            break;
        }
        if !store.is_visible(id) {
            continue;
        }
        visited += 1;
        if filter.matches_role(store, id)
            && class_matches(store, class, id)
            && filter.matches_record(store, id)
        {
            out.push(id);
        }
    }
    (out, visited)
}

/// Does a node belong to a `MATCH` class? `nodes` never asks the store
/// for the kind, so an unfiltered scan faults nothing.
pub(crate) fn class_matches<S: GraphStore + ?Sized>(
    store: &S,
    class: NodeClass,
    id: NodeId,
) -> bool {
    if class == NodeClass::All {
        return true;
    }
    let kind = store.kind_of(id);
    match class {
        NodeClass::All => true,
        NodeClass::Invocation => matches!(*kind, NodeKind::Invocation),
        NodeClass::ModuleInput => matches!(*kind, NodeKind::ModuleInput),
        NodeClass::ModuleOutput => matches!(*kind, NodeKind::ModuleOutput),
        NodeClass::State => matches!(*kind, NodeKind::StateUnit),
        NodeClass::Base => matches!(*kind, NodeKind::BaseTuple { .. }),
        NodeClass::PNodes => !kind.is_value_node(),
        NodeClass::VNodes => kind.is_value_node(),
    }
}

pub(crate) fn merge_union(xs: Vec<NodeId>, ys: Vec<NodeId>) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(xs.len() + ys.len());
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => {
                out.push(xs[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(ys[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&xs[i..]);
    out.extend_from_slice(&ys[j..]);
    out
}

pub(crate) fn merge_intersect(xs: Vec<NodeId>, ys: Vec<NodeId>) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// `WHY n`: the circuit in shared form, one `id: expression` line for
/// the root and one for each named node, then — when no line holds δ —
/// the expanded N\[X\] polynomial, or past [`Limits`]' bound a note
/// naming it.
fn why<S: GraphStore + ?Sized>(store: &S, n: NodeId, ctx: TraceCtx<'_>) -> Result<String> {
    fn has_delta(e: &ProvExpr) -> bool {
        match e {
            ProvExpr::Delta(_) => true,
            ProvExpr::Sum(v) | ProvExpr::Prod(v) => v.iter().any(has_delta),
            _ => false,
        }
    }
    let lines = shared_lines(store, n, ctx)?;
    let mut text: Vec<String> = lines.iter().map(|(id, e)| format!("{id}: {e}")).collect();
    if !lines.iter().any(|(_, e)| has_delta(e)) {
        let poly = Valued(|t: &Token| Polynomial::token(t.clone()));
        text.push(match eval_node(store, n, &Limits, ctx) {
            Ok(_) => format!("  = {} (expanded N[X] polynomial)", eval_node(store, n, &poly, ctx)?),
            Err(QueryError::TooLarge { limit }) => format!(
                "  (expanded N[X] polynomial not printed: it would pass {limit} monomials and tokens)"
            ),
            Err(e) => return Err(e.into()),
        });
    }
    Ok(text.join("\n"))
}

/// `EVAL n IN semiring`: one circuit pass over `n`'s visible cone
/// under the semiring's token valuation. Counting and tropical give
/// every token weight 1 (number of derivations, saturating at
/// `u64::MAX` / fewest tuples on a derivation); boolean marks every
/// token present; lineage and why map each token to itself, producing
/// contributing-token sets and minimal witnesses respectively.
fn eval_in<S: GraphStore + ?Sized>(
    store: &S,
    id: NodeId,
    semiring: SemiringName,
    ctx: TraceCtx<'_>,
) -> Result<String> {
    let names = |set: &std::collections::BTreeSet<Token>| {
        let names: Vec<&str> = set.iter().map(Token::as_str).collect();
        format!("{{{}}}", names.join(", "))
    };
    Ok(match semiring {
        SemiringName::Counting => {
            let n = eval_node(store, id, &Valued(|_: &Token| Natural(1)), ctx)?.0;
            let at_least = if n == u64::MAX { "at least " } else { "" };
            format!("{id} in counting: {at_least}{n} derivation(s)")
        }
        SemiringName::Boolean => {
            let b = eval_node(store, id, &Valued(|_: &Token| Bools(true)), ctx)?;
            format!("{id} in boolean: {}", b.0)
        }
        SemiringName::Tropical => {
            let t = eval_node(store, id, &Valued(|_: &Token| Tropical(1.0)), ctx)?;
            format!("{id} in tropical (unit costs): {}", t.0)
        }
        SemiringName::Lineage => {
            let lineage = Valued(|t: &Token| Lineage::token(t.clone()));
            match eval_node(store, id, &lineage, ctx)?.tokens() {
                Some(set) => format!("{id} in lineage: {}", names(set)),
                None => format!("{id} in lineage: underivable"),
            }
        }
        SemiringName::Why => {
            eval_node(store, id, &Limits, ctx)?;
            let why = eval_node(store, id, &Valued(|t: &Token| Why::token(t.clone())), ctx)?;
            let witnesses: Vec<String> = why.witnesses().iter().map(names).collect();
            format!("{id} in why: {{{}}}", witnesses.join(", "))
        }
    })
}
