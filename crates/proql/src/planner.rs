//! The cost-aware planner: typed AST → physical plan.
//!
//! Three decisions are made here rather than in the executor:
//!
//! 1. **Scan strategy for `MATCH`.** A `module = '…'` equality conjunct
//!    lets the scan be driven from the graph's invocation table instead
//!    of sweeping every visible node; the planner estimates both costs
//!    from graph statistics and picks the cheaper. Predicates always
//!    ride inside the chosen scan (pushdown), never as a post-filter.
//! 2. **Traversal strategy for walks and `DEPENDS`.** With a
//!    [`ReachIndex`](lipstick_core::query::ReachIndex) present,
//!    unbounded walks in *either* direction become closure lookups (the
//!    index is bidirectional, so `ANCESTORS OF` costs the same as
//!    `DESCENDANTS OF` — and the estimate is the exact cone size read
//!    off the index), `WHY` plans carry the ancestor-cone bound of the
//!    extraction they are about to run, and dependency tests get an
//!    O(1) unreachability prefilter before falling back to deletion
//!    propagation.
//! 3. **Zoom fusion.** Consecutive `ZOOM OUT` (or `ZOOM IN TO`)
//!    statements fuse into one atomic multi-module operation, so a
//!    script that zooms module-by-module pays one graph sweep instead
//!    of one per statement.

use lipstick_core::query::ReachIndex;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, ProvGraph};

use crate::ast::{NodeClass, NodeRef, SetExpr, SetTerm, Statement, WalkDir};
use crate::error::{ProqlError, Result};
use crate::plan::{DependsStrategy, PostingsKey, ScanStrategy, SetPlan, StmtPlan, WalkStrategy};

/// `EXPLAIN ANALYZE` executes its inner statement, so a mutating inner
/// must be rejected at plan time — identically by both planners, so the
/// resident, paged, and served engines return the same error text.
fn reject_mutating_analyze(inner: &Statement) -> Result<()> {
    if inner.is_read_only() {
        Ok(())
    } else {
        Err(ProqlError::ReadOnly(format!("EXPLAIN ANALYZE {inner}")))
    }
}

/// Plans statements against a graph snapshot.
pub struct Planner<'a> {
    graph: &'a ProvGraph,
    reach: Option<&'a ReachIndex>,
    /// Visible node count, the full-scan cost unit: read off the count
    /// the graph maintains, so planner set-up is O(1).
    visible: usize,
}

impl<'a> Planner<'a> {
    pub fn new(graph: &'a ProvGraph, reach: Option<&'a ReachIndex>) -> Planner<'a> {
        debug_assert_eq!(
            graph.visible_count(),
            graph.iter_visible().count(),
            "maintained visible count drifted from the node arena"
        );
        Planner {
            graph,
            reach,
            visible: graph.visible_count(),
        }
    }

    /// Resolve a node reference against the graph.
    pub fn resolve(&self, r: &NodeRef) -> Result<NodeId> {
        match r {
            NodeRef::Id(n) => {
                let id = NodeId(*n);
                if (*n as usize) < self.graph.len() && self.graph.node(id).is_visible() {
                    Ok(id)
                } else {
                    Err(ProqlError::UnknownNode(r.to_string()))
                }
            }
            NodeRef::Token(t) => self
                .graph
                .iter_visible()
                .find(|(_, n)| match &n.kind {
                    NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token } => {
                        token.as_str() == t
                    }
                    _ => false,
                })
                .map(|(id, _)| id)
                .ok_or_else(|| ProqlError::UnknownNode(r.to_string())),
        }
    }

    pub fn plan(&self, stmt: &Statement) -> Result<StmtPlan> {
        Ok(match stmt {
            Statement::Query(q) => {
                let mut plan = self.plan_set(&q.expr)?;
                if let Some(n) = q.shaping.pushdown_limit() {
                    plan.push_limit(n);
                }
                StmtPlan::Set {
                    plan,
                    shaping: q.shaping.clone(),
                }
            }
            Statement::Why(r) => {
                let n = self.resolve(r)?;
                StmtPlan::Why {
                    n,
                    est_cone: self.reach.map(|idx| idx.ancestor_count(n)),
                }
            }
            Statement::Depends(n, n_prime) => {
                let strategy = if self.reach.is_some() {
                    DependsStrategy::ReachPrefilter
                } else {
                    DependsStrategy::Propagation
                };
                StmtPlan::Depends {
                    n: self.resolve(n)?,
                    n_prime: self.resolve(n_prime)?,
                    strategy,
                }
            }
            Statement::DeletePropagate(r) => StmtPlan::Delete(self.resolve(r)?),
            Statement::ZoomOut(modules) => StmtPlan::ZoomOut {
                modules: modules.clone(),
                fused_from: 1,
            },
            Statement::ZoomIn(modules) => StmtPlan::ZoomIn {
                modules: modules.clone(),
                fused_from: 1,
            },
            Statement::Eval(r, s) => StmtPlan::Eval(self.resolve(r)?, *s),
            Statement::BuildIndex => StmtPlan::BuildIndex,
            Statement::DropIndex => StmtPlan::DropIndex,
            Statement::Compact => StmtPlan::Compact,
            Statement::Stats => StmtPlan::Stats,
            Statement::Explain(inner) => StmtPlan::Explain(Box::new(self.plan(inner)?)),
            Statement::ExplainAnalyze(inner) => {
                reject_mutating_analyze(inner)?;
                StmtPlan::ExplainAnalyze(Box::new(self.plan(inner)?))
            }
            // The analyzed source passes through untouched: resolving
            // or planning it here would leak backend-specific work
            // into CHECK, and would fail on ill-formed input instead
            // of diagnosing it.
            Statement::Check { source } => StmtPlan::Check {
                source: source.clone(),
            },
            Statement::ExplainLint { source } => StmtPlan::ExplainLint {
                source: source.clone(),
            },
        })
    }

    fn plan_set(&self, e: &SetExpr) -> Result<SetPlan> {
        Ok(match e {
            SetExpr::Term(t) => self.plan_term(t)?,
            SetExpr::Union(a, b) => {
                SetPlan::Union(Box::new(self.plan_set(a)?), Box::new(self.plan_set(b)?))
            }
            SetExpr::Intersect(a, b) => {
                SetPlan::Intersect(Box::new(self.plan_set(a)?), Box::new(self.plan_set(b)?))
            }
        })
    }

    fn plan_term(&self, t: &SetTerm) -> Result<SetPlan> {
        Ok(match t {
            SetTerm::Subgraph(r) => SetPlan::Subgraph {
                root: self.resolve(r)?,
            },
            SetTerm::Walk {
                dir,
                root,
                depth,
                filter,
            } => {
                let root = self.resolve(root)?;
                // The closure stores full-depth cones in both
                // directions; only bounded walks take the BFS (the
                // closure holds no depth information).
                let strategy = match (self.reach, depth) {
                    (Some(index), None) => WalkStrategy::ReachIndex {
                        est_visited: match dir {
                            WalkDir::Descendants => index.descendant_count(root),
                            WalkDir::Ancestors => index.ancestor_count(root),
                        },
                    },
                    _ => WalkStrategy::Bfs {
                        est_visited: self.visible,
                    },
                };
                SetPlan::Walk {
                    root,
                    dir: *dir,
                    depth: *depth,
                    filter: filter.clone(),
                    strategy,
                }
            }
            SetTerm::Match { class, filter } => {
                let strategy = self.scan_strategy(*class, filter.required_module());
                SetPlan::Scan {
                    class: *class,
                    filter: filter.clone(),
                    strategy,
                    limit: None,
                }
            }
            SetTerm::Paren(inner) => self.plan_set(inner)?,
        })
    }

    /// Choose full scan vs invocation-table-driven module scan.
    fn scan_strategy(&self, class: NodeClass, module: Option<&str>) -> ScanStrategy {
        let full = ScanStrategy::FullScan {
            est_visited: self.visible,
        };
        let Some(module) = module else { return full };
        let module_invs = self.graph.invocations_of(module).len();
        let total_invs = self.graph.invocations().len().max(1);
        let est_visited = if class == NodeClass::Invocation {
            // m-nodes come straight off the invocation table.
            module_invs
        } else {
            // Assume invocations own similar node counts: this module's
            // share of the visible graph.
            (self.visible * module_invs).div_ceil(total_invs)
        };
        if est_visited < self.visible {
            ScanStrategy::ModuleScan {
                module: module.to_string(),
                invocations: module_invs,
                est_visited,
            }
        } else {
            full
        }
    }
}

/// A source statement plus how many source statements fused into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedStatement {
    pub stmt: Statement,
    pub fused_from: usize,
}

/// Fuse runs of consecutive `ZOOM OUT` statements (and of explicit
/// `ZOOM IN TO` statements) into single multi-module statements, so a
/// script that zooms module-by-module pays one atomic zoom instead of
/// one graph pass per statement. Runs on the AST, before planning:
/// later statements must be planned against the graph state their
/// predecessors produce, so per-statement planning happens lazily in
/// the session loop.
pub fn fuse_zooms(stmts: Vec<Statement>) -> Vec<FusedStatement> {
    let mut out: Vec<FusedStatement> = Vec::new();
    for stmt in stmts {
        match (&stmt, out.last_mut()) {
            (
                Statement::ZoomOut(next),
                Some(FusedStatement {
                    stmt: Statement::ZoomOut(acc),
                    fused_from,
                }),
            ) => {
                acc.extend(next.iter().cloned());
                *fused_from += 1;
            }
            (
                Statement::ZoomIn(Some(next)),
                Some(FusedStatement {
                    stmt: Statement::ZoomIn(Some(acc)),
                    fused_from,
                }),
            ) => {
                acc.extend(next.iter().cloned());
                *fused_from += 1;
            }
            _ => out.push(FusedStatement {
                stmt,
                fused_from: 1,
            }),
        }
    }
    out
}

impl Planner<'_> {
    /// Plan a fused statement, carrying the fusion count into zoom
    /// plans so `EXPLAIN` can show it.
    pub fn plan_fused(&self, fs: &FusedStatement) -> Result<StmtPlan> {
        let plan = self.plan(&fs.stmt)?;
        Ok(match plan {
            StmtPlan::ZoomOut { modules, .. } => StmtPlan::ZoomOut {
                modules,
                fused_from: fs.fused_from,
            },
            StmtPlan::ZoomIn { modules, .. } => StmtPlan::ZoomIn {
                modules,
                fused_from: fs.fused_from,
            },
            other => other,
        })
    }
}

/// Plans statements against a paged log (or any [`GraphStore`]) without
/// decoding records the query does not need. Strategy choices favour
/// footer postings lists: a `module = '…'` or `kind = '…'` conjunct (or
/// a single-kind node class) turns the scan into a postings read, whose
/// size — known from the index before any record is touched — is what
/// `EXPLAIN` reports as records read.
pub struct PagedPlanner<'a, S: GraphStore> {
    store: &'a S,
    total_records: usize,
}

impl<'a, S: GraphStore> PagedPlanner<'a, S> {
    pub fn new(store: &'a S) -> PagedPlanner<'a, S> {
        PagedPlanner {
            store,
            total_records: store.node_count(),
        }
    }

    /// Resolve a node reference. Token lookups go through the
    /// base-tuple and workflow-input kind postings, faulting only those
    /// records instead of sweeping the log.
    pub fn resolve(&self, r: &NodeRef) -> Result<NodeId> {
        match r {
            NodeRef::Id(n) => {
                let id = NodeId(*n);
                if (*n as usize) < self.store.node_count() && self.store.is_visible(id) {
                    Ok(id)
                } else {
                    Err(ProqlError::UnknownNode(r.to_string()))
                }
            }
            NodeRef::Token(t) => {
                // Merge both token-bearing kinds and test in ascending
                // id order, so a token present on several nodes
                // resolves to the same node the resident planner's
                // id-order sweep picks.
                let mut candidates: Vec<NodeId> = ["base_tuple", "workflow_input"]
                    .into_iter()
                    .flat_map(|kind| {
                        self.store
                            .kind_postings(kind)
                            .unwrap_or_else(|| self.all_visible())
                    })
                    .collect();
                candidates.sort();
                candidates.dedup();
                candidates
                    .into_iter()
                    .find(|id| match self.store.kind_of(*id) {
                        NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token } => {
                            token.as_str() == t
                        }
                        _ => false,
                    })
                    .ok_or_else(|| ProqlError::UnknownNode(r.to_string()))
            }
        }
    }

    fn all_visible(&self) -> Vec<NodeId> {
        (0..self.store.node_count() as u32)
            .map(NodeId)
            .filter(|id| self.store.is_visible(*id))
            .collect()
    }

    pub fn plan(&self, stmt: &Statement) -> Result<StmtPlan> {
        Ok(match stmt {
            Statement::Query(q) => {
                let mut plan = self.plan_set(&q.expr)?;
                if let Some(n) = q.shaping.pushdown_limit() {
                    plan.push_limit(n);
                }
                StmtPlan::Set {
                    plan,
                    shaping: q.shaping.clone(),
                }
            }
            Statement::Why(r) => StmtPlan::Why {
                n: self.resolve(r)?,
                est_cone: None,
            },
            Statement::Depends(n, n_prime) => StmtPlan::Depends {
                n: self.resolve(n)?,
                n_prime: self.resolve(n_prime)?,
                strategy: DependsStrategy::PagedPropagation,
            },
            Statement::DeletePropagate(r) => StmtPlan::Delete(self.resolve(r)?),
            Statement::ZoomOut(modules) => StmtPlan::ZoomOut {
                modules: modules.clone(),
                fused_from: 1,
            },
            Statement::ZoomIn(modules) => StmtPlan::ZoomIn {
                modules: modules.clone(),
                fused_from: 1,
            },
            Statement::Eval(r, s) => StmtPlan::Eval(self.resolve(r)?, *s),
            Statement::BuildIndex => StmtPlan::BuildIndex,
            Statement::DropIndex => StmtPlan::DropIndex,
            Statement::Compact => StmtPlan::Compact,
            Statement::Stats => StmtPlan::Stats,
            Statement::Explain(inner) => StmtPlan::Explain(Box::new(self.plan(inner)?)),
            Statement::ExplainAnalyze(inner) => {
                reject_mutating_analyze(inner)?;
                StmtPlan::ExplainAnalyze(Box::new(self.plan(inner)?))
            }
            // The analyzed source passes through untouched: resolving
            // or planning it here would leak backend-specific work
            // into CHECK, and would fail on ill-formed input instead
            // of diagnosing it.
            Statement::Check { source } => StmtPlan::Check {
                source: source.clone(),
            },
            Statement::ExplainLint { source } => StmtPlan::ExplainLint {
                source: source.clone(),
            },
        })
    }

    /// Plan a fused statement, carrying the fusion count into zoom
    /// plans so `EXPLAIN` can show it — the paged/append mirror of
    /// [`Planner::plan_fused`].
    pub fn plan_fused(&self, fs: &FusedStatement) -> Result<StmtPlan> {
        let plan = self.plan(&fs.stmt)?;
        Ok(match plan {
            StmtPlan::ZoomOut { modules, .. } => StmtPlan::ZoomOut {
                modules,
                fused_from: fs.fused_from,
            },
            StmtPlan::ZoomIn { modules, .. } => StmtPlan::ZoomIn {
                modules,
                fused_from: fs.fused_from,
            },
            other => other,
        })
    }

    fn plan_set(&self, e: &SetExpr) -> Result<SetPlan> {
        Ok(match e {
            SetExpr::Term(t) => self.plan_term(t)?,
            SetExpr::Union(a, b) => {
                SetPlan::Union(Box::new(self.plan_set(a)?), Box::new(self.plan_set(b)?))
            }
            SetExpr::Intersect(a, b) => {
                SetPlan::Intersect(Box::new(self.plan_set(a)?), Box::new(self.plan_set(b)?))
            }
        })
    }

    fn plan_term(&self, t: &SetTerm) -> Result<SetPlan> {
        Ok(match t {
            SetTerm::Subgraph(r) => SetPlan::Subgraph {
                root: self.resolve(r)?,
            },
            SetTerm::Walk {
                dir,
                root,
                depth,
                filter,
            } => SetPlan::Walk {
                root: self.resolve(root)?,
                dir: *dir,
                depth: *depth,
                filter: filter.clone(),
                strategy: WalkStrategy::PagedBfs {
                    total_records: self.total_records,
                },
            },
            SetTerm::Match { class, filter } => SetPlan::Scan {
                class: *class,
                filter: filter.clone(),
                strategy: self.scan_strategy(*class, filter),
                limit: None,
            },
            SetTerm::Paren(inner) => self.plan_set(inner)?,
        })
    }

    /// Pick the smallest applicable postings list; fall back to a
    /// streaming full-record scan. Beyond the module/kind equality
    /// postings, a token-demanding predicate (`token LIKE 'C%'`)
    /// narrows to the union of the two token-bearing kind postings,
    /// and `module LIKE '…'` resolves the pattern against the
    /// resident invocation table and unions the matching modules'
    /// postings.
    fn scan_strategy(&self, class: NodeClass, filter: &crate::ast::Predicate) -> ScanStrategy {
        let mut best: Option<(PostingsKey, usize)> = None;
        let mut consider = |key: PostingsKey, len: usize| {
            if best.as_ref().is_none_or(|(_, b)| len < *b) {
                best = Some((key, len));
            }
        };
        if let Some(m) = filter.required_module() {
            if let Some(ids) = self.store.module_postings(m) {
                consider(PostingsKey::Module(m.to_string()), ids.len());
            }
        }
        let kind_key = filter.required_kind().or(class.single_kind_name());
        if let Some(k) = kind_key {
            if let Some(ids) = self.store.kind_postings(k) {
                consider(PostingsKey::Kind(k.to_string()), ids.len());
            }
        }
        if filter.requires_token() {
            if let (Some(base), Some(inputs)) = (
                self.store.kind_postings("base_tuple"),
                self.store.kind_postings("workflow_input"),
            ) {
                // Disjoint kinds: the union's size is the sum.
                consider(PostingsKey::TokenKinds, base.len() + inputs.len());
            }
        }
        if let Some(pattern) = filter.module_like_pattern() {
            let mut modules: Vec<String> = self
                .store
                .invocations()
                .iter()
                .filter(|info| crate::ast::like_match(pattern, &info.module))
                .map(|info| info.module.clone())
                .collect();
            modules.sort();
            modules.dedup();
            let lens: Option<usize> = modules
                .iter()
                .map(|m| self.store.module_postings(m).map(|ids| ids.len()))
                .sum();
            if let Some(len) = lens {
                consider(
                    PostingsKey::ModuleLike {
                        pattern: pattern.to_string(),
                        modules,
                    },
                    len,
                );
            }
        }
        match best {
            // The per-list sums above are cheap *comparison* costs; the
            // number the plan reports ("reads X of Y records") is
            // recomputed from the chosen key as the deduplicated union
            // the executor will actually materialize, so the estimate
            // and `EXPLAIN ANALYZE` actuals are comparable.
            Some((key, _)) => {
                let postings = self.chosen_postings_len(&key);
                ScanStrategy::PostingsScan {
                    key,
                    postings,
                    total_records: self.total_records,
                }
            }
            None => ScanStrategy::PagedFullScan {
                total_records: self.total_records,
            },
        }
    }

    /// Exactly how many candidate records the executor faults for a
    /// chosen postings key — mirrors the union + dedup in
    /// `crate::paged::run_set`.
    fn chosen_postings_len(&self, key: &PostingsKey) -> usize {
        let ids = match key {
            PostingsKey::Module(m) => self.store.module_postings(m),
            PostingsKey::Kind(k) => self.store.kind_postings(k),
            PostingsKey::TokenKinds => {
                let mut ids = self.store.kind_postings("base_tuple").unwrap_or_default();
                ids.extend(
                    self.store
                        .kind_postings("workflow_input")
                        .unwrap_or_default(),
                );
                ids.sort_unstable();
                ids.dedup();
                Some(ids)
            }
            PostingsKey::ModuleLike { modules, .. } => {
                let mut ids: Vec<NodeId> = modules
                    .iter()
                    .flat_map(|m| self.store.module_postings(m).unwrap_or_default())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                Some(ids)
            }
        };
        ids.map_or(0, |ids| ids.len())
    }
}
