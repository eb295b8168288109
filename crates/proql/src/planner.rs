//! The cost-aware planner: typed AST → physical plan.
//!
//! One planner serves every [`GraphStore`]: it chooses from what the
//! store *offers* — postings lists, a reach index — never from which
//! backend it is. Three decisions are made here rather than in the
//! executor:
//!
//! 1. **Scan strategy for `MATCH`.** Every store keeps module and kind
//!    postings, so a `module = '…'` or `kind = '…'` conjunct, a
//!    single-kind node class, a token-demanding predicate or a
//!    `module LIKE '…'` pattern turns the scan into a read of the
//!    smallest applicable list, whose size — known before any record is
//!    touched — is what `EXPLAIN` reports as records read. Only a scan
//!    no list narrows sweeps every visible node. Predicates always ride
//!    inside the chosen scan (pushdown), never as a post-filter.
//! 2. **Traversal strategy for walks and `DEPENDS`.** With a
//!    [`ReachIndex`](lipstick_core::query::ReachIndex) present,
//!    unbounded walks in *either* direction become closure lookups (the
//!    index is bidirectional, so `ANCESTORS OF` costs the same as
//!    `DESCENDANTS OF` — and the estimate is the exact cone size read
//!    off the index), `WHY` plans carry the ancestor-cone bound of the
//!    circuit pass they are about to run, and dependency tests get a
//!    binary-search unreachability prefilter before falling back to deletion
//!    propagation.
//! 3. **Zoom fusion.** Consecutive `ZOOM OUT` (or `ZOOM IN TO`)
//!    statements fuse into one atomic multi-module operation, so a
//!    script that zooms module-by-module pays one graph sweep instead
//!    of one per statement.

use lipstick_core::query::ReachIndex;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind};

use crate::ast::{NodeClass, NodeRef, Predicate, SetExpr, SetTerm, Statement, WalkDir};
use crate::error::{ProqlError, Result};
use crate::plan::{DependsStrategy, PostingsKey, ScanStrategy, SetPlan, StmtPlan, WalkStrategy};

/// Plans statements against a store snapshot.
pub struct Planner<'a, S: GraphStore + ?Sized> {
    store: &'a S,
    reach: Option<&'a ReachIndex>,
    /// Visible node count, the full-scan cost unit: every store answers
    /// it without a sweep, so planner set-up is O(1) in the graph.
    visible: usize,
}

impl<'a, S: GraphStore + ?Sized> Planner<'a, S> {
    pub fn new(store: &'a S, reach: Option<&'a ReachIndex>) -> Planner<'a, S> {
        let visible = store.visible_count();
        debug_assert_eq!(
            visible,
            (0..store.node_count() as u32)
                .filter(|&i| store.is_visible(NodeId(i)))
                .count(),
            "the store's visible count drifted from its visibility index"
        );
        Planner {
            store,
            reach,
            visible,
        }
    }

    /// Resolve a node reference. A token resolves to the lowest-id
    /// visible node carrying it, found among the token-bearing kinds'
    /// postings — a paged store faults only those records.
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
                let carries = |id: &NodeId| match &*self.store.kind_of(*id) {
                    NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token } => {
                        token.as_str() == t
                    }
                    _ => false,
                };
                PostingsKey::TokenKinds
                    .candidates(self.store)
                    .iter()
                    .copied()
                    .find(carries)
                    .ok_or_else(|| ProqlError::UnknownNode(r.to_string()))
            }
        }
    }

    pub fn plan(&self, stmt: &Statement) -> Result<StmtPlan> {
        Ok(match stmt {
            Statement::Query(q) => {
                crate::shape::validate(&q.shaping)?;
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
                // `EXPLAIN ANALYZE` executes its inner statement, so a
                // mutating inner is rejected at plan time.
                if !inner.is_read_only() {
                    return Err(ProqlError::ReadOnly(format!("EXPLAIN ANALYZE {inner}")));
                }
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
            SetTerm::Match { class, filter } => SetPlan::Scan {
                class: *class,
                filter: filter.clone(),
                strategy: self.scan_strategy(*class, filter),
                limit: None,
            },
            SetTerm::Paren(inner) => self.plan_set(inner)?,
        })
    }

    /// The smallest applicable postings list, or a full scan when no
    /// list narrows the scan.
    fn scan_strategy(&self, class: NodeClass, filter: &Predicate) -> ScanStrategy {
        let Some(key) = self.smallest_postings(class, filter) else {
            return ScanStrategy::FullScan {
                est_visited: self.visible,
            };
        };
        // The per-list sizes compared below are cheap *comparison*
        // costs; the numbers the plan reports ("visits X, reads R of Y
        // records") are the deduplicated union the executor will
        // actually materialize and, of those, the records it may
        // decode, so the estimate and `EXPLAIN ANALYZE` actuals are
        // comparable.
        let postings = key.candidates(self.store).len();
        let decodes = key.class_to_check(class) != NodeClass::All
            || filter.conjuncts.iter().any(|c| c.field.in_record());
        ScanStrategy::PostingsScan {
            reads: if decodes { postings } else { 0 },
            postings,
            key,
            total_records: self.store.node_count(),
        }
    }

    /// Which postings key narrows this scan the most. Beyond the
    /// module/kind equality postings, a token-demanding predicate
    /// (`token LIKE 'C%'`) narrows to the union of the two
    /// token-bearing kind postings, and `module LIKE '…'` resolves the
    /// pattern against the resident invocation table and unions the
    /// matching modules' postings.
    fn smallest_postings(&self, class: NodeClass, filter: &Predicate) -> Option<PostingsKey> {
        let mut best: Option<(PostingsKey, usize)> = None;
        let mut consider = |key: PostingsKey, len: usize| {
            if best.as_ref().is_none_or(|(_, b)| len < *b) {
                best = Some((key, len));
            }
        };
        if let Some(m) = filter.required_module() {
            let len = self.store.module_postings(m).len();
            consider(PostingsKey::Module(m.to_string()), len);
        }
        if let Some(k) = filter.required_kind().or(class.single_kind_name()) {
            consider(
                PostingsKey::Kind(k.to_string()),
                self.store.kind_postings(k).len(),
            );
        }
        if filter.requires_token() {
            // Disjoint kinds: the union's size is the sum.
            let len = self.store.kind_postings("base_tuple").len()
                + self.store.kind_postings("workflow_input").len();
            consider(PostingsKey::TokenKinds, len);
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
            let len = modules
                .iter()
                .map(|m| self.store.module_postings(m).len())
                .sum();
            consider(
                PostingsKey::ModuleLike {
                    pattern: pattern.to_string(),
                    modules,
                },
                len,
            );
        }
        best.map(|(key, _)| key)
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
