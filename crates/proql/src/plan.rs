//! Physical plans.
//!
//! The [`crate::planner`] lowers parsed statements into these plans,
//! making every strategy choice explicit — which is what `EXPLAIN`
//! prints. Estimates (`est_*`) are in "nodes visited", the unit the
//! executor also reports back, so planner predictions can be checked
//! against observed work in tests.

use std::borrow::Cow;
use std::fmt;

use lipstick_core::store::GraphStore;
use lipstick_core::NodeId;

use crate::ast::{NodeClass, Predicate, SemiringName, Shaping, WalkDir};

/// How a bounded/unbounded traversal runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkStrategy {
    /// Breadth-first sweep over adjacency lists, with any filter pushed
    /// into the traversal's collect step.
    Bfs { est_visited: usize },
    /// Lookup in the precomputed bidirectional closure
    /// ([`lipstick_core::query::ReachIndex`]); serves both walk
    /// directions. `est_visited` is the exact cone size read off the
    /// index at plan time, so the estimate matches observed work.
    ReachIndex { est_visited: usize },
}

/// Which postings list(s) drive a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostingsKey {
    /// `module = '…'` equality conjunct → the module's owned nodes.
    Module(String),
    /// Node class or `kind = '…'` conjunct → nodes of one kind.
    Kind(String),
    /// A predicate that only token-bearing nodes can satisfy (`token
    /// LIKE 'C%'`, `token = '…'`, ordered token comparisons) → the
    /// union of the `base_tuple` and `workflow_input` kind postings.
    TokenKinds,
    /// `module LIKE '…'` → the union of the postings of every module
    /// (resolved against the resident invocation table) matching the
    /// pattern.
    ModuleLike {
        pattern: String,
        modules: Vec<String>,
    },
}

impl PostingsKey {
    /// The class a scan of this list still tests per candidate: none
    /// ([`NodeClass::All`]) when the list is the class's own kind.
    pub(crate) fn class_to_check(&self, class: NodeClass) -> NodeClass {
        match self {
            PostingsKey::Kind(k) if class.single_kind_name() == Some(k.as_str()) => NodeClass::All,
            _ => class,
        }
    }

    /// The ascending, deduplicated candidate ids this key selects —
    /// exactly the records a postings scan examines. A single list is
    /// lent as the store lends it; only a union is assembled.
    pub(crate) fn candidates<'s, S: GraphStore + ?Sized>(&self, store: &'s S) -> Cow<'s, [NodeId]> {
        let union = |lists: Vec<Cow<'s, [NodeId]>>| {
            let mut ids: Vec<NodeId> = lists.concat();
            ids.sort_unstable();
            ids.dedup();
            Cow::Owned(ids)
        };
        match self {
            PostingsKey::Module(m) => store.module_postings(m),
            PostingsKey::Kind(k) => store.kind_postings(k),
            PostingsKey::TokenKinds => union(vec![
                store.kind_postings("base_tuple"),
                store.kind_postings("workflow_input"),
            ]),
            PostingsKey::ModuleLike { modules, .. } => {
                union(modules.iter().map(|m| store.module_postings(m)).collect())
            }
        }
    }
}

impl fmt::Display for PostingsKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PostingsKey::Module(m) => write!(f, "module '{m}'"),
            PostingsKey::Kind(k) => write!(f, "kind '{k}'"),
            PostingsKey::TokenKinds => f.write_str("token-bearing kinds"),
            PostingsKey::ModuleLike { pattern, modules } => {
                write!(f, "modules LIKE '{pattern}' ({} module(s))", modules.len())
            }
        }
    }
}

/// How a `MATCH` selects candidate nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanStrategy {
    /// Examine every visible node.
    FullScan { est_visited: usize },
    /// Visit only the nodes listed in the store's postings: `postings`
    /// candidates, of which the scan decodes at most `reads` records
    /// (of `total_records`) — none when the list and the candidates'
    /// roles decide everything, every candidate otherwise.
    PostingsScan {
        key: PostingsKey,
        postings: usize,
        reads: usize,
        total_records: usize,
    },
}

/// A plan producing a sorted node set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetPlan {
    Scan {
        class: NodeClass,
        filter: Predicate,
        strategy: ScanStrategy,
        /// Stop after collecting this many matches — sound because
        /// every scan streams its candidates in id order (see
        /// [`SetPlan::push_limit`]); the shaping stage re-truncates.
        limit: Option<u64>,
    },
    Walk {
        root: NodeId,
        dir: WalkDir,
        depth: Option<u32>,
        filter: Predicate,
        strategy: WalkStrategy,
    },
    Subgraph {
        root: NodeId,
    },
    Union(Box<SetPlan>, Box<SetPlan>),
    Intersect(Box<SetPlan>, Box<SetPlan>),
}

impl SetPlan {
    /// The operands of the outermost run of one set operator, in source
    /// order: `((a UNION b) UNION c)` yields `[a, b, c]`. Operands of a
    /// *different* operator stay whole (they are one branch). The
    /// executor runs them left to right, one `branch i` span each.
    pub fn branches(&self) -> Vec<&SetPlan> {
        fn walk<'a>(plan: &'a SetPlan, union: bool, out: &mut Vec<&'a SetPlan>) {
            match plan {
                SetPlan::Union(a, b) if union => {
                    walk(a, union, out);
                    walk(b, union, out);
                }
                SetPlan::Intersect(a, b) if !union => {
                    walk(a, union, out);
                    walk(b, union, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        match self {
            SetPlan::Union(..) => walk(self, true, &mut out),
            SetPlan::Intersect(..) => walk(self, false, &mut out),
            other => out.push(other),
        }
        out
    }
    /// Plant an early-exit limit where it is sound: scans produce
    /// their matches ascending, so the first `n` matches *are* the
    /// query's first `n` rows; a union's first `n` members all sit
    /// within the first `n` of its operands. No hint goes where it
    /// would be unsound — intersections (a member may pair with an
    /// arbitrarily deep counterpart), walks, and subgraphs (BFS
    /// discovery order is not id order) rely on the shaping stage's
    /// truncation instead, and their `EXPLAIN` output shows no
    /// early-exit marker.
    pub fn push_limit(&mut self, n: u64) {
        match self {
            SetPlan::Scan { limit, .. } => *limit = Some(n),
            SetPlan::Union(a, b) => {
                a.push_limit(n);
                b.push_limit(n);
            }
            SetPlan::Walk { .. } | SetPlan::Subgraph { .. } | SetPlan::Intersect(..) => {}
        }
    }
}

/// How a `DEPENDS` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependsStrategy {
    /// Full §4.2 deletion propagation on a scratch copy.
    Propagation,
    /// Consult the reachability closure first: if `n` is not a
    /// descendant of `n'`, deleting `n'` cannot touch it — answer
    /// `false` in O(1). The bidirectional index answers the same bit
    /// from either side (`n ∈ desc(n')` ⇔ `n' ∈ anc(n)`), so the test
    /// costs one word probe whichever closure is consulted. Fall back
    /// to propagation only on reachable pairs.
    ReachPrefilter,
}

/// A fully planned statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtPlan {
    /// A node-set query plus the shaping (aggregate / group / order /
    /// limit) applied to the produced set.
    Set {
        plan: SetPlan,
        shaping: Shaping,
    },
    /// `est_cone` is the ancestor-cone size read off the reach index at
    /// plan time (`None` without an index): each circuit pass behind
    /// `WHY` walks exactly the root's visible ancestors, so the index
    /// bounds the work before execution.
    Why {
        n: NodeId,
        est_cone: Option<usize>,
    },
    Depends {
        n: NodeId,
        n_prime: NodeId,
        strategy: DependsStrategy,
    },
    Delete(NodeId),
    /// Possibly several source-level `ZOOM OUT` statements fused into
    /// one atomic multi-module ZoomOut.
    ZoomOut {
        modules: Vec<String>,
        fused_from: usize,
    },
    /// `None` = every currently zoomed module (resolved at execution).
    ZoomIn {
        modules: Option<Vec<String>>,
        fused_from: usize,
    },
    Eval(NodeId, SemiringName),
    BuildIndex,
    DropIndex,
    /// `COMPACT` — merge the append backend's tail segment into a
    /// fresh sealed base segment (a no-op elsewhere).
    Compact,
    Stats,
    Explain(Box<StmtPlan>),
    /// Execute the inner plan under a span tracer and render the plan
    /// annotated with per-operator actuals.
    ExplainAnalyze(Box<StmtPlan>),
    /// `CHECK stmt` — run the static analyzer over the captured source
    /// text. The statement under analysis is never planned here: it may
    /// not even parse, and planning it would leak backend-specific
    /// strategies into output that must stay byte-identical everywhere.
    Check {
        source: String,
    },
    /// `EXPLAIN LINT stmt` — same analysis, `EXPLAIN`-family spelling.
    ExplainLint {
        source: String,
    },
}

impl fmt::Display for SetPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

impl SetPlan {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            SetPlan::Scan {
                class,
                filter,
                strategy,
                limit,
            } => {
                write!(f, "{pad}scan {}", class.name())?;
                if !filter.is_empty() {
                    write!(f, " where {filter}")?;
                }
                if let Some(n) = limit {
                    write!(f, " [early-exit after {n} match(es)]")?;
                }
                match strategy {
                    ScanStrategy::FullScan { est_visited } => {
                        write!(f, " [full scan, est visited {est_visited}]")
                    }
                    ScanStrategy::PostingsScan {
                        key,
                        postings,
                        reads,
                        total_records,
                    } => write!(
                        f,
                        " [postings scan on {key}, visits {postings}, \
                         reads {reads} of {total_records} records]"
                    ),
                }
            }
            SetPlan::Walk {
                root,
                dir,
                depth,
                filter,
                strategy,
            } => {
                let what = match dir {
                    WalkDir::Ancestors => "ancestors",
                    WalkDir::Descendants => "descendants",
                };
                write!(f, "{pad}walk {what} of {root}")?;
                match depth {
                    Some(d) => write!(f, " depth {d}")?,
                    None => write!(f, " depth unbounded")?,
                }
                if !filter.is_empty() {
                    write!(f, " where {filter} [filter pushed into traversal]")?;
                }
                match strategy {
                    WalkStrategy::Bfs { est_visited } => {
                        write!(f, " [bfs, est visited {est_visited}]")
                    }
                    WalkStrategy::ReachIndex { est_visited } => {
                        let closure = match dir {
                            WalkDir::Ancestors => "ancestor",
                            WalkDir::Descendants => "descendant",
                        };
                        write!(
                            f,
                            " [reach-index lookup, {closure} closure, cone {est_visited} node(s)]"
                        )
                    }
                }
            }
            SetPlan::Subgraph { root } => write!(f, "{pad}subgraph of {root}"),
            SetPlan::Union(a, b) => {
                writeln!(f, "{pad}union")?;
                a.fmt_indented(f, indent + 1)?;
                writeln!(f)?;
                b.fmt_indented(f, indent + 1)
            }
            SetPlan::Intersect(a, b) => {
                writeln!(f, "{pad}intersect")?;
                a.fmt_indented(f, indent + 1)?;
                writeln!(f)?;
                b.fmt_indented(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for StmtPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmtPlan::Set { plan, shaping } => {
                write!(f, "{plan}")?;
                if !shaping.is_plain() {
                    // One backend-independent line: every store's plan
                    // describes the same shape.
                    write!(f, "\n  shape: {}", shaping.describe())?;
                }
                Ok(())
            }
            StmtPlan::Why { n, est_cone } => {
                write!(f, "why {n} [circuit pass over the visible cone")?;
                if let Some(k) = est_cone {
                    write!(f, ", ancestor cone {k} node(s) via reach index")?;
                }
                f.write_str("]")
            }
            StmtPlan::Depends {
                n,
                n_prime,
                strategy,
            } => match strategy {
                DependsStrategy::Propagation => write!(
                    f,
                    "depends({n}, {n_prime}) [deletion propagation on scratch copy]"
                ),
                DependsStrategy::ReachPrefilter => write!(
                    f,
                    "depends({n}, {n_prime}) [reach-index prefilter, propagation only if \
                     reachable]"
                ),
            },
            StmtPlan::Delete(n) => write!(f, "delete {n} propagate [in-place §4.2 deletion]"),
            StmtPlan::ZoomOut {
                modules,
                fused_from,
            } => {
                write!(f, "zoom out to {}", modules.join(", "))?;
                if *fused_from > 1 {
                    write!(f, " [fused from {fused_from} statements]")?;
                }
                Ok(())
            }
            StmtPlan::ZoomIn {
                modules,
                fused_from,
            } => {
                match modules {
                    Some(ms) => write!(f, "zoom in to {}", ms.join(", "))?,
                    None => write!(f, "zoom in to all zoomed modules")?,
                }
                if *fused_from > 1 {
                    write!(f, " [fused from {fused_from} statements]")?;
                }
                Ok(())
            }
            StmtPlan::Eval(n, s) => write!(f, "eval {n} in {} semiring", s.name()),
            StmtPlan::BuildIndex => write!(
                f,
                "build reach index [bidirectional closure, incrementally maintained]"
            ),
            StmtPlan::DropIndex => write!(f, "drop reach index"),
            StmtPlan::Compact => {
                write!(f, "compact [merge tail segment into a fresh sealed base]")
            }
            StmtPlan::Stats => write!(f, "graph statistics"),
            StmtPlan::Explain(inner) => write!(f, "explain\n  {inner}"),
            StmtPlan::ExplainAnalyze(inner) => write!(f, "explain analyze\n  {inner}"),
            StmtPlan::Check { .. } => {
                write!(f, "check [static analysis only, statement never executes]")
            }
            StmtPlan::ExplainLint { .. } => write!(
                f,
                "explain lint [static analysis only, statement never executes]"
            ),
        }
    }
}
