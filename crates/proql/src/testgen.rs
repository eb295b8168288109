//! Test support: a deterministic generator (and shrinker) of random,
//! well-formed, **read-only** ProQL statements over a given graph's
//! vocabulary.
//!
//! Lives in the library (not `#[cfg(test)]`) so integration tests — in
//! particular the resident/paged/server differential harness in
//! `tests/differential.rs` — and downstream crates can drive it. The
//! generator only produces statements the parser accepts and the
//! canonical [`Display`](crate::ast::Statement) round-trips, which is
//! itself property-tested in `tests/integration.rs`.

use lipstick_core::{NodeKind, ProvGraph};

use crate::ast::{
    Aggregate, CmpOp, Comparison, Field, Lit, NodeClass, NodeRef, OrderBy, Predicate, Query,
    SemiringName, SetExpr, SetTerm, Shaping, SortKey, Statement, WalkDir,
};

/// Deterministic splitmix64 generator — self-contained so the library
/// does not depend on any proptest machinery.
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() as usize) % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// What a graph offers the generator: its visible node ids, base
/// tokens, and module names.
#[derive(Debug, Clone)]
pub struct Vocab {
    pub node_ids: Vec<u32>,
    pub tokens: Vec<String>,
    pub modules: Vec<String>,
}

/// Every kind name a node can have (for `kind = …` comparisons).
const KIND_NAMES: &[&str] = &[
    "base_tuple",
    "workflow_input",
    "plus",
    "times",
    "delta",
    "invocation",
    "module_input",
    "module_output",
    "state",
];

impl Vocab {
    pub fn from_graph(graph: &ProvGraph) -> Vocab {
        let mut node_ids = Vec::new();
        let mut tokens = Vec::new();
        for (id, node) in graph.iter_visible() {
            node_ids.push(id.0);
            match &node.kind {
                NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token } => {
                    tokens.push(token.as_str().to_string());
                }
                _ => {}
            }
        }
        let mut modules: Vec<String> = graph
            .invocations()
            .iter()
            .map(|info| info.module.clone())
            .collect();
        modules.sort();
        modules.dedup();
        Vocab {
            node_ids,
            tokens,
            modules,
        }
    }
}

/// One random **mutating** statement: deletion propagation, zooms (out
/// and back in), `BUILD INDEX` and `DROP INDEX`. Interleaved between
/// read-only statements by the differential harness so resident, paged,
/// and server backends are compared *under incremental index
/// maintenance*, not just on read-only workloads. Some references
/// dangle and some zooms target already-zoomed (or never-zoomed)
/// modules on purpose: failed mutations must also fail identically
/// everywhere.
pub fn mutation(v: &Vocab, rng: &mut Rng) -> Statement {
    match rng.below(100) {
        0..=39 => Statement::DeletePropagate(node_ref(v, rng)),
        40..=59 if !v.modules.is_empty() => Statement::ZoomOut(vec![rng.pick(&v.modules).clone()]),
        60..=79 if !v.modules.is_empty() => Statement::ZoomIn(if rng.chance(50) {
            None
        } else {
            Some(vec![rng.pick(&v.modules).clone()])
        }),
        90..=99 => Statement::DropIndex,
        _ => Statement::BuildIndex,
    }
}

/// A deterministic mutation script of `len` statements — the shared
/// workload hook the fault-injection harness replays at every injected
/// failure point (same seed → same script, so op-by-op enumeration
/// stays reproducible). Unlike [`mutation`], every statement is
/// *well-formed against the vocabulary* in isolation; whether it
/// succeeds still depends on session state (a `ZOOM IN` of a module
/// that is not zoomed out fails cleanly), which is exactly the mix of
/// acked and erroring mutations the harness wants.
pub fn mutation_script(v: &Vocab, rng: &mut Rng, len: usize) -> Vec<Statement> {
    (0..len).map(|_| mutation(v, rng)).collect()
}

/// One random read-only statement: mostly shaped node-set queries,
/// with `WHY`/`DEPENDS`/`EVAL` mixed in. A few percent of node
/// references are deliberately dangling so the error paths are
/// differentially tested too.
pub fn statement(v: &Vocab, rng: &mut Rng) -> Statement {
    match rng.below(100) {
        0..=69 => Statement::Query(query(v, rng)),
        70..=79 => Statement::Why(node_ref(v, rng)),
        80..=89 => Statement::Depends(node_ref(v, rng), node_ref(v, rng)),
        _ => Statement::Eval(
            node_ref(v, rng),
            *rng.pick(&[
                SemiringName::Counting,
                SemiringName::Boolean,
                SemiringName::Tropical,
                SemiringName::Lineage,
                SemiringName::Why,
            ]),
        ),
    }
}

fn query(v: &Vocab, rng: &mut Rng) -> Query {
    let expr = set_expr(v, rng, 2);
    let shaping = if rng.chance(15) {
        Shaping {
            agg: Some(if rng.chance(50) {
                Aggregate::CountStar
            } else {
                Aggregate::CountDistinct(field(rng))
            }),
            ..Shaping::default()
        }
    } else {
        let group_by = rng.chance(30).then(|| field(rng));
        let order_by = if rng.chance(40) {
            let key = match group_by {
                // A grouped table orders by its own columns only.
                Some(g) => {
                    if rng.chance(60) {
                        SortKey::Count
                    } else {
                        SortKey::Field(g)
                    }
                }
                None => {
                    if rng.chance(30) {
                        SortKey::Id
                    } else {
                        SortKey::Field(field(rng))
                    }
                }
            };
            Some(OrderBy {
                key,
                desc: rng.chance(50),
            })
        } else {
            None
        };
        Shaping {
            agg: None,
            group_by,
            order_by,
            limit: rng.chance(40).then(|| rng.below(13) as u64), // 0 included
        }
    };
    Query { expr, shaping }
}

fn set_expr(v: &Vocab, rng: &mut Rng, depth: usize) -> SetExpr {
    if depth > 0 && rng.chance(25) {
        let lhs = set_expr(v, rng, depth - 1);
        let rhs = SetExpr::Term(set_term(v, rng, depth - 1));
        if rng.chance(50) {
            SetExpr::Union(Box::new(lhs), Box::new(rhs))
        } else {
            SetExpr::Intersect(Box::new(lhs), Box::new(rhs))
        }
    } else {
        SetExpr::Term(set_term(v, rng, depth))
    }
}

fn set_term(v: &Vocab, rng: &mut Rng, depth: usize) -> SetTerm {
    match rng.below(100) {
        0..=54 => SetTerm::Match {
            class: *rng.pick(&[
                NodeClass::All,
                NodeClass::Invocation,
                NodeClass::ModuleInput,
                NodeClass::ModuleOutput,
                NodeClass::Base,
                NodeClass::PNodes,
                NodeClass::VNodes,
            ]),
            filter: predicate(v, rng),
        },
        55..=84 => SetTerm::Walk {
            dir: if rng.chance(50) {
                WalkDir::Ancestors
            } else {
                WalkDir::Descendants
            },
            root: node_ref(v, rng),
            depth: rng.chance(50).then(|| rng.below(5) as u32),
            filter: predicate(v, rng),
        },
        85..=94 => SetTerm::Subgraph(node_ref(v, rng)),
        _ if depth > 0 => SetTerm::Paren(Box::new(set_expr(v, rng, depth - 1))),
        _ => SetTerm::Subgraph(node_ref(v, rng)),
    }
}

fn field(rng: &mut Rng) -> Field {
    *rng.pick(&[
        Field::Module,
        Field::Kind,
        Field::Role,
        Field::Execution,
        Field::Token,
    ])
}

fn predicate(v: &Vocab, rng: &mut Rng) -> Predicate {
    let n = match rng.below(100) {
        0..=39 => 0,
        40..=79 => 1,
        _ => 2,
    };
    Predicate {
        conjuncts: (0..n).map(|_| comparison(v, rng)).collect(),
    }
}

fn comparison(v: &Vocab, rng: &mut Rng) -> Comparison {
    let field = field(rng);
    let like = rng.chance(30);
    let op = if like {
        if rng.chance(75) {
            CmpOp::Like
        } else {
            CmpOp::NotLike
        }
    } else {
        *rng.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ])
    };
    let value = if like {
        Lit::Str(pattern(v, rng, field))
    } else {
        literal(v, rng, field)
    };
    Comparison { field, op, value }
}

/// A `%`/`_` pattern derived from a real value of the field (so some
/// patterns match) or junk (so some don't).
fn pattern(v: &Vocab, rng: &mut Rng, field: Field) -> String {
    let source = match field {
        Field::Module if !v.modules.is_empty() => rng.pick(&v.modules).clone(),
        Field::Token if !v.tokens.is_empty() => rng.pick(&v.tokens).clone(),
        Field::Kind => (*rng.pick(KIND_NAMES)).to_string(),
        _ => "nothing".to_string(),
    };
    let chars: Vec<char> = source.chars().collect();
    match rng.below(4) {
        0 => {
            // Prefix pattern — the planner's narrowing opportunity.
            let keep = rng.below(chars.len() + 1);
            let prefix: String = chars[..keep].iter().collect();
            format!("{prefix}%")
        }
        1 => {
            let keep = rng.below(chars.len() + 1);
            let suffix: String = chars[chars.len() - keep..].iter().collect();
            format!("%{suffix}")
        }
        2 if !chars.is_empty() => {
            // Replace one character with `_`.
            let at = rng.below(chars.len());
            chars
                .iter()
                .enumerate()
                .map(|(i, c)| if i == at { '_' } else { *c })
                .collect()
        }
        _ => source,
    }
}

fn literal(v: &Vocab, rng: &mut Rng, field: Field) -> Lit {
    // Occasionally a type-mismatched or junk literal, to cover the
    // `=`-fails / `!=`-holds semantics.
    if rng.chance(10) {
        return if rng.chance(50) {
            Lit::Int(rng.below(5) as u64)
        } else {
            Lit::Str("no-such-value".into())
        };
    }
    match field {
        Field::Module if !v.modules.is_empty() => Lit::Str(rng.pick(&v.modules).clone()),
        Field::Token if !v.tokens.is_empty() => Lit::Str(rng.pick(&v.tokens).clone()),
        Field::Kind => Lit::Str((*rng.pick(KIND_NAMES)).to_string()),
        Field::Role => Lit::Str(
            (*rng.pick(&[
                "free",
                "intermediate",
                "state",
                "invocation",
                "module_input",
                "module_output",
            ]))
            .to_string(),
        ),
        Field::Execution => Lit::Int(rng.below(4) as u64),
        _ => Lit::Int(rng.below(4) as u64),
    }
}

fn node_ref(v: &Vocab, rng: &mut Rng) -> NodeRef {
    if rng.chance(5) {
        // Dangling on purpose: both backends must report the same
        // resolution error.
        return NodeRef::Id(1_000_000 + rng.below(1000) as u32);
    }
    if !v.tokens.is_empty() && rng.chance(25) {
        NodeRef::Token(rng.pick(&v.tokens).clone())
    } else if v.node_ids.is_empty() {
        NodeRef::Id(0)
    } else {
        NodeRef::Id(*rng.pick(&v.node_ids))
    }
}

/// Structurally simpler variants of a statement, for shrinking a
/// failing differential case: each candidate removes one clause,
/// conjunct, operand, or wrapper. The harness keeps re-shrinking while
/// any candidate still fails, ending at a minimal failing statement.
pub fn shrink(stmt: &Statement) -> Vec<Statement> {
    match stmt {
        Statement::Query(q) => {
            let mut out = Vec::new();
            let s = &q.shaping;
            if s.limit.is_some() {
                let mut t = q.clone();
                t.shaping.limit = None;
                out.push(Statement::Query(t));
            }
            if s.order_by.is_some() {
                let mut t = q.clone();
                t.shaping.order_by = None;
                out.push(Statement::Query(t));
            }
            if s.group_by.is_some() {
                let mut t = q.clone();
                t.shaping.group_by = None;
                t.shaping.order_by = match t.shaping.order_by {
                    // An order key naming the dropped group column
                    // would no longer validate; drop it too.
                    Some(OrderBy {
                        key: SortKey::Count | SortKey::Field(_),
                        ..
                    })
                    | None => None,
                    keep => keep,
                };
                out.push(Statement::Query(t));
            }
            if s.agg.is_some() {
                let mut t = q.clone();
                t.shaping.agg = None;
                out.push(Statement::Query(t));
            }
            for expr in shrink_set(&q.expr) {
                out.push(Statement::Query(Query {
                    expr,
                    shaping: q.shaping.clone(),
                }));
            }
            out
        }
        _ => Vec::new(),
    }
}

fn shrink_set(e: &SetExpr) -> Vec<SetExpr> {
    match e {
        SetExpr::Term(t) => shrink_term(t).into_iter().map(SetExpr::Term).collect(),
        SetExpr::Union(a, b) | SetExpr::Intersect(a, b) => {
            let mut out = vec![(**a).clone(), (**b).clone()];
            for sa in shrink_set(a) {
                out.push(match e {
                    SetExpr::Union(_, _) => SetExpr::Union(Box::new(sa), b.clone()),
                    _ => SetExpr::Intersect(Box::new(sa), b.clone()),
                });
            }
            for sb in shrink_set(b) {
                out.push(match e {
                    SetExpr::Union(_, _) => SetExpr::Union(a.clone(), Box::new(sb)),
                    _ => SetExpr::Intersect(a.clone(), Box::new(sb)),
                });
            }
            out
        }
    }
}

fn shrink_term(t: &SetTerm) -> Vec<SetTerm> {
    match t {
        SetTerm::Match { class, filter } => shrink_predicate(filter)
            .into_iter()
            .map(|f| SetTerm::Match {
                class: *class,
                filter: f,
            })
            .collect(),
        SetTerm::Walk {
            dir,
            root,
            depth,
            filter,
        } => {
            let mut out = Vec::new();
            if depth.is_some() {
                out.push(SetTerm::Walk {
                    dir: *dir,
                    root: root.clone(),
                    depth: None,
                    filter: filter.clone(),
                });
            }
            for f in shrink_predicate(filter) {
                out.push(SetTerm::Walk {
                    dir: *dir,
                    root: root.clone(),
                    depth: *depth,
                    filter: f,
                });
            }
            out
        }
        SetTerm::Subgraph(_) => Vec::new(),
        SetTerm::Paren(inner) => {
            let mut out = Vec::new();
            if let SetExpr::Term(t) = &**inner {
                out.push(t.clone());
            }
            out.extend(
                shrink_set(inner)
                    .into_iter()
                    .map(|e| SetTerm::Paren(Box::new(e))),
            );
            out
        }
    }
}

fn shrink_predicate(p: &Predicate) -> Vec<Predicate> {
    (0..p.conjuncts.len())
        .map(|drop| Predicate {
            conjuncts: p
                .conjuncts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, c)| c.clone())
                .collect(),
        })
        .collect()
}
